"""Tests for Specht-module irreducibility and preimages under regularization."""

import inspect

import pytest

import oracles
import selfext
from selfext import (abacus, bijections, certifier, partitions, signatures,
                     specht)
from selfext.abacus import core_and_weight
from selfext.bijections import regularize
from selfext.blocks import BlockId, enumerate_block
from selfext.certifier import certify
from selfext.partitions import (
    MAX_SIZE,
    add_node,
    is_p_regular,
    is_p_restricted,
    partitions_of,
    transpose,
)
from selfext.signatures import remove_normals, signature, signatures
from selfext.specht import (
    _block_index,
    _core_of_counts,
    _irreducible,
    _labels,
    first_specht_witness,
    irreducible_specht_preimage,
    specht_irreducible,
    theorem_b_applicable,
)
from test_certifier import patch_every_binding

VERDICTS_P3 = {
    (4, 1, 1, 1): True,
    (2, 1): False,
    (2, 1, 1): True,
    (8, 3): False,
    (4, 2): True,
    (2, 2): False,
    (4,): True,
    (1, 1, 1, 1): True,
    (3,): True,
    (1, 1, 1): True,
    (5, 1): False,
    (3, 3): False,
    (3, 1, 1): True,
}


def test_frozen_verdicts():
    for la, expected in VERDICTS_P3.items():
        assert bool(specht_irreducible(la, 3)) == expected, la


def test_rejects_p2():
    with pytest.raises(ValueError):
        specht_irreducible((2, 1), 2)


def test_agrees_with_hook_valuation_oracle():
    for p in (3, 5):
        for n in range(13):
            for la in partitions_of(n):
                assert bool(specht_irreducible(la, p)) == oracles.jm_irreducible(la, p)


def test_agrees_with_gram_rank_oracle():
    for n in range(9):
        for la in partitions_of(n):
            if is_p_regular(la, 3):
                assert (bool(specht_irreducible(la, 3))
                        == oracles.gram_irreducible(la, 3))


def test_agrees_with_weight_one_oracle():
    for n in range(13):
        for la in partitions_of(n):
            if core_and_weight(la, 3)[1] <= 1:
                assert (bool(specht_irreducible(la, 3))
                        == oracles.weight_one_verdict(la, 3))


def test_conjugation_symmetry():
    for n in range(15):
        for la in partitions_of(n):
            assert bool(specht_irreducible(la, 3)) == bool(
                specht_irreducible(transpose(la), 3))


def test_weight_zero_base_case():
    res = specht_irreducible((4, 2, 1, 1), 3)  # a 3-core
    assert res.irreducible
    assert res.beads is None
    assert res.regular_runner is None and res.restricted_runner is None


def test_witness_fields_replay():
    for n in range(13):
        for la in partitions_of(n):
            res = specht_irreducible(la, 3)
            if not res or res.beads is None:
                continue
            _, _, comps = oracles.runner_data(la, res.beads, 3)
            j, k = res.regular_runner, res.restricted_runner
            assert all(not comps[l] for l in range(3) if l not in (j, k))
            assert is_p_regular(comps[j], 3)
            assert is_p_restricted(comps[k], 3)
            assert res.sub_regular.partition == comps[j]
            assert res.sub_restricted.partition == comps[k]
            assert res.sub_regular.irreducible and res.sub_restricted.irreducible


def test_preimage_examples():
    assert irreducible_specht_preimage((9, 4, 4, 3, 1, 1), 3) == (9, 4, 2, 2, 1, 1, 1, 1, 1)
    assert irreducible_specht_preimage((5, 1), 3) is None
    assert irreducible_specht_preimage((2, 1), 3) == (1, 1, 1)
    assert irreducible_specht_preimage((3, 3), 3) == (1, 1, 1, 1, 1, 1)
    assert irreducible_specht_preimage((4, 2), 3) == (4, 2)


def test_ladder_preimage_matches_block_scan():
    checked = 0
    for p, nmax in ((3, 16), (5, 15), (7, 14)):
        for n in range(nmax + 1):
            for mu in partitions_of(n):
                if is_p_regular(mu, p):
                    checked += 1
                    assert (sorted(oracles.ladder_preimage(mu, p))
                            == sorted(oracles.block_scan_preimage(mu, p)))
    assert checked == 1393


def test_ladder_preimage_on_a_weight_8_block():
    # one scan of the block serves every 3-regular member at once
    members = enumerate_block(BlockId((), 8, 3))
    scan = {}
    for nu in members:
        scan.setdefault(regularize(nu, 3), []).append(nu)
    regular = [mu for mu in members if is_p_regular(mu, 3)]
    assert len(members) == 810 and sorted(scan) == sorted(regular)
    for mu in regular:
        assert sorted(oracles.ladder_preimage(mu, 3)) == sorted(scan[mu]), mu
        # the classes scan[mu] cover all 810 members
        expected = next((nu for nu in scan[mu] if oracles.jm_irreducible(nu, 3)),
                        None)
        assert irreducible_specht_preimage(mu, 3) == expected, mu
    assert oracles.block_scan_preimage((10, 5, 4, 3, 1, 1), 3) == scan[(10, 5, 4, 3, 1, 1)]


def test_ladder_preimage_has_no_row_limit():
    # 1^1000 has more rows than the default recursion limit allows frames
    assert sorted(oracles.ladder_preimage((500, 500), 3)) == [(1,) * 1000, (500, 500)]


def test_block_index_matches_ladder_classes():
    # the criterion run backwards, one block at a time, against the ladder
    # class of each mu filtered by the criterion run forwards
    checked = found = 0
    for p, nmax in ((3, 22), (5, 18)):
        for n in range(nmax + 1):
            for mu in partitions_of(n):
                if not is_p_regular(mu, p):
                    continue
                expected = next((nu for nu in oracles.ladder_preimage(mu, p)
                                 if specht_irreducible(nu, p)), None)
                assert irreducible_specht_preimage(mu, p) == expected, (mu, p)
                checked += 1
                found += expected is not None
    assert (checked, found) == (2710, 889)


def test_block_index_matches_display_oracle():
    # the runner-bound walk against the criterion checked display by
    # display, on every block the p-regular partitions reach; a block of
    # weight 0 holds only its core, whose Specht module is irreducible.
    # The caches start empty, so each block builds its labels from scratch
    _block_index.cache_clear()
    _labels.cache_clear()
    checked = 0
    for p, nmax in ((3, 22), (5, 16), (7, 15), (11, 13)):
        blocks = {core_and_weight(mu, p) for n in range(nmax + 1)
                  for mu in partitions_of(n) if is_p_regular(mu, p)}
        for core, w in blocks:
            if w:
                expected = oracles.block_index_by_displays(core, w, p)
            else:
                assert oracles.rim_core_and_weight(core, p) == (core, 0)
                assert oracles.jm_irreducible(core, p), (core, p)
                expected = {core: core}
            assert _block_index(core, w, p) == expected, (core, w, p)
        checked += len(blocks)
    assert checked == 937


def test_image_blocks_from_bead_counts(monkeypatch):
    # first_specht_witness reads the block of each e~_i^eps la off la's bead
    # counts; every residue's block is asked for when no preimage is found
    asked = []

    def no_preimage(core, w, p):
        asked.append((core, w))
        return {}

    monkeypatch.setattr(specht, "_block_index", no_preimage)
    checked = 0
    for p in (3, 5, 7):
        for n in range(19):
            for la in partitions_of(n):
                if not is_p_regular(la, p):
                    continue
                reports = signatures(la, p)
                asked.clear()
                assert first_specht_witness(reports, p) is None
                assert asked == [core_and_weight(remove_normals(s, s.epsilon), p)
                                 for s in reports], (la, p)
                checked += len(asked)
    assert checked == 17459


def test_block_index_commutes_with_the_sign_twist():
    # S^{nu'} is the sign twist of the dual of S^nu (James, LNM 682), so
    # transposing carries the irreducible Specht labels of the block
    # (core, w) onto those of (core', w), and their regularizations by
    # the Mullineux map
    checked = 0
    for p, wmax in ((3, 5), (5, 3)):
        cores = [core for n in range(14) for core in partitions_of(n)
                 if abacus.core_weight(core, p)[1] == 0]
        for core in cores:
            for w in range(wmax + 1):
                twisted = {selfext.mullineux(mu, p): transpose(nu)
                           for mu, nu in _block_index(core, w, p).items()}
                assert _block_index(transpose(core), w, p) == twisted, \
                    (core, w, p)
                checked += 1
    assert checked == 388


def test_irreducible_matches_display_oracle():
    # witnesses included: the same first (beads, j, k) and sub-results
    checked = 0
    for p, nmax in ((3, 18), (5, 16), (7, 14)):
        for n in range(nmax + 1):
            for la in partitions_of(n):
                assert (_irreducible(la, p)
                        == oracles.irreducible_by_displays(la, p)), (la, p)
                checked += 1
    assert checked == 3020


def test_irreducible_specht_labels_have_distinct_regularizations():
    # the fact that lets _block_index key each irreducible Specht label by
    # its regularization: for p > 2 no two irreducible S^nu share nu^R
    seen = {}
    for p, nmax in ((3, 16), (5, 15), (7, 14)):
        for n in range(nmax + 1):
            for nu in partitions_of(n):
                if oracles.jm_irreducible(nu, p):
                    key = (regularize(nu, p), p)
                    assert key not in seen, (nu, seen.get(key))
                    seen[key] = nu
    assert len(seen) == 713


def test_specht_cache_is_bounded():
    assert _irreducible.cache_info().maxsize == 65536


def test_preimage_matches_block_scan_and_hook_oracle():
    # mu first, then the rest of its block-scan preimage; the first one with
    # an irreducible Specht module by the hook-valuation criterion
    checked = 0
    for p, nmax in ((3, 16), (5, 15), (7, 14)):
        for n in range(nmax + 1):
            for mu in partitions_of(n):
                if not is_p_regular(mu, p):
                    continue
                checked += 1
                scan = [mu] + [nu for nu in oracles.block_scan_preimage(mu, p)
                               if nu != mu]
                expected = next((nu for nu in scan
                                 if oracles.jm_irreducible(nu, p)), None)
                assert irreducible_specht_preimage(mu, p) == expected, (mu, p)
    assert checked == 1393


def test_three_busy_runners_are_reducible():
    for p, nmax, expected in ((3, 20, 457), (5, 18, 70)):
        busy = [la for n in range(nmax + 1) for la in partitions_of(n)
                if sum(1 for c in oracles.runner_data(la, len(la) + 1, p)[2]
                       if c) > 2]
        assert len(busy) == expected, p
        for la in busy:
            assert not oracles.jm_irreducible(la, p), la
            assert not specht_irreducible(la, p), la


def test_preimage_cache_is_bounded():
    assert _block_index.cache_info().maxsize == 1024
    assert _labels.cache_info().maxsize == 256
    assert _core_of_counts.cache_info().maxsize == 4096


# Every exported function that takes a partition, with the rest of its
# arguments.  is_p_regular is left out: it is the predicate the library
# applies to its own tuples in its inner loops, and takes a tuple as
# check_partition returns it.
BOUNDARY_CASES = [
    (selfext.check_partition, (4, 2, 1), ()),
    (selfext.check_regular, (4, 2, 1), (3,)),
    (selfext.dominates, (4, 2, 1), ((3, 3, 1),)),
    (selfext.format_partition, (4, 2, 2, 1), ()),
    (selfext.is_p_restricted, (4, 2, 1), (3,)),
    (selfext.transpose, (4, 2, 1), ()),
    (selfext.core_and_weight, (4, 2, 1), (3,)),
    (selfext.signature, (4, 2, 1), (3, 0)),
    (selfext.e_tilde, (4, 2, 1), (3, 0)),
    (selfext.f_tilde, (4, 2, 1), (3, 1)),
    (selfext.is_difficult, (4, 2, 1), (3, 0)),
    (selfext.mullineux, (4, 2, 1), (3,)),
    (selfext.regularize, (2, 1, 1, 1), (3,)),
    (selfext.is_rock_block, (4, 2, 1), (3,)),
    (selfext.is_rouquier, (3, 1), (3, 2)),
    (selfext.specht_irreducible, (3, 1), (3,)),
    (selfext.irreducible_specht_preimage, (2, 1), (3,)),
    (selfext.theorem_b_applicable, (4, 2, 1), (3,)),
    (selfext.certify, (4, 2, 1), (3,)),
]


@pytest.mark.parametrize("func,la,rest", BOUNDARY_CASES,
                         ids=[case[0].__name__ for case in BOUNDARY_CASES])
def test_public_functions_check_their_input(func, la, rest):
    # past the size bound the kernels would take time linear in the size,
    # and a string would be read character by character
    for bad in ((1, 2), (1, -1), (MAX_SIZE, 1), "21"):
        with pytest.raises(ValueError):
            func(bad, *rest)
    assert func([*la, 0], *rest) == func(la, *rest)


def test_boundary_cases_cover_every_partition_function():
    takes_partition = {
        name for name in dir(selfext)
        if inspect.isfunction(getattr(selfext, name))
        and next(iter(inspect.signature(getattr(selfext, name)).parameters),
                 None) in ("la", "mu", "rho")}
    covered = {case[0].__name__ for case in BOUNDARY_CASES}
    assert takes_partition - covered == {"is_p_regular"}
    assert covered <= takes_partition


# Every exported function or checked class (one with a __post_init__) that
# takes p, with its other arguments.  The records SignatureReport and
# Certificate check nothing, and is_p_regular is left out as in
# BOUNDARY_CASES.
P_CASES = [
    (selfext.check_regular, {"la": (4, 2, 1)}),
    (selfext.is_p_restricted, {"la": (4, 2, 1)}),
    (selfext.core_and_weight, {"la": (4, 2, 1)}),
    (selfext.signature, {"la": (4, 2, 1), "i": 0}),
    (selfext.e_tilde, {"la": (4, 2, 1), "i": 0}),
    (selfext.f_tilde, {"la": (4, 2, 1), "i": 1}),
    (selfext.is_difficult, {"la": (4, 2, 1), "i": 0}),
    (selfext.mullineux, {"la": (4, 2, 1)}),
    (selfext.regularize, {"la": (2, 1, 1, 1)}),
    (selfext.BlockId, {"core": (1,), "weight": 2}),
    (selfext.is_rouquier, {"rho": (3, 1), "d": 2}),
    (selfext.is_rock_block, {"la": (4, 2, 1)}),
    (selfext.specht_irreducible, {"la": (4, 1, 1, 1)}),
    (selfext.irreducible_specht_preimage, {"mu": (2, 1)}),
    (selfext.theorem_b_applicable, {"la": (4, 2, 1)}),
    (selfext.certify, {"la": (4, 2, 1)}),
    (selfext.realize_config, {"config": selfext.RunnerPairConfig((), (1, 1), 1)}),
]


@pytest.mark.parametrize("func,args", P_CASES,
                         ids=[case[0].__name__ for case in P_CASES])
def test_public_functions_check_p(func, args):
    # MAX_SIZE + 1: a function of p builds p words or runners, so a p above
    # the bound would cost time and memory linear in p before failing
    for bad in (0, 1, 2.5, "3", None, MAX_SIZE + 1):
        with pytest.raises(ValueError, match="p must be"):
            func(**args, p=bad)
    # repr, not ==: a result that kept the float 3.0 would still compare equal
    assert repr(func(**args, p=3.0)) == repr(func(**args, p=3))


@pytest.mark.parametrize("func,args", P_CASES,
                         ids=[case[0].__name__ for case in P_CASES])
def test_public_functions_check_p_once(monkeypatch, func, args):
    real, calls = partitions.check_p, []

    def counting(p, least=2):
        calls.append(p)
        return real(p, least)

    patch_every_binding(monkeypatch, real, counting)
    func(**args, p=3)
    assert calls == [3]


def test_p_cases_cover_every_function_of_p():
    takes_p = set()
    for name in dir(selfext):
        obj = getattr(selfext, name)
        if ((inspect.isfunction(obj) or hasattr(obj, "__post_init__"))
                and "p" in inspect.signature(obj).parameters):
            takes_p.add(name)
    covered = {case[0].__name__ for case in P_CASES}
    assert takes_p - covered == {"is_p_regular"}
    assert covered <= takes_p


def test_preimage_rejects_singular():
    with pytest.raises(ValueError):
        irreducible_specht_preimage((1, 1, 1), 3)


def test_preimage_regularizes_back():
    from selfext.bijections import regularize

    for n in range(11):
        for mu in partitions_of(n):
            if not is_p_regular(mu, 3):
                continue
            nu = irreducible_specht_preimage(mu, 3)
            if nu is not None:
                assert regularize(nu, 3) == mu
                assert specht_irreducible(nu, 3)


def test_theorem_b_examples():
    i, nu = theorem_b_applicable((10, 5, 4, 3, 1, 1), 3)
    assert (i, nu) == (0, (9, 4, 2, 2, 1, 1, 1, 1, 1))
    assert signature((10, 5, 4, 3, 1, 1), 3, 0).epsilon == 2
    assert theorem_b_applicable((4, 2, 1), 3) == (0, (3, 1, 1))
    assert theorem_b_applicable((6, 2), 3) is None
    assert theorem_b_applicable((3, 3, 1, 1), 3) is None


def test_theorem_b_applicable_calls_no_exported_name(monkeypatch):
    def exported(*args):
        raise AssertionError(f"an exported name was called with {args}")

    # the names specht may bind, and the modules that define them
    for module, name in ((specht, "signature"), (specht, "core_and_weight"),
                         (specht, "irreducible_specht_preimage"),
                         (signatures, "signature"),
                         (abacus, "core_and_weight")):
        monkeypatch.setattr(module, name, exported, raising=False)
    assert theorem_b_applicable((6, 4, 2, 2, 1), 3) == (0, (6, 4, 2, 1, 1, 1))


def test_the_search_calls_no_checked_name(monkeypatch):
    def checked(*args):
        raise AssertionError(f"a checked name was called with {args}")

    _block_index.cache_clear()  # a cold cache builds block indexes too
    for module in (bijections, certifier, specht):
        for name in ("mullineux", "regularize"):
            monkeypatch.setattr(module, name, checked, raising=False)
    for n in (24, 25):
        for la in partitions_of(n):
            if is_p_regular(la, 3):
                assert certify(la, 3).status == "CERTIFIED"


def test_full_addition_preserves_irreducibility():
    steps = 0
    for p, nmax in ((3, 10), (5, 9)):
        for n in range(nmax + 1):
            for la in partitions_of(n):
                if not specht_irreducible(la, p):
                    continue
                for i in range(p):
                    count = signature(la, p, i).phi_prime
                    if count == 0:
                        continue
                    steps += 1
                    assert specht_irreducible(oracles.add_all_addable(la, p, i), p)
    assert steps >= 200


def test_epsilon_equals_prime_on_irreducible_regular_labels():
    cases = 0
    for n in range(13):
        for la in partitions_of(n):
            if not is_p_regular(la, 3) or not specht_irreducible(la, 3):
                continue
            cases += 1
            for i in range(3):
                sig = signature(la, 3, i)
                assert sig.epsilon == sig.epsilon_prime
                assert sig.phi == sig.phi_prime
    assert cases >= 40


def test_core_conormal_non_restricted_prefix():
    # on a core, the conormal additions that break p-restriction form a
    # prefix of B_1, B_2, ..., and then B_1 is the first-row addition
    flagged = 0
    for n in range(13):
        for rho in partitions_of(n):
            if core_and_weight(rho, 3)[1] != 0:
                continue
            for i in range(3):
                sig = signature(rho, 3, i)
                marks = [not is_p_restricted(add_node(rho, node), 3)
                         for node in sig.conormals]
                if not any(marks):
                    continue
                flagged += 1
                k = sum(marks)
                assert marks == [True] * k + [False] * (len(marks) - k)
                assert sig.conormals[0] == (1, (rho[0] if rho else 0) + 1)
    assert flagged >= 9
