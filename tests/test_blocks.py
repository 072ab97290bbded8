"""Tests for block labels, block enumeration, and Rouquier/RoCK cores."""

import sys
import time
from collections import Counter

import pytest

import oracles
from selfext import abacus, blocks, partitions
from selfext.abacus import bead_counts, core_and_weight
from selfext.blocks import BlockId, enumerate_block, is_rock_block, is_rouquier
from selfext.partitions import is_p_regular, partitions_of


def multipartition_count(d, parts):
    if parts == 1:
        return len(list(oracles.partitions_of(d)))
    return sum(multipartition_count(d - k, parts - 1)
               * len(list(oracles.partitions_of(k))) for k in range(d + 1))


def test_block_id_validation():
    with pytest.raises(ValueError):
        BlockId((3,), 1, 3)  # (3) is not a 3-core
    with pytest.raises(ValueError):
        BlockId((1,), -1, 3)
    assert BlockId((1,), 2, 3).n == 7


def test_block_id_refuses_a_non_integral_weight():
    # a weight of 2.5 once gave n == 7.5 and a TypeError in enumerate_block
    for weight in (2.5, float("inf"), float("nan"), None):
        with pytest.raises(ValueError, match="weight must be an integer"):
            BlockId((), weight, 3)
    assert BlockId((), 2.0, 3) == BlockId((), 2, 3)


def test_same_block_iff_same_residue_content():
    p = 3
    for n in range(11):
        pool = list(partitions_of(n))
        for i, la in enumerate(pool):
            for mu in pool[i:]:
                same_block = core_and_weight(la, p) == core_and_weight(mu, p)
                same_content = (oracles.residue_multiset(la, p)
                                == oracles.residue_multiset(mu, p))
                assert same_block == same_content


def test_enumerate_block_example():
    members = enumerate_block(BlockId((1,), 1, 3))
    assert sorted(members) == [(1, 1, 1, 1), (2, 2), (4,)]
    assert enumerate_block(BlockId((1,), 1, 3), regular_only=True) == [
        la for la in members if is_p_regular(la, 3)]


def test_enumerate_block_weight_zero():
    assert enumerate_block(BlockId((4, 2, 1, 1), 0, 3)) == [(4, 2, 1, 1)]


def test_enumerate_block_at_a_large_prime():
    # one recursion level per runner once raised RecursionError from p ~ 1000
    assert enumerate_block(BlockId((), 0, 1009)) == [()]
    members = enumerate_block(BlockId((1,), 1, 1009))
    assert len(set(members)) == len(members) == 1009
    assert {sum(la) for la in members} == {1010}


def test_enumerate_block_refuses_members_above_max_size(monkeypatch):
    # the weight-20001 block of the empty 5-core once ran past any timeout
    start = time.perf_counter()
    with pytest.raises(ValueError, match="block members exceed 100000 boxes"):
        enumerate_block(BlockId((), 20001, 5))
    assert time.perf_counter() - start < 1
    # members of the 3-block of core (2) at weight 5 have 17 boxes
    monkeypatch.setattr(blocks, "MAX_SIZE", 17)
    assert len(enumerate_block(BlockId((2,), 5, 3))) == 108
    monkeypatch.setattr(blocks, "MAX_SIZE", 16)
    with pytest.raises(ValueError, match="block members exceed 16 boxes"):
        enumerate_block(BlockId((2,), 5, 3))


def test_enumerate_block_members_and_counts():
    for core in [(), (1,), (3, 1, 1)]:
        for d in range(4):
            b = BlockId(core, d, 3)
            members = enumerate_block(b)
            assert len(set(members)) == len(members)
            assert len(members) == multipartition_count(d, 3)
            for la in members:
                assert BlockId(*core_and_weight(la, 3), 3) == b


def test_enumerate_block_matches_direct_sweep():
    b = BlockId((1,), 2, 3)
    direct = [la for la in partitions_of(b.n)
              if core_and_weight(la, 3) == (b.core, b.weight)]
    assert sorted(enumerate_block(b)) == sorted(direct)


def test_is_rouquier_examples():
    assert is_rouquier((3, 1, 1), 3, 2) is True
    assert is_rouquier((), 3, 1) is True
    assert is_rouquier((), 3, 0) is True
    assert is_rouquier((1,), 3, 7) is False
    assert is_rouquier((1,), 3, 2) is False


def test_is_rouquier_rejects_non_core():
    with pytest.raises(ValueError):
        is_rouquier((3,), 3, 2)
    with pytest.raises(ValueError):
        is_rouquier((), 3, -1)


def test_is_rouquier_refuses_a_non_integral_weight():
    # d = 2.5 once answered False
    with pytest.raises(ValueError, match="weight must be an integer"):
        is_rouquier((), 3, 2.5)
    assert is_rouquier((), 3, 2.0) == is_rouquier((), 3, 2)


def test_is_rouquier_matches_full_bead_scan():
    # is_rouquier tries p bead counts; the oracle tries every count from
    # max(h, 1) to h + p(d+1).
    cases = 0
    for p in (3, 5, 7):
        cores = [rho for n in range(25) for rho in partitions_of(n)
                 if core_and_weight(rho, p)[1] == 0]
        for rho in cores:
            for d in range(12):
                assert (is_rouquier(rho, p, d)
                        == oracles.rouquier_by_full_scan(rho, p, d)), (rho, p, d)
                cases += 1
    assert cases == 13344


def test_is_rouquier_monotone_in_weight():
    cores = [rho for n in range(12) for rho in partitions_of(n)
             if core_and_weight(rho, 3)[1] == 0]
    for rho in cores:
        for d in range(1, 5):
            if is_rouquier(rho, 3, d):
                assert is_rouquier(rho, 3, d - 1)


def test_two_rouquier_cores_up_to_11():
    found = [rho for n in range(12) for rho in partitions_of(n)
             if core_and_weight(rho, 3)[1] == 0 and rho and is_rouquier(rho, 3, 2)]
    assert found == [(3, 1, 1), (5, 3, 1, 1), (4, 2, 2, 1, 1)]


def test_is_rock_block_examples():
    assert is_rock_block((4, 2, 1), 3) is False
    assert is_rock_block((3, 1, 1), 3) is True  # weight 0
    assert is_rock_block((6, 1, 1), 3) is True  # weight 1 on core (3,1,1)


def test_is_rock_block_rejects_singular():
    with pytest.raises(ValueError):
        is_rock_block((1, 1, 1), 3)


def test_is_rock_block_on_members_matches_full_bead_scan():
    # a member's bead counts stand for its core's: every 3-regular
    # partition of n <= 20, 5-regular one of n <= 15, 2-regular one of
    # n <= 16 and 4-regular one of n <= 14 against the oracle scan of its
    # rim-hook core (check_p admits p = 2 and a composite p)
    verdicts = Counter()
    for p, nmax in ((3, 20), (5, 15), (2, 16), (4, 14)):
        for n in range(nmax + 1):
            for la in partitions_of(n):
                if is_p_regular(la, p):
                    core, w = oracles.rim_core_and_weight(la, p)
                    rock = is_rock_block(la, p)
                    assert rock == oracles.rouquier_by_full_scan(core, p, w), la
                    verdicts[p, rock] += 1
    assert verdicts == {(3, True): 63, (3, False): 950,
                        (5, True): 100, (5, False): 426,
                        (2, True): 33, (2, False): 136,
                        (4, True): 64, (4, False): 275}


def test_is_rock_block_reads_bead_counts_once(monkeypatch):
    cases = ((9, 1, 1), (4, 2, 1), (10, 5, 4, 3, 1, 1))
    expected = [is_rock_block(la, 3) for la in cases]
    assert expected == [True, False, False]
    calls = []

    def counted(la, p):
        calls.append(la)
        return bead_counts(la, p)

    def refused(la, p):
        raise AssertionError("is_rock_block builds no core")

    # blocks imports only the kernel, so every bead-count read counts
    monkeypatch.setattr(blocks, "bead_counts", counted)
    monkeypatch.setattr(abacus, "core_weight", refused)
    assert [is_rock_block(la, 3) for la in cases] == expected
    assert calls == list(cases)


def test_block_id_keeps_the_normalised_core():
    block = BlockId([1, 0], 2, 3)
    assert block.core == (1,)
    assert block == BlockId((1,), 2, 3)
    assert block == BlockId(*core_and_weight((4, 2, 1), 3), 3)


def test_a_core_is_checked_once(monkeypatch):
    real, calls = partitions.check_partition, []

    def counting(la):
        calls.append(la)
        return real(la)

    # every binding of check_partition in the package, as a tracer sees it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "selfext":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    is_rouquier((), 3, 2)
    assert calls == [()]
    BlockId((), 0, 3)
    assert calls == [(), ()]


@pytest.mark.parametrize("p", [1, 0])
def test_core_checks_reject_p_below_two(p):
    with pytest.raises(ValueError, match="p must be at least 2"):
        BlockId((), 0, p)
    with pytest.raises(ValueError, match="p must be at least 2"):
        is_rouquier((), p, 2)
