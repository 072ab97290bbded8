"""Tests for i-signatures, crystal operators, difficulty, and the reflection
and fixed-top rules that read them."""

import pytest
from hypothesis import given, strategies as st

import oracles
from selfext.abacus import core_and_weight
from selfext.partitions import is_p_regular, node_residue, partitions_of
from selfext.signatures import (
    e_tilde,
    f_tilde,
    is_difficult,
    signature,
    signatures,
)


@st.composite
def regular_partition_strategy(draw, p, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = [la for la in partitions_of(n) if is_p_regular(la, p)]
    return draw(st.sampled_from(pool))


def signs(entries):
    return "".join(sign for _, sign in entries)


def test_signature_example():
    rep = signature((4, 2, 1), 3, 0)
    assert rep.word == (((4, 1), "+"), ((2, 2), "-"), ((1, 4), "-"))
    assert signs(rep.word) == "+--"  # nothing cancels
    assert rep.normals == ((2, 2), (1, 4))
    assert rep.conormals == ((4, 1),)
    assert rep.epsilon == 2 and rep.phi == 1
    assert rep.epsilon_prime == 2 and rep.phi_prime == 1
    assert rep.good == (2, 2)
    assert rep.cogood == (4, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rim_walk_matches_per_residue_oracle(p):
    for n in range(16):
        for la in partitions_of(n):
            reports = signatures(la, p)
            assert len(reports) == p
            removable = [node_residue(node, p)
                         for node in oracles.removable_nodes(la)]
            addable = [node_residue(node, p)
                       for node in oracles.addable_nodes(la)]
            for i, rep in enumerate(reports):
                # dataclass equality compares the stored fields only
                expected = oracles.signature_by_residue(la, p, i)
                assert rep == expected, (la, i)
                assert rep.epsilon == len(expected.normals), (la, i)
                assert rep.phi == len(expected.conormals), (la, i)
                assert rep.epsilon_prime == removable.count(i), (la, i)
                assert rep.phi_prime == addable.count(i), (la, i)


def test_signature_empty_partition():
    rep = signature((), 3, 0)
    assert signs(rep.word) == "+"
    assert rep.epsilon == 0 and rep.phi == 1
    assert rep.good is None
    assert rep.cogood == (1, 1)


def test_signature_221_example():
    rep = signature((2, 2, 1), 3, 0)
    assert rep.epsilon == 1 and rep.phi == 1
    assert rep.good == (2, 2)
    assert rep.cogood == (4, 1)


def test_e_tilde_examples():
    assert e_tilde((4, 2, 1), 3, 0, 2) == (3, 1, 1)
    assert e_tilde((4, 2, 1), 3, 0, 0) == (4, 2, 1)
    assert e_tilde((4, 2, 1), 3, 0, 3) is None


def test_f_tilde_examples():
    assert f_tilde((4, 2, 1), 3, 0, 1) == (4, 2, 1, 1)
    assert f_tilde((4, 2, 1), 3, 0, 2) is None


def test_residue_and_count_are_read_like_parts():
    # 1.5 once gave a TypeError (an index, or a slice bound for r)
    for func in (signature, e_tilde, f_tilde, is_difficult):
        assert func((4, 2, 1), 3, 1.0) == func((4, 2, 1), 3, 1)
        for bad in (1.5, "1", None):
            with pytest.raises(ValueError, match="i must be an integer"):
                func((4, 2, 1), 3, bad)
    for func in (e_tilde, f_tilde):
        assert func((4, 2, 1), 3, 0, 1.0) == func((4, 2, 1), 3, 0, 1)
        for bad in (1.5, "1"):
            with pytest.raises(ValueError, match="r must be an integer"):
                func((4, 2, 1), 3, 0, bad)


def test_hat_operator_examples():
    # the full i-addition f^_i^{phi'_i} la
    assert oracles.add_all_addable((4, 2, 1), 3, 0) == (4, 2, 1, 1)
    assert oracles.add_all_addable((4, 2, 1), 3, 1) == (5, 3, 1)
    assert oracles.add_all_addable((4, 2, 1), 3, 2) == (4, 2, 2)
    assert oracles.add_all_addable((), 3, 1) == ()


def test_tilde_operators_reject_singular_input():
    with pytest.raises(ValueError):
        e_tilde((1, 1, 1), 3, 0)
    with pytest.raises(ValueError):
        f_tilde((1, 1, 1), 3, 0)


def test_tilde_operators_reject_negative_r():
    with pytest.raises(ValueError):
        e_tilde((4, 2, 1), 3, 0, -1)


def test_weight_delta_example():
    # wt(f~_i^r la) - wt(la) = r(phi_i - eps_i - r); here phi_0 = 1, eps_0 = 2
    sig = signature((4, 2, 1), 3, 0)
    assert 1 * (sig.phi - sig.epsilon - 1) == -2
    assert f_tilde((4, 2, 1), 3, 0, 1) == (4, 2, 1, 1)
    assert core_and_weight((4, 2, 1, 1), 3)[1] == 0
    assert core_and_weight((4, 2, 1), 3)[1] == 2


def test_is_difficult_examples():
    assert is_difficult((2, 2, 1), 3, 0) is True
    assert is_difficult((4, 2, 1), 3, 0) is True
    assert is_difficult((1,), 3, 0) is False  # phi_0 = 0
    assert is_difficult((), 3, 1) is False


def test_is_difficult_rejects_singular():
    with pytest.raises(ValueError):
        is_difficult((1, 1, 1), 3, 0)


def test_difficult_abacus_check_agrees():
    for p in (3, 5):
        for n in range(11):
            for la in partitions_of(n):
                if not is_p_regular(la, p):
                    continue
                for i in range(p):
                    sig = signature(la, p, i)
                    if sig.epsilon > 0 and sig.phi > 0:
                        assert oracles.difficult_abacus_check(la, p, i) == is_difficult(la, p, i)
                    else:
                        with pytest.raises(ValueError):
                            oracles.difficult_abacus_check(la, p, i)


def test_difficult_partitions_contain_step_segment():
    # difficulty forces consecutive parts (a+1, a^{p-2}, a-1) somewhere
    for p in (3, 5):
        for n in range(13):
            for la in partitions_of(n):
                if not is_p_regular(la, p):
                    continue
                for i in range(p):
                    if not is_difficult(la, p, i):
                        continue
                    padded = la + (0,) * p
                    assert any(
                        padded[t] == a + 1
                        and all(padded[t + 1 + s] == a for s in range(p - 2))
                        and padded[t + p - 1] == a - 1
                        for t in range(len(la))
                        for a in range(1, padded[t] + 1)
                    ), (la, p, i)


def test_node_adjacency_hand_case():
    removals, additions = oracles.node_adjacency_checks((3, 1, 1), 3, 2)
    assert removals == ((1, False, False),)
    assert additions == ()


def test_node_adjacency_sweep_consistent():
    # the oracle asserts internally that singularity matches adjacency
    for n in range(13):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            for i in range(3):
                removals, additions = oracles.node_adjacency_checks(la, 3, i)
                sig = signature(la, 3, i)
                assert (len(removals), len(additions)) == (sig.epsilon, sig.phi)


def test_reflections_examples():
    assert oracles.rule_edges("R-REFLECT", (), 3) == [({"residue": 0}, (1,))]
    assert oracles.rule_edges("R-REFLECT", (4, 2, 1), 3) == [
        ({"residue": 1}, (5, 2, 1)), ({"residue": 2}, (4, 2, 2))]
    assert oracles.rule_edges("R-REFLECT", (2, 1), 3) == [
        ({"residue": 0}, (2, 2))]


def test_fixed_top_shape_examples():
    # the good node of the fixed-top residue is removed
    for la, i in (((2, 1), 1), ((3, 2, 1), 2)):
        assert oracles.rule_edges("R-FIXEDTOP", la, 3) == [
            ({"residue": i}, e_tilde(la, 3, i))]
    for la in ((3, 1), (4, 2, 1), ()):
        assert oracles.rule_edges("R-FIXEDTOP", la, 3) == []


@given(regular_partition_strategy(3), st.integers(min_value=0, max_value=2))
def test_tilde_inverse_identities_p3(la, i):
    sig = signature(la, 3, i)
    for r in range(sig.phi + 1):
        assert e_tilde(f_tilde(la, 3, i, r), 3, i, r) == la
    for r in range(sig.epsilon + 1):
        assert f_tilde(e_tilde(la, 3, i, r), 3, i, r) == la


@given(regular_partition_strategy(5), st.integers(min_value=0, max_value=4))
def test_tilde_inverse_identities_p5(la, i):
    sig = signature(la, 5, i)
    for r in range(sig.phi + 1):
        assert e_tilde(f_tilde(la, 5, i, r), 5, i, r) == la
    for r in range(sig.epsilon + 1):
        assert f_tilde(e_tilde(la, 5, i, r), 5, i, r) == la


@given(regular_partition_strategy(3), st.integers(min_value=0, max_value=2))
def test_weight_delta_matches_abacus(la, i):
    sig = signature(la, 3, i)
    for r in range(sig.phi + 1):
        mu = f_tilde(la, 3, i, r)
        assert (core_and_weight(mu, 3)[1] - core_and_weight(la, 3)[1]
                == r * (sig.phi - sig.epsilon - r))


@given(regular_partition_strategy(3))
def test_phi_minus_epsilon_content_formula(la):
    p = 3
    content = [0] * p
    for row, part in enumerate(la, start=1):
        for col in range(1, part + 1):
            content[(col - row) % p] += 1
    for i in range(p):
        expected = ((1 if i == 0 else 0) - 2 * content[i]
                    + content[(i - 1) % p] + content[(i + 1) % p])
        sig = signature(la, p, i)
        assert sig.phi - sig.epsilon == expected


@given(regular_partition_strategy(3))
def test_prime_counts_sum_to_node_counts(la):
    p = 3
    reports = [signature(la, p, i) for i in range(p)]
    assert sum(rep.epsilon_prime for rep in reports) == \
        len(oracles.removable_nodes(la))
    assert sum(rep.phi_prime for rep in reports) == \
        len(oracles.addable_nodes(la))


@given(regular_partition_strategy(3), st.integers(min_value=0, max_value=2))
def test_reduced_word_shape(la, i):
    rep = signature(la, 3, i)
    surviving = set(rep.normals + rep.conormals)
    reduced = [(node, sign) for node, sign in rep.word if node in surviving]
    assert signs(reduced) == "+" * rep.phi + "-" * rep.epsilon
    # normals bottom to top, conormals top to bottom
    diag = [col - row for row, col in rep.normals]
    assert diag == sorted(diag)
    diag = [col - row for row, col in rep.conormals]
    assert diag == sorted(diag, reverse=True)
    for node, _ in rep.word:
        assert node_residue(node, 3) == i


def test_reflections_land_in_same_weight():
    for n in range(11):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            wt = core_and_weight(la, 3)[1]
            for params, mu in oracles.rule_edges("R-REFLECT", la, 3):
                sig = signature(la, 3, params["residue"])
                assert sig.epsilon == 0 or sig.phi == 0
                assert core_and_weight(mu, 3)[1] == wt
