"""Tests for the Mullineux involution and ladder regularization."""

import time

import pytest
from hypothesis import given, strategies as st

import oracles
from selfext.abacus import core_and_weight
from selfext.bijections import (
    add_p_rim,
    ladder_counts,
    mullineux,
    p_rim_symbol,
    peel_p_rim,
    regularize,
)
from selfext.partitions import is_p_regular, partitions_of
from selfext.signatures import signature
from selfext.specht import specht_irreducible


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = list(partitions_of(n))
    return draw(st.sampled_from(pool))


def test_peel_p_rim_row():
    assert peel_p_rim((3,), 3) == ((), 3)
    assert peel_p_rim((4, 2, 1), 3) == ((1,), 6)
    with pytest.raises(ValueError):
        peel_p_rim((), 3)


def test_peel_p_rim_matches_segment_walk():
    # every partition with n <= 20: rows giving up the rest of a segment
    # against a walk that fills p nodes and then restarts a row lower
    checked = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 21):
            for la in partitions_of(n):
                checked += 1
                assert peel_p_rim(la, p) == oracles.peel_by_segments(la, p), (la, p)
    assert checked == 4 * 2713


def test_p_rim_symbol_row():
    assert p_rim_symbol((3,), 3) == [(3, 1)]


def test_mullineux_examples():
    assert mullineux((3,), 3) == (2, 1)
    assert mullineux((), 3) == ()
    assert mullineux((4, 2, 1), 3) == (4, 2, 1)
    assert mullineux((3, 2, 1), 3) == (5, 1)


def test_mullineux_rejects_singular():
    with pytest.raises(ValueError):
        mullineux((1, 1, 1), 3)


def test_mullineux_involution_small():
    for n in range(11):
        for la in partitions_of(n):
            if is_p_regular(la, 3):
                mu = mullineux(la, 3)
                assert is_p_regular(mu, 3)
                assert mullineux(mu, 3) == la


def test_mullineux_negates_residues():
    p = 3
    for n in range(9):
        for la in partitions_of(n):
            if not is_p_regular(la, p):
                continue
            mu = mullineux(la, p)
            for i in range(p):
                sig, twin = signature(la, p, i), signature(mu, p, -i)
                assert (sig.epsilon, sig.phi) == (twin.epsilon, twin.phi)


def test_mullineux_preserves_weight():
    for n in range(11):
        for la in partitions_of(n):
            if is_p_regular(la, 3):
                assert (core_and_weight(mullineux(la, 3), 3)[1]
                        == core_and_weight(la, 3)[1])


def test_mullineux_first_row_on_fixed_top_shapes():
    seen = 0
    for p in (3, 5):
        for n in range(15):
            for la in partitions_of(n):
                if (not is_p_regular(la, p)
                        or not oracles.rule_edges("R-FIXEDTOP", la, p)):
                    continue
                seen += 1
                a = la[0] - 1
                c = sum(1 for part in la if part == la[0])
                assert mullineux(la, p)[0] == a * (p - 1) + c
    assert seen >= 25


def test_add_p_rim_matches_search():
    # every column (a, s) that mullineux builds, against the old search
    checked = 0
    for p, nmax in ((3, 20), (5, 18), (7, 16)):
        for n in range(nmax + 1):
            for la in partitions_of(n):
                if not is_p_regular(la, p):
                    continue
                checked += 1
                out = ()
                for a, r in reversed(p_rim_symbol(la, p)):
                    s = a - r + (0 if a % p == 0 else 1)
                    grown = add_p_rim(out, p, a, s)
                    assert grown == oracles.add_p_rim_by_search(out, p, a, s), (la, p)
                    out = grown
                assert out == mullineux(la, p)
    assert checked == 2984


def test_add_p_rim_matches_search_on_every_small_column():
    # any mu, solvable or not: the same image, or no image from either
    solvable = 0
    for p in (2, 3, 5):
        for n in range(8):
            for mu in partitions_of(n):
                for a in range(1, 9):
                    for s in range(1, 9):
                        try:
                            expected = oracles.add_p_rim_by_search(mu, p, a, s)
                        except ValueError:
                            with pytest.raises((ValueError, RuntimeError)):
                                add_p_rim(mu, p, a, s)
                            continue
                        solvable += 1
                        assert add_p_rim(mu, p, a, s) == expected, (mu, p, a, s)
    assert solvable == 995
    with pytest.raises(RuntimeError, match="not unique"):
        add_p_rim((1,), 3, 2, 1)    # a short last segment must take all of row s


def test_mullineux_matches_crystals():
    checked = 0
    for p, nmax in ((3, 16), (5, 14), (7, 13)):
        for n in range(nmax + 1):
            for la in partitions_of(n):
                if is_p_regular(la, p):
                    checked += 1
                    assert mullineux(la, p) == oracles.crystal_mullineux(la, p), (la, p)
    assert checked == 1147


def test_mullineux_on_a_long_staircase():
    # the segment-end search once grew exponentially with the height here
    la = tuple(range(60, 0, -1))
    start = time.perf_counter()
    mu = mullineux(la, 3)
    assert time.perf_counter() - start < 2
    assert mullineux(mu, 3) == la


def test_ladder_counts_example():
    assert ladder_counts((2, 2), 3) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert ladder_counts((), 3) == {}


def test_regularize_examples():
    assert regularize((1, 1, 1), 3) == (2, 1)
    assert regularize((6, 1, 1, 1, 1, 1), 5) == (6, 2, 1, 1, 1)
    assert regularize((), 3) == ()


def test_regularize_matches_node_sets():
    # every partition with n <= 20: row counts from the ladder tops against
    # the filled node set and its scans
    checked = 0
    for p in (2, 3, 5, 7):
        for n in range(21):
            for la in partitions_of(n):
                checked += 1
                assert regularize(la, p) == oracles.regularize_by_node_sets(la, p), (la, p)
    assert checked == 4 * 2714


@given(partition_strategy(), st.sampled_from([3, 5]))
def test_regularize_properties(la, p):
    reg = regularize(la, p)
    assert is_p_regular(reg, p)
    assert sum(reg) == sum(la)
    assert regularize(reg, p) == reg
    if is_p_regular(la, p):
        assert reg == la
    if sum(la) == sum(reg):
        assert oracles.dominates(reg, la)


def witness_components(la, p, beads):
    """Quotient components of la read with `beads` beads, p more at a time
    until position 0 is occupied, and the bead count used."""
    while beads <= len(la):
        beads += p
    return oracles.runner_data(la, beads, p)[2], beads


def test_regularization_empties_restricted_runner():
    # for p-singular la with irreducible Specht module, the regularized
    # abacus carries no weight on the non-restricted witness runner
    checked = 0
    for n in range(15):
        for la in partitions_of(n):
            if is_p_regular(la, 3):
                continue
            res = specht_irreducible(la, 3)
            if not res:
                continue
            checked += 1
            _, beads = witness_components(la, 3, res.beads)
            comps, _ = witness_components(regularize(la, 3), 3, beads)
            assert comps[res.restricted_runner] == ()
    assert checked >= 70
    res = specht_irreducible((6, 1, 1, 1, 1, 1), 5)
    _, beads = witness_components((6, 1, 1, 1, 1, 1), 5, res.beads)
    comps, _ = witness_components(regularize((6, 1, 1, 1, 1, 1), 5), 5, beads)
    assert comps[res.restricted_runner] == ()
