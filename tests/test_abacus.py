"""Tests for runner rows, runner quotients, cores and weights."""

import pytest
from hypothesis import given, strategies as st

import oracles
from selfext.abacus import (
    bead_counts,
    bead_rows,
    component_from_rows,
    core_and_weight,
    core_of_counts,
    from_runner_rows,
    rows_for_component,
)
from selfext.partitions import partitions_of


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining = n
    prev = n
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(prev, remaining)))
        parts.append(part)
        prev = part
        remaining -= part
    return tuple(parts)


def test_quotient_example():
    # (4, 2, 1) read with 6 beads: positions {0, 1, 2, 4, 6, 9}
    rows = bead_rows(rows_for_component((4, 2, 1), 6), 3)
    assert rows == [[0, 2, 3], [0, 1], [0]]
    assert [component_from_rows(r) for r in rows] == [(1, 1), (), ()]


def test_core_and_weight_examples():
    assert core_and_weight((4, 2, 1), 3) == ((1,), 2)
    assert core_and_weight((4, 2, 1, 1), 3) == ((4, 2, 1, 1), 0)
    assert core_and_weight((), 5) == ((), 0)


def test_core_and_weight_matches_rim_hook_oracle():
    for n in range(13):
        for la in partitions_of(n):
            for p in (2, 3, 5, 7, 11):
                expected = oracles.rim_core_and_weight(la, p)
                assert core_and_weight(la, p) == expected
                assert core_and_weight(list(la) + [0, 0], p) == expected


def test_bead_counts_match_the_rows_and_the_rim_hook_oracle():
    # the kernel's counts are the runner row counts of the h + 1 bead
    # display, its weight the rim-hook weight, and the counts give the core
    for n in range(15):
        for la in partitions_of(n):
            for p in (2, 3, 5, 7):
                counts, weight = bead_counts(la, p)
                rows = bead_rows(rows_for_component(la, len(la) + 1), p)
                assert counts == [len(r) for r in rows], (la, p)
                core, expected = oracles.rim_core_and_weight(la, p)
                assert weight == expected, (la, p)
                assert core_of_counts(counts) == core, (la, p)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_core_and_weight_rejects_p_below_two(p):
    with pytest.raises(ValueError, match="p must be at least 2"):
        core_and_weight((4, 2, 1), p)


def test_component_rows_round_trip():
    rows = rows_for_component((2, 1), 4)
    assert component_from_rows(rows) == (2, 1)
    assert rows_for_component((), 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        rows_for_component((2, 1), 1)


def test_from_runner_rows_inverts_bead_rows():
    for n in range(13):
        for la in partitions_of(n):
            h = len(la)
            for p in (2, 3, 5, 7):
                for beads in range(max(h, 1), h + 2 * p + 1):
                    rows = bead_rows(rows_for_component(la, beads), p)
                    assert from_runner_rows(rows, p) == la, (la, p, beads)




@given(partition_strategy(), st.sampled_from([3, 5, 7]))
def test_quotient_weights_sum_to_weight(la, p):
    beads = len(la) + 1
    rows = bead_rows(rows_for_component(la, beads), p)
    weights = [sum(component_from_rows(r)) for r in rows]
    _, weight = core_and_weight(la, p)
    assert sum(weights) == weight
    assert sum(map(len, rows)) == beads


def test_same_core_iff_same_residue_content():
    p = 3
    for n in range(11):
        pool = list(partitions_of(n))
        for i, la in enumerate(pool):
            for mu in pool[i:]:
                same_core = core_and_weight(la, p)[0] == core_and_weight(mu, p)[0]
                same_content = (oracles.residue_multiset(la, p)
                                == oracles.residue_multiset(mu, p))
                assert same_core == same_content
