"""Tests for abacus displays, runner quotients, and runner-row decoding."""

import pytest
from hypothesis import given, strategies as st

import oracles
from selfext.abacus import (
    AbacusDisplay,
    bead_rows,
    beta_set,
    component_from_rows,
    core_and_weight,
    decode,
    decode_config,
    display,
    from_runner_rows,
    quotient,
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


def test_beta_set_values():
    assert beta_set((4, 2, 1), 3) == frozenset({6, 3, 1})
    assert beta_set((4, 2, 1), 6) == frozenset({9, 6, 4, 2, 1, 0})
    assert beta_set((), 3) == frozenset({0, 1, 2})


def test_beta_set_needs_enough_beads():
    with pytest.raises(ValueError):
        beta_set((4, 2, 1), 2)


def test_display_extends_when_origin_empty():
    gamma = display((4, 2, 1), 3, 3)
    assert gamma.p == 3
    assert gamma.beads == 6
    assert gamma.occupied == frozenset({0, 1, 2, 4, 6, 9})


def test_display_keeps_beads_when_origin_occupied():
    gamma = display((1,), 3, 3)
    assert gamma.beads == 3
    assert gamma.occupied == frozenset({0, 1, 3})


def test_display_empty_partition():
    gamma = display((), 3, 3)
    assert gamma.occupied == frozenset({0, 1, 2})


def test_display_default_bead_count():
    gamma = display((4, 2, 1), 3)
    assert decode(gamma) == (4, 2, 1)


def test_display_rejects_too_few_beads():
    with pytest.raises(ValueError):
        display((4, 2, 1), 3, 2)


def test_abacus_display_validation():
    with pytest.raises(ValueError):
        AbacusDisplay(3, 3, frozenset({1, 2, 3}))  # position 0 empty
    with pytest.raises(ValueError):
        AbacusDisplay(3, 2, frozenset({0, 1, 2}))  # bead count mismatch
    with pytest.raises(ValueError):
        AbacusDisplay(1, 1, frozenset({0}))  # p too small
    with pytest.raises(ValueError):
        AbacusDisplay(3, 2, frozenset({0, -3}))  # negative position


def test_quotient_example():
    stats = quotient(display((4, 2, 1), 3, 3))
    assert stats.bead_counts == (3, 2, 1)
    assert stats.components == ((1, 1), (), ())
    assert stats.weights == (2, 0, 0)
    assert stats.residues == (0, 1, 2)
    assert stats.weight == 2


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


def test_decode_config_example():
    cfg = [((), 0), ((), 0), ((1,), 1), ((), 2), ((1,), 0)]
    assert decode_config(cfg, 5) == (6, 6, 4, 4)


def test_decode_config_offsets_shift_components():
    assert decode_config([((1, 1), 0), ((), 0), ((), 0)], 3) == (1, 1, 1, 1, 1, 1)
    assert decode_config([((1, 1), 0), ((), -1), ((), -2)], 3) == (4, 2, 1)


def test_decode_config_runner_count():
    with pytest.raises(ValueError):
        decode_config([((), 0), ((), 0)], 3)


@given(partition_strategy(), st.sampled_from([3, 5, 7]))
def test_decode_display_round_trip(la, p):
    assert decode(display(la, p)) == la


@given(partition_strategy(), st.sampled_from([3, 5, 7]))
def test_extra_bead_rows_are_invariant(la, p):
    gamma = display(la, p)
    occ = frozenset(q + p for q in gamma.occupied) | frozenset(range(p))
    assert decode(AbacusDisplay(p, gamma.beads + p, occ)) == la


@given(partition_strategy(), st.sampled_from([3, 5, 7]))
def test_quotient_weights_sum_to_weight(la, p):
    gamma = display(la, p)
    stats = quotient(gamma)
    _, weight = core_and_weight(la, p)
    assert stats.weight == sum(stats.weights) == weight
    assert sum(stats.bead_counts) == gamma.beads


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
