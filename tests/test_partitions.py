"""Tests for basic partition combinatorics."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from selfext import cli
from selfext.partitions import (
    add_node,
    MAX_SIZE,
    check_partition,
    check_prime,
    check_regular,
    dominates,
    format_partition,
    is_p_regular,
    is_p_restricted,
    node_residue,
    parse_partition,
    partitions_of,
    remove_node,
    transpose,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining = n
    while remaining:
        cap = min(remaining, parts[-1] if parts else remaining)
        part = draw(st.integers(min_value=1, max_value=cap))
        parts.append(part)
        remaining -= part
    return tuple(parts)


def test_check_partition_accepts_and_normalizes():
    assert check_partition([4, 2, 1]) == (4, 2, 1)
    assert check_partition(()) == ()


def test_check_partition_strips_trailing_zeros():
    assert check_partition((1, 0)) == (1,)
    assert check_partition((0,)) == ()


CHECK_PARTITION_PINS = [
    ((3, 2, 0, 0), (3, 2)),
    ((), ()),
    ((0,), ()),
    ((2, 0, 1), "parts must be positive: (2, 0, 1)"),
    ((1, -1), "parts must be positive: (1, -1)"),
    ((-1, 2), "parts must be positive: (-1, 2)"),
    ((1, 2), "parts must be weakly decreasing: (1, 2)"),
    ([3.0, 1], (3, 1)),
    ("321", "parts must be integers: '321'"),  # not read digit by digit
    ([2, float("inf")], "parts must be finite: [2, inf]"),  # JSON Infinity
    ((3, 2.7), "parts must be integers: (3, 2.7)"),  # int() would give 2
    ((Fraction(5, 2),), "parts must be integers: (Fraction(5, 2),)"),
    # int() cannot take these at all, and tuple() cannot take the last two
    ([None], "parts must be integers: [None]"),
    ([1j], "parts must be integers: [1j]"),
    (None, "parts must be integers: None"),
    (5, "parts must be integers: 5"),
    # int() raises ValueError on these, and its own message once came out
    (["x"], "parts must be integers: ['x']"),
    ("2,1", "parts must be integers: '2,1'"),
    ([float("nan")], "parts must be integers: [nan]"),
    ((MAX_SIZE,), (MAX_SIZE,)),
    ((MAX_SIZE, 1), f"partition exceeds {MAX_SIZE} boxes"),
]


def test_check_partition_pins_results_and_messages():
    for la, want in CHECK_PARTITION_PINS:
        if isinstance(want, tuple):
            assert check_partition(la) == want, la
        else:
            with pytest.raises(ValueError) as err:
                check_partition(la)
            assert str(err.value) == want, la


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((2, 3))
    with pytest.raises(ValueError):
        check_partition((1, 0, 1))
    with pytest.raises(ValueError):
        check_partition((-1,))


def test_is_p_regular_examples():
    assert not is_p_regular((2, 1, 1, 1), 3)
    assert is_p_regular((4, 2, 1), 3)
    assert is_p_regular((6, 2, 1, 1, 1), 5)


def test_is_p_regular_matches_groupby_oracle():
    for n in range(21):
        for la in partitions_of(n):
            for p in range(2, 8):
                assert is_p_regular(la, p) == oracles.groupby_p_regular(la, p)


def test_is_p_restricted_examples():
    assert is_p_restricted((4, 2, 1), 3)
    assert not is_p_restricted((4, 1), 3)
    assert is_p_restricted((), 3)


def test_transpose_examples():
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose(()) == ()
    # self-conjugate: column counts 9,4,2,2,1,1,1,1,1
    assert transpose((9, 4, 2, 2, 1, 1, 1, 1, 1)) == (9, 4, 2, 2, 1, 1, 1, 1, 1)


def test_dominates_examples():
    assert dominates((4, 2, 1), (3, 3, 1))
    assert not dominates((3, 3, 1), (4, 2, 1))
    assert dominates((4, 2, 1), (4, 2, 1))


def test_dominates_rejects_size_mismatch():
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


def test_node_residue_examples():
    assert node_residue((2, 3), 3) == 1
    assert node_residue((1, 1), 5) == 0
    assert node_residue((3, 1), 3) == 1


def test_removable_and_addable_examples():
    assert oracles.removable_nodes((4, 2, 1)) == [(1, 4), (2, 2), (3, 1)]
    assert oracles.addable_nodes((4, 2, 1)) == [(1, 5), (2, 3), (3, 2), (4, 1)]
    assert oracles.removable_nodes(()) == []
    assert oracles.addable_nodes(()) == [(1, 1)]


def test_add_and_remove_node():
    assert remove_node((4, 2, 1), (2, 2)) == (4, 1, 1)
    assert add_node((4, 2, 1), (4, 1)) == (4, 2, 1, 1)


def test_parse_and_format():
    assert parse_partition("4,2^3,1") == (4, 2, 2, 2, 1)
    assert parse_partition("-") == ()
    assert format_partition((4, 2, 2, 2, 1)) == "4,2^3,1"
    assert format_partition(()) == "-"


def test_parse_rejects_malformed():
    for text in ("4,x", "2,3", "1^0", "4,,1", "^2", "1^100000000",
                 "100000000"):
        with pytest.raises(ValueError):
            parse_partition(text)


def test_a_non_integer_chunk_is_named_with_its_text(capsys):
    # int()'s own message named neither the chunk nor the partition text
    for argv, chunk, text in (
            (["certify", "4,x", "--p", "3"], "x", "4,x"),
            (["certify", "4^y", "--p", "3"], "4^y", "4^y"),
            (["enumerate-block", "--core", "2,x", "--weight", "1", "--p", "3"],
             "x", "2,x")):
        assert cli.run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: non-integer chunk {chunk!r} in "
                                     f"partition text {text!r}\n"), argv


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partitions_of_respects_max_part():
    assert list(partitions_of(4, 2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_matches_oracle():
    for n in range(11):
        assert sorted(partitions_of(n)) == sorted(oracles.partitions_of(n))


@given(partition_strategy())
def test_transpose_involution(la):
    assert transpose(transpose(la)) == la
    assert transpose(la) == oracles.conjugate(la)


@given(partition_strategy())
def test_removable_addable_counts(la):
    assert len(oracles.removable_nodes(la)) == \
        len(oracles.addable_nodes(la)) - 1


@given(partition_strategy())
def test_text_round_trip(la):
    assert parse_partition(format_partition(la)) == la


def test_regular_iff_transpose_restricted():
    for n in range(15):
        for la in partitions_of(n):
            for p in (3, 5, 7):
                assert is_p_regular(la, p) == is_p_restricted(transpose(la), p)


def test_dominance_partial_order_on_small_sizes():
    for n in (5, 6):
        las = list(partitions_of(n))
        for la in las:
            assert dominates(la, la)
            for mu in las:
                if dominates(la, mu) and dominates(mu, la):
                    assert la == mu
                for nu in las:
                    if dominates(la, mu) and dominates(mu, nu):
                        assert dominates(la, nu)


def test_check_regular_normalises_and_rejects_singular():
    assert check_regular([4, 2, 1, 0], 3) == ((4, 2, 1), 3)
    with pytest.raises(ValueError, match=r"^\(2, 1, 1, 1\) is not 3-regular$"):
        check_regular((2, 1, 1, 1), 3)
    with pytest.raises(ValueError, match="weakly decreasing"):
        check_regular((1, 2), 3)
    # p is checked first, as by every function of p
    with pytest.raises(ValueError, match="p must be"):
        check_regular((1, 2), 2.5)


def test_check_prime():
    for p in (2, 3, 5, 7, 29, 99991):
        assert check_prime(p) == p
    for p in (-3, 0, 1):
        with pytest.raises(ValueError, match=f"p must be at least 2, got {p}"):
            check_prime(p)
    for p in (4, 9, 91, 9.0):
        with pytest.raises(ValueError, match=f"p must be prime, got {int(p)}"):
            check_prime(p)
    # p is read like a part: 3.0 is 3, but 2.5 and "3" are refused
    assert type(check_prime(3.0)) is int and check_prime(3.0) == 3
    for p in (2.5, "3", float("inf")):
        with pytest.raises(ValueError, match="p must be an integer"):
            check_prime(p)
    with pytest.raises(ValueError, match=f"p must be at most {MAX_SIZE}"):
        check_prime(100003)  # prime, but past the bound
