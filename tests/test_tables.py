"""Tests for the Table I / Table II derivations and local signatures."""

import itertools
import json
import random
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, strategies as st

import oracles
from selfext import partitions, tables
from selfext.abacus import from_runner_rows, rows_for_component
from selfext.partitions import is_p_regular, parse_partition, partitions_of
from selfext.signatures import is_difficult, signature
from selfext.tables import (
    RunnerPairConfig,
    RunnerTripleConfig,
    _difficulty_rows,
    _joint_difficult,
    _mask_word,
    _may_be_difficult,
    derive_table1,
    derive_table2,
    local_signature,
    locally_difficult,
    realize_config,
    table2_candidates,
)
from test_certifier import patch_every_binding


def load_golden(name):
    return json.loads(resources.files("selfext").joinpath(f"data/{name}").read_text())


def test_runner_pair_config_validation():
    cfg = RunnerPairConfig((1,), (1, 1), 1)
    assert cfg.weight == 3
    with pytest.raises(ValueError):
        RunnerPairConfig((), (1, 1), 0)


def test_runner_config_gaps_are_read_like_parts():
    # an integral gap is stored as an int: True once stayed True, 1.0 was refused
    for gap in (1.0, True):
        assert type(RunnerPairConfig((), (1, 1), gap).gap) is int
        triple = RunnerTripleConfig((), (1, 1), (2, 2), gap, gap)
        assert triple == RunnerTripleConfig((), (1, 1), (2, 2), 1, 1)
        assert {type(triple.gap1), type(triple.gap2)} == {int}
    for gap in (1.5, "1", None):
        with pytest.raises(ValueError, match="gap must be an integer"):
            RunnerPairConfig((), (1, 1), gap)
        with pytest.raises(ValueError, match="gap2 must be an integer"):
            RunnerTripleConfig((), (1, 1), (2, 2), 1, gap)
    with pytest.raises(ValueError, match="gap1 must be positive, got 0"):
        RunnerTripleConfig((), (1, 1), (2, 2), 0, 1)


@pytest.mark.parametrize("config, args, message", [
    (RunnerPairConfig, ((1, 2), (), 1),
     "parts must be weakly decreasing: (1, 2)"),
    (RunnerPairConfig, ((), (1, 2), 1),
     "parts must be weakly decreasing: (1, 2)"),
    (RunnerPairConfig, ((), (), 0), "gap must be positive, got 0"),
    (RunnerTripleConfig, ((1, 2), (), (), 1, 1),
     "parts must be weakly decreasing: (1, 2)"),
    (RunnerTripleConfig, ((), (1, 2), (), 1, 1),
     "parts must be weakly decreasing: (1, 2)"),
    (RunnerTripleConfig, ((), (), (1, 2), 1, 1),
     "parts must be weakly decreasing: (1, 2)"),
    (RunnerTripleConfig, ((), (), (), "x", 1),
     "gap1 must be an integer, got 'x'"),
    (RunnerTripleConfig, ((), (), (), 1, 0), "gap2 must be positive, got 0"),
    # components are checked before gaps, and gap1 in full before gap2
    (RunnerTripleConfig, ((), (), (1, 2), 0, 1),
     "parts must be weakly decreasing: (1, 2)"),
    (RunnerTripleConfig, ((), (), (), 0, "x"), "gap1 must be positive, got 0"),
])
def test_every_runner_config_field_is_checked(config, args, message):
    with pytest.raises(ValueError) as info:
        config(*args)
    assert str(info.value) == message


def test_runner_triple_config_structure():
    t = RunnerTripleConfig((), (1, 1), (2, 2), 1, 1)
    assert t.gaps == (1, 2)
    assert t.weight == 6
    # components are normalized like check_partition's input
    t = RunnerTripleConfig([2, 1, 0], (1,), (), 1, 2)
    assert repr(t) == ("RunnerTripleConfig(left=(2, 1), middle=(1,), "
                       "right=(), gap1=1, gap2=2)")
    assert (t.weight, t.gaps) == (4, (1, 3))


def test_table1_matches_golden_rows():
    rows = derive_table1(7)
    assert len(rows) == 66
    got = Counter((c.weight, c.left, c.right, c.gap) for c in rows)
    want = Counter((r["weight"], parse_partition(r["left"]),
                    parse_partition(r["right"]), r["gap"])
                   for r in load_golden("table1.json"))
    assert got == want
    assert Counter(c.weight for c in rows) == {2: 1, 3: 2, 4: 4, 5: 9, 6: 17, 7: 33}


def test_table1_prefixes():
    assert [(c.left, c.right, c.gap) for c in derive_table1(2)] == [((), (1, 1), 1)]
    assert len(derive_table1(4)) == 7
    assert derive_table1(1) == []
    assert derive_table1(0) == []


def test_table1_matches_local_signature_oracle():
    for k in range(8):
        assert derive_table1(k) == oracles.table1_by_local_signature(k), k
        # the word read off sorted row sets, not off the runners' bit masks
        assert derive_table1(k) == oracles.table1_by_row_sets(k), k
    rows = derive_table2()
    assert len(rows) == 4 and table2_rows(rows) == golden_table2_rows()


def _scan_rows_by_range(left_rows, right_rows):
    # the signed word by definition: scan every row up to the top bead
    left_rows, right_rows = set(left_rows), set(right_rows)
    word, rows = [], []
    for t in range(max(left_rows | right_rows, default=-1) + 1):
        if (t in left_rows) != (t in right_rows):
            word.append("+" if t in left_rows else "-")
            rows.append(t)
    return "".join(word), tuple(rows)


row_sets = st.frozensets(st.integers(min_value=0, max_value=40), max_size=25)


@given(row_sets, row_sets, st.sampled_from(["as drawn", "disjoint", "shared"]))
def test_scan_rows_matches_range_scan(left, right, overlap):
    if overlap == "disjoint":
        right = right - left
    elif overlap == "shared":
        right = right | set(sorted(left)[::2])
    for a, b in ((left, right), (right, left), (left, left), (left, ())):
        entries = list(_mask_word(sum(1 << t for t in a),
                                  sum(1 << t for t in b)))
        word = "".join(sign for _, sign in entries)
        rows = tuple(t for t, _ in entries)
        assert (word, rows) == _scan_rows_by_range(a, b)


def test_table1_rejects_out_of_range():
    with pytest.raises(ValueError):
        derive_table1(8)
    with pytest.raises(ValueError):
        derive_table1(-1)
    # 3.0 once raised TypeError while 7.5 raised ValueError
    assert derive_table1(3.0) == derive_table1(3)
    for bad in (7.5, "3", None):
        with pytest.raises(ValueError, match="max_weight must be an integer"):
            derive_table1(bad)


def test_locally_difficult_examples():
    assert locally_difficult(RunnerPairConfig((), (1, 1), 1)) is True
    assert locally_difficult(RunnerPairConfig((1,), (1, 1, 1), 1)) is True
    assert locally_difficult(RunnerPairConfig((), (2,), 1)) is False


def test_local_signature_gap_dominates():
    sig = local_signature(RunnerPairConfig((), (), 3))
    assert sig.epsilon == 3 and sig.phi == 0


def plus_below_minus(left, right):
    # the adjacency alone: a "+" row (left runner only) directly below a "-"
    # row (right runner only)
    return bool(left & ~right & (right & ~left) >> 1)


def test_difficulty_rows_matches_the_reduced_word_on_every_small_pair():
    # the window test in front of the word refuses no difficult pair
    for left in range(2 ** 8):
        for right in range(2 ** 8):
            want = oracles.difficulty_rows_by_erasure(left, right)
            assert _difficulty_rows(left, right) == want, (left, right)
            assert want is None or _may_be_difficult(left, right), (left, right)
            assert want is None or plus_below_minus(left, right), (left, right)


def window_by_row_sets(left_rows, right_rows):
    """(adjacent, window) of a pair's bead-row sets: some row c holds a "+"
    (left only) below a "-" at c + 1 (right only); and for some such c the
    "+" rows below c are no fewer than the "-" rows below c, and the "-"
    rows above c + 1 no fewer than the "+" rows above c + 1."""
    plus = sorted(set(left_rows) - set(right_rows))
    minus = sorted(set(right_rows) - set(left_rows))
    rows = [c for c in plus if c + 1 in minus]
    return bool(rows), any(
        sum(t < c for t in plus) >= sum(t < c for t in minus)
        and sum(t > c + 1 for t in minus) >= sum(t > c + 1 for t in plus)
        for c in rows)


def mask_rows(mask):
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


def test_table1_reduces_only_the_pairs_the_window_test_passes(monkeypatch):
    reached = []

    def recording(left, right):
        reached.append((left, right))
        return _difficulty_rows(left, right)

    monkeypatch.setattr(tables, "_difficulty_rows", recording)
    assert len(derive_table1(7)) == 66
    counts = Counter()
    for w in range(2, 8):
        for left_size in range(w + 1):
            for left in partitions_of(left_size):
                for right in partitions_of(w - left_size):
                    for gap in range(1, w):
                        base = w + gap + 2
                        adjacent, window = window_by_row_sets(
                            rows_for_component(left, base),
                            rows_for_component(right, base + gap))
                        counts.update(candidates=1, adjacent=adjacent,
                                      window=window)
    assert counts == {"candidates": 1214, "adjacent": 227, "window": 69}
    assert len(reached) == 69
    assert all(window_by_row_sets(*map(mask_rows, pair))[1]
               for pair in reached)


def test_table2_candidates_match_the_pair_scan_in_order():
    for k in range(2, 8):
        pairs = derive_table1(k)
        assert (table2_candidates(pairs)
                == oracles.table2_candidates_by_pair_scan(pairs)), k


def test_table2_candidates_are_the_chained_pairs():
    cand = {(t.left, t.middle, t.right, t.gap1, t.gap2) for t in table2_candidates()}
    assert cand == {
        ((), (1, 1), (2, 2), 1, 1),
        ((), (1, 1), (1, 1, 1, 1), 1, 1),
        ((), (1, 1), (1, 1, 1, 1, 1), 1, 2),
        ((), (1, 1), (3, 2), 1, 1),
        ((), (1, 1), (2, 2, 1), 1, 1),
        ((), (1, 1), (2, 1, 1, 1), 1, 1),
        ((), (1, 1, 1), (2, 2), 2, 1),
        ((), (2, 1), (1, 1, 1, 1), 1, 1),
    }


def table2_rows(triples):
    return {(t.left, t.middle, t.right) + t.gaps for t in triples}


def golden_table2_rows():
    return {(parse_partition(r["left"]), parse_partition(r["middle"]),
             parse_partition(r["right"]), r["gaps"][0], r["gaps"][1])
            for r in load_golden("table2.json")}


def test_joint_difficult_matches_the_rows_oracle_on_every_chain():
    # every chain of two Table I rows, with no weight cut, so chains up to
    # weight 14 are judged as well as the weight <= 7 candidates
    pairs = derive_table1(7)
    chains = [RunnerTripleConfig(first.left, first.right, second.right,
                                 first.gap, second.gap)
              for first in pairs for second in pairs
              if second.left == first.right]
    verdicts = [_joint_difficult(t) for t in chains]
    assert verdicts == [oracles.joint_difficult_by_rows(t) for t in chains]
    assert (len(chains), sum(t.weight > 7 for t in chains)) == (12, 4)
    assert sum(verdicts) == 5
    # and every triple of components of weight <= 4 with gaps up to 3,
    # where most pairs are not difficult and 13 triples whose two pairs are
    # difficult miss a bead on the third runner
    small = [comp for k in range(5) for comp in partitions_of(k)]
    found = 0
    for left, middle, right in itertools.product(small, repeat=3):
        for gap1, gap2 in itertools.product(range(1, 4), repeat=2):
            t = RunnerTripleConfig(left, middle, right, gap1, gap2)
            verdict = _joint_difficult(t)
            assert verdict == oracles.joint_difficult_by_rows(t), t
            found += verdict
    assert found == 9


def test_table2_matches_golden_rows():
    rows = derive_table2()
    assert len(rows) == 4
    assert table2_rows(rows) == golden_table2_rows()


def test_local_signature_matches_global_on_embeddings():
    rng = random.Random(7)
    rows = derive_table1(7)
    done = 0
    for _ in range(500):
        c = rng.choice(rows)
        p = rng.choice([3, 5, 7])
        j = rng.randrange(1, p)
        base = c.weight + c.gap + 2
        counts = [0] * p
        counts[j - 1] = base
        counts[j] = base + c.gap
        comps = {j - 1: c.left, j: c.right}
        rows_by = {}
        for k in range(p):
            if k in comps:
                rows_by[k] = rows_for_component(comps[k], counts[k])
                continue
            counts[k] = rng.randrange(0, base + 4)
            if k == 0:
                counts[k] = max(counts[k], 1)
            extras = [()]
            if counts[k] >= 3:
                extras = list(partitions_of(rng.randrange(0, 3)))
            comp = rng.choice(extras)
            if len(comp) > counts[k]:
                comp = ()
            rows_by[k] = rows_for_component(comp, counts[k])
        beads = sum(counts)
        if 0 not in rows_by[0]:
            continue
        done += 1
        la = from_runner_rows(rows_by, p)
        i = (j - beads) % p
        glob = signature(la, p, i)
        loc = local_signature(c)
        assert "".join(sign for _, sign in glob.word) == loc.word
        assert glob.epsilon == loc.epsilon and glob.phi == loc.phi
        if glob.epsilon:
            row, col = glob.good
            pos = col - row + beads
            assert pos % p == j and pos // p == loc.good_row
        if glob.phi:
            row, col = glob.cogood
            pos = col - row + beads
            assert pos % p == j and pos // p == loc.cogood_row
    assert done >= 400


def test_realize_config_covers_tables():
    # every row embeds at p = 5 and 7, and all but three Table I rows at
    # p = 3; each witness is p-regular and difficult at one residue or more
    # (two or more for a triple)
    rows = derive_table1(7)
    rows += derive_table2(rows)
    unplaced = set()
    for config in rows:
        for p in (3, 5, 7):
            try:
                la = realize_config(config, p)
            except ValueError:
                unplaced.add((config, p))
                continue
            assert is_p_regular(la, p), (config, p)
            hard = sum(is_difficult(la, p, i) for i in range(p))
            assert hard >= (2 if isinstance(config, RunnerTripleConfig)
                            else 1), (config, p, la)
    assert unplaced == {(RunnerPairConfig((1, 1, 1), (2, 2), 1), 3),
                        (RunnerPairConfig((1, 1), (2, 2, 1), 1), 3),
                        (RunnerPairConfig((), (2, 2, 2, 1), 1), 3)}


def test_table_rows_equal_the_checked_constructors():
    def same(built, checked):
        assert type(built) is type(checked)
        assert vars(built) == vars(checked)
        assert built == checked and hash(built) == hash(checked)
        assert built.weight == checked.weight

    for k in range(8):
        for c in derive_table1(k):
            same(c, RunnerPairConfig(c.left, c.right, c.gap))
    for t in table2_candidates():
        checked = RunnerTripleConfig(t.left, t.middle, t.right, t.gap1, t.gap2)
        same(t, checked)
        assert t.gaps == checked.gaps


def test_tables_check_only_max_weight(monkeypatch):
    calls = {"check_partition": [], "check_integer": []}
    for name, seen in calls.items():
        def counting(*args, real=getattr(partitions, name), seen=seen):
            seen.append(args)
            return real(*args)
        patch_every_binding(monkeypatch, getattr(partitions, name), counting)
    derive_table1(7)
    derive_table2()
    assert calls == {"check_partition": [],
                     "check_integer": [(7, "max_weight")] * 2}


def test_table2_reads_its_pairs_once():
    # an iterator once gave an empty Table II: the pairs were read twice
    pairs = derive_table1(7)
    assert table2_candidates(iter(pairs)) == table2_candidates(pairs)
    assert derive_table2(iter(pairs)) == derive_table2() != []


def test_table2_refuses_a_plain_tuple():
    # a tuple once raised AttributeError from inside the chain index
    for table in (derive_table2, table2_candidates):
        with pytest.raises(TypeError, match=r"expected a RunnerPairConfig, "
                                            r"got \(\(\), \(1, 1\), 1\)"):
            table([((), (1, 1), 1)])


def test_realize_config_refuses_a_plain_tuple():
    with pytest.raises(TypeError, match="expected a pair or triple config"):
        realize_config(((), (1, 1), 1), 3)


def test_table1_covers_difficult_pairs():
    # every difficult (la, i) that admits a normalized (gap >= 1) runner-pair
    # embedding of weight <= 7 must produce a row of Table I
    table = {(c.left, c.right, c.gap) for c in derive_table1(7)}
    checked = 0
    for n in range(17):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            for i in range(3):
                if not is_difficult(la, 3, i):
                    continue
                candidates = []
                for beads in range(len(la) + 1, len(la) + 7):
                    j = (i + beads) % 3
                    if j == 0:
                        continue
                    _, rows, comps = oracles.runner_data(la, beads, 3)
                    left, right = comps[j - 1], comps[j]
                    gap = len(rows[j]) - len(rows[j - 1])
                    if gap >= 1 and sum(left) + sum(right) <= 7:
                        candidates.append((left, right, gap))
                if not candidates:
                    continue
                checked += 1
                assert any(c in table for c in candidates), (la, i, candidates)
    assert checked == 27
