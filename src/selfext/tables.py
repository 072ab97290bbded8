"""Local difficulty on runner pairs/triples and brute-force table derivation.

A bead on the right runner of an adjacent pair with a gap to its left is a
removable node of the pair's residue; a bead on the left runner with a gap to
its right is an addable one.  Every node of that residue lives on the pair, so
the local signed word (rows scanned bottom to top) reduces exactly like the
global one, independently of the remaining runners.  Each runner enters as
the bit mask of a runner's rows (bit r set when row r holds a bead); a
pair's word is read off left ^ right and reduced by signatures.cancel_word.
The tables read their runners from one module-level table, _MASKS: the row
mask of each of the 45 components of weight <= 7 on 8 beads, which a gap of
g shifts up g rows with the rows below filled (_mask).  derive_table1 reduces
only the pairs that pass a popcount window test (_may_be_difficult): 69 of
its 1214 candidates at max_weight 7, of which 66 are difficult.  The public
RunnerPairConfig and RunnerTripleConfig constructors check every field; the
rows derive_table1 and table2_candidates build from components and gaps
they made themselves (or from pairs already checked) are not checked again.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .partitions import (check_integer, check_p, check_partition,
                         is_p_regular, partitions_of)
from .abacus import from_runner_rows, rows_for_component
from .signatures import cancel_word, difficult, signatures


class _RunnerConfig:
    """Adjacent runner components and the bead-count gap from each to the
    next, named by a subclass's _components and _gaps; __post_init__ checks
    them and keeps the weight."""

    def __post_init__(self):
        fields = vars(self)  # written in place: the dataclass is frozen
        weight = 0
        for name in self._components:
            comp = fields[name] = check_partition(fields[name])
            weight += sum(comp)
        for name in self._gaps:
            gap = fields[name] = check_integer(fields[name], name)
            if gap < 1:
                raise ValueError(f"{name} must be positive, got {gap}")
        fields["_weight"] = weight

    @property
    def weight(self) -> int:
        return self._weight

    def rows(self) -> list:
        """Bead rows of the configured runners: the leftmost holds the
        weight plus the gaps plus 2 beads, and each runner after it its gap
        more than its left neighbour."""
        comps = [getattr(self, name) for name in self._components]
        spread = [getattr(self, name) for name in self._gaps]
        base = self._weight + sum(spread) + 2
        return [rows_for_component(comp, beads) for comp, beads
                in zip(comps, itertools.accumulate(spread, initial=base))]


@dataclass(frozen=True)
class RunnerPairConfig(_RunnerConfig):
    """Two adjacent runner components and their bead-count gap (right - left)."""

    _components, _gaps = ("left", "right"), ("gap",)
    left: tuple
    right: tuple
    gap: int


@dataclass(frozen=True)
class RunnerTripleConfig(_RunnerConfig):
    """Three adjacent runner components with consecutive bead-count gaps."""

    _components, _gaps = ("left", "middle", "right"), ("gap1", "gap2")
    left: tuple
    middle: tuple
    right: tuple
    gap1: int
    gap2: int

    @property
    def gaps(self) -> tuple:
        """Gaps measured from the left runner: (g1, g1 + g2)."""
        return (self.gap1, self.gap1 + self.gap2)


@dataclass(frozen=True)
class LocalSignature:
    """Signed word of a runner pair; counts and rows of its reduced word."""

    word: str
    epsilon: int
    phi: int
    good_row: int | None
    cogood_row: int | None


def _rows_mask(rows) -> int:
    """Bit mask of a runner's rows: bit r is set when row r holds a bead."""
    return sum(1 << r for r in rows)


# Row masks of every component of weight <= 7 (the longest has 7 parts) on 8
# beads, indexed by weight, each weight's components in partitions_of order.
_MASKS = [{comp: _rows_mask(rows_for_component(comp, 8))
           for comp in partitions_of(k)} for k in range(8)]


def _mask(comp, gap: int = 0) -> int:
    """Row mask of a runner carrying comp (weight <= 7) on 8 + gap beads: the
    gap extra beads shift the 8-bead mask up gap rows and fill the rows
    below.  A bead added to every runner of a pair or triple shifts its word
    up one row, which no criterion here notices, so one bead count serves
    every table row."""
    return _MASKS[sum(comp)][comp] << gap | (1 << gap) - 1


def _mask_word(left: int, right: int):
    """(row, sign) entries of the signed word of two runners' row masks, the
    (label, sign) order cancel_word reads, rows ascending: a row with a bead
    on exactly one runner emits "+" for the left runner, "-" for the right."""
    diff = left ^ right
    while diff:
        low = diff & -diff
        yield low.bit_length() - 1, ("-" if right & low else "+")
        diff ^= low


def local_signature(pair: RunnerPairConfig) -> LocalSignature:
    """Signature of the pair's residue, computed from the two runners alone."""
    left, right = pair.rows()
    entries = tuple(_mask_word(_rows_mask(left), _rows_mask(right)))
    plus, minus = cancel_word(entries)
    return LocalSignature(
        word="".join(sign for _, sign in entries),
        epsilon=len(minus),
        phi=len(plus),
        good_row=minus[0] if minus else None,
        cogood_row=plus[-1] if plus else None,
    )


def locally_difficult(pair: RunnerPairConfig) -> bool:
    """Whether the pair alone forces difficulty at its residue.

    True iff the local signature has epsilon, phi > 0 and the good removable
    bead sits one row above the cogood addable bead; the occupancy the full
    criterion demands of the intervening positions lands on other runners and
    is treated as satisfiable.
    """
    sig = local_signature(pair)
    return (sig.epsilon > 0 and sig.phi > 0
            and sig.good_row == sig.cogood_row + 1)


def derive_table1(max_weight: int) -> list:
    """All locally difficult runner pairs of combined weight <= max_weight.

    Each candidate (left, right, gap) is judged on its runners' row masks,
    read from the module's table: the left component's 8-bead mask and the
    right one's shifted up gap rows as _mask does, once per right component
    and gap.  A popcount window test, _may_be_difficult, refuses only pairs
    whose word cannot leave a surviving "+" directly below a surviving "-";
    at max_weight 7, 227 of the 1214 candidates have such an adjacent "+"
    and "-" and 69 pass the test.  Only those reach _difficulty_rows, the
    one pair criterion, which reduces the word (the table-2 filter and
    realize_config call it too; locally_difficult reads the same condition
    off a full LocalSignature); 66 of them are difficult.  The kept rows
    are built without the constructor's check: their components come from
    partitions_of and their gaps from range.

    Deterministic order: (weight, gap descending, right component, left
    component); max_weight above 7 is outside the verified range and refused.
    """
    max_weight = check_integer(max_weight, "max_weight")
    if not 0 <= max_weight <= 7:
        raise ValueError(f"max_weight must be in 0..7, got {max_weight}")
    found = sorted(
        (w, -gap, right, left)
        for w in range(2, max_weight + 1)
        for right_size in range(w + 1)
        for right, mask in _MASKS[right_size].items()
        for gap in range(1, w)
        for rmask in [mask << gap | (1 << gap) - 1]
        for left, lmask in _MASKS[w - right_size].items()
        if _may_be_difficult(lmask, rmask)
        and _difficulty_rows(lmask, rmask))
    return [_built(RunnerPairConfig, left=left, right=right, gap=-minus_gap,
                   _weight=w)
            for w, minus_gap, right, left in found]


def _may_be_difficult(left: int, right: int) -> bool:
    """Whether some row c of the pair, given as the bit mask of each
    runner's rows, holds a "+" (left runner only) below a "-" at row c + 1
    (right runner only) that can both survive the reduction: the "+" rows
    below c are at least as many as the "-" rows below c, and the "-" rows
    above c + 1 at least as many as the "+" rows above c + 1.

    Every difficult pair passes.  Its highest surviving "+" (row c) sits
    directly below its lowest surviving "-" (row c + 1), so the test's
    adjacent "+" and "-" exist.  cancel_word reads rows upwards and each
    "+" erases the latest pending "-".  The "+" at c survives only if no
    "-" is pending when it is read, so each "-" below c was erased by a
    "+" below c.  The "-" at c + 1 survives only if it is never erased; a
    "+" above it meets a pending "-" pushed after it, so each "+" above
    c + 1 erased a "-" above c + 1.  The adjacency alone is the bit test
    left & ~right & (right & ~left) >> 1, so passing this test implies
    passing that one.
    """
    plus, minus = left & ~right, right & ~left
    adjacent = plus & minus >> 1
    while adjacent:
        low = adjacent & -adjacent  # bit c
        above = low.bit_length() + 1  # rows above c + 1 start at c + 2
        if ((plus & low - 1).bit_count() >= (minus & low - 1).bit_count()
                and (minus >> above).bit_count()
                >= (plus >> above).bit_count()):
            return True
        adjacent ^= low
    return False


def _built(cls, **fields):
    """A cls instance holding fields, _weight included, that the package
    built itself: the public constructor's check is skipped."""
    config = object.__new__(cls)
    vars(config).update(fields)
    return config


def _difficulty_rows(left: int, right: int):
    """(good row, cogood row) of a difficult pair given as the bit mask of
    each runner's rows, or None.

    The pair is difficult when its lowest surviving "-" (row c + 1) sits one
    row above its highest surviving "+" (row c), read off the word reduced
    by signatures.cancel_word.
    """
    plus, minus = cancel_word(_mask_word(left, right))
    if not (minus and plus and minus[0] == plus[-1] + 1):
        return None
    return minus[0], plus[-1]


def derive_table2(pairs=None) -> list:
    """All runner triples forcing difficulty at both of their residues.

    Candidates chain two table-1 pairs through a shared middle component with
    total weight <= 7; the joint filter keeps a candidate only when each
    pair's difficulty window finds the third runner occupied where the full
    criterion needs it (outer runner at the other pair's good/cogood rows).
    pairs, when given, are the rows of derive_table1(7) the caller already
    holds; otherwise they are derived here.
    """
    return [t for t in table2_candidates(pairs) if _joint_difficult(t)]


def table2_candidates(pairs=None) -> list:
    """The overlapping table-1 pair chains before the joint occupancy filter;
    pairs, any iterable of RunnerPairConfig (read once), defaults to
    derive_table1(7).

    A chain joins a first pair to a second pair whose left runner is the
    first pair's right runner: pairs are indexed once by their left
    component, and each first pair meets only the pairs under its right
    component.  A chain's weight is first.weight plus the second pair's
    right component, so a chain over weight 7 is never built, and the kept
    triples are built without the constructor's check: every
    RunnerPairConfig was checked when it was made.
    """
    pairs = derive_table1(7) if pairs is None else tuple(pairs)
    by_left = {}
    for pair in pairs:
        if not isinstance(pair, RunnerPairConfig):
            raise TypeError(f"expected a RunnerPairConfig, got {pair!r}")
        by_left.setdefault(pair.left, []).append(pair)
    found = sorted(
        (weight, first.gap, first.gap + second.gap, second.right, first.right,
         first.left, second.gap)
        for first in pairs
        for second in by_left.get(first.right, ())
        for weight in [first.weight + sum(second.right)]
        if weight <= 7)
    return [_built(RunnerTripleConfig, left=left, middle=middle, right=right,
                   gap1=gap1, gap2=gap2, _weight=weight)
            for weight, gap1, _, right, middle, left, gap2 in found]


def _joint_difficult(triple: RunnerTripleConfig) -> bool:
    """Whether both pairs of the triple are difficult and each finds the
    third runner occupied where its window needs it.  The runners' masks
    come from the module's table (every component of a chain has weight
    <= 7), the middle one shifted up gap1 rows and the right one gap1 +
    gap2, like derive_table1's right runner."""
    to_middle, to_right = triple.gaps
    left = _mask(triple.left)
    middle = _mask(triple.middle, to_middle)
    right = _mask(triple.right, to_right)
    first = _difficulty_rows(left, middle)
    second = _difficulty_rows(middle, right)
    if first is None or second is None:
        return False
    # Each pair's criterion requires every position strictly inside its bead
    # window to be occupied; on the third runner of the triple that means the
    # right runner at the first pair's cogood row and the left runner at the
    # second pair's good row.
    return bool(right >> first[1] & 1 and left >> second[0] & 1)


def realize_config(config, p: int):
    """Embed a pair or triple into a p-runner abacus and decode the witness.

    The configured runners take their rows from config.rows().  Each spare
    runner carries one filler so that the positions the full criterion checks
    off the configured runners are occupied: the rows of a component of
    weight 0..4 on floor..floor + 3 beads, where floor is one more than the
    highest row it must fill.  Fillers are tried lightest first, so a full
    prefix comes first.  Returns a p-regular partition difficult at the
    configured residue(s); raises if no placement at this p works.
    """
    p = check_p(p, 3)
    if not isinstance(config, _RunnerConfig):
        raise TypeError(f"expected a pair or triple config, got {config!r}")
    own = config.rows()
    span = len(own)
    masks = list(map(_rows_mask, own))
    windows = [_difficulty_rows(*pair) for pair in zip(masks, masks[1:])]
    if None in windows:
        raise ValueError(f"{config} is not (jointly) difficult")

    def candidates(required):
        floor = max(required) + 1
        for w in range(5):
            for c in range(floor, floor + 4):
                for comp in partitions_of(w):
                    if len(comp) <= c:
                        rows = rows_for_component(comp, c)
                        if required.issubset(rows):
                            yield rows

    need_below = frozenset(good for good, _ in windows)
    need_above = frozenset(good - 1 for good, _ in windows)
    errors = []
    for j in range(span - 1, p):
        belows = list(candidates(need_below)) if j - span + 1 > 0 else [()]
        aboves = list(candidates(need_above)) if j < p - 1 else [()]
        for below, above in itertools.product(belows, aboves):
            rows = [own[k - (j - span + 1)] if j - span + 1 <= k <= j
                    else below if k < j - span + 1 else above
                    for k in range(p)]
            if 0 not in rows[0]:  # position 0 stays occupied
                continue
            beads = sum(map(len, rows))
            la = from_runner_rows(rows, p)
            residues = [(k - beads) % p for k in range(j - span + 2, j + 1)]
            if not is_p_regular(la, p):
                errors.append(f"j={j}: decoded {la} is {p}-singular")
                continue
            reports = signatures(la, p)
            bad = [i for i in residues if not difficult(reports[i])]
            if bad:
                errors.append(f"j={j}: {la} not difficult at {bad}")
                continue
            return la
    detail = "; ".join(errors[:4]) + ("; ..." if len(errors) > 4 else "")
    raise ValueError(f"no embedding of {config} at p={p}: {detail}")
