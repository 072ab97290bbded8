"""Local difficulty on runner pairs/triples and brute-force table derivation.

A bead on the right runner of an adjacent pair with a gap to its left is a
removable node of the pair's residue; a bead on the left runner with a gap to
its right is an addable one.  Every node of that residue lives on the pair, so
the local signed word (rows scanned bottom to top) reduces exactly like the
global one, independently of the remaining runners.  Each runner enters as
the bit mask of a runner's rows (bit r set when row r holds a bead), built
from abacus.rows_for_component; a pair's word is read off left ^ right and
reduced by signatures.cancel_word.  The public RunnerPairConfig and
RunnerTripleConfig constructors check every field; the rows derive_table1
and table2_candidates build from components and gaps they made themselves
(or from pairs already checked) are not checked again.
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

    Each candidate (left, right, gap) is judged on the bit mask of each
    runner's rows.  A difficult pair needs a "+" row (bead on the left runner
    only) directly below a "-" row (bead on the right runner only), so one
    bit test, left & ~right & (right & ~left) >> 1, written inline in the
    candidate filter, refuses most candidates (227 of the 1214 at
    max_weight 7 pass it).  Only those reach _difficulty_rows, the one pair
    criterion, which the table-2 filter and realize_config use too
    (locally_difficult reads the same condition off a full LocalSignature);
    66 of them are difficult.  Each component's mask is built once per call,
    at max_weight + 1 beads; the right runner's gap extra beads shift its
    mask up gap rows and fill the rows below, once per right component and
    gap.  A bead added to both runners shifts the word up one row, which
    leaves the criterion unchanged.  The kept rows are built without the
    constructor's check: their components come from partitions_of and their
    gaps from range.

    Deterministic order: (weight, gap descending, right component, left
    component); max_weight above 7 is outside the verified range and refused.
    """
    max_weight = check_integer(max_weight, "max_weight")
    if not 0 <= max_weight <= 7:
        raise ValueError(f"max_weight must be in 0..7, got {max_weight}")
    comps = [tuple(partitions_of(k)) for k in range(max_weight + 1)]
    masks = {comp: _rows_mask(rows_for_component(comp, max_weight + 1))
             for size_comps in comps for comp in size_comps}
    found = sorted(
        (w, -gap, right, left)
        for w in range(2, max_weight + 1)
        for right_size in range(w + 1)
        for right in comps[right_size]
        for gap in range(1, w)
        for rmask in [masks[right] << gap | (1 << gap) - 1]
        for left in comps[w - right_size]
        for lmask in [masks[left]]
        if lmask & ~rmask & (rmask & ~lmask) >> 1
        and _difficulty_rows(lmask, rmask))
    return [_built(RunnerPairConfig, left=left, right=right, gap=-minus_gap,
                   _weight=w)
            for w, minus_gap, right, left in found]


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
    left, middle, right = map(_rows_mask, triple.rows())
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
