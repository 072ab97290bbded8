"""Block identity, block enumeration, Rouquier cores and RoCK membership, all
read off abacus.bead_counts: a block's members share their core's counts."""
from __future__ import annotations

from dataclasses import dataclass

from .partitions import (MAX_SIZE, check_integer, check_p, check_partition,
                         check_regular, is_p_regular, partitions_of)
from .abacus import bead_counts, from_runner_rows, rows_for_component


@dataclass(frozen=True)
class BlockId:
    """A block label: p-core, weight, and the prime."""

    core: tuple
    weight: int
    p: int

    def __post_init__(self):
        core, p = check_partition(self.core), check_p(self.p)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "p", p)
        if bead_counts(core, p)[1] != 0:
            raise ValueError(f"{core} is not a {p}-core")
        weight = check_integer(self.weight, "weight")
        object.__setattr__(self, "weight", weight)
        if weight < 0:
            raise ValueError("weight must be non-negative")

    @property
    def n(self) -> int:
        return sum(self.core) + self.p * self.weight


def _multipartitions(d: int, parts: int):
    """All tuples of `parts` partitions with total size d, in lex order of
    (size descending, partitions_of order) per component.  A level places the
    first non-empty component, so the recursion is at most d + 1 deep."""
    if d == 0:
        yield ((),) * parts
        return
    for j in range(parts):  # j empty components, then a non-empty one
        least = 0 if j < parts - 1 else d - 1  # the last one takes all of d
        for size in range(d, least, -1):
            for first in partitions_of(size):
                for rest in _multipartitions(d - size, parts - j - 1):
                    yield ((),) * j + (first,) + rest


def enumerate_block(b: BlockId, regular_only: bool = False) -> list:
    """All partitions with the given core and weight, by distributing the
    weight over the runners of the core's display as quotient components;
    ValueError, before any work, when the members exceed MAX_SIZE boxes."""
    if b.n > MAX_SIZE:
        raise ValueError(f"block members exceed {MAX_SIZE} boxes")
    p, d = b.p, b.weight
    # the core's h + 1 beads and d + 1 full rows: position 0 stays occupied
    counts = [c + d + 1 for c in bead_counts(b.core, p)[0]]
    out = []
    for multi in _multipartitions(d, p):
        la = from_runner_rows([rows_for_component(multi[j], counts[j])
                               for j in range(p)], p)
        if not regular_only or is_p_regular(la, p):
            out.append(la)
    return out


def is_rouquier(rho, p: int, d: int) -> bool:
    """True iff some display of the core rho has runner bead counts
    r_0 <= ... <= r_{p-1} growing by at least d-1 at each step."""
    block = BlockId(rho, d, p)  # rho a p-core, d a weight, as for a label
    return rouquier_counts(bead_counts(block.core, block.p)[0], block.weight)


def rouquier_counts(counts, d: int) -> bool:
    """is_rouquier on the bead counts of a display of the core or a member."""
    # One more bead moves runner j's beads to j + 1, and p-1's plus the new
    # bead at 0 to runner 0; p such rotations add one to every runner, so a
    # rotated count is some c or c + 1.  A rotation rising by d-1 at each
    # step is the counts themselves or runs from a wrapped c + 1 to an
    # unwrapped c, so the counts spread by at least (p-1)(d-1).
    if max(counts) - min(counts) < (len(counts) - 1) * (d - 1):
        return False
    for _ in range(len(counts)):
        if all(b - a >= d - 1 for a, b in zip(counts, counts[1:])):
            return True
        counts = [counts[-1] + 1] + counts[:-1]
    return False


def is_rock_block(la, p: int) -> bool:
    """True iff la lies in a block with a d-Rouquier core, d = wt(la)."""
    la, p = check_regular(la, p)
    return rouquier_counts(*bead_counts(la, p))
