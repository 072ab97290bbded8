"""Abacus displays on p runners: cores, quotients, weights, runner rows.

A display places beads at the beta-numbers {la_i + N - i : 1 <= i <= N} of a
partition read with N beads; position q sits on runner q mod p at row q // p.
Position 0 is always kept occupied (pass to N + p beads when it is not).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .partitions import check_partition, height


@dataclass(frozen=True)
class AbacusDisplay:
    """Bead positions of a partition on p runners."""

    p: int
    beads: int
    occupied: frozenset

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        if len(self.occupied) != self.beads:
            raise ValueError("bead count does not match occupied set")
        if any(q < 0 for q in self.occupied):
            raise ValueError("positions must be non-negative")
        if 0 not in self.occupied:
            raise ValueError("position 0 must be occupied")


@dataclass(frozen=True)
class RunnerStats:
    """Per-runner bead counts, quotient components, weights, and node residues."""

    p: int
    beads: int
    bead_counts: tuple
    components: tuple
    weights: tuple
    residues: tuple

    @property
    def weight(self) -> int:
        return sum(self.weights)


def bead_rows(positions, p: int) -> list:
    """Sorted bead rows of each of the p runners, in one pass."""
    rows = [[] for _ in range(p)]
    for q in sorted(positions):
        rows[q % p].append(q // p)
    return rows


def from_runner_rows(rows, p: int) -> tuple:
    """Partition whose beads sit at rows[j] on runner j: bead_rows inverted."""
    return component_from_rows([j + p * r for j in range(p) for r in rows[j]])


def beta_set(la, beads: int) -> frozenset:
    """Beta-numbers of la read with the given number of beads."""
    return frozenset(rows_for_component(check_partition(la), beads))


def display(la, p: int, beads: int | None = None) -> AbacusDisplay:
    """Abacus display of la; extends by p beads if position 0 would be empty."""
    la = check_partition(la)
    if beads is None:
        beads = height(la) + 1
    if beads < max(height(la), 1):
        raise ValueError(f"need at least {max(height(la), 1)} beads for {la}")
    if beads == height(la):  # no part is read as 0, so position 0 is empty
        beads += p
    # a partition's beta-set is its bead rows on a single runner
    return AbacusDisplay(p, beads, frozenset(rows_for_component(la, beads)))


def decode(gamma: AbacusDisplay) -> tuple:
    """Partition encoded by a display: la_k = (k-th largest position) - (N - k)."""
    return component_from_rows(gamma.occupied)  # a one-runner reading


def rows_for_component(component, count: int) -> tuple:
    """Bead rows of a single runner carrying `component` with `count` beads."""
    if count < height(component):
        raise ValueError(f"need at least {height(component)} beads for {component}")
    parts = component + (0,) * (count - height(component))
    return tuple(sorted(parts[i - 1] + count - i for i in range(1, count + 1)))


def component_from_rows(rows) -> tuple:
    """Partition read off a single runner whose beads sit at the given rows."""
    rows = sorted(rows)  # the t-th lowest bead gives the part rows[t] - t
    return tuple(rows[t] - t for t in reversed(range(len(rows)))
                 if rows[t] > t)


def quotient(gamma: AbacusDisplay) -> RunnerStats:
    """Per-runner statistics with the display's own runner indexing."""
    counts, comps, weights = [], [], []
    for rows in bead_rows(gamma.occupied, gamma.p):
        comp = component_from_rows(rows)
        counts.append(len(rows))
        comps.append(comp)
        weights.append(sum(comp))
    residues = tuple((j - gamma.beads) % gamma.p for j in range(gamma.p))
    return RunnerStats(gamma.p, gamma.beads, tuple(counts), tuple(comps),
                       tuple(weights), residues)


def core_and_weight(la, p: int) -> tuple:
    """(p-core, weight) of la."""
    la = check_partition(la)
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    return core_weight(la, p)


def core_weight(la, p: int) -> tuple:
    """core_and_weight of a normalised tuple, from its h + 1 beta-numbers,
    lowest first: the bead at q moves up its runner past the count[q % p]
    beads already on it."""
    count, moves = [0] * p, 0
    for q in (0, *map(operator.add, reversed(la), range(1, len(la) + 1))):
        moves += q // p - count[q % p]
        count[q % p] += 1
    core = [j + p * t for j in range(p) for t in range(count[j])]  # pushed up
    return component_from_rows(core), moves


def decode_config(cfg, p: int) -> tuple:
    """Partition of a runner config: p pairs (component, bead-count offset).

    The base bead count is the smallest making every runner viable, then full
    top rows are added until position 0 is occupied.
    """
    cfg = list(cfg)
    if len(cfg) != p:
        raise ValueError(f"config needs exactly {p} runners, got {len(cfg)}")
    comps = [check_partition(comp) for comp, _ in cfg]
    offsets = [int(off) for _, off in cfg]
    base = max([0] + [height(comp) - off for comp, off in zip(comps, offsets)]
               + [-off for off in offsets])
    # position 0 occupied means runner 0 keeps a bead in row 0
    if height(comps[0]) >= base + offsets[0]:
        base += 1
    return from_runner_rows([rows_for_component(comps[j], base + offsets[j])
                             for j in range(p)], p)
