"""The James abacus on p runners, read as runner rows.

Reading a partition with N beads places them at its beta-numbers
{la_i + N - i : 1 <= i <= N}; position q sits on runner q mod p at row
q // p.  Every abacus here is a list of p sorted bead-row tuples, one per
runner: bead_rows splits beta-numbers into them, from_runner_rows decodes
them, and rows_for_component / component_from_rows convert between one
runner's rows and its quotient component.  core_and_weight reads the p-core
and weight off the same beads.
"""
from __future__ import annotations

import operator

from .partitions import check_p, check_partition


def bead_rows(positions, p: int) -> list:
    """Sorted bead rows of each of the p runners, in one pass."""
    rows = [[] for _ in range(p)]
    for q in sorted(positions):
        rows[q % p].append(q // p)
    return rows


def from_runner_rows(rows, p: int) -> tuple:
    """Partition whose beads sit at rows[j] on runner j: bead_rows inverted."""
    return component_from_rows([j + p * r for j in range(p) for r in rows[j]])


def rows_for_component(component, count: int) -> tuple:
    """Bead rows of a single runner carrying `component` with `count` beads."""
    if count < len(component):
        raise ValueError(f"need at least {len(component)} beads for {component}")
    parts = component + (0,) * (count - len(component))
    return tuple(sorted(parts[i - 1] + count - i for i in range(1, count + 1)))


def component_from_rows(rows) -> tuple:
    """Partition read off a single runner whose beads sit at the given rows."""
    rows = sorted(rows)  # the t-th lowest bead gives the part rows[t] - t
    return tuple(rows[t] - t for t in reversed(range(len(rows)))
                 if rows[t] > t)


def core_and_weight(la, p: int) -> tuple:
    """(p-core, weight) of la."""
    return core_weight(check_partition(la), check_p(p))


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

