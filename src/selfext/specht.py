"""Irreducibility of Specht modules via the abacus-runner recursion, and the
search for irreducible Specht preimages under regularization."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import (check_partition, check_regular, is_p_regular,
                         is_p_restricted)
from .abacus import bead_rows
from .bijections import ladder_counts
from .signatures import remove_normals, signature


@dataclass(frozen=True)
class SpechtResult:
    """Verdict plus a witness: the display (bead count) and runner pair that
    satisfy the criterion, with the recursion trace for the two components."""

    partition: tuple
    p: int
    irreducible: bool
    beads: int | None = None
    regular_runner: int | None = None
    restricted_runner: int | None = None
    sub_regular: "SpechtResult | None" = None
    sub_restricted: "SpechtResult | None" = None

    def __bool__(self):
        return self.irreducible


def _runner_data(la, beads, p):
    """Beta-numbers (descending), bead rows and quotient components of la read
    with beads >= len(la) beads.  la must be a normalised tuple: nothing here
    re-checks it."""
    beta = [part + beads - i for i, part in enumerate(la, 1)]
    beta += range(beads - len(la) - 1, -1, -1)
    rows = bead_rows(beta, p)
    # the t-th lowest bead of a runner is its component's part from the
    # bottom, r[t] - t; those rise weakly with t, so the zeros come first
    comps = [tuple(r[t] - t for t in range(len(r) - 1, -1, -1) if r[t] > t)
             for r in rows]
    return beta, rows, comps


def _condition_ii(beta, p, j, rows_j):
    """Every occupied position above the first gap of runner j is on runner j."""
    gaps = [t for t in range(len(rows_j) + 1) if t not in rows_j]
    first_gap = j + p * gaps[0]
    return all(q % p == j for q in beta if q > first_gap)


def _condition_iii(beta, p, k, rows_k):
    """Every position below the last bead of runner k, off runner k, is occupied."""
    if not rows_k:
        return True
    last = k + p * rows_k[-1]
    occupied = set(beta)
    return all(q in occupied for q in range(last) if q % p != k)


@lru_cache(maxsize=65536)
def _irreducible(la, p):
    """The recursion behind specht_irreducible; la is a normalised tuple."""
    h = max(len(la), 1)
    beta, rows, comps = _runner_data(la, h, p)
    busy = sum(1 for comp in comps if comp)
    if busy == 0:
        # empty quotient: weight 0, a core
        return SpechtResult(la, p, True)
    if busy > 2:
        # one more bead only rotates the runners, so every display has more
        # than two nonempty runners and no (j, k) pair can pass
        return SpechtResult(la, p, False)
    for beads in range(h, h + p):
        if beads > h:
            beta, rows, comps = _runner_data(la, beads, p)
        nonempty = [j for j in range(p) if comps[j]]
        for j in range(p):
            for k in range(p):
                if any(l not in (j, k) for l in nonempty):
                    continue
                if not _condition_ii(beta, p, j, rows[j]):
                    continue
                if not _condition_iii(beta, p, k, rows[k]):
                    continue
                if not is_p_regular(comps[j], p):
                    continue
                if not is_p_restricted(comps[k], p):
                    continue
                sub_j = _irreducible(comps[j], p)
                if not sub_j:
                    continue
                sub_k = _irreducible(comps[k], p)
                if not sub_k:
                    continue
                return SpechtResult(la, p, True, beads, j, k, sub_j, sub_k)
    return SpechtResult(la, p, False)


def specht_irreducible(la, p: int) -> SpechtResult:
    """Whether the Specht module labeled by la is irreducible (p > 2)."""
    if p <= 2:
        raise ValueError("the irreducibility criterion needs p > 2")
    return _irreducible(check_partition(la), p)


def special_runners(la, p: int):
    """(non-restricted runner, non-regular runner) of an irreducible-Specht
    label; each is None when the corresponding property holds (cores: both)."""
    result = specht_irreducible(la, p)
    la = result.partition
    if not result:
        raise ValueError(f"S^{la} is not irreducible at p={p}")
    j = result.regular_runner if not is_p_restricted(la, p) else None
    k = result.restricted_runner if not is_p_regular(la, p) else None
    return j, k


def _ladder_preimage(mu, p: int) -> list:
    """Every nu with nu^R = mu, in the order the search meets them.

    Regularization keeps ladder counts, so these are the partitions with mu's
    ladder counts.  For p > 2 at most one of them labels an irreducible
    Specht module (that S^nu is D^{nu^R}, and Specht modules are pairwise
    non-isomorphic), so their order does not matter.  They are built row by
    row, depth first on an explicit stack (so a member may have any number of
    rows), and a branch is dropped when a ladder would overflow, when row r
    leaves ladder r (final from then on) short, or when the farthest ladder
    still short is out of reach.
    """
    counts = ladder_counts(mu, p)
    top = max(counts, default=0)
    # need[top + 1] stays 0, which ends the scan for `last` in reachable
    need = [counts.get(ell, 0) for ell in range(top + 2)]
    found = []
    # one frame [r, longest, left, c] per open row: row r holds c nodes (their
    # ladders already taken from need), at most longest, with left nodes
    # still to place from row r on
    stack = []

    def reachable(r, longest):
        # a later row r' exists only while ladder r' still needs its first
        # node, and the farthest ladder still short needs a node in one of
        # those rows at a column <= longest
        last = r
        while need[last + 1]:
            last += 1
        far = top
        while far > r and not need[far]:
            far -= 1
        return far - (p - 1) * (longest - 1) <= last

    def open_row(r, longest, left):
        if left == 0:
            found.append(tuple(frame[3] for frame in stack))
        elif need[r] == 1:
            stack.append([r, longest, left, 0])

    open_row(1, top, sum(mu))
    while stack:
        frame = stack[-1]
        r, longest, left, c = frame
        ell = r + (p - 1) * c    # the ladder of node (r, c + 1)
        if c < longest and ell <= top and need[ell]:
            need[ell] -= 1
            frame[3] = c = c + 1
            if reachable(r, c):
                open_row(r + 1, c, left - c)
        else:
            for k in range(c):
                need[r + (p - 1) * k] += 1
            stack.pop()

    return found


def irreducible_specht_preimage(mu, p: int):
    """A partition nu with nu^R = mu (that is, with mu's ladder counts) and
    S^nu irreducible; None if there is none.  Such a nu is unique for p > 2.
    The answer is memoised per (mu, p) in a bounded cache."""
    mu = check_regular(mu, p)
    if p <= 2:
        raise ValueError("the irreducibility criterion needs p > 2")
    return _preimage(mu, p)


@lru_cache(maxsize=65536)
def _preimage(mu, p):
    return next((nu for nu in _ladder_preimage(mu, p)
                 if specht_irreducible(nu, p)), None)


def theorem_b_applicable(la, p: int):
    """First (i, nu) with nu an irreducible-Specht preimage of e~_i^{eps_i} la;
    None when no residue works."""
    if p <= 2:
        raise ValueError("needs p > 2")
    la = check_regular(la, p)
    for i in range(p):
        sig = signature(la, p, i)
        nu = irreducible_specht_preimage(remove_normals(sig, sig.epsilon), p)
        if nu is not None:
            return i, nu
    return None
