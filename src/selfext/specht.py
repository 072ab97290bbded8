"""Irreducibility of Specht modules via the abacus-runner recursion, and the
same criterion run backwards to index irreducible Specht labels by their
regularizations, one block at a time."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .partitions import (check_p, check_partition, check_regular,
                         is_p_regular, p_restricted, partitions_of)
from .abacus import (bead_counts, bead_rows, component_from_rows,
                     core_of_counts, core_weight, from_runner_rows,
                     rows_for_component)
from .bijections import regularization
from .signatures import remove_normals, signatures


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


def _top_gap(l, beads, label, p):
    """Positions of the highest bead (l - p when there is none) and of the
    lowest empty slot on runner l, holding `beads` beads that carry `label`."""
    return (l + p * (beads - 1 + (label[0] if label else 0)),
            l + p * (beads - len(label)))


def _runner_bounds(counts, comps, p):
    """Top and gap (_top_gap) of every runner.  Condition ii on runner j
    holds exactly when every other top lies below gap(j), and condition iii
    on runner k when top(k) lies below every other gap."""
    return tuple(zip(*(_top_gap(l, n, c, p)
                       for l, (n, c) in enumerate(zip(counts, comps)))))


@lru_cache(maxsize=65536)
def _irreducible(la, p):
    """The recursion behind specht_irreducible; la is a normalised tuple.

    Only the display with max(len(la), 1) beads is read: one more bead
    rotates the runners and with them every passing pair (j, k), so a pair
    passes on some display exactly when one passes on this one."""
    beads = max(len(la), 1)
    rows = bead_rows(rows_for_component(la, beads), p)
    comps = [component_from_rows(r) for r in rows]
    nonempty = [j for j in range(p) if comps[j]]
    if not nonempty:
        # empty quotient: weight 0, a core
        return SpechtResult(la, p, True)
    if len(nonempty) > 2:
        # no runner pair holds all the nonempty runners
        return SpechtResult(la, p, False)
    tops, gaps = _runner_bounds(map(len, rows), comps, p)
    for j in range(p):
        for k in range(p):
            if any(l not in (j, k) for l in nonempty):
                continue
            if (max(tops[l] for l in range(p) if l != j) >= gaps[j]
                    or tops[k] >= min(gaps[l] for l in range(p) if l != k)):
                continue  # condition ii on j or iii on k fails
            if not (is_p_regular(comps[j], p) and p_restricted(comps[k], p)):
                continue
            sub_j = _irreducible(comps[j], p)
            sub_k = sub_j and _irreducible(comps[k], p)
            if sub_k:
                return SpechtResult(la, p, True, beads, j, k, sub_j, sub_k)
    return SpechtResult(la, p, False)


def specht_irreducible(la, p: int) -> SpechtResult:
    """Whether the Specht module labeled by la is irreducible (p > 2)."""
    return _irreducible(check_partition(la), check_p(p, 3))


@lru_cache(maxsize=256)
def _labels(v, p):
    """The irreducible Specht labels of size v: the p-regular ones by
    length and the p-restricted ones by first part, for every block."""
    row = [la for la in partitions_of(v) if _irreducible(la, p)]
    return (sorted((a for a in row if is_p_regular(a, p)), key=len),
            sorted((b for b in row if p_restricted(b, p)), key=lambda b: b[:1]))


@lru_cache(maxsize=1024)
def _block_index(core, w, p):
    """nu^R -> nu for every nu in the block (core, w) with S^nu irreducible.

    The criterion of _irreducible, read backwards on the core's display with
    len(core) + 1 + p*w beads, bead_counts plus w on each runner (enough for
    every member): an irreducible p-regular label alpha on runner j and an
    irreducible p-restricted one beta on runner k != j, sizes adding up to
    w.  (A label alone on j = k that passes also passes with beta = () on
    the other runner of lowest top.)  The core's runners are full prefixes,
    so with O the highest top and Og the lowest gap of the other runners
    the pair passes exactly when O < gap(alpha) and top(beta) <
    min(gap(alpha), Og).  The labels are walked by length and by first part
    up to those bounds, and each display is decoded once (an empty label
    looks the same on every runner).  For p > 2 no two such nu share nu^R:
    S^nu is D^{nu^R}, and Specht modules are pairwise non-isomorphic.
    """
    if w == 0:
        return {core: core}
    regular, restricted = zip(*(_labels(v, p) for v in range(w + 1)))
    counts = [c + w for c in bead_counts(core, p)[0]]
    tops, gaps = _runner_bounds(counts, [()] * p, p)
    displays = set()
    for j, k in permutations(range(p), 2):
        others = [l for l in range(p) if l not in (j, k)]
        top, gap = max(tops[l] for l in others), min(gaps[l] for l in others)
        for v in range(w + 1):
            for alpha in regular[v]:
                bound = _top_gap(j, counts[j], alpha, p)[1]
                if bound <= top:
                    break
                bound = min(bound, gap)
                for beta in restricted[w - v]:
                    if _top_gap(k, counts[k], beta, p)[0] >= bound:
                        break
                    displays.add((j if alpha else -1, alpha,
                                  k if beta else -1, beta))
    index = {}
    for j, alpha, k, beta in displays:
        rows = [range(n) for n in counts]
        for l, la in ((j, alpha), (k, beta)):
            if la:
                rows[l] = rows_for_component(la, counts[l])
        nu = from_runner_rows(rows, p)
        mu = regularization(nu, p)
        if index.setdefault(mu, nu) != nu:
            raise RuntimeError(f"irreducible Specht labels {index[mu]} and "
                               f"{nu} both regularize to {mu} at p={p}")
    return index


def irreducible_specht_preimage(mu, p: int):
    """The partition nu with nu^R = mu and S^nu irreducible, or None.

    Such a nu is unique for p > 2 and lies in mu's block; the answer is read
    from that block's index of irreducible Specht labels, built once per
    block in a bounded cache."""
    mu, p = check_regular(mu, p, 3)
    return _block_index(*core_weight(mu, p), p).get(mu)


_core_of_counts = lru_cache(maxsize=4096)(core_of_counts)


def first_specht_witness(reports, p: int):
    """theorem_b_applicable on the signature reports of a p-regular la.

    With N = len(la) + 1 beads, removing a residue-i node moves a bead from
    runner (i + N) mod p to the one before, so la's counts give each block."""
    la = reports[0].partition
    counts = bead_counts(la, p)[0]
    for sig in reports:
        eps, j = sig.epsilon, (sig.residue + len(la) + 1) % p
        moved = counts.copy()
        moved[j] -= eps
        moved[j - 1] += eps
        least = min(moved)
        core = _core_of_counts(tuple(c - least for c in moved))
        w = (sum(la) - eps - sum(core)) // p
        mu = remove_normals(sig, eps)  # p-regular, as la is
        nu = _block_index(core, w, p).get(mu)
        if nu is not None:
            return sig.residue, nu
    return None


def theorem_b_applicable(la, p: int):
    """First (i, nu) with nu an irreducible-Specht preimage of e~_i^{eps_i} la;
    None when no residue works."""
    la, p = check_regular(la, p, 3)
    return first_specht_witness(signatures(la, p), p)
