"""Irreducibility of Specht modules via the abacus-runner recursion, and the
same criterion run backwards to index irreducible Specht labels by their
regularizations, one block at a time."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import (check_partition, check_regular, is_p_regular,
                         is_p_restricted, partitions_of)
from .abacus import (bead_rows, component_from_rows, core_and_weight,
                     rows_for_component)
from .bijections import regularize
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
    """Beta-numbers, bead rows and quotient components of la read with
    beads >= len(la) beads.  la must be a normalised tuple."""
    beta = rows_for_component(la, beads)  # one runner's rows are beta-numbers
    rows = bead_rows(beta, p)
    return beta, rows, [component_from_rows(r) for r in rows]


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


@lru_cache(maxsize=1024)
def _block_index(core, w, p):
    """nu^R -> nu for every nu in the block (core, w) with S^nu irreducible.

    The criterion of _irreducible, read backwards: on a display with a run
    of p bead counts from len(core) + p*w on (enough for every member, each
    runner holding at least w beads; p more beads add a full row, which
    changes neither the components nor conditions ii/iii), put an
    irreducible p-regular label on runner j and an irreducible p-restricted
    one on runner k, sizes adding up to w (one label on j = k), and keep the
    partition when conditions ii/iii hold.  For p > 2 no two such nu share
    nu^R: S^nu is D^{nu^R}, and Specht modules are pairwise non-isomorphic.
    """
    labels = [[la for la in partitions_of(v) if _irreducible(la, p)]
              for v in range(w + 1)]
    regular = [[a for a in row if is_p_regular(a, p)] for row in labels]
    restricted = [[b for b in row if is_p_restricted(b, p)] for row in labels]
    pairs = [(a, b) for v in range(w + 1)
             for a in regular[v] for b in restricted[w - v]]
    single = [a for a in regular[w] if is_p_restricted(a, p)]
    found = set()
    low = len(core) + p * w
    for beads in range(low, low + p):
        base = bead_rows(rows_for_component(core, beads), p)
        placed = [{la: rows_for_component(la, len(r)) for row in labels
                   for la in row} for r in base]
        for j in range(p):
            for k in range(p):
                for alpha, beta in pairs if j != k else ((a, a) for a in single):
                    rows = base.copy()
                    rows[j], rows[k] = placed[j][alpha], placed[k][beta]
                    positions = [l + p * r for l in range(p) for r in rows[l]]
                    if (_condition_ii(positions, p, j, rows[j])
                            and _condition_iii(positions, p, k, rows[k])):
                        found.add(component_from_rows(positions))
    index = {}
    for nu in found:
        mu = regularize(nu, p)
        if index.setdefault(mu, nu) != nu:
            raise RuntimeError(f"irreducible Specht labels {index[mu]} and "
                               f"{nu} both regularize to {mu} at p={p}")
    return index


def irreducible_specht_preimage(mu, p: int):
    """The partition nu with nu^R = mu and S^nu irreducible, or None.

    Such a nu is unique for p > 2 and lies in mu's block; the answer is read
    from that block's index of irreducible Specht labels, built once per
    block in a bounded cache."""
    mu = check_regular(mu, p)
    if p <= 2:
        raise ValueError("the irreducibility criterion needs p > 2")
    return _block_index(*core_and_weight(mu, p), p).get(mu)


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
