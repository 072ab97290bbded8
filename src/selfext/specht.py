"""Irreducibility of Specht modules via the abacus-runner recursion, and the
search for irreducible Specht preimages under regularization."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import check_partition, height, is_p_regular, is_p_restricted
from .abacus import bead_rows, beta_set, component_from_rows, core_and_weight
from .bijections import regularize
from .signatures import e_tilde, signature
from .blocks import block_of, enumerate_block


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
    beta = beta_set(la, beads)
    rows = bead_rows(beta, p)
    comps = [component_from_rows(r) for r in rows]
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
    return all(q in beta for q in range(last) if q % p != k)


@lru_cache(maxsize=None)
def _irreducible(la, p):
    la = check_partition(la)
    if core_and_weight(la, p)[1] == 0:
        return SpechtResult(la, p, True)
    h = max(height(la), 1)
    for beads in range(h, h + p):
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
    if not result:
        raise ValueError(f"S^{la} is not irreducible at p={p}")
    j = result.regular_runner if not is_p_restricted(la, p) else None
    k = result.restricted_runner if not is_p_regular(la, p) else None
    return j, k


def irreducible_specht_preimage(mu, p: int):
    """A partition nu with nu^R = mu and S^nu irreducible, if the block of mu
    contains one; None otherwise."""
    mu = check_partition(mu)
    if not is_p_regular(mu, p):
        raise ValueError(f"{mu} is not {p}-regular")
    if specht_irreducible(mu, p):
        return mu
    for nu in enumerate_block(block_of(mu, p)):
        if nu != mu and regularize(nu, p) == mu and specht_irreducible(nu, p):
            return nu
    return None


def theorem_b_applicable(la, p: int):
    """First (i, nu) with nu an irreducible-Specht preimage of e~_i^{eps_i} la;
    None when no residue works."""
    la = check_partition(la)
    if p <= 2:
        raise ValueError("needs p > 2")
    if not is_p_regular(la, p):
        raise ValueError(f"{la} is not {p}-regular")
    for i in range(p):
        mu = e_tilde(la, p, i, signature(la, p, i).epsilon)
        nu = irreducible_specht_preimage(mu, p)
        if nu is not None:
            return i, nu
    return None
