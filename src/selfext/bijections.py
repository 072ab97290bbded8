"""The Mullineux involution (p-rim symbol algorithm) and ladder regularization."""
from __future__ import annotations

from .partitions import check_partition, check_regular, height, is_p_regular


def _rim_rows(la):
    """Per row r (1-based), the number of rim nodes (r, c) with c in
    [max(1, la_{r+1}), la_r]."""
    counts = []
    for k in range(len(la)):
        below = la[k + 1] if k + 1 < len(la) else 0
        counts.append(la[k] - max(below, 1) + 1)
    return counts


def peel_p_rim(la, p: int):
    """Remove the p-rim of la; return (smaller partition, rim size).

    The p-rim is read along the rim from the top right; after each segment of
    p nodes the walk restarts at the first rim node of the next row down, and
    the final segment may be shorter.
    """
    if not la:
        raise ValueError("cannot peel the empty partition")
    h = len(la)
    rim = _rim_rows(la)
    removed = [0] * h
    row = 0
    total = 0
    while row < h:
        remaining = p
        while remaining > 0 and row < h:
            take = min(rim[row], remaining)
            removed[row] = take
            total += take
            remaining -= take
            if remaining == 0:
                break
            row += 1
        row += 1  # next segment starts at the first rim node of the row below
    new = (la[k] - removed[k] for k in range(h))
    return tuple(part for part in new if part), total  # the zeros are trailing


def p_rim_symbol(la, p: int):
    """Columns (a_k, r_k) = (rim size, height before peeling) down to empty."""
    columns = []
    while la:
        h = height(la)
        la, a = peel_p_rim(la, p)
        columns.append((a, h))
    return columns


def add_p_rim(mu, p: int, a: int, s: int):
    """The unique partition of height s whose p-rim has size a and peels to mu.

    Searches over segment-end rows; every candidate is checked by re-peeling.
    """
    m = (a + p - 1) // p
    if m == 0 or s < m:
        raise ValueError(f"no partition adds a p-rim of size {a} at height {s}")
    counts = [p] * (m - 1) + [a - p * (m - 1)]

    def mu_part(r):  # 1-based
        return mu[r - 1] if r - 1 < len(mu) else 0

    solutions = []

    def build(ends):
        parts = [None] * s
        starts = [1] + [e + 1 for e in ends[:-1]]
        for b, e, c in zip(starts, ends, counts):
            for r in range(b + 1, e + 1):
                parts[r - 1] = mu_part(r - 1) + 1
            parts[b - 1] = c - (e - b) + mu_part(e)
        if any(x is None or x <= 0 for x in parts):
            return
        for k in range(s - 1):
            if parts[k] < parts[k + 1]:
                return
        cand = tuple(parts)
        peeled, rim = peel_p_rim(cand, p)
        if peeled == mu and rim == a and height(cand) == s:
            solutions.append(cand)

    def search(k, prev_end):
        if k == m:
            build(search.ends[:])
            return
        start = prev_end + 1
        last = s if k == m - 1 else s - 1
        for e in range(start, min(start + counts[k] - 1, last) + 1):
            if k == m - 1 and e != s:
                continue
            search.ends.append(e)
            search(k + 1, e)
            search.ends.pop()

    search.ends = []
    search(0, 0)
    solutions = sorted(set(solutions))
    if not solutions:
        raise ValueError(f"no partition adds a p-rim ({a},{s}) to {mu}")
    if len(solutions) > 1:
        raise RuntimeError(f"p-rim addition not unique on {mu}: {solutions}")
    return solutions[0]


def mullineux(la, p: int) -> tuple:
    """Image of la under the Mullineux involution (sign-twist of simples)."""
    columns = p_rim_symbol(check_regular(la, p), p)
    out = ()
    for a, r in reversed(columns):
        eps = 0 if a % p == 0 else 1
        out = add_p_rim(out, p, a, a - r + eps)
    return out


def ladder_counts(la, p: int) -> dict:
    """Node counts per ladder; the ladder of (r, c) is r + (p-1)(c-1)."""
    counts = {}
    for row, part in enumerate(la, start=1):
        for col in range(1, part + 1):
            ell = row + (p - 1) * (col - 1)
            counts[ell] = counts.get(ell, 0) + 1
    return counts


def regularize(la, p: int) -> tuple:
    """Slide nodes up their ladders: the p-regular partition la^R >= la."""
    la = check_partition(la)
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    filled = set()
    for ell, k in ladder_counts(la, p).items():
        # ladder positions from the top: c = c_max, c_max-1, ..., 1
        c_max = (ell - 1) // (p - 1) + 1
        for c in range(c_max, c_max - k, -1):
            filled.add((ell - (p - 1) * (c - 1), c))
    row_len = {}
    for r, c in filled:
        row_len[r] = max(row_len.get(r, 0), c)
    if any((r, c) not in filled for r in row_len for c in range(1, row_len[r] + 1)):
        raise RuntimeError(f"ladder filling not left-justified for {la}")
    # top-justified as well: no row gaps and weakly decreasing rows
    if any((r - 1, c) not in filled for r, c in filled if r > 1):
        raise RuntimeError(f"ladder filling not top-justified for {la}")
    out = tuple(row_len[r] for r in range(1, len(row_len) + 1))
    if not is_p_regular(out, p):
        raise RuntimeError(f"ladder filling not {p}-regular for {la}")
    return out
