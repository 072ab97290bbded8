"""The Mullineux involution (p-rim symbol algorithm) and ladder regularization."""
from __future__ import annotations

from .partitions import (check_p, check_partition, check_regular, height,
                         is_p_regular)


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

    The rim's m = ceil(a/p) segments hold p nodes each, the last one the rest.
    A segment of c nodes in rows b..e peels to mu exactly when its rows are
    la_b = c - (e - b) + mu_e and la_r = mu_{r-1} + 1 for b < r <= e, so the
    rows follow from the segment ends.  la_b falls strictly as e grows, which
    bounds the search over the ends.
    """
    m = (a + p - 1) // p
    if m == 0 or s < m:
        raise ValueError(f"no partition adds a p-rim of size {a} at height {s}")
    last = a - p * (m - 1)
    row = (0,) + tuple(mu) + (0,) * (s + 1 - len(mu))    # row[r] = mu_r
    solutions = []
    # mu fits in s rows, and a short last segment runs off the bottom, so it
    # takes all of row s
    if row[s + 1] == 0 and (last == p or row[s] == 0):
        stack = [(1, 1, ())]    # (segment, its first row, the rows above it)
        while stack:
            k, b, rows = stack.pop()
            c = p if k < m else last
            for e in range(b, min(b + c - 1, s - 1) + 1) if k < m else (s,):
                top = c - (e - b) + row[e]
                if top < 1 or (e > b and top <= row[b]):
                    break
                if b > 1 and top > row[b - 1] + 1:
                    continue    # the previous segment would not end at b - 1
                grown = rows + (top,) + tuple(x + 1 for x in row[b:e])
                if e == s:
                    solutions.append(grown)
                else:
                    stack.append((k + 1, e + 1, grown))
    if len(solutions) != 1:
        raise RuntimeError(f"p-rim addition not unique on {mu} "
                           f"({a}, {s}): {solutions}")
    return solutions[0]


def mullineux(la, p: int) -> tuple:
    """Image of la under the Mullineux involution (sign-twist of simples)."""
    p = check_p(p)
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
    la, p = check_partition(la), check_p(p)
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
