"""The Mullineux involution (p-rim symbol algorithm, one pass over the rows per
p-rim) and ladder regularization (row counts read off the ladders' top slots)."""
from __future__ import annotations

import operator

from .partitions import check_p, check_partition, check_regular, is_p_regular


def peel_p_rim(la, p: int):
    """Remove the p-rim of la; return (smaller partition, rim size).

    The p-rim is read along the rim from the top right; after each segment of
    p nodes the walk restarts at the first rim node of the next row down, and
    the final segment may be shorter.  Row r's rim nodes are (r, c) for
    max(1, la_{r+1}) <= c <= la_r; it gives up what the segment has room for.
    """
    if not la:
        raise ValueError("cannot peel the empty partition")
    new, total, left = [], 0, p
    for part, below in zip(la, la[1:] + (0,)):
        take = min(part - max(below, 1) + 1, left)
        left = left - take or p  # a full segment restarts in the next row
        total += take
        new.append(part - take)
    return tuple(part for part in new if part), total  # the zeros are trailing


def p_rim_symbol(la, p: int):
    """Columns (a_k, r_k) = (rim size, height before peeling) down to empty."""
    columns = []
    while la:
        h = len(la)
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
    return mullineux_image(*check_regular(la, p))


def mullineux_image(la, p: int) -> tuple:
    """mullineux of a p-regular normalised tuple and a checked p."""
    columns = p_rim_symbol(la, p)
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
    return regularization(check_partition(la), check_p(p))


def regularization(la, p: int) -> tuple:
    """regularize of a normalised tuple and a checked p.

    Ladder ell's slots run down from row (ell-1) % (p-1) + 1 every p-1 rows.
    Its k nodes fill the k highest, the k-th never below la's k-th node on it.
    """
    counts = ladder_counts(la, p)
    rows = [0] * (len(la) + 1)  # nodes per row, from row 1; the last stays 0
    for ell, k in counts.items():
        for r in range((ell - 1) % (p - 1), len(la), p - 1)[:k]:
            rows[r] += 1
    out = tuple(rows[:rows.index(0)])
    # by James, la^R is the only p-regular partition with la's ladder counts
    if (any(map(operator.lt, out, out[1:])) or not is_p_regular(out, p)
            or ladder_counts(out, p) != counts):
        raise RuntimeError(f"ladder filling not a {p}-regular partition for {la}")
    return out
