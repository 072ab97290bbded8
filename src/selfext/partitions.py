"""Core partition arithmetic: shape, nodes, residues, conjugation, dominance, regularity.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the trivial partition of 0.  Nodes are 1-based (row, col) pairs.
Functions the package exports pass their input through check_partition, which
also refuses more than MAX_SIZE boxes, and p through check_p, once (a
p-regular label and p together through check_regular); the helpers below them
take such tuples and ints as given, and remove_node/add_node take a node that
a walk along the rim produced, checking nothing.
"""
from __future__ import annotations

import itertools
import math
import operator

MAX_SIZE = 100_000  # largest p and partition size (check_partition)


def check_partition(la) -> tuple:
    """Normalize to a tuple, dropping trailing zeros; raise on bad input,
    including a partition of more than MAX_SIZE boxes."""
    try:
        raw = tuple(la)
        parts = tuple(map(int, raw))
    except OverflowError:  # int(float("inf"))
        raise ValueError(f"parts must be finite: {la!r}") from None
    except (TypeError, ValueError):  # not iterable; None, 1j, "x" or NaN
        raise ValueError(f"parts must be integers: {la!r}") from None
    # int() truncates 2.7 and reads the string "3" as 3; neither is a part
    if parts != raw:
        raise ValueError(f"parts must be integers: {la!r}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if parts and min(parts) <= 0:
        raise ValueError(f"parts must be positive: {la!r}")
    if any(map(operator.lt, parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {la!r}")
    if sum(parts) > MAX_SIZE:
        raise ValueError(f"partition exceeds {MAX_SIZE} boxes")
    return parts


def check_integer(value, name: str) -> int:
    """value as an int; ValueError for a value int() would truncate or
    cannot read (2.7, inf, nan, None), as check_partition refuses such parts."""
    try:
        number = int(value)
    except (OverflowError, TypeError, ValueError):
        number = math.nan  # equal to nothing, None included
    if number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def check_p(p, least: int = 2) -> int:
    """p as an int, read like a part by check_integer (3.0 is 3; 2.5 and "3"
    are refused); ValueError when it is below least or above MAX_SIZE."""
    p = check_integer(p, "p")
    if not least <= p <= MAX_SIZE:
        bound = f"at least {least}" if p < least else f"at most {MAX_SIZE}"
        raise ValueError(f"p must be {bound}, got {p}")
    return p


def check_prime(p, least: int = 2) -> int:
    """check_p(p, least), refused unless it is a prime (check_p bounds p
    first, so a huge p never reaches the trial division)."""
    p = check_p(p, least)
    if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    return p


def parse_partition(text: str) -> tuple:
    """Parse '4,2^3,1' into (4,2,2,2,1); '-' (or '') is the empty partition.

    Raises ValueError before expanding text whose parts would total more than
    MAX_SIZE boxes (a zero or negative part counts as one).
    """
    text = text.strip()
    if text in ("-", ""):
        return ()
    parts = []
    total = 0
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty chunk in partition text {text!r}")
        base, caret, exp = chunk.partition("^")
        try:
            value, mult = int(base), int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"non-integer chunk {chunk!r} in partition "
                             f"text {text!r}") from None
        if mult <= 0:
            raise ValueError(f"bad multiplicity in {chunk!r}")
        total += max(abs(value), 1) * mult
        if total > MAX_SIZE:
            raise ValueError(f"partition text exceeds {MAX_SIZE} boxes "
                             f"at {chunk!r}")
        parts.extend([value] * mult)
    return check_partition(parts)


def format_partition(la) -> str:
    """Render (4,2,2,2,1) as '4,2^3,1'; the empty partition as '-'."""
    runs = [(value, len(list(group)))
            for value, group in itertools.groupby(check_partition(la))]
    return ",".join(str(value) if mult == 1 else f"{value}^{mult}"
                    for value, mult in runs) or "-"


def is_p_regular(la, p: int) -> bool:
    """True iff no part occurs p or more times: no la[k] == la[k + p - 1]."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    return not any(map(operator.eq, la, la[p - 1:]))


def check_regular(la, p: int, least: int = 2) -> tuple:
    """(la, p) after check_p(p, least), then check_partition(la); ValueError
    unless la is p-regular."""
    p, la = check_p(p, least), check_partition(la)
    if not is_p_regular(la, p):
        raise ValueError(f"{la} is not {p}-regular")
    return la, p


def is_p_restricted(la, p: int) -> bool:
    """True iff consecutive part differences (including the last part) are < p."""
    return p_restricted(check_partition(la), check_p(p))


def p_restricted(la, p: int) -> bool:
    """is_p_restricted of a normalised tuple and a checked p."""
    return all(part - below < p for part, below in zip(la, (*la[1:], 0)))


def transpose(la) -> tuple:
    """Conjugate partition: column lengths of la."""
    la = check_partition(la)
    return tuple(sum(part >= c for part in la)
                 for c in range(1, max(la, default=0) + 1))


def dominates(la, mu) -> bool:
    """True iff every prefix sum of la is >= the matching prefix sum of mu."""
    la, mu = check_partition(la), check_partition(mu)
    n = sum(la)
    if sum(mu) != n:
        raise ValueError(f"dominance needs equal sizes: {la} vs {mu}")
    sums = itertools.zip_longest(itertools.accumulate(la),
                                 itertools.accumulate(mu), fillvalue=n)
    return all(total_l >= total_m for total_l, total_m in sums)


def node_residue(node, p: int) -> int:
    """Residue (col - row) mod p of a node."""
    row, col = node
    return (col - row) % p


def remove_node(la, node) -> tuple:
    """Partition with the given removable node deleted (not checked)."""
    parts = list(la)
    parts[node[0] - 1] -= 1
    return tuple(parts[:-1] if parts[-1] == 0 else parts)


def add_node(la, node) -> tuple:
    """Partition with the given addable node attached (not checked)."""
    parts = list(la) + [0]
    parts[node[0] - 1] += 1
    return tuple(parts if parts[-1] else parts[:-1])


def partitions_of(n: int, max_part: int | None = None):
    """Yield all partitions of n in descending lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
