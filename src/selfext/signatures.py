"""i-signatures, normal/conormal nodes, crystal operators, difficulty, reflections.

The signed word of residue-i addable (+) and removable (-) nodes is read in
increasing beta-position order (bottom-left to top-right of the diagram);
adjacent "-+" pairs are erased.  Surviving "-" are the normal nodes A_1..A_eps
labeled bottom to top (good node = A_1), surviving "+" the conormal nodes
B_1..B_phi labeled top to bottom (cogood node = B_1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .partitions import (add_node, addable_nodes, check_partition,
                         check_regular, is_p_regular, node_residue,
                         remove_node, removable_nodes)


@dataclass(frozen=True)
class SignatureReport:
    """Full residue-i signature data of a partition."""

    partition: tuple
    p: int
    residue: int
    word: tuple          # ((node, sign), ...) in reading order
    reduced: tuple       # surviving entries of word, same order
    normals: tuple       # A_1..A_eps, bottom to top
    conormals: tuple     # B_1..B_phi, top to bottom
    epsilon: int
    phi: int
    epsilon_prime: int
    phi_prime: int

    @property
    def good(self):
        """Bottom-most normal node, or None."""
        return self.normals[0] if self.normals else None

    @property
    def cogood(self):
        """Top-most conormal node, or None."""
        return self.conormals[0] if self.conormals else None


def cancel_word(entries):
    """Erase adjacent "-+" pairs from a signed word given as (sign, label)
    entries in reading order; return the labels of the surviving "+" and
    of the surviving "-" entries, each in reading order."""
    pending = []
    plus = []
    for sign, label in entries:
        if sign == "-":
            pending.append(label)
        elif pending:
            pending.pop()
        else:
            plus.append(label)
    return plus, pending


def signature(la, p: int, i: int) -> SignatureReport:
    """Residue-i signature report of la."""
    la = check_partition(la)
    i %= p
    entries = []
    for node in removable_nodes(la):
        if node_residue(node, p) == i:
            row, col = node
            entries.append((col - row, node, "-"))
    for node in addable_nodes(la):
        if node_residue(node, p) == i:
            row, col = node
            entries.append((col - row, node, "+"))
    entries.sort()  # increasing beta-position = bottom-left to top-right
    word = tuple((node, sign) for _, node, sign in entries)
    plus, pending = cancel_word(
        [(sign, idx) for idx, (_, sign) in enumerate(word)])
    surviving = sorted(plus + pending)
    reduced = tuple(word[idx] for idx in surviving)
    normals = tuple(word[idx][0] for idx in pending)
    conormals = tuple(word[idx][0] for idx in reversed(plus))
    n_removable = sum(1 for _, sign in word if sign == "-")
    return SignatureReport(la, p, i, word, reduced, normals, conormals,
                           len(pending), len(plus), n_removable,
                           len(word) - n_removable)


def epsilon(la, p, i) -> int:
    return signature(la, p, i).epsilon


def phi(la, p, i) -> int:
    return signature(la, p, i).phi


def remove_normals(sig: SignatureReport, r: int) -> tuple:
    """sig.partition without its r bottom-most normal nodes (r <= epsilon)."""
    return reduce(remove_node, sig.normals[:r], sig.partition)


def add_conormals(sig: SignatureReport, r: int) -> tuple:
    """sig.partition with its r top-most conormal nodes added (r <= phi)."""
    return reduce(add_node, sig.conormals[:r], sig.partition)


def e_tilde(la, p: int, i: int, r: int = 1):
    """Remove the r bottom-most normal i-nodes; None if r exceeds epsilon_i."""
    la = check_regular(la, p)
    if r < 0:
        raise ValueError("r must be non-negative")
    sig = signature(la, p, i)
    return None if r > sig.epsilon else remove_normals(sig, r)


def f_tilde(la, p: int, i: int, r: int = 1):
    """Add the r top-most conormal i-nodes; None if r exceeds phi_i."""
    la = check_regular(la, p)
    if r < 0:
        raise ValueError("r must be non-negative")
    sig = signature(la, p, i)
    return None if r > sig.phi else add_conormals(sig, r)


def difficult(sig: SignatureReport) -> bool:
    """is_difficult read off a signature report the caller already holds."""
    if sig.epsilon == 0 or sig.phi == 0:
        return False
    swapped = add_node(remove_node(sig.partition, sig.good), sig.cogood)
    return not is_p_regular(swapped, sig.p)


def is_difficult(la, p: int, i: int) -> bool:
    """eps_i, phi_i > 0 and removing the good while adding the cogood node
    destroys p-regularity."""
    return difficult(signature(check_regular(la, p), p, i))


def reflections(la, p: int) -> list:
    """All (i, mu) with mu = f~_i^{phi_i} la when eps_i = 0, or
    mu = e~_i^{eps_i} la when phi_i = 0 (degenerate eps = phi = 0 excluded)."""
    la = check_regular(la, p)
    out = []
    for i in range(p):
        sig = signature(la, p, i)
        if sig.epsilon == 0 and sig.phi > 0:
            out.append((i, add_conormals(sig, sig.phi)))
        elif sig.phi == 0 and sig.epsilon > 0:
            out.append((i, remove_normals(sig, sig.epsilon)))
    return out


def fixed_top_shape(la, p: int):
    """Residue i when la = ((a+1)^c, a^{p-2}, a-1, ...) with (c, a+1) good and
    (c+p-1, a) cogood at residue i; None otherwise.  la is a p-regular
    tuple and p > 2, as the caller has checked."""
    if not la or la[0] < 2:
        return None
    a = la[0] - 1
    c = next(k for k in range(1, len(la) + 1) if k == len(la) or la[k] != la[0])
    padded = la + (0,) * max(0, c + p - 1 - len(la))
    if any(padded[k] != a for k in range(c, c + p - 2)):
        return None
    if padded[c + p - 2] != a - 1:
        return None
    node_a = (c, a + 1)
    node_b = (c + p - 1, a)
    i = node_residue(node_a, p)
    if node_residue(node_b, p) != i:
        return None
    sig = signature(la, p, i)
    if sig.good != node_a or sig.cogood != node_b:
        return None
    return i
