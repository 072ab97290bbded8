"""i-signatures, normal/conormal nodes, crystal operators, difficulty.

The signed word of residue-i addable (+) and removable (-) nodes is read in
increasing content order, which is the order of a walk along the rim from the
bottom-left to the top-right of the diagram: the addable node below the last
row, then, row by row upwards, each row's removable node and the addable node
to its right.  One such walk sorts every node into the word of its residue,
so all p words come out of it in reading order, with nothing filtered or
sorted.  A word keeps the walk's (node, sign) entries, the (label, sign)
order that cancel_word reads, and adjacent "-+" pairs are erased.  Surviving
"-" are the normal nodes A_1..A_eps labeled bottom to top (good node = A_1),
surviving "+" the conormal nodes B_1..B_phi labeled top to bottom (cogood
node = B_1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .partitions import (add_node, check_integer, check_p, check_partition,
                         check_regular, is_p_regular, remove_node)


@dataclass(frozen=True)
class SignatureReport:
    """Residue-i signature of a partition; its counts are properties."""

    partition: tuple
    p: int
    residue: int
    word: tuple          # ((node, sign), ...) in reading order
    normals: tuple       # A_1..A_eps, bottom to top
    conormals: tuple     # B_1..B_phi, top to bottom

    @property
    def epsilon(self) -> int:
        return len(self.normals)

    @property
    def phi(self) -> int:
        return len(self.conormals)

    @property
    def epsilon_prime(self) -> int:  # removable nodes: the "-" entries
        return sum(sign == "-" for _, sign in self.word)

    @property
    def phi_prime(self) -> int:  # addable nodes: the "+" entries
        return sum(sign == "+" for _, sign in self.word)

    @property
    def good(self):  # the bottom-most normal node, or None
        return self.normals[0] if self.normals else None

    @property
    def cogood(self):  # the top-most conormal node, or None
        return self.conormals[0] if self.conormals else None


def cancel_word(entries):
    """Erase adjacent "-+" pairs from a signed word given as (label, sign)
    entries in reading order; return the labels of the surviving "+" and
    of the surviving "-" entries, each in reading order."""
    pending = []
    plus = []
    for label, sign in entries:
        if sign == "-":
            pending.append(label)
        elif pending:
            pending.pop()
        else:
            plus.append(label)
    return plus, pending


def signatures(la, p: int) -> list:
    """The p signature reports of la, indexed by residue, from one walk along
    its rim (see the module docstring); la is a normalised tuple."""
    h = len(la)
    words = [[] for _ in range(p)]
    words[-h % p].append(((h + 1, 1), "+"))
    for row in range(h, 0, -1):
        part = la[row - 1]
        if row == h or part > la[row]:
            words[(part - row) % p].append(((row, part), "-"))
        if row == 1 or la[row - 2] > part:
            words[(part + 1 - row) % p].append(((row, part + 1), "+"))
    reports = []
    for i, word in enumerate(words):
        plus, minus = cancel_word(word)
        reports.append(SignatureReport(la, p, i, tuple(word), tuple(minus),
                                       tuple(reversed(plus))))
    return reports


def signature(la, p: int, i: int) -> SignatureReport:
    """Residue-i signature report of la."""
    la, p = check_partition(la), check_p(p)
    return signatures(la, p)[check_integer(i, "i") % p]


def remove_normals(sig: SignatureReport, r: int) -> tuple:
    """sig.partition without its r bottom-most normal nodes (r <= epsilon)."""
    return reduce(remove_node, sig.normals[:r], sig.partition)


def add_conormals(sig: SignatureReport, r: int) -> tuple:
    """sig.partition with its r top-most conormal nodes added (r <= phi)."""
    return reduce(add_node, sig.conormals[:r], sig.partition)


def e_tilde(la, p: int, i: int, r: int = 1):
    """Remove the r bottom-most normal i-nodes; None if r exceeds epsilon_i."""
    (la, p), r = check_regular(la, p), check_integer(r, "r")
    if r < 0:
        raise ValueError("r must be non-negative")
    sig = signatures(la, p)[check_integer(i, "i") % p]
    return None if r > sig.epsilon else remove_normals(sig, r)


def f_tilde(la, p: int, i: int, r: int = 1):
    """Add the r top-most conormal i-nodes; None if r exceeds phi_i."""
    (la, p), r = check_regular(la, p), check_integer(r, "r")
    if r < 0:
        raise ValueError("r must be non-negative")
    sig = signatures(la, p)[check_integer(i, "i") % p]
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
    la, p = check_regular(la, p)
    return difficult(signatures(la, p)[check_integer(i, "i") % p])
