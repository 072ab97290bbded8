"""Rule engine emitting machine-checkable certificates of Ext-vanishing.

A certificate is a chain of reduction steps, each an Ext embedding or
isomorphism between simple-module labels, ending at a partition where a
trusted terminal criterion applies.  Terminal tags name the criterion
(semisimple degree, small block weight, small height, RoCK block,
irreducible-Specht restriction); reduction tags name the move.  Both kinds
live once, in the REDUCTIONS and TERMINALS tables; validate re-derives every
step and the terminal from scratch through the same tables, and survey
streams each root's certificate with its verdict.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

from .partitions import (add_node, check_integer, check_partition, check_prime,
                         is_p_regular, node_residue, remove_node)
from .abacus import bead_counts, core_weight
from .signatures import add_conormals, difficult, remove_normals, signatures
from .bijections import mullineux_image, regularize
from .blocks import rouquier_counts
from .specht import first_specht_witness, specht_irreducible

WEIGHT_BOUND = 7    # terminal T-WEIGHT: block weight at most 7
HEIGHT_MARGIN = 2   # terminal T-HEIGHT: height at most p + 2


@dataclass(frozen=True)
class Rule:
    """A rule invocation: tag plus the parameters needed to re-check it."""

    tag: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Step:
    """One reduction edge: rule applied to source yields target."""

    rule: Rule
    source: tuple
    target: tuple


@dataclass(frozen=True)
class Certificate:
    """An ordered reduction chain from start to a terminal criterion."""

    p: int
    start: tuple
    steps: tuple
    terminal: Rule | None
    status: str  # "CERTIFIED" or "UNKNOWN"

    def to_dict(self) -> dict:
        """JSON-ready form with partitions and paths as lists."""
        return {
            "p": self.p,
            "start": list(self.start),
            "steps": [{"rule": s.rule.tag, "params": _params_out(s.rule.params),
                       "from": list(s.source), "to": list(s.target)}
                      for s in self.steps],
            "terminal": None if self.terminal is None else
                        {"rule": self.terminal.tag,
                         "params": _params_out(self.terminal.params)},
            "status": self.status,
        }


def _params_out(params: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in params.items()}


def _params_in(params: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in params.items()}


def certificate_from_dict(data: dict) -> Certificate:
    """Rebuild a Certificate from its to_dict form; ValueError if malformed."""
    try:
        steps = tuple(Step(Rule(s["rule"], _params_in(s["params"])),
                           tuple(s["from"]), tuple(s["to"]))
                      for s in data["steps"])
        terminal = data["terminal"]
        if terminal is not None:
            terminal = Rule(terminal["rule"], _params_in(terminal["params"]))
        return Certificate(data["p"], tuple(data["start"]), steps, terminal,
                           data["status"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate: {exc!r}") from exc


def _normalize_rules(enabled_rules) -> frozenset:
    if enabled_rules is None:
        return ALL_RULES
    rules = frozenset(str(tag).upper() for tag in enabled_rules)
    unknown = rules - ALL_RULES
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    if rules.isdisjoint(TERMINAL_TAGS):  # such a search certifies nothing
        raise ValueError(f"no terminal rule enabled; enable one of "
                         f"{', '.join(TERMINAL_TAGS)}")
    return rules


def _reflect_edges(la, p: int, reports) -> list:
    """R-REFLECT: f~_i^{phi} la when eps_i = 0, or e~_i^{eps} la when
    phi_i = 0 (the degenerate eps = phi = 0 excluded)."""
    out = []
    for sig in reports(la, p):
        if sig.epsilon == 0 and sig.phi > 0:
            out.append(({"residue": sig.residue}, add_conormals(sig, sig.phi)))
        elif sig.phi == 0 and sig.epsilon > 0:
            out.append(({"residue": sig.residue},
                        remove_normals(sig, sig.epsilon)))
    return out


def _trick1_edges(la, p: int, reports) -> list:
    """R-TRICK1: e~_i^{eps} la when eps_i > 0 and la is not i-difficult."""
    return [({"residue": sig.residue}, remove_normals(sig, sig.epsilon))
            for sig in reports(la, p)
            if sig.epsilon > 0 and not difficult(sig)]


def _socle_edges(la, p: int, reports) -> list:
    """R-SOCLE: the socle embeddings at each residue i, direction "e" or "f".

    The e-move passes to e~_i^{eps} la and is blocked when phi > 0 and adding
    the (eps+1)-th conormal node of the target breaks p-regularity; the f-move
    passes to f~_i^{phi} la with the dual blocking condition.
    """
    out = []
    for sig in reports(la, p):
        i, r, s = sig.residue, sig.epsilon, sig.phi
        if r > 0:
            mu = remove_normals(sig, r)
            if s == 0 or is_p_regular(
                    add_node(mu, reports(mu, p)[i].conormals[r]), p):
                out.append(({"residue": i, "direction": "e"}, mu))
        if s > 0:
            nu = add_conormals(sig, s)
            if r == 0 or is_p_regular(
                    remove_node(nu, reports(nu, p)[i].normals[s]), p):
                out.append(({"residue": i, "direction": "f"}, nu))
    return out


def _fixed_top_edges(la, p: int, reports) -> list:
    """R-FIXEDTOP: la without its good i-node when la = ((a+1)^c, a^{p-2},
    a-1, ...) with (c, a+1) good and (c+p-1, a) cogood at residue i."""
    if not la or la[0] < 2:
        return []
    a = la[0] - 1
    c = next(k for k in range(1, len(la) + 1) if k == len(la) or la[k] != la[0])
    padded = la + (0,) * max(0, c + p - 1 - len(la))
    if padded[c:c + p - 1] != (a,) * (p - 2) + (a - 1,):
        return []
    sig = reports(la, p)[node_residue((c, a + 1), p)]
    if sig.good != (c, a + 1) or sig.cogood != (c + p - 1, a):
        return []
    return [({"residue": sig.residue}, remove_node(la, sig.good))]


def _trick2_edges(la, p: int, reports) -> list:
    """R-TRICK2: every chain of length at most p.

    A chain walks residues i+1, i+2, ... applying f~^phi while eps stays 0,
    and ends at the first residue i+m (m >= 2) with eps > 0; it is valid when
    additionally phi > 0 there and the endpoint is not difficult.  The target
    is e~^eps of the endpoint, and the "residues" path lists the stepped
    residues, its last entry being the endpoint's.
    """
    first = reports(la, p)
    out = []
    for i in range(p):
        sig = first[(i + 1) % p]
        path = []
        for _ in range(p - 1):
            if sig.epsilon != 0:
                break
            mu = add_conormals(sig, sig.phi)
            path.append(sig.residue)
            sig = reports(mu, p)[(sig.residue + 1) % p]
            if sig.epsilon > 0:
                if sig.phi > 0 and not difficult(sig):
                    out.append(({"residues": tuple(path) + (sig.residue,)},
                                remove_normals(sig, sig.epsilon)))
                break
    return out


def _specht_terminal(la, p: int, reports):
    """T-SPECHT: some e~_i^{eps} la has an irreducible-Specht preimage."""
    hit = first_specht_witness(reports(la, p), p)
    return None if hit is None else {"residue": hit[0], "witness": hit[1]}


# Each rule is defined once, here; certify walks the tables in order and
# validate replays against them.  Every entry takes (la, p, reports), where
# reports is signatures or a memo of it, read for la and for the partitions
# R-SOCLE and R-TRICK2 look ahead to.  Entries call through the module
# globals (never store e.g. mullineux_image itself) so that wrappers
# installed later, such as a call tracer, see every call.  They call the
# unchecked kernels: certify checks the root and validate each source.
#
# Reductions in search order: edges(la, p, reports) -> [(params, target)].
REDUCTIONS = {
    "R-MULLINEUX": lambda la, p, reports: [({}, mullineux_image(la, p))],
    "R-REFLECT": _reflect_edges,
    "R-TRICK1": _trick1_edges,
    "R-SOCLE": _socle_edges,
    "R-FIXEDTOP": _fixed_top_edges,
    "R-TRICK2": _trick2_edges,
}

# Terminal criteria in cost order: find(la, p, reports) -> params, or None.
TERMINALS = {
    "T-SMALL": lambda la, p, reports: {} if sum(la) < p else None,
    "T-WEIGHT": lambda la, p, reports:
        {} if core_weight(la, p)[1] <= WEIGHT_BOUND else None,
    "T-HEIGHT": lambda la, p, reports:
        {} if len(la) <= p + HEIGHT_MARGIN else None,
    "T-ROCK": lambda la, p, reports:
        {} if rouquier_counts(*bead_counts(la, p)) else None,
    "T-SPECHT": _specht_terminal,
}

TERMINAL_TAGS = tuple(TERMINALS)
REDUCTION_TAGS = tuple(REDUCTIONS)
ALL_RULES = frozenset(TERMINAL_TAGS + REDUCTION_TAGS)


def certify(la, p: int, enabled_rules=None, max_steps: int = 64) -> Certificate:
    """Search breadth-first for a certificate that Ext^1(D^la, D^la) = 0.

    The certificate is a shortest one of at most max_steps steps over the
    enabled rules.  Every REDUCTIONS edge, R-MULLINEUX included, is one step;
    a partition's terminals are checked once, when it is first reached (the
    root first), and the search stops at the first hit.  Returns an UNKNOWN
    certificate with no steps when no certificate of at most max_steps steps
    exists.  p must be a prime above 2, la at most MAX_SIZE boxes and
    max_steps a positive integer.  One search walks each partition once.
    """
    p = check_prime(p, 3)
    la = check_partition(la)
    if not is_p_regular(la, p):  # check_regular would check p again
        raise ValueError(f"{la} is not {p}-regular")
    max_steps = check_integer(max_steps, "max_steps")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    rules = _normalize_rules(enabled_rules)
    terminals = [(tag, find) for tag, find in TERMINALS.items()
                 if tag in rules]
    reductions = [(tag, edges) for tag, edges in REDUCTIONS.items()
                  if tag in rules]

    walked = {}  # one walk per partition and search

    def reports(mu, p):
        return walked.get(mu) or walked.setdefault(mu, signatures(mu, p))

    def terminal(node):
        for tag, find in terminals:
            params = find(node, p, reports)
            if params is not None:
                return Rule(tag, params)
        return None

    found = terminal(la)
    if found:
        return Certificate(p, la, (), found, "CERTIFIED")
    seen = {la}
    queue = deque([(la, ())])
    while queue:
        node, path = queue.popleft()
        if len(path) == max_steps:
            continue
        for tag, edges in reductions:
            for params, target in edges(node, p, reports):
                if target in seen:
                    continue
                seen.add(target)
                reached = path + (Step(Rule(tag, params), node, target),)
                found = terminal(target)
                if found:
                    return Certificate(p, la, reached, found, "CERTIFIED")
                queue.append((target, reached))
    return Certificate(p, la, (), None, "UNKNOWN")


def _specht_witness_holds(params: dict, la, p: int) -> bool:
    """T-SPECHT replay by its witness alone: regularize(nu) is the residue's
    e~^eps image of la and S^nu is irreducible.  Re-running the search's
    first_specht_witness would build the irreducible-Specht index of the
    block of every residue's image up to the witness's."""
    if set(params) != {"residue", "witness"}:
        return False
    i, nu = params["residue"], tuple(params["witness"])
    if i not in range(p):
        return False
    sig = signatures(la, p)[i]
    return (regularize(nu, p) == remove_normals(sig, sig.epsilon)
            and bool(specht_irreducible(nu, p)))


def validate(cert: Certificate) -> bool:
    """True iff cert is a complete proof: a prime p > 2, CERTIFIED status,
    a start of at most MAX_SIZE boxes, every step linked, acyclic and among
    the edges its rule generates from its source (exactly those params), and
    the terminal criterion holding for the final partition with exactly the
    params the search would record.  T-SPECHT is the exception: any residue
    whose witness (of at most MAX_SIZE boxes) holds is accepted, although
    the search records the first such residue, since one suffices."""
    try:
        p = check_prime(cert.p, 3)
        if cert.status != "CERTIFIED" or not isinstance(cert.terminal, Rule):
            return False
        chain = [check_partition(cert.start)]
        for step in cert.steps:
            la = chain[-1]
            if (not isinstance(step, Step) or not isinstance(step.rule, Rule)
                    or check_partition(step.source) != la
                    or not is_p_regular(la, p)):
                return False
            edges = REDUCTIONS[step.rule.tag](la, p, signatures)
            if (step.rule.params, step.target) not in edges:
                return False
            chain.append(step.target)  # equal to a tuple the rule built
        la = chain[-1]
        if len(set(chain)) != len(chain) or not is_p_regular(la, p):
            return False
        tag, params = cert.terminal.tag, cert.terminal.params
        if tag == "T-SPECHT":
            return _specht_witness_holds(params, la, p)
        found = TERMINALS[tag](la, p, signatures)  # None when it fails
        return found is not None and found == params
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def _replayed(la, p: int) -> tuple:
    cert = certify(la, p)
    return cert, validate(cert)


def survey(roots, p: int, workers: int):
    """Yield (certify(la, p), validate's verdict on it) for each root, in
    root order, from a pool of workers processes when workers > 1."""
    replay = partial(_replayed, p=p)  # picklable, unlike a closure
    if workers == 1:
        yield from map(replay, roots)
        return
    from concurrent.futures import ProcessPoolExecutor  # ~15 ms: pools only
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(replay, roots, chunksize=16)
