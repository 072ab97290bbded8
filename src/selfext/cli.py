"""Command-line front end: analysis, certification, surveys, golden tables."""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from importlib import resources

from .partitions import (check_prime, format_partition, is_p_regular,
                         parse_partition, partitions_of)
from .abacus import core_and_weight
from .signatures import signatures
from .bijections import mullineux, regularize
from .blocks import BlockId, enumerate_block
from .specht import specht_irreducible
from .certifier import certify, validate
from .tables import derive_table1, derive_table2


def _workers() -> int:
    requested = int(os.environ.get("SELFEXT_WORKERS", "1"))
    return max(1, min(requested, os.cpu_count() or 1))


def _emit(payload: dict, text: str, as_json: bool) -> None:
    print(json.dumps(payload, indent=2) if as_json else text)


def _cmd_analyze(args) -> int:
    p = check_prime(args.p)
    la = parse_partition(args.partition)
    core, weight = core_and_weight(la, p)
    residues = [{
        "residue": sig.residue,
        "word": [[list(node), sign] for node, sign in sig.word],
        "normals": [list(node) for node in sig.normals],
        "conormals": [list(node) for node in sig.conormals],
        "epsilon": sig.epsilon,
        "phi": sig.phi,
        "epsilon_prime": sig.epsilon_prime,
        "phi_prime": sig.phi_prime,
        "good": list(sig.good) if sig.good else None,
        "cogood": list(sig.cogood) if sig.cogood else None,
    } for sig in signatures(la, p)]
    regular = is_p_regular(la, p)
    payload = {
        "partition": list(la),
        "p": p,
        "core": list(core),
        "weight": weight,
        "regular": regular,
        "mullineux": list(mullineux(la, p)) if regular else None,
        "regularization": list(regularize(la, p)),
        "residues": residues,
    }
    lines = [f"partition {format_partition(la)} (p={p})",
             f"core {format_partition(core)}, weight {weight}",
             f"{p}-regular: {'yes' if regular else 'no'}"]
    for entry in residues:
        lines.append(f"residue {entry['residue']}: eps={entry['epsilon']} "
                     f"phi={entry['phi']} good={entry['good']} "
                     f"cogood={entry['cogood']}")
    if regular:
        lines.append(f"mullineux {format_partition(payload['mullineux'])}")
    lines.append(f"regularization {format_partition(payload['regularization'])}")
    _emit(payload, "\n".join(lines), args.json)
    return 0


def _cmd_certify(args) -> int:
    p = check_prime(args.p)
    la = parse_partition(args.partition)
    rules = None
    if args.rules:
        rules = {tag.strip() for tag in args.rules.split(",") if tag.strip()}
    cert = certify(la, p, enabled_rules=rules, max_steps=args.max_steps)
    if args.json:
        print(json.dumps(cert.to_dict(), indent=2))
    elif cert.status == "CERTIFIED":
        print(f"CERTIFIED ({cert.terminal.tag})")
        for step in cert.steps:
            params = " ".join(f"{k}={v}" for k, v in step.rule.params.items())
            arrow = f"-[{step.rule.tag}{' ' + params if params else ''}]->"
            print(f"  {format_partition(step.source)} {arrow} "
                  f"{format_partition(step.target)}")
        for key, value in cert.terminal.params.items():
            print(f"  terminal {key}: "
                  f"{format_partition(value) if isinstance(value, tuple) else value}")
    else:
        print("UNKNOWN")
    return 0 if cert.status == "CERTIFIED" else 1


def _survey_one(task):
    la, p = task
    cert = certify(la, p)
    tags = [s.rule.tag for s in cert.steps]
    if cert.terminal is not None:
        tags.append(cert.terminal.tag)
    return la, cert.status, tags, validate(cert)


def _cmd_survey(args) -> int:
    p = check_prime(args.p)
    if args.n < 0:
        raise ValueError("n must be non-negative")
    tasks = [(la, p) for la in partitions_of(args.n) if is_p_regular(la, p)]
    workers = _workers()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_survey_one, tasks, chunksize=16))
    else:
        results = [_survey_one(task) for task in tasks]
    usage = Counter(tag for _, _, tags, _ in results for tag in tags)
    unknown = sorted(la for la, status, _, _ in results if status != "CERTIFIED")
    invalid = sorted(la for la, status, _, ok in results
                     if status == "CERTIFIED" and not ok)
    certified = len(results) - len(unknown)
    payload = {
        "p": p,
        "n": args.n,
        "total": len(results),
        "certified": certified,
        "unknown": [list(la) for la in unknown],
        "invalid": [list(la) for la in invalid],
        "rule_usage": dict(sorted(usage.items())),
    }
    lines = [f"certified {certified}/{len(results)} {p}-regular partitions "
             f"of {args.n}"]
    lines.append("rule usage: " + ", ".join(
        f"{tag}={count}" for tag, count in sorted(usage.items())))
    for la in unknown:
        lines.append(f"UNKNOWN {format_partition(la)}")
    for la in invalid:
        lines.append(f"INVALID CERTIFICATE {format_partition(la)}")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if not unknown and not invalid else 1


def _load_golden(name: str) -> list:
    text = resources.files("selfext").joinpath(f"data/{name}").read_text()
    return json.loads(text)


def _cmd_verify_tables(args) -> int:
    rows1 = derive_table1(args.max_weight)
    derived1 = Counter((c.left, c.right, c.gap) for c in rows1)
    expected1 = Counter(
        (parse_partition(row["left"]), parse_partition(row["right"]),
         row["gap"])
        for row in _load_golden("table1.json")
        if row["weight"] <= args.max_weight)
    matched1 = sum((derived1 & expected1).values())
    ok = derived1 == expected1
    report = {"table1": {"derived": sum(derived1.values()),
                         "expected": sum(expected1.values()),
                         "matched": matched1, "match": derived1 == expected1}}
    parts = [f"Table I: {matched1}/{sum(expected1.values())} match"]
    if args.max_weight == 7:
        derived2 = Counter((t.left, t.middle, t.right, t.gaps)
                           for t in derive_table2(rows1))
        expected2 = Counter(
            (parse_partition(row["left"]), parse_partition(row["middle"]),
             parse_partition(row["right"]), tuple(row["gaps"]))
            for row in _load_golden("table2.json"))
        matched2 = sum((derived2 & expected2).values())
        ok = ok and derived2 == expected2
        report["table2"] = {"derived": sum(derived2.values()),
                            "expected": sum(expected2.values()),
                            "matched": matched2, "match": derived2 == expected2}
        parts.append(f"Table II: {matched2}/{sum(expected2.values())} match")
    _emit(report, "; ".join(parts), args.json)
    return 0 if ok else 1


def _cmd_enumerate_block(args) -> int:
    p = check_prime(args.p)
    core = parse_partition(args.core)
    block = BlockId(core, args.weight, p)
    members = enumerate_block(block, regular_only=args.regular)
    members.sort(reverse=True)
    payload = {"core": list(core), "weight": args.weight, "p": p,
               "regular_only": args.regular,
               "partitions": [list(la) for la in members]}
    _emit(payload, "\n".join(format_partition(la) for la in members),
          args.json)
    return 0


def _cmd_specht(args) -> int:
    p = check_prime(args.p)
    la = parse_partition(args.partition)
    result = specht_irreducible(la, p)
    lines = ["irreducible" if result.irreducible else "reducible"]
    if args.witness and result.beads is not None:
        lines.append(f"beads {result.beads}, runners "
                     f"({result.regular_runner}, {result.restricted_runner})")
    _emit(asdict(result), "\n".join(lines), args.json)
    return 0


def _cmd_map(args) -> int:
    """Apply mullineux or regularize, named by the subcommand and looked up
    at call time."""
    p = check_prime(args.p)
    la = parse_partition(args.partition)
    out = globals()[args.command](la, p)
    _emit({"input": list(la), "output": list(out), "p": p},
          format_partition(out), args.json)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfext",
        description="Partition/abacus combinatorics and certificates of "
                    "self-extension vanishing for symmetric groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        cmd = sub.add_parser(name, **kwargs)
        cmd.set_defaults(func=func)
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
        return cmd

    cmd = add("analyze", _cmd_analyze,
              help="core, weight, signatures, Mullineux, regularization")
    cmd.add_argument("partition")
    cmd.add_argument("--p", type=int, required=True)

    cmd = add("certify", _cmd_certify,
              help="search for an Ext-vanishing certificate")
    cmd.add_argument("partition")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--rules", help="comma-separated rule tags to enable")
    cmd.add_argument("--max-steps", type=int, default=64)

    cmd = add("survey", _cmd_survey,
              help="batch-certify all p-regular partitions of n")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)

    cmd = add("verify-tables", _cmd_verify_tables,
              help="re-derive the difficulty tables against the golden files")
    cmd.add_argument("--max-weight", type=int, default=7)

    cmd = add("enumerate-block", _cmd_enumerate_block,
              help="list the partitions of a block")
    cmd.add_argument("--core", required=True)
    cmd.add_argument("--weight", type=int, required=True)
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--regular", action="store_true",
                     help="p-regular members only")

    cmd = add("specht-irreducible", _cmd_specht,
              help="test irreducibility of a Specht module")
    cmd.add_argument("partition")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--witness", action="store_true",
                     help="show the display and runner pair found")

    for name, text in (("mullineux", "apply the Mullineux map"),
                       ("regularize", "apply regularization")):
        cmd = add(name, _cmd_map, help=text)
        cmd.add_argument("partition")
        cmd.add_argument("--p", type=int, required=True)

    return parser


def run(argv=None) -> int:
    """Parse argv, run the subcommand, and return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A broken internal invariant must not pass for UNKNOWN (exit 1).
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
