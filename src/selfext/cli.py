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

from .partitions import (MAX_SIZE, check_prime, format_partition,
                         is_p_regular, parse_partition, partitions_of)
from .abacus import core_and_weight
from .signatures import signatures
from .bijections import mullineux, regularize
from .blocks import BlockId, enumerate_block
from .specht import specht_irreducible
from .certifier import certify, validate
from .tables import derive_table1, derive_table2


def _workers() -> int:
    value = os.environ.get("SELFEXT_WORKERS", "1")
    try:
        requested = int(value)
    except ValueError:
        raise ValueError(f"SELFEXT_WORKERS must be an integer, "
                         f"got {value!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def _emit(payload: dict, text: str, as_json: bool) -> None:
    print(json.dumps(payload, indent=2) if as_json else text)


# Handlers read args.p and args.partition as run() checked them.

def _cmd_analyze(args) -> int:
    la, p = args.partition, args.p
    core, weight = core_and_weight(la, p)
    residues = [{
        "residue": sig.residue,
        "word": sig.word,
        "normals": sig.normals,
        "conormals": sig.conormals,
        "epsilon": sig.epsilon,
        "phi": sig.phi,
        "epsilon_prime": sig.epsilon_prime,
        "phi_prime": sig.phi_prime,
        "good": list(sig.good) if sig.good else None,
        "cogood": list(sig.cogood) if sig.cogood else None,
    } for sig in signatures(la, p)]
    regular = is_p_regular(la, p)
    payload = {"partition": la, "p": p, "core": core, "weight": weight,
               "regular": regular,
               "mullineux": mullineux(la, p) if regular else None,
               "regularization": regularize(la, p), "residues": residues}
    lines = [f"partition {format_partition(la)} (p={p})",
             f"core {format_partition(core)}, weight {weight}",
             f"{p}-regular: {'yes' if regular else 'no'}"]
    lines += [f"residue {e['residue']}: eps={e['epsilon']} phi={e['phi']} "
              f"good={e['good']} cogood={e['cogood']}" for e in residues]
    if regular:
        lines.append(f"mullineux {format_partition(payload['mullineux'])}")
    lines.append(f"regularization {format_partition(payload['regularization'])}")
    _emit(payload, "\n".join(lines), args.json)
    return 0


def _cmd_certify(args) -> int:
    rules = ({tag.strip() for tag in args.rules.split(",") if tag.strip()}
             if args.rules else None)
    cert = certify(args.partition, args.p, enabled_rules=rules,
                   max_steps=args.max_steps)
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
    p = args.p
    if args.n < 0:
        raise ValueError("n must be non-negative")
    if args.n > MAX_SIZE:
        raise ValueError(f"n must be at most {MAX_SIZE}")
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
    payload = {"p": p, "n": args.n, "total": len(results),
               "certified": certified, "unknown": unknown, "invalid": invalid,
               "rule_usage": dict(sorted(usage.items()))}
    lines = [f"certified {certified}/{len(results)} {p}-regular partitions "
             f"of {args.n}",
             "rule usage: " + ", ".join(
                 f"{tag}={count}" for tag, count in sorted(usage.items()))]
    lines += [f"UNKNOWN {format_partition(la)}" for la in unknown]
    lines += [f"INVALID CERTIFICATE {format_partition(la)}" for la in invalid]
    _emit(payload, "\n".join(lines), args.json)
    return 0 if not unknown and not invalid else 1


def _load_golden(name: str) -> list:
    return json.loads(
        resources.files("selfext").joinpath(f"data/{name}").read_text())


def _match(derived: Counter, expected: Counter) -> dict:
    """Derived rows against the golden file's, both as multisets."""
    return {"derived": sum(derived.values()),
            "expected": sum(expected.values()),
            "matched": sum((derived & expected).values()),
            "match": derived == expected}


def _cmd_verify_tables(args) -> int:
    rows1 = derive_table1(args.max_weight)
    report = {"table1": _match(
        Counter((c.left, c.right, c.gap) for c in rows1),
        Counter((parse_partition(row["left"]), parse_partition(row["right"]),
                 row["gap"])
                for row in _load_golden("table1.json")
                if row["weight"] <= args.max_weight))}
    if args.max_weight == 7:
        report["table2"] = _match(
            Counter((t.left, t.middle, t.right, t.gaps)
                    for t in derive_table2(rows1)),
            Counter((parse_partition(row["left"]),
                     parse_partition(row["middle"]),
                     parse_partition(row["right"]), tuple(row["gaps"]))
                    for row in _load_golden("table2.json")))
    _emit(report, "; ".join(
        f"{title}: {table['matched']}/{table['expected']} match"
        for title, table in zip(("Table I", "Table II"), report.values())),
        args.json)
    return 0 if all(table["match"] for table in report.values()) else 1


def _cmd_enumerate_block(args) -> int:
    core = parse_partition(args.core)
    members = enumerate_block(BlockId(core, args.weight, args.p),
                              regular_only=args.regular)
    members.sort(reverse=True)
    payload = {"core": core, "weight": args.weight, "p": args.p,
               "regular_only": args.regular, "partitions": members}
    _emit(payload, "\n".join(map(format_partition, members)), args.json)
    return 0


def _cmd_specht(args) -> int:
    result = specht_irreducible(args.partition, args.p)
    lines = ["irreducible" if result.irreducible else "reducible"]
    if args.witness and result.beads is not None:
        lines.append(f"beads {result.beads}, runners "
                     f"({result.regular_runner}, {result.restricted_runner})")
    _emit(asdict(result), "\n".join(lines), args.json)
    return 0


def _cmd_map(args) -> int:
    """Apply mullineux or regularize, looked up by name at call time."""
    out = globals()[args.command](args.partition, args.p)
    _emit({"input": args.partition, "output": out, "p": args.p},
          format_partition(out), args.json)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfext",
        description="Partition/abacus combinatorics and certificates of "
                    "self-extension vanishing for symmetric groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, partition=True, **kwargs):
        """A subcommand with --json, and the partition and --p if partition."""
        cmd = sub.add_parser(name, **kwargs)
        cmd.set_defaults(func=func)
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
        if partition:
            cmd.add_argument("partition")
            cmd.add_argument("--p", type=int, required=True)
        return cmd

    add("analyze", _cmd_analyze,
        help="core, weight, signatures, Mullineux, regularization")

    cmd = add("certify", _cmd_certify,
              help="search for an Ext-vanishing certificate")
    cmd.add_argument("--rules", help="comma-separated rule tags to enable")
    cmd.add_argument("--max-steps", type=int, default=64)

    cmd = add("survey", _cmd_survey, partition=False,
              help="batch-certify all p-regular partitions of n")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)

    cmd = add("verify-tables", _cmd_verify_tables, partition=False,
              help="re-derive the difficulty tables against the golden files")
    cmd.add_argument("--max-weight", type=int, default=7)

    cmd = add("enumerate-block", _cmd_enumerate_block, partition=False,
              help="list the partitions of a block")
    cmd.add_argument("--core", required=True)
    cmd.add_argument("--weight", type=int, required=True)
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--regular", action="store_true",
                     help="p-regular members only")

    cmd = add("specht-irreducible", _cmd_specht,
              help="test irreducibility of a Specht module")
    cmd.add_argument("--witness", action="store_true",
                     help="show the display and runner pair found")

    for name, text in (("mullineux", "apply the Mullineux map"),
                       ("regularize", "apply regularization")):
        add(name, _cmd_map, help=text)

    return parser


def run(argv=None) -> int:
    """Parse argv, check p and the partition (p first), run the subcommand,
    and return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "p" in vars(args):
            args.p = check_prime(args.p)
        if "partition" in vars(args):
            args.partition = parse_partition(args.partition)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A broken internal invariant must not pass for UNKNOWN (exit 1).
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (e.g. `| head`): send the rest of stdout to
        # devnull so the flush at shutdown cannot fail, and exit as SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, the status of a process SIGPIPE killed
    sys.exit(code)


if __name__ == "__main__":
    main()
