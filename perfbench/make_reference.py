"""Regenerate the reference certificates the survey workloads are checked
against, from the program as it is now.

    python3 perfbench/make_reference.py

Run it only when a change to the certificates is intended and argued as a
behaviour change: the benchmark counts every certificate that differs from
the reference as a failed operation.
"""
from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on sys.path)


def main() -> int:
    workloads.REFERENCE.mkdir(exist_ok=True)
    digests = {}
    for workload in workloads.WORKLOADS.values():
        if not isinstance(workload, workloads.Survey):
            continue
        lines = [workloads.certificate_line(workload.run(la)[0])
                 for la in sorted(workload.setup(0))]
        path = workloads.REFERENCE / f"{workload.name}.jsonl.gz"
        with open(path, "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as out:
            out.write("".join(line + "\n" for line in lines).encode())
        digests[workload.name] = {"inputs": len(lines),
                                  "sha256": workloads.digest(lines)}
        print(workload.name, digests[workload.name], file=sys.stderr)
    (workloads.REFERENCE / "digests.json").write_text(
        json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
