"""The benchmark's workloads: how each makes its inputs from a seed, what
one operation is, and how its outputs are checked.

Import this module only with the checkout's src/ on sys.path.  Operations
look selfext functions up on their modules at call time, so the tracer's
wrappers see them.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from selfext import certifier, partitions, tables

REFERENCE = Path(__file__).resolve().parent / "reference"


def certificate_line(cert) -> str:
    """The certificate's to_dict() JSON, in the form the reference stores."""
    return json.dumps(cert.to_dict(), separators=(",", ":"))


def digest(lines) -> str:
    """SHA-256 of certificate lines already sorted by input."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class Survey:
    """What `selfext survey` does per partition: certify(la, p), then
    validate the certificate, for every p-regular partition of each n."""

    name: str
    p: int
    ns: tuple

    def setup(self, seed: int) -> list:
        """All inputs, in an order fixed by the seed."""
        inputs = sorted(la for n in self.ns
                        for la in partitions.partitions_of(n)
                        if partitions.is_p_regular(la, self.p))
        random.Random(seed).shuffle(inputs)
        return inputs

    def run(self, la):
        cert = certifier.certify(la, self.p)
        return cert, certifier.validate(cert)

    def reference(self) -> tuple:
        """Reference certificate line per input, and the digest of them all."""
        with gzip.open(REFERENCE / f"{self.name}.jsonl.gz", "rt") as lines:
            expected = {tuple(json.loads(line)["start"]): line.rstrip("\n")
                        for line in lines}
        meta = json.loads((REFERENCE / "digests.json").read_text())[self.name]
        return expected, meta["sha256"]

    def check(self, inputs: list, outputs: list):
        """(attempted, failed, digest ok, digest).  An input fails if its
        operation raised (output None), its certificate is not CERTIFIED or
        does not validate, or its JSON differs from the reference.  Reference
        inputs that were never generated count as attempted and failed."""
        expected, reference_digest = self.reference()
        missing = len(expected.keys() - set(inputs))
        failures = missing
        lines = {}
        for la, out in zip(inputs, outputs):
            if out is None:
                failures += 1
                continue
            cert, valid = out
            lines[la] = certificate_line(cert)
            if (cert.status != "CERTIFIED" or not valid
                    or expected.get(la) != lines[la]):
                failures += 1
        found = digest(lines[la] for la in sorted(lines))
        return (len(inputs) + missing, failures, found == reference_digest,
                found)


@dataclass(frozen=True)
class Tables:
    """What `selfext verify-tables` does: derive Table I (weight <= 7) and
    Table II and compare them, as multisets of rows, with the golden files
    shipped in the package.  One pass repeats this `repeats` times."""

    name: str
    repeats: int

    def setup(self, seed: int) -> list:
        """The golden tables, once per operation; the seed draws nothing."""
        def golden(file):
            return json.loads(
                resources.files("selfext").joinpath(f"data/{file}").read_text())
        parse = partitions.parse_partition
        table1 = Counter((parse(row["left"]), parse(row["right"]), row["gap"])
                         for row in golden("table1.json") if row["weight"] <= 7)
        table2 = Counter((parse(row["left"]), parse(row["middle"]),
                          parse(row["right"]), tuple(row["gaps"]))
                         for row in golden("table2.json"))
        return [(table1, table2)] * self.repeats

    def run(self, golden):
        table1 = Counter((c.left, c.right, c.gap)
                         for c in tables.derive_table1(7))
        table2 = Counter((t.left, t.middle, t.right, t.gaps)
                         for t in tables.derive_table2())
        return table1, table2

    def check(self, inputs: list, outputs: list):
        """(attempted, failed, True, None): an operation fails if it raised
        or its tables differ from the golden ones."""
        failures = sum(out != golden for golden, out in zip(inputs, outputs))
        return len(inputs), failures, True, None


WORKLOADS = {w.name: w for w in (
    Survey("search-p3", 3, (24, 25)),
    Survey("trivial-p5", 5, (35,)),
    Tables("tables", 40),
)}
