"""Acceptance tests: the end-to-end contracts the package must satisfy."""

import json
import time
from collections import Counter
from importlib import resources

from selfext.abacus import core_and_weight
from selfext.bijections import mullineux, regularize
from selfext.certifier import ALL_RULES, certify, validate
from selfext.partitions import is_p_regular, parse_partition, partitions_of
from selfext.signatures import (
    e_tilde,
    f_tilde,
    is_difficult,
    signature,
)
from selfext.tables import derive_table1, derive_table2

import oracles


def load_golden(name):
    return json.loads(resources.files("selfext").joinpath(f"data/{name}").read_text())


def regulars(n, p):
    return (la for la in partitions_of(n) if is_p_regular(la, p))


def test_table1_reproduction_under_a_minute():
    started = time.monotonic()
    rows = derive_table1(7)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert len(rows) == 66
    assert Counter(c.weight for c in rows) == {2: 1, 3: 2, 4: 4, 5: 9, 6: 17, 7: 33}
    got = Counter((c.weight, c.left, c.right, c.gap) for c in rows)
    want = Counter((r["weight"], parse_partition(r["left"]),
                    parse_partition(r["right"]), r["gap"])
                   for r in load_golden("table1.json"))
    assert got == want


def test_table2_reproduction():
    rows = derive_table2()
    assert len(rows) == 4
    assert sorted(t.gaps for t in rows) == [(1, 2), (1, 2), (1, 2), (1, 3)]
    got = Counter((t.left, t.middle, t.right, t.gaps) for t in rows)
    want = Counter((parse_partition(r["left"]), parse_partition(r["middle"]),
                    parse_partition(r["right"]), tuple(r["gaps"]))
                   for r in load_golden("table2.json"))
    assert got == want


def test_every_small_partition_is_certified():
    for p, nmax in ((3, 21), (5, 35)):
        for n in range(nmax + 1):
            for la in regulars(n, p):
                cert = certify(la, p)
                assert cert.status == "CERTIFIED", (p, la)
                assert validate(cert), (p, la)


def test_every_3_regular_partition_of_24_is_certified_by_search():
    # n = 24 is the smallest p = 3 size where the search takes steps and
    # T-HEIGHT and T-SPECHT end certificates
    usage = Counter()
    for la in regulars(24, 3):
        cert = certify(la, 3)
        assert cert.status == "CERTIFIED", la
        assert validate(cert), la
        usage.update(step.rule.tag for step in cert.steps)
        usage[cert.terminal.tag] += 1
    # the counts the block-scan preimage gave
    assert usage == {"R-MULLINEUX": 28, "R-TRICK1": 8, "T-HEIGHT": 167,
                     "T-SPECHT": 10, "T-WEIGHT": 254}


def test_specht_terminal_without_weight_rules():
    rules = ALL_RULES - {"T-WEIGHT", "T-HEIGHT", "T-ROCK"}
    cert = certify((10, 5, 4, 3, 1, 1), 3, enabled_rules=rules)
    assert cert.status == "CERTIFIED"
    assert cert.terminal.tag == "T-SPECHT"
    assert cert.terminal.params["witness"] == (9, 4, 2, 2, 1, 1, 1, 1, 1)
    assert validate(cert)


def test_mullineux_involution_negation_weight():
    for p in (3, 5, 7):
        for n in range(13):
            for la in regulars(n, p):
                mu = mullineux(la, p)
                assert is_p_regular(mu, p)
                assert mullineux(mu, p) == la
                assert core_and_weight(mu, p)[1] == core_and_weight(la, p)[1]
                for i in range(p):
                    sig, twin = signature(la, p, i), signature(mu, p, -i)
                    assert (sig.epsilon, sig.phi) == (twin.epsilon, twin.phi)


def test_crystal_identities():
    for p in (3, 5):
        for n in range(13):
            for la in regulars(n, p):
                content = [0] * p
                for row, part in enumerate(la, start=1):
                    for col in range(1, part + 1):
                        content[(col - row) % p] += 1
                weight = core_and_weight(la, p)[1]
                for i in range(p):
                    sig = signature(la, p, i)
                    assert (sig.phi - sig.epsilon
                            == (1 if i == 0 else 0) - 2 * content[i]
                            + content[(i - 1) % p] + content[(i + 1) % p])
                    for r in range(sig.phi + 1):
                        mu = f_tilde(la, p, i, r)
                        assert e_tilde(mu, p, i, r) == la
                        assert (core_and_weight(mu, p)[1] - weight
                                == r * (sig.phi - sig.epsilon - r))
                    for r in range(sig.epsilon + 1):
                        assert f_tilde(e_tilde(la, p, i, r), p, i, r) == la


def test_difficulty_equivalence_and_adjacency():
    for n in range(15):
        for la in regulars(n, 3):
            for i in range(3):
                sig = signature(la, 3, i)
                if sig.epsilon > 0 and sig.phi > 0:
                    assert (oracles.difficult_abacus_check(la, 3, i)
                            == is_difficult(la, 3, i)), (la, i)
                # asserts that singularity and adjacency agree
                oracles.node_adjacency_checks(la, 3, i)


def test_regularization_contract():
    assert regularize((6, 1, 1, 1, 1, 1), 5) == (6, 2, 1, 1, 1)
    assert regularize((1, 1, 1), 3) == (2, 1)
    for n in range(15):
        for la in partitions_of(n):
            reg = regularize(la, 3)
            assert is_p_regular(reg, 3)
            assert regularize(reg, 3) == reg
            assert oracles.dominates(reg, la)
