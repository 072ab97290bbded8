"""Tests for the self-extension certifier: rules, searches, certificates."""

import hashlib
import json
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from selfext import certifier, partitions, signatures as signatures_module
from selfext.abacus import (bead_counts, core_and_weight, from_runner_rows,
                            rows_for_component)
from selfext.blocks import rouquier_counts
from selfext.certifier import (
    ALL_RULES,
    REDUCTION_TAGS,
    Certificate,
    Rule,
    Step,
    certificate_from_dict,
    certify,
    survey,
    validate,
)
from selfext.partitions import MAX_SIZE, is_p_regular, partitions_of
from selfext.signatures import e_tilde, f_tilde, is_difficult, signature

# SHA-256 of the JSON list of every certificate test_rule_subset_searches
# builds; a change to any search result under any rule subset moves it.
RULE_SUBSET_DIGEST = (
    "a3a8fde4c8e6c503121055742b2788b69a173d096266983caebba936e4378ebb")


def sample_pool(seed=7, count=60):
    rng = random.Random(seed)
    pool = [la for n in range(4, 19) for la in partitions_of(n)
            if is_p_regular(la, 3)]
    return pool, rng.sample(pool, count)


def replay_trick2(la, p, path, target):
    mu = la
    for j in path[:-1]:
        sig = signature(mu, p, j)
        assert sig.epsilon == 0
        mu = f_tilde(mu, p, j, sig.phi)
    final = path[-1]
    sig = signature(mu, p, final)
    assert sig.epsilon > 0 and sig.phi > 0
    assert not is_difficult(mu, p, final)
    assert target == e_tilde(mu, p, final, sig.epsilon)


def test_certify_weight_terminal():
    c = certify((2, 1), 3)
    assert c.status == "CERTIFIED"
    assert c.terminal.tag == "T-WEIGHT"
    assert c.steps == ()
    assert validate(c)


def test_certify_specht_terminal_witness():
    c = certify((10, 5, 4, 3, 1, 1), 3, enabled_rules={"T-SPECHT"})
    assert c.status == "CERTIFIED"
    assert c.terminal.tag == "T-SPECHT"
    assert c.terminal.params == {"residue": 0, "witness": (9, 4, 2, 2, 1, 1, 1, 1, 1)}
    assert c.steps == ()
    assert validate(c)


def test_certify_without_weight_height_rock():
    rules = ALL_RULES - {"T-WEIGHT", "T-HEIGHT", "T-ROCK"}
    c = certify((10, 5, 4, 3, 1, 1), 3, enabled_rules=rules)
    assert c.status == "CERTIFIED"
    assert c.terminal.tag == "T-SPECHT"
    assert validate(c)


# weight 8 and 21 rows on the least 8-Rouquier 3-core, of 161 boxes
ROCK_ROOT = (45, 19, 17, 15, 13, 11, 9, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2,
             1, 1)


def test_certify_rock_terminal_on_the_least_rouquier_core():
    least = from_runner_rows([range(7 * k) for k in range(3)], 3)
    assert core_and_weight(ROCK_ROOT, 3) == (least, 8)
    assert least == (21,) + ROCK_ROOT[1:] and sum(least) == 161
    c = certify(ROCK_ROOT, 3)
    assert (c.status, c.steps, c.terminal) == ("CERTIFIED", (),
                                               Rule("T-ROCK", {}))
    assert validate(certificate_from_dict(c.to_dict()))


@pytest.mark.parametrize("p, limit, dmax, scanned", [
    (2, 300, 10, 300), (3, 200, 9, 200), (4, 30, 9, 30), (5, 300, 4, 20),
    (7, 14, 9, 14)])
def test_rouquier_counts_spread_check_keeps_the_least_rouquier_core(
        p, limit, dmax, scanned):
    # rouquier_counts refuses counts spread by less than (p-1)(d-1) before
    # rotating them; the least d-Rouquier core, whose runner k holds k(d-1)
    # beads, sits on that bound.  Checked on every p-core of at most `limit`
    # boxes, and against the oracle, which tries every display, on those of
    # at most `scanned` boxes
    cores = oracles.cores_by_bead_counts(p, limit)
    sizes = Counter(map(sum, cores))
    assert [sizes[n] for n in range(limit + 1)] == oracles.core_counts(p, limit)
    displays = [(core, sum(core), bead_counts(core, p)[0]) for core in cores]
    for d in range(dmax + 1):
        runners = [k * max(d - 1, 0) for k in range(p)]
        least = from_runner_rows([range(c) for c in runners], p)
        assert rouquier_counts(runners, d), (p, d)
        assert rouquier_counts(bead_counts(least, p)[0], d), (p, d)
        assert oracles.rouquier_by_full_scan(least, p, d), (p, d)
        assert (least in cores) == (sum(least) <= limit), (p, d)
        for core, size, counts in displays:
            if size < sum(least):
                assert not rouquier_counts(counts, d), (core, d)
            if size <= scanned:
                assert (rouquier_counts(counts, d)
                        == oracles.rouquier_by_full_scan(core, p, d)), (core, d)
    least8 = [sum(from_runner_rows([range(7 * k) for k in range(p)], p))
              for p in (3, 5)]
    assert least8 == [161, 1295]


def test_t_rock_builds_no_second_core(monkeypatch):
    # T-ROCK reads bead counts, so every core_weight call of a search is
    # T-WEIGHT's: one per node that reaches T-WEIGHT, none from T-ROCK
    events, real = [], certifier.core_weight

    def counted(la, p):
        events.append("core_weight")
        return real(la, p)

    def logged(tag, find):
        def find_logged(la, p, reports):
            events.append(tag)
            return find(la, p, reports)
        return find_logged

    monkeypatch.setattr(certifier, "core_weight", counted)
    for tag in ("T-WEIGHT", "T-ROCK"):
        monkeypatch.setitem(certifier.TERMINALS, tag,
                            logged(tag, certifier.TERMINALS[tag]))
    c = certify((12, 8, 3, 2, 1, 1), 3)
    assert (c.terminal.tag, len(c.steps)) == ("T-SPECHT", 2)
    # seven nodes reach T-ROCK (T-SPECHT hits on the seventh)
    assert Counter(events) == {"T-WEIGHT": 7, "core_weight": 7, "T-ROCK": 7}
    assert all(before == "T-WEIGHT" for before, call in zip(events, events[1:])
               if call == "core_weight")


def trick1(la, p):
    return [(params["residue"], mu)
            for params, mu in oracles.rule_edges("R-TRICK1", la, p)]


def trick2(la, p):
    return [(params["residues"], mu)
            for params, mu in oracles.rule_edges("R-TRICK2", la, p)]


def test_trick1_examples():
    assert trick1((4, 2, 1), 3) == []
    assert trick1((2, 2, 1), 3) == [(1, (2, 2))]
    assert trick1((), 3) == []


def test_trick1_monotonicity():
    for n in range(1, 13):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            weight = core_and_weight(la, 3)[1]
            for _, mu in trick1(la, 3):
                assert sum(mu) < sum(la)
                assert core_and_weight(mu, 3)[1] <= weight


def test_trick1_targets_are_socle_edges():
    for n in range(1, 13):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            socle = oracles.rule_edges("R-SOCLE", la, 3)
            for i, mu in trick1(la, 3):
                assert ({"residue": i, "direction": "e"}, mu) in socle


def from_runners(runners, p):
    """The partition whose runner j carries runners[j] = (component, beads)."""
    return from_runner_rows([rows_for_component(comp, beads)
                             for comp, beads in runners], p)


def test_trick2_hand_chain():
    assert from_runners([((), 1), ((1, 1), 2), ((), 1)], 3) == (4, 2, 1)
    chains = trick2((4, 2, 1), 3)
    assert ((2, 0), (3, 2, 2)) in chains


def test_trick2_loaded_runner_configs():
    for p, runners in [
            (3, [((), 1), ((1, 1), 2), ((), 1)]),
            (5, [((), 1), ((1, 1), 2), ((), 2), ((), 2), ((), 1)]),
            (5, [((), 1), ((1, 1, 1), 3), ((), 3), ((), 2), ((), 1)])]:
        la = from_runners(runners, p)
        assert is_p_regular(la, p)
        chains = trick2(la, p)
        assert chains
        for path, target in chains:
            assert len(path) >= 2
            assert all((b - a) % p == 1 for a, b in zip(path, path[1:]))
            replay_trick2(la, p, path, target)


def test_trick2_empty():
    assert trick2((), 3) == []


def test_trick2_self_validation_sweep():
    for n in range(1, 11):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            for path, target in trick2(la, 3):
                replay_trick2(la, 3, path, target)


def test_certify_error_cases():
    with pytest.raises(ValueError):
        certify((2, 1), 2)
    with pytest.raises(ValueError):
        certify((1, 1, 1), 3)
    with pytest.raises(ValueError):
        certify((2, 1), 3, max_steps=0)
    # 2.0 reads as 2 steps, but 1.5 is refused, not read as "at most 2"
    rules = {"T-SMALL", "T-ROCK", "R-MULLINEUX", "R-SOCLE", "R-TRICK2"}
    assert len(certify((4, 2, 1), 3, rules, max_steps=2.0).steps) == 2
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            certify((4, 2, 1), 3, rules, max_steps=bad)
    with pytest.raises(ValueError):
        certify((2, 1), 3, enabled_rules={"T-BOGUS"})


def test_small_sweep_all_certified():
    for n in range(15):
        for la in partitions_of(n):
            if not is_p_regular(la, 3):
                continue
            c = certify(la, 3)
            assert c.status == "CERTIFIED"
            assert c.steps == ()
            assert validate(c)


def test_a_rule_set_without_a_terminal_is_refused():
    # such a search could never certify anything, so it is not an UNKNOWN
    for rules in ({"R-MULLINEUX"}, [], set(REDUCTION_TAGS)):
        with pytest.raises(ValueError, match="no terminal rule enabled"):
            certify((3, 1), 3, enabled_rules=rules)
    assert certify((3, 1), 3, enabled_rules={"t-small"}).status == "UNKNOWN"


def test_unknown_result():
    c = certify((3, 1), 3, enabled_rules={"T-SMALL"})
    assert c.status == "UNKNOWN"
    assert c.steps == ()
    assert c.terminal is None
    assert not validate(c)


# The UNKNOWN components of the p = 3 surveys up to n = 45, the first at
# n = 39: each is closed under every reduction, and no terminal holds on any
# member.  The last case is two lone Mullineux twin pairs.
@pytest.mark.parametrize("components", [
    pytest.param([[(11, 7, 7, 5, 4, 3, 1, 1), (15, 10, 5, 4, 3, 1, 1),
                   (11, 8, 7, 5, 4, 3, 1, 1), (16, 10, 5, 4, 3, 1, 1),
                   (12, 8, 7, 5, 4, 3, 1, 1), (17, 10, 5, 4, 3, 1, 1)]],
                 id="11,7,7,5,4,3,1,1"),
    pytest.param([[(14, 9, 8, 7, 2, 2), (18, 7, 6, 5, 3, 3),
                   (14, 9, 8, 7, 2, 2, 1), (18, 7, 6, 5, 3, 3, 1),
                   (14, 9, 8, 7, 2, 2, 1, 1), (18, 7, 6, 5, 3, 3, 2)]],
                 id="14,9,8,7,2,2"),
    pytest.param([[(12, 10, 8, 7, 6, 1, 1), (17, 6, 5, 5, 4, 3, 3, 2),
                   (13, 10, 8, 7, 6, 1, 1), (17, 6, 6, 5, 4, 3, 3, 2),
                   (14, 10, 8, 7, 6, 1, 1), (18, 6, 6, 5, 4, 3, 3, 2)]],
                 id="12,10,8,7,6,1,1"),
    pytest.param([[(12, 10, 9, 8, 5, 1), (20, 6, 5, 4, 4, 3, 2, 1),
                   (12, 10, 9, 8, 5, 1, 1), (20, 6, 5, 4, 4, 3, 2, 2),
                   (12, 10, 9, 8, 6, 1, 1), (20, 6, 5, 4, 4, 3, 3, 2)]],
                 id="12,10,9,8,5,1"),
    pytest.param([[(13, 8, 7, 6, 4, 3, 2, 1, 1), (16, 9, 6, 5, 4, 2, 2, 1)],
                  [(13, 11, 10, 9, 1, 1), (22, 6, 6, 5, 4, 2)]],
                 id="twin-pairs"),
])
def test_first_unknown_of_the_survey(components):
    for component in components:
        la = component[0]
        assert certify(la, 3).status == "UNKNOWN"
        seen, frontier = {la}, [la]
        while frontier:
            frontier = [target for mu in frontier
                        for tag in certifier.REDUCTIONS
                        for _, target in oracles.rule_edges(tag, mu, 3)
                        if target not in seen]
            seen.update(frontier)
        assert seen == set(component)
        assert oracles.shortest_certificate_length(la, 3, ALL_RULES, 10) is None


def test_hand_built_certificates():
    assert validate(Certificate(3, (2, 1), (), Rule("T-WEIGHT"), "CERTIFIED"))
    # |la| = 3 is not below p = 3, so T-SMALL does not apply
    assert not validate(Certificate(3, (2, 1), (), Rule("T-SMALL"), "CERTIFIED"))


# An UNKNOWN root of (3,39), of weight 13: every terminal fails on it.
@pytest.mark.parametrize("tag", ["T-SMALL", "T-WEIGHT", "T-HEIGHT", "T-ROCK"])
def test_a_terminal_that_fails_is_refused_whatever_its_params(tag):
    la = (11, 7, 7, 5, 4, 3, 1, 1)
    assert certify(la, 3).status == "UNKNOWN"
    for params in (None, {}):
        assert not validate(Certificate(3, la, (), Rule(tag, params),
                                        "CERTIFIED"))


def test_steps_and_terminals_of_the_wrong_type_are_refused():
    good = certify((4, 1), 3,
                   enabled_rules={"T-SMALL", "R-TRICK1", "R-REFLECT"})
    assert good.steps and validate(good)
    step = good.steps[0]
    for steps, terminal in (
            (("R-TRICK1",), good.terminal),
            ((Step("R-TRICK1", step.source, step.target),), good.terminal),
            (good.steps, "T-SMALL"),
            (good.steps, ("T-SMALL", {}))):
        assert not validate(Certificate(3, good.start, steps, terminal,
                                        "CERTIFIED"))


def test_survey_streams_each_roots_certificate_and_verdict_in_order():
    roots = [la for la in partitions_of(24) if is_p_regular(la, 3)]
    expected = [(cert, validate(cert))
                for cert in (certify(la, 3) for la in roots)]
    assert {c.status for c, _ in expected} == {"CERTIFIED"}
    assert list(survey(roots, 3, 1)) == expected
    assert list(survey(roots, 3, 2)) == expected


def test_rule_subset_searches():
    _, sample = sample_pool()
    subsets = [
        ALL_RULES,
        frozenset(ALL_RULES - {"T-WEIGHT"}),
        frozenset(ALL_RULES - {"T-WEIGHT", "T-ROCK"}),
        frozenset(ALL_RULES - {"T-WEIGHT", "T-HEIGHT", "T-ROCK", "T-SPECHT"})
        | {"T-SMALL"},
        frozenset({"T-SMALL", "R-TRICK1"}),
        frozenset({"T-SMALL", "R-TRICK1", "R-MULLINEUX"}),
        frozenset({"T-HEIGHT", "R-SOCLE", "R-REFLECT"}),
        frozenset({"T-SMALL", "T-HEIGHT", "R-TRICK1", "R-TRICK2", "R-FIXEDTOP"}),
    ]
    deepest = 0
    certs = []
    for la in sample:
        outcomes = {}
        for rules in subsets:
            c = certify(la, 3, enabled_rules=rules, max_steps=8)
            certs.append(c.to_dict())
            outcomes[rules] = c.status
            if c.status == "CERTIFIED":
                assert validate(c), (la, sorted(rules))
                deepest = max(deepest, len(c.steps))
        for rules in subsets[1:]:
            if outcomes[rules] == "CERTIFIED":
                assert outcomes[ALL_RULES] == "CERTIFIED"
    assert deepest >= 1
    digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
    assert digest == RULE_SUBSET_DIGEST


def test_certify_computes_each_twin_once(monkeypatch):
    real_twin = certifier.mullineux_image
    real_small = certifier.TERMINALS["T-SMALL"]
    calls = Counter()
    failed = set()  # partitions whose T-SMALL check has returned None

    def counting(la, p):
        calls[la] += 1
        assert la in failed, la
        return real_twin(la, p)

    def small(la, p, reports):
        params = real_small(la, p, reports)
        if params is None:
            failed.add(la)
        return params

    monkeypatch.setattr(certifier, "mullineux_image", counting)
    monkeypatch.setitem(certifier.TERMINALS, "T-SMALL", small)
    c = certify((2, 1), 3)
    assert c.terminal.tag == "T-WEIGHT" and not calls
    failed.clear()
    rules = {"T-SMALL", "R-REFLECT", "R-TRICK1", "R-TRICK2", "R-SOCLE",
             "R-FIXEDTOP", "R-MULLINEUX"}
    c = certify((5, 3, 2, 2, 1), 3, enabled_rules=rules, max_steps=8)
    # Only partitions whose own terminal failed are twinned, each once.
    assert len(calls) > 50 and max(calls.values()) == 1
    assert "R-MULLINEUX" in [s.rule.tag for s in c.steps]
    assert validate(c)


# Six rule subsets without T-WEIGHT, which holds at every root of these
# sizes; each keeps R-MULLINEUX.
SEARCH_SUBSETS = [
    frozenset(ALL_RULES - {"T-WEIGHT"}),
    frozenset({"T-SMALL", "T-ROCK", "R-MULLINEUX", "R-SOCLE", "R-TRICK2"}),
    frozenset({"T-SMALL", "T-SPECHT", "R-REFLECT", "R-TRICK1", "R-MULLINEUX"}),
    frozenset({"T-SMALL", "R-TRICK1", "R-MULLINEUX"}),
    frozenset({"T-HEIGHT", "R-SOCLE", "R-REFLECT", "R-MULLINEUX"}),
    frozenset({"T-SMALL", "T-HEIGHT", "R-TRICK1", "R-TRICK2", "R-FIXEDTOP",
               "R-MULLINEUX"}),
]


def certified_length(la, p, rules, k):
    c = certify(la, p, enabled_rules=rules, max_steps=k)
    if c.status == "UNKNOWN":
        return None
    assert validate(c), (la, p, sorted(rules), k)
    return len(c.steps)


@pytest.mark.parametrize("la, rules", [
    pytest.param((4, 2, 1), SEARCH_SUBSETS[1], id="4,2,1-rock-socle-trick2"),
    pytest.param((5, 5, 3, 3), SEARCH_SUBSETS[2],
                 id="5,5,3,3-specht-reflect-trick1"),
])
def test_certify_finds_the_two_step_certificate(la, rules):
    # A 3-step certificate through a twin comes first when twins are
    # expanded in their source's level, though a twin is one step deeper.
    assert oracles.shortest_certificate_length(la, 3, rules, 3) == 2
    assert certified_length(la, 3, rules, 3) == 2


def test_certify_matches_shortest_certificate_oracle():
    pool = [(p, la, rules, k)
            for p, top in ((3, 16), (5, 12))
            for n in range(1, top + 1)
            for la in partitions_of(n) if is_p_regular(la, p)
            for rules in SEARCH_SUBSETS for k in range(1, 5)]
    sample = random.Random(14).sample(pool, 2000)
    lengths = Counter()
    for p, la, rules, k in sample:
        want = oracles.shortest_certificate_length(la, p, rules, k)
        got = certified_length(la, p, rules, k)
        assert got == want, (p, la, sorted(rules), k)
        lengths[want] += 1
    assert lengths[None] and lengths[3] and lengths[4]


def test_tampered_certificates_rejected():
    _, sample = sample_pool()
    checked = 0
    for la in sample:
        c = certify(la, 3, enabled_rules={"T-SMALL", "R-TRICK1", "R-MULLINEUX"},
                    max_steps=8)
        if c.status != "CERTIFIED" or not c.steps:
            continue
        steps = list(c.steps)
        k = len(steps) // 2
        s = steps[k]
        bad = tuple(x + 1 for x in s.target) if s.target else (1,)
        steps[k] = Step(s.rule, s.source, bad)
        tampered = Certificate(c.p, c.start, tuple(steps), c.terminal, c.status)
        assert not validate(tampered)
        checked += 1
    assert checked >= 5


def test_certificate_json_round_trip():
    for la in [(2, 1), (10, 5, 4, 3, 1, 1)]:
        c = certify(la, 3)
        again = certificate_from_dict(json.loads(json.dumps(c.to_dict())))
        assert again == c
    pool, _ = sample_pool()
    multi = None
    for la in pool:
        c = certify(la, 3, enabled_rules={"T-SMALL", "R-TRICK1", "R-MULLINEUX"},
                    max_steps=10)
        if c.status == "CERTIFIED" and len(c.steps) >= 3:
            multi = c
            break
    assert multi is not None
    again = certificate_from_dict(json.loads(json.dumps(multi.to_dict())))
    assert again == multi
    assert validate(again)


def test_certificate_from_dict_rejects_malformed_input():
    good = {"p": 3, "start": [4, 1],
            "steps": [{"rule": "R-TRICK1", "params": {"i": 0},
                       "from": [4, 1], "to": [3, 1]}],
            "terminal": {"rule": "T-SMALL", "params": {}},
            "status": "CERTIFIED"}
    assert certificate_from_dict(good).steps[0].rule.params == {"i": 0}
    step = good["steps"][0]
    malformed = [
        {**good, "steps": [{**step, "params": [1]}]},
        {k: v for k, v in good.items() if k != "steps"},
        {**good, "start": 5},
        {**good, "terminal": {"rule": "T-SMALL", "params": None}},
        [good],
    ]
    for data in malformed:
        with pytest.raises(ValueError, match="malformed certificate"):
            certificate_from_dict(data)


def test_validate_requires_exact_params():
    c = certify((4, 1), 3, enabled_rules={"T-SMALL", "R-TRICK1", "R-REFLECT"})
    assert [s.rule.tag for s in c.steps] == ["R-TRICK1", "R-REFLECT"]
    assert validate(c)

    def edited(k, params):
        steps = list(c.steps)
        s = steps[k]
        steps[k] = Step(Rule(s.rule.tag, params), s.source, s.target)
        return Certificate(c.p, c.start, tuple(steps), c.terminal, c.status)

    for k, s in enumerate(c.steps):
        r = s.rule.params["residue"]
        assert not validate(edited(k, {"residue": r + 3}))
        assert not validate(edited(k, {"residue": r, "extra": 0}))
    assert not validate(Certificate(3, (2, 1), (), Rule("T-WEIGHT", {"x": 1}),
                                    "CERTIFIED"))

    c = certify((10, 5, 4, 3, 1, 1), 3, enabled_rules={"T-SPECHT"})
    params = c.terminal.params
    for bad in ({**params, "residue": params["residue"] + 3},
                {**params, "extra": 0}):
        assert not validate(Certificate(c.p, c.start, c.steps,
                                        Rule("T-SPECHT", bad), c.status))


@pytest.mark.parametrize("p", [4, 9])
def test_non_prime_p_is_refused(p):
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        certify((5, 3, 1), p)
    for terminal in ("T-WEIGHT", "T-HEIGHT"):
        cert = Certificate(p, (5, 3, 1), (), Rule(terminal), "CERTIFIED")
        assert not validate(cert)
        assert validate(Certificate(5, (5, 3, 1), (), Rule(terminal),
                                    "CERTIFIED"))


def test_huge_p_is_refused_before_trial_division():
    huge = 2 ** 61 - 1  # a prime; trial division would take minutes
    with pytest.raises(ValueError, match="p must be at most"):
        certify((5, 3, 1), huge)
    assert not validate(Certificate(huge, (5, 3, 1), (), Rule("T-SMALL"),
                                    "CERTIFIED"))


def test_json_infinity_is_rejected_not_raised():
    c = certify((10, 5, 4, 3, 1, 1), 3, enabled_rules={"T-SPECHT"})
    text = json.dumps(c.to_dict())
    assert validate(certificate_from_dict(json.loads(text)))
    start = json.loads(text.replace('"start": [10,', '"start": [Infinity,'))
    witness = json.loads(text.replace('"witness": [9,', '"witness": [Infinity,'))
    for data in (start, witness):
        assert validate(certificate_from_dict(data)) is False


def test_non_integral_parts_are_refused():
    with pytest.raises(ValueError, match="parts must be integers"):
        certify((4.9, 2.2, 1.5), 3)
    data = certify((4, 2, 1), 3).to_dict()
    assert validate(certificate_from_dict(data))
    data["start"] = [4.9, 2.2, 1.5]  # int() would read it as (4, 2, 1)
    assert validate(certificate_from_dict(data)) is False


def patch_every_binding(monkeypatch, real, replacement):
    """Replace every binding of real in the package, as a tracer sees it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "selfext":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, replacement)


def test_a_weight_root_is_checked_once_by_certify_and_once_by_validate(
        monkeypatch):
    real, calls = partitions.check_partition, []

    def counting(la):
        calls.append(la)
        return real(la)

    patch_every_binding(monkeypatch, real, counting)
    cert = certify((4, 2, 1), 3)
    assert cert.terminal.tag == "T-WEIGHT" and not cert.steps
    assert validate(cert)
    assert calls == [(4, 2, 1), (4, 2, 1)]


def test_certify_walks_each_expanded_partition_once(monkeypatch):
    real, walks, expanded = signatures_module.signatures, Counter(), Counter()

    def counting(la, p):
        walks[la] += 1
        return real(la, p)

    patch_every_binding(monkeypatch, real, counting)
    reflect = certifier.REDUCTIONS["R-REFLECT"]

    def expanding(la, *rest):
        expanded[la] += 1
        return reflect(la, *rest)

    monkeypatch.setitem(certifier.REDUCTIONS, "R-REFLECT", expanding)
    c = certify((6, 3), 3, enabled_rules={"T-SMALL", "R-REFLECT", "R-TRICK1"})
    assert len(c.steps) == 4 and len(expanded) > 4
    # R-REFLECT and R-TRICK1 read the reports of one walk per expansion
    assert walks == expanded and set(walks.values()) == {1}


# A root that T-SPECHT certifies, and a root whose search expands every
# member of its UNKNOWN closure (test_first_unknown_of_the_survey): 6
# members and 12 partitions that R-SOCLE and R-TRICK2 look ahead to.
WALKED_ROOTS = [(10, 5, 4, 3, 1, 1), (11, 7, 7, 5, 4, 3, 1, 1)]


@pytest.mark.parametrize("la, status, walked", [
    (WALKED_ROOTS[0], "CERTIFIED", 1), (WALKED_ROOTS[1], "UNKNOWN", 18)],
    ids=["specht-root", "unknown"])
def test_certify_walks_each_partition_once(monkeypatch, la, status, walked):
    real, walks = signatures_module.signatures, Counter()

    def counting(mu, p):
        walks[mu] += 1
        return real(mu, p)

    patch_every_binding(monkeypatch, real, counting)
    assert certify(la, 3).status == status
    # terminals, reductions and look-ahead share one walk per partition
    assert la in walks and len(walks) == walked
    assert set(walks.values()) == {1}


@pytest.mark.parametrize("la", WALKED_ROOTS, ids=["specht-root", "unknown"])
def test_certify_checks_only_the_root(monkeypatch, la):
    real, callers = partitions.check_partition, Counter()

    def counting(mu):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "check_regular":
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return real(mu)

    patch_every_binding(monkeypatch, real, counting)
    certify(la, 3)
    # the search calls only unchecked kernels past the root
    assert callers == {"certify": 1}


def test_validate_accepts_any_specht_residue_whose_witness_holds():
    c = certify((3,), 3, enabled_rules={"T-SPECHT"})
    assert c.terminal == Rule("T-SPECHT", {"residue": 0, "witness": (3,)})

    def specht(params):
        return validate(Certificate(3, (3,), (), Rule("T-SPECHT", params),
                                    "CERTIFIED"))

    # eps_1 = 0, so e~_1^0 (3) = (3) = (3)^R, and S^(3) is irreducible
    assert specht({"residue": 1, "witness": (3,)})
    assert not specht({"residue": 1, "witness": (2, 1)})
    assert not specht({"residue": 2, "witness": (3,)})


def test_inputs_above_max_size_return_at_once():
    # 10**9 boxes: the rules and regularize are linear in the size
    huge = (10 ** 9, 1)
    begin = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds {MAX_SIZE} boxes"):
        certify(huge, 3)
    assert not validate(Certificate(3, huge, (), Rule("T-HEIGHT"),
                                    "CERTIFIED"))
    c = certify((10, 5, 4, 3, 1, 1), 3, enabled_rules={"T-SPECHT"})
    witness = Rule("T-SPECHT", {**c.terminal.params, "witness": huge})
    assert not validate(Certificate(c.p, c.start, c.steps, witness, c.status))
    assert time.perf_counter() - begin < 1
    at_bound = (MAX_SIZE - 1, 1)
    assert validate(Certificate(3, at_bound, (), Rule("T-HEIGHT"),
                                "CERTIFIED"))


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
                | st.just(10 ** 9) | st.floats()
                | st.sampled_from([float("inf"), float("nan")])  # Infinity, NaN
                | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# valid certificates with steps of every parameter shape and a T-SPECHT
# witness, to be broken one leaf at a time
SEEDS = [certify(la, 3, enabled_rules=rules).to_dict() for la, rules in (
    ((4, 1), {"T-SMALL", "R-TRICK1", "R-REFLECT"}),
    ((10, 5, 4, 3, 1, 1), {"T-SPECHT"}),
    ((4, 2, 1), {"T-SMALL", "R-SOCLE", "R-TRICK2", "R-MULLINEUX"}))]


def entry_paths(node, path=()):
    """Key/index paths to every entry under a JSON container."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


@st.composite
def broken_certificates(draw):
    """A seed certificate dict with one entry, at any depth, replaced by a
    JSON value or deleted from its dict."""
    data = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    *path, key = draw(st.sampled_from(list(entry_paths(data))))
    node = data
    for step in path:
        node = node[step]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        # st.recursive mostly draws containers; a bare scalar is the likelier
        # break (a JSON Infinity inside a partition, say)
        node[key] = draw(JSON_SCALARS | JSON_VALUES)
    return data


def test_seed_certificates_are_valid():
    assert {cert["terminal"]["rule"] for cert in SEEDS} == {"T-SMALL",
                                                           "T-SPECHT"}
    assert {step["rule"] for cert in SEEDS for step in cert["steps"]} == {
        "R-TRICK1", "R-REFLECT", "R-SOCLE", "R-TRICK2", "R-MULLINEUX"}
    assert all(validate(certificate_from_dict(cert)) for cert in SEEDS)


@settings(max_examples=300)
@given(broken_certificates() | JSON_VALUES)
def test_json_like_input_gives_value_error_or_a_verdict(data):
    try:
        cert = certificate_from_dict(data)
    except ValueError:
        return
    assert isinstance(validate(cert), bool)
