"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import gzip
import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import CALIBRATION_REF_S, calibrate, host_scales, tail  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 100, 944, 7364])
def test_tail_leaves_ten_samples_beyond(n):
    samples = [float(x) for x in range(n)]
    value, percentile = tail(samples[::-1])
    assert sum(s > value for s in samples) == 10
    assert value == n - 11
    assert percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_host_scale_uses_the_samples_around_each_operation():
    ref = CALIBRATION_REF_S
    samples = [ref, 2 * ref, 2 * ref, 4 * ref, 4 * ref]
    # op 0 sits between samples 0 and 1, op 1 between 3 and 4
    assert host_scales(samples, [0, 3], window=1) == [
        ref / (1.5 * ref), ref / (4 * ref)]
    assert host_scales(samples, [1], window=2) == [ref / (2 * ref)]
    assert host_scales([ref], [0], window=3) == [1.0]


def test_calibration_leaves_the_collector_as_it_found_it():
    import gc
    assert gc.isenabled()
    assert calibrate(rounds=10) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate(rounds=10)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_operation_time_is_its_median_over_passes():
    passes = [{"latencies_ms": [5.0, 1.0, 9.0]},
              {"latencies_ms": [4.0, 3.0, 2.0]},
              {"latencies_ms": [6.0, 2.0, 7.0]}]
    assert run.operation_times(passes) == [5.0, 2.0, 7.0]
    assert run.operation_times(passes[:2]) == [4.5, 2.0, 5.5]


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.outer -> pkg.mid -> pkg.leaf, with pkg.mid also bound by a
    `from .mid import middle` style alias in pkg.outer."""
    leaf = types.ModuleType("pkg.leaf")
    mid = types.ModuleType("pkg.mid")
    outer = types.ModuleType("pkg.outer")

    def leaf_fn(x):
        return x

    def count_up(n):
        for i in range(n):
            yield leaf.leaf_fn(i)

    def middle(x):
        return leaf.leaf_fn(x) + sum(mid.count_up(2))

    def top(x):
        return outer.middle(x) + leaf.leaf_fn(x)

    leaf.leaf_fn = leaf_fn
    mid.middle, mid.count_up = middle, count_up
    outer.middle, outer.top = middle, top
    package = types.ModuleType("pkg")
    package.top = top
    for name, module in (("pkg", package), ("pkg.leaf", leaf),
                         ("pkg.mid", mid), ("pkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    return package


def test_self_time_subtracts_nested_wrapped_calls(fake_package):
    targets = [("outer.top", None), ("mid.middle", None),
               ("mid.count_up", None), ("leaf.leaf_fn", None)]
    with tracing.Tracer("t", hot=(), clock=FakeClock()) as tracer:
        tracer.install(targets, package="pkg")
        assert fake_package.top(5) == (5 + 0 + 1) + 5
    # Each span reads the clock twice; a parent's self time is its own
    # interval minus its children's intervals.
    assert tracer.calls == {"outer.top": 1, "mid.middle": 1,
                            "mid.count_up": 1, "leaf.leaf_fn": 4}
    leaf = tracer.self_s["leaf.leaf_fn"] / 4
    assert leaf == 1.0
    # count_up is timed per resume: two resumes of 3 s that each hold a
    # 1 s leaf span, then a 1 s resume that finds the generator exhausted.
    assert tracer.self_s["mid.count_up"] == 2 + 2 + 1
    assert tracer.self_s["mid.middle"] == 13 - 1 - (3 + 3 + 1)
    total_top = tracer.total_s["outer.top"]
    assert sum(tracer.self_s.values()) == total_top
    spans = {s[1]: s for s in tracer.spans}
    assert spans["outer.top"][4] is None
    assert spans["mid.middle"][4] == spans["outer.top"][0]


def test_self_time_on_the_specht_path():
    """theorem_b_applicable -> irreducible_specht_preimage ->
    enumerate_block / regularize: the self times of all wrapped functions
    add up to the outermost call's duration."""
    from selfext import specht
    with tracing.Tracer("t") as tracer:
        tracer.install()
        specht.theorem_b_applicable((6, 4, 2, 2, 1), 3)
    for name in ("specht.irreducible_specht_preimage",
                 "blocks.enumerate_block", "bijections.regularize"):
        assert tracer.calls[name] > 0, name
    assert all(t >= 0 for t in tracer.self_s.values())
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.total_s["specht.theorem_b_applicable"], rel=1e-9)
    assert tracer.self_s["specht.theorem_b_applicable"] < \
        tracer.total_s["specht.theorem_b_applicable"]


def _selfext_attributes():
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name == "selfext" or name.startswith("selfext.")
            for attr, value in vars(module).items()}


def test_every_wrapper_is_removed():
    from selfext import certifier
    before = _selfext_attributes()
    tracer = tracing.Tracer("t")
    with pytest.raises(ZeroDivisionError):
        with tracer:
            tracer.install()
            assert _selfext_attributes() != before
            assert certifier.certify((10, 5, 4, 3, 1, 1), 3).status == \
                "CERTIFIED"
            1 / 0
    assert _selfext_attributes() == before
    assert tracer.calls["certifier.certify"] == 1
    # bound by `from .partitions import check_partition` in other modules
    assert tracer.calls["partitions.check_partition"] > 1


@pytest.mark.parametrize("name,count", [("search-p3", 944),
                                        ("trivial-p5", 7364)])
def test_seed_fixes_order_not_set(name, count):
    workload = workloads.WORKLOADS[name]
    first = workload.setup(1)
    assert first == workload.setup(1)
    other = workload.setup(2)
    assert other != first
    assert sorted(other) == sorted(first)
    assert len(first) == len(set(first)) == count


def test_reference_digests_match_reference_certificates():
    digests = json.loads((workloads.REFERENCE / "digests.json").read_text())
    for name, meta in digests.items():
        with gzip.open(workloads.REFERENCE / f"{name}.jsonl.gz", "rt") as f:
            lines = f.read().splitlines()
        starts = [tuple(json.loads(line)["start"]) for line in lines]
        assert starts == sorted(starts)
        assert len(lines) == meta["inputs"]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            meta["sha256"]


def test_survey_check_counts_mismatches():
    workload = workloads.WORKLOADS["search-p3"]
    inputs = sorted(workload.setup(0))[:3]
    outputs = [workload.run(la) for la in inputs]
    attempted, failed, digest_ok, _ = workload.check(inputs, outputs)
    assert (attempted, failed, digest_ok) == (944, 941, False)
    outputs[1] = None
    outputs[2] = (outputs[2][0], False)
    assert workload.check(inputs, outputs)[1] == 943


def test_a_traced_pass_yields_every_layer_metric():
    from selfext.certifier import TERMINAL_TAGS
    assert tracing.TERMINAL_TAGS == TERMINAL_TAGS
    values = tracing.layer_values(tracing.Tracer("t"))
    assert list(values) + ["trace.overhead_frac"] == \
        list(tracing.layer_units())


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == \
        list(workloads.WORKLOADS)
