"""Tests for the selfext command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cli_cases
import selfext
from selfext import cli, tables
from selfext.certifier import certificate_from_dict, validate
from selfext.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(capsys):
    code, out, _ = capture(capsys, ["analyze", "4,2,1", "--p", "3", "--json"])
    assert code == 0
    # residue 1 reads "-++": one pair cancels, so phi' = 2 but phi = 1
    assert json.loads(out) == {
        "partition": [4, 2, 1], "p": 3, "core": [1], "weight": 2,
        "regular": True, "mullineux": [4, 2, 1],
        "regularization": [4, 2, 1],
        "residues": [
            {"residue": 0,
             "word": [[[4, 1], "+"], [[2, 2], "-"], [[1, 4], "-"]],
             "normals": [[2, 2], [1, 4]], "conormals": [[4, 1]],
             "epsilon": 2, "phi": 1, "epsilon_prime": 2, "phi_prime": 1,
             "good": [2, 2], "cogood": [4, 1]},
            {"residue": 1,
             "word": [[[3, 1], "-"], [[2, 3], "+"], [[1, 5], "+"]],
             "normals": [], "conormals": [[1, 5]],
             "epsilon": 0, "phi": 1, "epsilon_prime": 1, "phi_prime": 2,
             "good": None, "cogood": [1, 5]},
            {"residue": 2, "word": [[[3, 2], "+"]],
             "normals": [], "conormals": [[3, 2]],
             "epsilon": 0, "phi": 1, "epsilon_prime": 0, "phi_prime": 1,
             "good": None, "cogood": [3, 2]},
        ],
    }


def test_analyze_text(capsys):
    code, out, _ = capture(capsys, ["analyze", "4,2,1", "--p", "3"])
    assert code == 0
    assert "partition 4,2,1 (p=3)" in out
    assert "core 1, weight 2" in out
    assert "3-regular: yes" in out
    assert "mullineux 4,2,1" in out


def test_analyze_empty_partition(capsys):
    code, out, _ = capture(capsys, ["analyze", "-", "--p", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == []
    assert payload["core"] == []


def test_certify_text(capsys):
    code, out, _ = capture(capsys, ["certify", "2,1", "--p", "3"])
    assert code == 0
    assert out.splitlines()[0] == "CERTIFIED (T-WEIGHT)"


def test_certify_json_round_trip(capsys):
    code, out, _ = capture(capsys, ["certify", "2,1", "--p", "3", "--json"])
    assert code == 0
    cert = certificate_from_dict(json.loads(out))
    assert cert.status == "CERTIFIED"
    assert cert.p == 3 and cert.start == (2, 1)
    assert validate(cert)


def test_certify_specht_witness_text(capsys):
    code, out, _ = capture(
        capsys, ["certify", "10,5,4,3,1,1", "--p", "3", "--rules", "T-SPECHT"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "CERTIFIED (T-SPECHT)"
    assert "  terminal residue: 0" in lines
    assert "  terminal witness: 9,4,2^2,1^5" in lines


def test_certify_unknown_exits_1(capsys):
    code, out, _ = capture(capsys, ["certify", "3,1", "--p", "3",
                                    "--rules", "t-small"])
    assert code == 1
    assert out.strip() == "UNKNOWN"


# Each subcommand that takes --p, then the arguments it needs besides it.
P_SUBCOMMANDS = {"analyze": ["2,1"], "certify": ["2,1"],
                 "survey": ["--n", "3"],
                 "enumerate-block": ["--core", "1", "--weight", "1"],
                 "specht-irreducible": ["2,1"], "mullineux": ["2,1"],
                 "regularize": ["2,1"]}


def test_certify_usage_errors(capsys):
    # run() checks p and the partition of every subcommand that takes them
    for argv in ([[name, *rest, "--p", "4"]
                  for name, rest in P_SUBCOMMANDS.items()]
                 + [[name, "4,x", "--p", "3"] for name, rest in
                    P_SUBCOMMANDS.items() if rest == ["2,1"]]
                 + [["certify", "2,1", "--p", "2"],
                    ["analyze", "2,3", "--p", "3"],
                    ["certify", "1^100000000", "--p", "3"],
                    ["certify", "3,1", "--p", "3", "--rules", ","],
                    ["certify", "3,1", "--p", "3", "--rules", "R-MULLINEUX"]]):
        code, out, err = capture(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv


def test_huge_p_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, _, err = capture(capsys, ["certify", "3,1",
                                    "--p", str(2 ** 61 - 1)])
    assert code == 2
    assert err.startswith("error: p must be at most")
    assert time.perf_counter() - start < 5


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(la, p):
        raise RuntimeError("ladder filling not a 3-regular partition for (1, 1, 1)")
    monkeypatch.setattr(cli, "regularize", broken)
    code, out, err = capture(capsys, ["regularize", "1^3", "--p", "3"])
    assert code == 3
    assert out == ""
    assert err == ("internal error: ladder filling not a 3-regular partition "
                   "for (1, 1, 1)\n")


def test_workers_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for value, expected in (("64", 2), ("2", 2), ("1", 1), ("0", 1)):
        monkeypatch.setenv("SELFEXT_WORKERS", value)
        assert cli._workers() == expected
    monkeypatch.delenv("SELFEXT_WORKERS")
    assert cli._workers() == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    monkeypatch.setenv("SELFEXT_WORKERS", "8")
    assert cli._workers() == 1
    monkeypatch.setenv("SELFEXT_WORKERS", "abc")
    with pytest.raises(ValueError) as raised:
        cli._workers()
    assert str(raised.value) == "SELFEXT_WORKERS must be an integer, got 'abc'"
    assert run(["survey", "--p", "3", "--n", "5"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_survey_text(capsys):
    code, out, _ = capture(capsys, ["survey", "--p", "3", "--n", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "certified 13/13 3-regular partitions of 8"
    assert lines[1].startswith("rule usage: ")


def test_survey_json(capsys):
    code, out, _ = capture(capsys, ["survey", "--p", "3", "--n", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == payload["certified"]
    assert payload["unknown"] == [] and payload["invalid"] == []
    assert payload["rule_usage"]


def test_survey_worker_count_does_not_change_output(capsys, monkeypatch):
    # (3,24) has R-MULLINEUX steps and T-SPECHT hits, not only T-WEIGHT roots
    argv = ["survey", "--p", "3", "--n", "24", "--json"]
    code, serial, _ = capture(capsys, argv)
    assert code == 0
    monkeypatch.setenv("SELFEXT_WORKERS", "2")
    code, parallel, _ = capture(capsys, argv)
    assert code == 0
    assert parallel == serial


def test_survey_size_out_of_range_exits_2_at_once(capsys):
    for n, message in (("-1", "n must be non-negative"),
                       ("100001", "n must be at most 100000")):
        start = time.perf_counter()
        code, out, err = capture(capsys, ["survey", "--p", "3", "--n", n])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert time.perf_counter() - start < 5


# The surveys above this n, (3,39), (5,40) and (5,45), take seconds each, so
# only CI runs them, through the console script: python tests/cli_cases.py.
MAX_IN_PROCESS_SURVEY_N = 35


def in_process(case):
    argv = case["argv"]
    return (argv[0] != "survey"
            or int(argv[argv.index("--n") + 1]) <= MAX_IN_PROCESS_SURVEY_N)


@pytest.mark.parametrize("case", filter(in_process, cli_cases.load_cases()),
                         ids=lambda case: " ".join(case["argv"]))
def test_pinned_cli_case(capsys, case):
    code, out, _ = capture(capsys, case["argv"])
    cli_cases.check(case, code, out)


def test_verify_tables_partial_weight(capsys):
    code, out, _ = capture(capsys, ["verify-tables", "--max-weight", "4"])
    assert code == 0
    assert out.strip() == "Table I: 7/7 match"


def test_verify_tables_derives_table1_once(capsys, monkeypatch):
    calls = []
    derive = tables.derive_table1

    def counted(max_weight):
        calls.append(max_weight)
        return derive(max_weight)

    monkeypatch.setattr(tables, "derive_table1", counted)
    monkeypatch.setattr(cli, "derive_table1", counted)
    code, out, _ = capture(capsys, ["verify-tables"])
    assert code == 0
    assert out.strip() == "Table I: 66/66 match; Table II: 4/4 match"
    assert calls == [7]


def module_env():
    src = str(Path(selfext.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_module(module, *args, cwd):
    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd,
                          env=module_env(), capture_output=True, text=True,
                          timeout=120)


def test_python_dash_m_runs_the_cli(tmp_path):
    for module in ("selfext", "selfext.cli"):
        done = run_module(module, "verify-tables", "--max-weight", "9",
                          cwd=tmp_path)
        assert done.returncode == 2, (module, done.stderr)
        assert "max_weight" in done.stderr
    done = run_module("selfext", "verify-tables", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "Table I: 66/66 match; Table II: 4/4 match"


def test_a_reader_that_leaves_early_gets_exit_141_and_no_traceback(tmp_path):
    # 105 KB of members, more than a pipe buffer: the CLI is still writing
    # when the reader closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "selfext", "enumerate-block", "--core", "-",
         "--weight", "12", "--p", "3"], cwd=tmp_path, env=module_env(),
        bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"36\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=120), stderr) == (141, b"")


def test_specht_irreducible_rejects_unsorted_parts(capsys):
    code, out, err = capture(capsys, ["specht-irreducible", "1,2", "--p", "3"])
    assert code == 2
    assert out == ""
    assert "weakly decreasing" in err


def test_enumerate_block_regular_only(capsys):
    code, out, _ = capture(capsys, ["enumerate-block", "--core", "1",
                                    "--weight", "1", "--p", "3", "--regular"])
    assert code == 0
    assert out.splitlines() == ["4", "2^2"]


def test_enumerate_block_json(capsys):
    code, out, _ = capture(capsys, ["enumerate-block", "--core", "-",
                                    "--weight", "1", "--p", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["partitions"] == [[3], [2, 1], [1, 1, 1]]


def test_enumerate_block_at_a_large_prime(capsys):
    code, out, err = capture(capsys, ["enumerate-block", "--core", "-",
                                      "--weight", "0", "--p", "997"])
    assert (code, out, err) == (0, "-\n", "")


def test_enumerate_block_above_max_size_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = capture(capsys, ["enumerate-block", "--core", "-",
                                      "--weight", "20001", "--p", "5"])
    assert (code, out, err) == (
        2, "", "error: block members exceed 100000 boxes\n")
    assert time.perf_counter() - start < 5


def test_specht_irreducible_text(capsys):
    code, out, _ = capture(capsys, ["specht-irreducible", "4,1,1,1",
                                    "--p", "3", "--witness"])
    assert code == 0
    assert out.splitlines() == ["irreducible", "beads 4, runners (1, 0)"]
    code, out, _ = capture(capsys, ["specht-irreducible", "2,2", "--p", "3"])
    assert code == 0
    assert out.strip() == "reducible"


def test_specht_irreducible_json(capsys):
    code, out, _ = capture(capsys, ["specht-irreducible", "4,1,1,1",
                                    "--p", "3", "--json"])
    assert code == 0
    core = {"p": 3, "irreducible": True, "beads": None,
            "regular_runner": None, "restricted_runner": None,
            "sub_regular": None, "sub_restricted": None}
    assert json.loads(out) == {
        "partition": [4, 1, 1, 1], "p": 3, "irreducible": True, "beads": 4,
        "regular_runner": 1, "restricted_runner": 0,
        "sub_regular": {"partition": [1], **core},
        "sub_restricted": {"partition": [1], **core},
    }


def test_mullineux_cli(capsys):
    code, out, _ = capture(capsys, ["mullineux", "3", "--p", "3"])
    assert code == 0
    assert out.strip() == "2,1"
    code, out, _ = capture(capsys, ["mullineux", "3", "--p", "3", "--json"])
    assert json.loads(out) == {"input": [3], "output": [2, 1], "p": 3}
    code, _, err = capture(capsys, ["mullineux", "1,1,1", "--p", "3"])
    assert code == 2 and err.startswith("error:")


def test_regularize_cli(capsys):
    code, out, _ = capture(capsys, ["regularize", "1^3", "--p", "3"])
    assert code == 0
    assert out.strip() == "2,1"
    code, out, _ = capture(capsys, ["regularize", "6,1^5", "--p", "5", "--json"])
    assert json.loads(out) == {"input": [6, 1, 1, 1, 1, 1],
                               "output": [6, 2, 1, 1, 1], "p": 5}
