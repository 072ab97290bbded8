"""The pinned CLI results: each case of cli_cases.json is an argv with the
exit code and the stdout it must give, either as a JSON payload ("json") or
as exact text ("stdout").

check() is the one comparison.  Run as a script, this module runs every case
through the installed `selfext` console script and exits 1 if any fails;
tests/test_cli.py runs the same cases in process through cli.run.
"""
import json
import subprocess
import sys
from pathlib import Path


def load_cases() -> list:
    return json.loads(Path(__file__).with_name("cli_cases.json").read_text())


def check(case: dict, code: int, stdout: str) -> None:
    """Raise AssertionError, naming the argv, unless the exit code and the
    stdout are the case's."""
    where = "selfext " + " ".join(case["argv"])
    if code != case["exit"]:
        raise AssertionError(f"{where}: exit {code}, expected {case['exit']}")
    if "json" in case:
        try:
            got = json.loads(stdout)
        except ValueError:
            raise AssertionError(f"{where}: stdout is not JSON: "
                                 f"{stdout[:200]!r}") from None
        if got != case["json"]:
            raise AssertionError(f"{where}: JSON differs:\n  got      {got}\n"
                                 f"  expected {case['json']}")
    elif stdout != case["stdout"]:
        raise AssertionError(f"{where}: stdout {stdout!r}, "
                             f"expected {case['stdout']!r}")


def main() -> int:
    cases = load_cases()
    failed = 0
    for case in cases:
        done = subprocess.run(["selfext", *case["argv"]], capture_output=True,
                              text=True)
        try:
            check(case, done.returncode, done.stdout)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {exc}\n{done.stderr}", end="", file=sys.stderr)
        else:
            print(f"ok   selfext {' '.join(case['argv'])}")
    print(f"{len(cases) - failed}/{len(cases)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
