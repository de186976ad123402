"""Byte-for-byte golden outputs for one invocation of every subcommand.

Each command is dispatched once in-process and rendered in all three
formats; the bytes must equal the fixtures under tests/golden/.  That
includes verify-all at its default seed (under 1 s in-process on 2 CPUs).
JSON sorts its keys, so only its text and csv fixtures pin the order of
its parameters.  benchmarks/reference holds the --allow-large run.
JSON_ONLY names end-basis 3 2 1 (98304 vectors) and 3 3 2 (1081344 vectors,
about 1.5 s on 2 CPUs), which have a JSON fixture only.  This suite leaves
them out to stay short; CI byte-compares every fixture, these two too, from
a fresh process.  usage.json holds what `main` prints, at COLUMNS=80, for
the top-level --help, no argument and an unknown command, and for each
subcommand its --help and one usage error (a non-int positional, or
`--seed x`): the exit code, stdout and stderr of each.  After an intended
output change, recapture every fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from iterwreath.cli import (_COMMANDS, _positionals, build_parser, dispatch, main,
                            render)

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"json": "json", "csv": "csv", "text": "txt"}

COMMANDS = [
    "enumerate 2",
    "center 3",
    "classes 3",
    "classes 4",
    "class-count 6",
    "right-cosets 1 1",
    "right-cosets 2 0",
    "right-cosets 3 0",
    "right-cosets 1 2",
    "double-cosets 2",
    "orbits 3 0",
    "orbits 1 2",
    "orbits 2 1",
    "centralizer-basis 1 1",
    "centralizer-basis 1 2",
    "presentation 3",
    "presentation 4",
    "mackey 2",
    "tensor-basis 2 1 1",
    "end-basis 2 1 1",
    "end-basis 1 1 0",
    "end-basis 2 2 2",
    "end-basis 4 0 0",
    "d-gens 1 3",
    "power-table 1 5",
    "power-table 2 3",
    "opposite-check 1 1",
    "opposite-check 1 0",
    "opposite-check 0 2",
    "verify-all",
]
JSON_ONLY = ["end-basis 3 2 1", "end-basis 3 3 2"]
RECAPTURED = ([(command, FORMATS) for command in COMMANDS]
              + [(command, {"json": "json"}) for command in JSON_ONLY])
USAGE = GOLDEN / "usage.json"


def fixtures(command, formats):
    """{format: fixture path} for one command."""
    stem = command.replace(" ", "_")
    return {fmt: GOLDEN / f"{stem}.{ext}" for fmt, ext in formats.items()}


def rendered(command, formats=FORMATS):
    """{fixture path: rendered bytes} for one command in the given formats."""
    report = dispatch(build_parser().parse_args(command.split()))
    return {path: render(report, fmt).encode("utf-8")
            for fmt, path in fixtures(command, formats).items()}


def usage_argvs():
    """Every argument list that usage.json holds, in its order."""
    argvs = [["--help"], [], ["no-such-command"]]
    for name in _COMMANDS:
        positionals = _positionals(name)
        wrong = ["x", *["1"] * (len(positionals) - 1)] if positionals else [
            "--seed", "x"]
        argvs += [[name, "--help"], [name, *wrong]]
    return argvs


def rendered_usage():
    """usage.json's bytes: `main`'s exit code, stdout and stderr per list."""
    cases = []
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in usage_argvs():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), \
                    pytest.raises(SystemExit) as exc:
                main(argv)
            cases.append({"argv": argv, "exit": exc.value.code,
                          "stdout": out.getvalue(), "stderr": err.getvalue()})
    return (json.dumps(cases, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command):
    for path, data in rendered(command).items():
        assert data == path.read_bytes(), f"{path.name} differs"


@pytest.mark.parametrize("command", COMMANDS)
def test_rendering_runs_a_listing_that_decides_nothing(command):
    # a listing only adds keys to what render prints: the verdict and the
    # payload stay as dispatched, and a second rendering gives the same bytes
    report = dispatch(build_parser().parse_args(command.split()))
    verdict, payload = report.verdict, copy.deepcopy(report.payload)
    first = [render(report, fmt) for fmt in FORMATS]
    assert (report.verdict, report.payload) == (verdict, payload)
    assert [render(report, fmt) for fmt in FORMATS] == first
    listed, _ = report.listing()
    assert not set(listed) & set(payload)


def test_golden_files_are_exactly_the_recaptured_ones():
    # a fixture the recapture below does not write would go stale unseen
    recaptured = {path for command, formats in RECAPTURED
                  for path in fixtures(command, formats).values()}
    assert set(GOLDEN.iterdir()) == recaptured | {USAGE}


def test_help_and_usage_errors():
    assert rendered_usage() == USAGE.read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command, formats in RECAPTURED:
        for path, data in rendered(command, formats).items():
            path.write_bytes(data)
    USAGE.write_bytes(rendered_usage())
