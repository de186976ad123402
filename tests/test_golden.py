"""Byte-for-byte golden outputs for one invocation of every subcommand.

Each command is dispatched once in-process and rendered in all three
formats; the bytes must equal the fixtures under tests/golden/.  That
includes verify-all at its default seed (under 1 s in-process on 2 CPUs).
JSON sorts its keys, so only its text and csv fixtures pin the order of
its parameters.  benchmarks/reference holds the --allow-large run.
tests/golden/end-basis_3_2_1.json (98304 vectors) and end-basis_3_3_2.json
(1081344 vectors, about 1.5 s on 2 CPUs) are left out of COMMANDS to keep
this suite short; a CI step byte-compares both, each from a fresh process.
After an intended output change, recapture with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from iterwreath.cli import build_parser, dispatch, render

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
    "orbits 1 2",
    "orbits 2 1",
    "centralizer-basis 1 1",
    "centralizer-basis 1 2",
    "presentation 3",
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


def rendered(command):
    """{fixture path: rendered bytes} for one command in every format."""
    report = dispatch(build_parser().parse_args(command.split()))
    stem = command.replace(" ", "_")
    return {GOLDEN / f"{stem}.{ext}": render(report, fmt).encode("utf-8")
            for fmt, ext in FORMATS.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command):
    for path, data in rendered(command).items():
        assert data == path.read_bytes(), f"{path.name} differs"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        for path, data in rendered(command).items():
            path.write_bytes(data)
