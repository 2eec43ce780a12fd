"""Every subcommand's output on the bundled dataset, byte for byte.

``golden_outputs.json`` maps each case to the exact text the CLI prints for
it, and each ``--plot`` case to the exact SVG it writes. After an intended
output change, regenerate the file and review its diff line by line, since
every changed line is one that users see:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fabcarbon.cli import run

GOLDEN = Path(__file__).with_name("golden_outputs.json")

COMMANDS = (
    ("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--n", "2"),
    ("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--n", "2", "--util-mode", "avg"),
    ("sweep", "--alpha", "0.1:0.9:0.2", "--areas", "0.25,0.45", "--energies", "0.35"),
    ("scenario", "--case", "I,II,III", "--alphas", "0.3,0.5,0.7,0.9"),
    ("scenario", "--case", "II", "--alphas", "0.3,0.9", "--n", "2", "--calibrated", "--util-mode", "avg"),
    ("savings", "--dsas", "40", "--alpha", "0.7", "--n", "1:5", "--calibrated"),
    ("hybrid", "--retain", "AESEncrypt", "--n", "4", "--calibrated"),
    ("alpha", "--breakdown", "production=80,transport=3,use=15,eol=2"),
    ("alpha", "--device", "laptop"),
    ("calibrate", "--points", "0.3:9.773,0.9:4.01"),
    ("dataset", "show"),
    ("dataset", "validate"),
    ("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--n", "3", "--scale", "1.5"),
)
# One chart of each kind: sweep curves as lines, scenario cases and a
# report's ratio columns as grouped bars.
PLOTS = (COMMANDS[2], COMMANDS[3], COMMANDS[5])

CASES = {
    **{" ".join(argv + ("--format", fmt)): argv + ("--format", fmt)
       for argv in COMMANDS for fmt in ("table", "csv", "json")},
    **{" ".join(argv + ("--plot",)): argv for argv in PLOTS},
}


def render(case: str, workdir: Path) -> str:
    """What the CLI prints for `case`, or the SVG it writes for a plot case."""
    argv = list(CASES[case])
    plot = workdir / "plot.svg"
    if case.endswith("--plot"):
        argv += ["--plot", str(plot)]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    if code != 0:
        raise AssertionError(f"{case!r} exited {code}: {err.getvalue()}")
    return plot.read_text(encoding="utf-8") if case.endswith("--plot") else out.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recording(case, golden, tmp_path):
    assert render(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case: render(case, Path(tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
