"""``scripts/output_digest.py --compare`` on small hand-made digests.

Its exit status is what "bit-identical" means for two digests, so each kind
of change it must report is checked here on a two-case file.
"""

import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

LINES = [
    {"case": ["binomial 20", "sterne", 5, 0.05],
     "out": {"theta_lo": "-2.1526823247061683", "theta_hi": "-0.3258766075549094",
             "pvalue_lo": "0.04999999999999999"},
     "error": None, "evals": 22},
    {"case": ["cli", "poisson --x 3"], "out": {"code": "0", "stdout": "'[0.5, 8.25]\\n'"},
     "error": None, "evals": 14},
]


def write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def changed(**edits):
    """LINES with the first case's entries replaced by ``edits`` (``out`` merged)."""
    first = dict(LINES[0], **{k: v for k, v in edits.items() if k != "out"})
    first["out"] = dict(LINES[0]["out"], **edits.get("out", {}))
    return [first] + LINES[1:]


def compare(tmp_path, new_lines):
    out = io.StringIO()
    status = digest.compare(write(tmp_path / "old.jsonl", LINES),
                            write(tmp_path / "new.jsonl", new_lines), out=out)
    return status, out.getvalue()


def test_identical_digests_exit_zero(tmp_path):
    status, text = compare(tmp_path, LINES)
    assert status == 0
    assert "0 of 2 cases moved" in text and "evals: 36 -> 36" in text


def test_a_moved_number_is_counted_with_its_relative_move(tmp_path):
    status, text = compare(tmp_path, changed(out={"theta_lo": "-2.1526823247083213"}))
    assert status == 1
    assert "theta_lo: 1 moved, max relative 1e-12" in text
    assert "theta_lo: 1 numbers in 1 cases, max relative 1e-12" in text
    assert "theta_hi" not in text and "1 of 2 cases moved" in text


@pytest.mark.parametrize("edits, note", [
    ({"error": "BadAlpha", "out": {}}, "error: None -> BadAlpha"),
    ({"evals": 23}, "evals: 22 -> 23"),
])
def test_a_changed_error_or_evaluation_count_exits_one(tmp_path, edits, note):
    status, text = compare(tmp_path, changed(**edits))
    assert status == 1
    assert note in text


def test_a_vanished_case_exits_one(tmp_path):
    status, text = compare(tmp_path, LINES[:1])
    assert status == 1
    assert "only in" in text and "poisson --x 3" in text


def test_the_command_line_exit_status(tmp_path):
    old = write(tmp_path / "old.jsonl", LINES)
    env = dict(os.environ, PYTHONPATH=str(SCRIPT.parents[1] / "src"))
    codes = []
    for new in (LINES, changed(evals=23)):
        argv = [sys.executable, str(SCRIPT), "--compare", old, write(tmp_path / "new.jsonl", new)]
        codes.append(subprocess.run(argv, env=env, capture_output=True, text=True).returncode)
    assert codes == [0, 1]
