"""tools/diff_reports.py: sweep reports compared modulo ``elapsed``."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_reports.py"


def cell(verdict, elapsed):
    return {"id": "watson", "sample_seed": 3, "params": {"a": 0.5}, "lhs": [1.0, 0.0],
            "rhs": [1.0, 0.0], "abs_residual": 0.0, "rel_residual": 0.0,
            "verdict": verdict, "reason": "", "elapsed": elapsed, "q": 0.5, "slot": 3}


def report(verdict, elapsed):
    return {"config": {"seed": 0}, "summary": {"watson": {verdict: 1}},
            "reports": [cell(verdict, elapsed)], "elapsed": elapsed}


def run(tmp_path, old, new):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return run_paths(*paths)


def run_paths(*paths):
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_identical_modulo_elapsed(tmp_path):
    proc = run(tmp_path, report("pass", 0.1), report("pass", 7.0))
    assert proc.returncode == 0, proc.stdout


def test_flipped_verdict_names_the_cell(tmp_path):
    proc = run(tmp_path, report("pass", 0.1), report("fail", 0.1))
    assert proc.returncode == 1
    assert "('watson', 3, 0.5)" in proc.stdout and "verdict" in proc.stdout
    assert "summary watson" in proc.stdout


def test_tally_separates_value_moves_from_other_fields(tmp_path):
    old, new = report("pass", 0.1), report("pass", 0.1)
    moved, flipped = cell("pass", 0.1), cell("fail", 0.1)
    moved.update(slot=4, lhs=[1.0 + 2e-15, 0.0], abs_residual=2e-15, rel_residual=2e-15)
    flipped.update(slot=5)
    old["reports"] += [cell("pass", 0.1) | {"slot": 4}, cell("pass", 0.1) | {"slot": 5}]
    new["reports"] += [moved, flipped]
    proc = run(tmp_path, old, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == (
        "tally: 1 cells differ in values only (largest lhs/rhs move 2e-15 "
        "(('watson', 4, 0.5) lhs)), "
        "1 cells differ in verdict, reason, sample_seed, params or another field")


def test_fewer_than_two_paths_is_a_usage_error(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(report("pass", 0.1)))
    proc = run_paths(path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and not proc.stdout


def test_unreadable_path_is_a_usage_error(tmp_path):
    path, missing = tmp_path / "old.json", tmp_path / "missing.json"
    path.write_text(json.dumps(report("pass", 0.1)))
    proc = run_paths(path, missing)
    assert proc.returncode == 2
    assert str(missing) in proc.stderr and "Traceback" not in proc.stderr and not proc.stdout
