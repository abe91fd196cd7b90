"""Self-tests of the sweep benchmark.

    python3 -m pytest -q bench/selftest.py

They run every workload once with one-slot plans (seconds, not minutes),
so they are kept out of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert sorted(WORKLOADS) == sorted(run.PLANS)
    sys.path.insert(0, str(ROOT / "src"))
    from qverify import case_ids

    assert sorted(case_ids()) == sorted(run.IDS)


def test_speed_factor_weighs_time_between_probes():
    slow, fast = 2 * pace.REF_S, pace.REF_S
    # one worker: 1 s between a slow and a fast probe, then 1 s after the fast one
    records = [(7, [[0.0, 0.1, slow]], 0.5), (7, [[1.1, 1.2, fast]], 2.2)]
    factor, cost = pace.speed_factor(records)
    assert factor == pytest.approx((1.0 / 1.5 + 1.0) / 2)
    assert cost == pytest.approx(0.2)
    # a probe after a serial sweep closes its last stretch
    factor, _ = pace.speed_factor(records, final_probe=slow)
    assert factor == pytest.approx((1.0 / 1.5 + 1.0 / 1.5) / 2)
    # two workers: the probe time per worker is what the wall time holds
    _, cost = pace.speed_factor(records + [(8, [[0.0, 0.3, fast]], 1.0)])
    assert cost == pytest.approx(0.25)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--smoke")
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1 and res["failed"] >= 0
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    # every metric, end-to-end and per-layer alike, is printed by name and unit
    printed = {line.split(" = ")[0] for line in proc.stdout.splitlines() if " = " in line}
    assert {"unverified_frac", "wrong_verdicts"} <= printed
    machine = json.loads(next(line for line in proc.stdout.splitlines()
                              if line.startswith("machine "))[len("machine "):])
    assert machine["seed"] == 1 and machine["nproc"] >= 1
    assert Path(machine["qverify_file"]).resolve() == (ROOT / "src/qverify/__init__.py").resolve()


def _report(case_id, verdict, params, reason=""):
    return {"id": case_id, "slot": 0, "q": 0.5, "params": params, "verdict": verdict,
            "reason": reason, "elapsed": 0.01}


FAMILIES = {"watson": "series", "ma-5var": "reciprocity", "thm-e-integral": "integral",
            "corl-c-integral": "integral", "corl-e-integral": "integral"}


def test_synthetic_series_fail_invalidates_the_run():
    reports = [_report("watson", "pass", {"a": 0.5}), _report("watson", "fail", {"a": 0.4})]
    sweep = workloads.account(reports, FAMILIES)
    assert sweep["wrong"] == [["watson", 0, 0.5]]
    result, info, problems = run.summarize({"sweep_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0},
                                 run.END_TO_END_UNITS, [sweep], [sweep])
    assert info["wrong_verdicts"] == (1, "count")
    assert result["correct"] is False and result["metrics"] == {}
    assert problems == ["wrong fail verdict: watson slot 0 q 0.5"]


def test_integral_fails_count_only_at_zero_offsets():
    cases = [
        (_report("thm-e-integral", "fail", {"n": 2, "N1": 0, "N2": 1}), False),
        (_report("thm-e-integral", "fail", {"n": 2, "N1": 0, "N2": 0}), True),
        (_report("corl-c-integral", "fail", {"n": 1}), False),
        (_report("corl-c-integral", "fail", {"n": 0}), True),
        (_report("corl-e-integral", "fail", {"n": 1, "m1": 1}), False),
        (_report("corl-e-integral", "fail", {"n": 0}), True),
        (_report("ma-5var", "fail", {"a": 0.3}), True),
    ]
    for report, wrong in cases:
        assert workloads.fail_is_wrong(report, FAMILIES[report["id"]]) is wrong, report


def test_unverified_cells():
    assert workloads.is_unverified(_report("watson", "skipped", {}, "sampling: exhausted"))
    assert workloads.is_unverified(_report("watson", "fail", {}, "evaluator error: ZeroDivisionError"))
    assert not workloads.is_unverified(_report("thm-e-integral", "fail", {"n": 1, "N1": 1}))


def test_reports_that_differ_between_sweeps_invalidate_the_run():
    a = workloads.account([_report("watson", "pass", {"a": 0.5})], FAMILIES)
    b = workloads.account([_report("watson", "pass", {"a": 0.6})], FAMILIES)
    same_but_timing = workloads.account(
        [dict(_report("watson", "pass", {"a": 0.5}), elapsed=9.0)], FAMILIES)
    assert run.check_verdicts([a, same_but_timing]) == []
    assert run.check_verdicts([a, b])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "default", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_refuses_with_term_cap_override():
    env = dict(os.environ, QVERIFY_MAX_TERMS="500")
    proc = _bench("--workload", "default", "--seed", "0", "--seconds", "1", "--trace", "0",
                  env=env)
    assert proc.returncode != 0
    assert "QVERIFY_MAX_TERMS" in proc.stderr and "{" not in proc.stdout
