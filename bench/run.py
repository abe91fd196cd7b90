#!/usr/bin/env python3
"""Sweep benchmark: time to verdict of `qverify sweep` on four plans.

    python3 bench/run.py --workload {default,series,near-one,default-jobs2}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it measures the end-to-end metrics of untraced sweeps, each
in a fresh interpreter, repeated while another sweep fits in S seconds; with
--trace 1 it alternates untraced and traced sweeps, runs the layer
microbenchmarks and reports the per-layer metrics.  Times are rescaled to
a machine of reference speed (pace.py); the metric names and units are
those of BENCHMARK.json.  Every sweep's verdicts are checked (see
README.md); a violation marks the run invalid.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from workloads import PLANS, plan_for  # noqa: E402

# fresh interpreters started only to time set-up, on top of one per sweep
SETUP_PROBES = 7
# a --trace 1 run makes an untraced and a traced sweep, and a second such
# pair (ABAB) when the first took less than this
SECOND_PAIR_S = 30.0
# every run ends within this many seconds, whatever --seconds asks
RUN_DEADLINE_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
CELL_MS = "identities.cell_ms."
IDS = tuple(n[len(CELL_MS):] for n in PER_LAYER_UNITS if n.startswith(CELL_MS))


class BenchError(Exception):
    """The benchmark could not run or a child process failed."""


class Runner:
    """Starts fresh interpreters for one run and keeps it inside its deadline."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.plan = plan_for(workload, smoke)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.setup_samples = []
        self.setup_wall_samples = []

    def _child(self, args) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        cmd = [sys.executable, str(CHILD), *args] + (["--smoke"] if self.smoke else [])
        # own session, so stopping it also stops the child's pool workers
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:  # the deadline, or this run being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"child {args[0]} passed the run deadline") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def sweep(self, trace=False, setup_only=False, serial=False) -> dict:
        flags = (["--trace"] if trace else []) + (["--setup-only"] if setup_only else []) \
            + (["--serial"] if serial else [])
        res = self._child(["sweep", "--workload", self.workload, "--seed", str(self.seed),
                           "--spawn", repr(time.monotonic()), *flags])
        self.setup_samples.append(res["setup_s"])
        self.setup_wall_samples.append(res["setup_wall_s"])
        return res

    def micro(self) -> dict:
        return self._child(["micro"])


def check_verdicts(sweeps) -> list:
    """Problems that invalidate a run: wrong fails, or reports that differ between sweeps."""
    problems = []
    for s in sweeps:
        for case_id, slot, q in s["wrong"]:
            problems.append(f"wrong fail verdict: {case_id} slot {slot} q {q}")
    ref = sweeps[0]
    for s in sweeps[1:]:
        if s["digest"] != ref["digest"]:
            diff = sum(a != b for a, b in zip(ref["verdicts"], s["verdicts"]))
            problems.append(f"reports differ between sweeps ({diff} verdicts differ)")
    return problems


def untraced(runner: Runner, seconds: float):
    for _ in range(SETUP_PROBES):
        runner.sweep(setup_only=True)
    start = time.monotonic()
    timed = []
    last = 0.0
    # one sweep at least; another only if it should end within the time asked
    while not timed or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        timed.append(runner.sweep())
        last = time.monotonic() - t0
    metrics = {
        "sweep_s": statistics.median(s["sweep_s"] for s in timed),
        "setup_s": statistics.median(runner.setup_samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }
    info = {
        "sweep_wall_s": statistics.median(s["sweep_wall_s"] for s in timed),
        "setup_wall_s": statistics.median(runner.setup_wall_samples),
    }
    return metrics, info, timed, timed


def traced(runner: Runner):
    start = time.monotonic()
    pairs = [(runner.sweep(), runner.sweep(trace=True))]
    if time.monotonic() - start < SECOND_PAIR_S:
        pairs.append((runner.sweep(), runner.sweep(trace=True)))
    base, tr = pairs[0]
    # a parallel plan is checked against the serial reports of the same plan
    checked = [s for pair in pairs for s in pair] \
        + ([runner.sweep(serial=True)] if runner.plan.jobs > 1 else [])
    micro = runner.micro()["metrics"]
    t = tr["trace"]
    speed = tr["speed"]  # span times are wall times; report them at reference speed
    busy = t["cell_wall_s"] * speed
    spans = t["spans"]
    counts = t["counts"]
    aw_total = spans.get("integrals.integrate_aw", (0, 0.0))[1] * speed
    metrics = dict(micro)
    for layer in ("qcore", "series", "multisum", "integrals"):
        metrics[f"{layer}.self_frac"] = t["layer_self_s"][layer] / t["cell_wall_s"]
    metrics["qcore.factors"] = counts["factors"]
    metrics["series.terms"] = counts["terms"]
    metrics["multisum.calls"] = sum(v[0] for k, v in spans.items() if k.startswith("multisum."))
    metrics["integrals.panels"] = counts["panels"]
    metrics["integrals.node_us"] = 1e6 * aw_total / counts["nodes"] if counts["nodes"] else 0.0
    for case_id in IDS:
        wall, n = t["per_id"].get(case_id, (0.0, 0))
        metrics[f"{CELL_MS}{case_id}"] = 1e3 * wall * speed / n if n else 0.0
    metrics["identities.attempts_per_cell"] = t["attempts"] / tr["cells"]
    metrics["identities.useful_attempt_frac"] = t["useful_attempts"] / t["attempts"]
    metrics["identities.wasted_s"] = t["wasted_s"] * speed
    metrics["identities.lhs_s"] = spans.get("identities.lhs", (0, 0.0))[1] * speed
    metrics["identities.rhs_s"] = spans.get("identities.rhs", (0, 0.0))[1] * speed
    metrics["cli.pool_busy_frac"] = busy / (tr["jobs"] * tr["sweep_s"])
    metrics["cli.straggler_s"] = tr["sweep_s"] - busy / tr["jobs"]
    metrics["trace_overhead_frac"] = statistics.median(
        b["sweep_s"] / a["sweep_s"] for a, b in pairs) - 1.0
    info = {"sweep_wall_s": base["sweep_wall_s"]}
    return metrics, info, [base], checked


def preflight() -> str | None:
    """Why this checkout cannot be measured, or None."""
    if not (ROOT / "src" / "qverify" / "__init__.py").is_file():
        return f"no qverify package under {ROOT / 'src'}"
    if "QVERIFY_MAX_TERMS" in os.environ:
        return "QVERIFY_MAX_TERMS is set; it changes the term caps and so the work measured"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one-slot plans without q = 0.95 integrals, for the self-tests")
    args = ap.parse_args(argv)
    # a stopped run stops its children too (see Runner._child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = preflight()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    runner = Runner(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            metrics, wall, timed, checked = traced(runner)
            units = PER_LAYER_UNITS
        else:
            metrics, wall, timed, checked = untraced(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result, info, problems = summarize(metrics, units, timed, checked)
    first = timed[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": first["python"],
        "numpy": first["numpy"],
        "qverify_file": first["qverify_file"],
        "sweeps_timed": len(timed),
        "speed": [round(s["speed"], 4) for s in timed],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print("machine " + json.dumps(record))
    for name, value in wall.items():
        print(f"{name} = {value!r} s (wall time, not rescaled)")
    for name, (value, unit) in info.items():
        print(f"{name} = {value!r} {unit}")
    for problem in problems:
        print(f"INVALID: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(metrics, units, timed, checked):
    """The result object, every figure of the run by name with its unit, and the problems.

    unverified_frac and wrong_verdicts are 0 on most workloads, so they
    travel as the result's failed and correct fields and are listed with
    the per-layer metrics; they are printed on every run.
    """
    attempted = sum(s["cells"] for s in timed)
    failed = sum(s["unverified"] for s in timed)
    problems = check_verdicts(checked)
    metrics = dict(metrics)
    metrics["unverified_frac"] = failed / attempted
    metrics["wrong_verdicts"] = sum(len(s["wrong"]) for s in checked)
    all_units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    info = {name: (value, all_units[name]) for name, value in metrics.items()}
    reported = {} if problems else {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": reported}
    return result, info, problems


if __name__ == "__main__":
    raise SystemExit(main())
