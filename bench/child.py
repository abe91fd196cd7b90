"""One fresh interpreter of the sweep benchmark; run by run.py, not by hand.

    child.py sweep --workload W --seed N --spawn T [--trace] [--setup-only] [--serial] [--smoke]
    child.py micro [--smoke]

``sweep`` goes the way ``qverify sweep`` goes: import qverify from this
checkout's src/, parse the command line, validate the SweepConfig, then
run cli.run_sweep.  ``--spawn`` is the parent's time.monotonic() just
before it started this interpreter, so the set-up time includes
interpreter start-up.  Times are rescaled to the reference speed of
pace.py; the wall times are reported next to them.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import pace  # noqa: E402


class _FirstCell(Exception):
    """Raised at the entry of run_sweep when only set-up is measured."""


def _import_qverify():
    import qverify

    origin = Path(qverify.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"qverify imported from {origin}, not from {SRC}")
    return qverify


def _peak_rss_mb(jobs: int) -> float:
    """This process's peak RSS plus `jobs` times the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024.0  # ru_maxrss is in KiB on Linux


def sweep(args) -> dict:
    qverify = _import_qverify()
    from qverify import cli, identities

    import workloads

    plan = workloads.plan_for(args.workload, args.smoke)
    if args.serial:
        plan = plan.serial()
    families = {c.id: c.family for c in identities.registry()}
    ids = sorted(i for i, fam in families.items() if not (plan.series_only and fam == "integral"))
    if args.trace:
        from tracer import Tracer

        Tracer().install()
    # outermost, so the probes stay out of the traced check spans
    pace.Pacer().install(cli)

    timing = {}
    run_sweep = cli.run_sweep

    def timed_run_sweep(config):
        timing["setup_s"] = time.monotonic() - args.spawn
        if args.setup_only:
            timing["probe_s"] = pace.probe()
            raise _FirstCell
        t0 = time.perf_counter()
        doc, code = run_sweep(config)
        timing["wall_s"] = time.perf_counter() - t0
        timing["probe_s"] = pace.probe()  # closes the last window of a serial sweep
        timing["doc"] = doc
        return doc, code

    cli.run_sweep = timed_run_sweep
    with contextlib.redirect_stdout(io.StringIO()):  # the sweep's summary table
        try:
            cli.main(plan.sweep_argv(ids, args.seed))
        except _FirstCell:
            pass
    out = {"setup_wall_s": timing["setup_s"],
           "setup_s": pace.rescale(timing["setup_s"], timing["probe_s"])}
    if args.setup_only:
        return out
    import numpy

    from tracer import CELL_KEY, merge_cells

    reports = timing["doc"]["reports"]
    paces = [r.pop(pace.PACE_KEY) for r in reports]
    payloads = [(r["id"], r.pop(CELL_KEY)) for r in reports if CELL_KEY in r]
    if args.trace and len(payloads) != len(reports):
        raise SystemExit("traced sweep: cells came back without spans (pool not forked?)")
    for (_, payload), record in zip(payloads, paces):
        payload["wall"] -= pace.probes_s(record)  # the cell span holds its probes
    speed, probes_s = pace.speed_factor(paces, timing["probe_s"] if plan.jobs == 1 else None)
    out.update(workloads.account(reports, families))
    out["sweep_wall_s"] = timing["wall_s"]
    out["sweep_s"] = (timing["wall_s"] - probes_s) * speed
    out["speed"] = speed
    out["jobs"] = plan.jobs
    out["peak_rss_mb"] = _peak_rss_mb(plan.jobs)
    out["qverify_file"] = qverify.__file__
    out["python"] = sys.version.split()[0]
    out["numpy"] = numpy.__version__
    if args.trace:
        out["trace"] = merge_cells(payloads)
    return out


def micro(args) -> dict:
    _import_qverify()
    import micro as bench_micro

    return {"metrics": bench_micro.run(args.smoke)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("--workload", required=True)
    sw.add_argument("--seed", type=int, required=True)
    sw.add_argument("--spawn", type=float, required=True)
    sw.add_argument("--trace", action="store_true")
    sw.add_argument("--setup-only", action="store_true")
    sw.add_argument("--serial", action="store_true", help="run the plan with one worker")
    sw.add_argument("--smoke", action="store_true")
    mi = sub.add_parser("micro")
    mi.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    result = sweep(args) if args.mode == "sweep" else micro(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
