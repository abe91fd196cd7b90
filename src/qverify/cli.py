"""qverify command line: single checks, seeded sweeps, JSON reports.

Subcommands:

* ``qverify list``                      -- print the registry ids
* ``qverify check <id> --params FILE``  -- one identity at one point
* ``qverify sweep [...] --out r.json``  -- seeded multi-identity sweep

Parameter files are TOML, read by ``identities.parse_params``: complex
values as two-element arrays ``[re, im]`` or bare reals, a case's integer
parameters bare and non-negative.  Vector parameters use numbered keys
(``x1``, ``x2``, ...) with ``n`` giving the count.
Exit codes: 0 pass, 1 fail, 2 skipped / domain, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
import tomllib
from dataclasses import dataclass

from .qcore import QContext, QVerifyError
from .identities import VerificationReport, _column, case_ids, check, get_case, parse_params, sample

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_SKIP = 2
_EXIT_INPUT = 3

# attempts per requested sample slot: skipped draws are resampled with
# fresh derived seeds, never counted toward the requested total
_RESAMPLE_CAP = 40

# a parallel sweep hands each worker about this many chunks of cells: few
# enough that the parent's round trips stay cheap, enough that the last
# chunks still even out cells of unequal cost
_CHUNKS_PER_WORKER = 16


def load_param_file(path: str) -> dict:
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _make_ctx(q: float, tol: float | None) -> QContext:
    return QContext(q) if tol is None else QContext(q, identity_tol=tol)


def _print_human(report) -> None:
    print(f"identity : {report.id}")
    print(f"verdict  : {report.verdict}" + (f" ({report.reason})" if report.reason else ""))
    print(f"lhs      : {report.lhs}")
    print(f"rhs      : {report.rhs}")
    print(f"residual : abs = {report.abs_residual:.3e}, rel = {report.rel_residual:.3e}")
    print(f"elapsed  : {report.elapsed:.3f} s")


def cmd_list(args) -> int:
    for cid in case_ids():
        case = get_case(cid)
        print(f"{cid:24s} [{case.family}]")
    return _EXIT_PASS


def cmd_check(args) -> int:
    try:
        params = parse_params(get_case(args.identity), load_param_file(args.params))
        report = check(args.identity, params, _make_ctx(args.q, args.tol))
    except (OSError, ValueError, QVerifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _print_human(report)
    if report.verdict == "pass":
        return _EXIT_PASS
    if report.verdict == "skipped":
        return _EXIT_SKIP
    return _EXIT_FAIL


def _slot_seed(base_seed: int, slot: int, attempt: int = 0) -> int:
    return base_seed + 1000 * slot + attempt


def run_sweep_cell(case_id: str, slot: int, base_seed: int, q: float, tol: float | None, mode: str):
    """One (identity, sample slot, q) cell; resamples skips deterministically."""
    ctx = _make_ctx(q, tol)
    for attempt in range(_RESAMPLE_CAP):
        seed = _slot_seed(base_seed, slot, attempt)
        try:
            params = sample(case_id, seed, ctx, mode=mode)
        except QVerifyError as exc:
            last = VerificationReport(
                case_id, seed, {}, 0j, 0j, 0.0, 0.0, "skipped", f"sampling: {exc}"
            )
            break
        last = check(case_id, params, ctx, seed=seed)
        if last.verdict != "skipped":
            break
    out = last.to_dict()
    out["q"] = q
    out["slot"] = slot
    return out


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep request: identities, sampling plan and output."""

    identities: tuple
    samples: int = 50
    seed: int = 0
    mode: str = "complex"
    tol: float | None = None
    q_values: tuple = (0.3, 0.5, 0.8)
    out: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.mode not in ("real", "complex"):
            raise ValueError("mode must be real or complex")
        known = set(case_ids())
        bad = [i for i in self.identities if i not in known]
        if bad:
            raise ValueError(f"unknown identities {bad}")
        repeated = sorted({i for i in self.identities if self.identities.count(i) > 1})
        if repeated:
            raise ValueError(f"repeated identities {repeated}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.q_values:
            raise ValueError("at least one q value required")
        repeated = list(dict.fromkeys(q for q in self.q_values if self.q_values.count(q) > 1))
        if repeated:
            raise ValueError(f"repeated q values {repeated}")
        for q in self.q_values:
            _make_ctx(q, self.tol)  # raises ValueError for |q| >= 1 or tol <= 0


def run_sweep(config: SweepConfig) -> tuple[dict, int]:
    """Execute a sweep; returns (report document, exit code)."""
    # q outermost: qcore's q^k tables (qcore._TABLES) hold the last few q,
    # so a sweep over any number of q meets each q's table in one stretch
    cells = [
        (cid, slot, q)
        for q in config.q_values
        for cid in sorted(config.identities)
        for slot in range(config.samples)
    ]
    workers = min(config.jobs, len(cells))
    size = max(1, len(cells) // (_CHUNKS_PER_WORKER * max(workers, 1)))
    chunks = [cells[i:i + size] for i in range(0, len(cells), size)]
    run = functools.partial(_run_chunk, base_seed=config.seed, tol=config.tol, mode=config.mode)
    t0 = time.perf_counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for done in pool.map(run, chunks) for r in done]
    else:
        results = [r for chunk in chunks for r in run(chunk)]
    elapsed = time.perf_counter() - t0

    results.sort(key=lambda r: (r["id"], r["slot"], r["q"]))
    summary = {}
    for r in results:
        s = summary.setdefault(
            r["id"], {"pass": 0, "fail": 0, "skipped": 0, "max_rel_residual": 0.0}
        )
        s[r["verdict"]] += 1
        if r["verdict"] != "skipped":
            s["max_rel_residual"] = max(s["max_rel_residual"], r["rel_residual"])
    doc = {
        "config": {
            "identities": sorted(config.identities),
            "samples": config.samples,
            "seed": config.seed,
            "mode": config.mode,
            "tol": config.tol,
            "q": list(config.q_values),
        },
        "summary": {k: summary[k] for k in sorted(summary)},
        "reports": results,
        "elapsed": elapsed,
    }
    fails = sum(s["fail"] for s in summary.values())
    return doc, (_EXIT_PASS if fails == 0 else _EXIT_FAIL)


def cmd_sweep(args) -> int:
    ids = case_ids() if (not args.identity or args.identity == ["all"]) else args.identity
    try:
        qs = tuple(float(tok) for tok in args.q.split(",") if tok.strip())
        config = SweepConfig(
            identities=tuple(ids),
            samples=args.samples,
            seed=args.seed,
            mode=args.mode,
            tol=args.tol,
            q_values=qs,
            out=args.out,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    doc, code = run_sweep(config)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
    summary = doc["summary"]
    fails = sum(s["fail"] for s in summary.values())
    print(f"{'identity':24s} {'pass':>5s} {'fail':>5s} {'skip':>5s}  max rel residual")
    for cid in sorted(summary):
        s = summary[cid]
        print(f"{cid:24s} {s['pass']:5d} {s['fail']:5d} {s['skipped']:5d}  {s['max_rel_residual']:.3e}")
    print(f"total: {len(doc['reports'])} cells, {fails} fails, {doc['elapsed']:.1f} s"
          + (f", report -> {config.out}" if config.out else ""))
    return code


def _run_chunk(chunk, base_seed: int, tol: float | None, mode: str) -> list:
    """The cells (id, slot, q) of one chunk, in order.  Each run of one (id, q)
    draws attempt 0 of its slots and computes their closed-form products
    ahead (``identities._column``); its cells then run one by one through
    this module's ``run_sweep_cell`` and ``check``."""
    out = []
    for (cid, q), run in itertools.groupby(chunk, key=lambda cell: (cell[0], cell[2])):
        slots = [slot for _, slot, _ in run]
        with _column(cid, [_slot_seed(base_seed, slot) for slot in slots], _make_ctx(q, tol), mode):
            out += [run_sweep_cell(cid, slot, base_seed, q, tol, mode) for slot in slots]
    return out


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 3 (input error), not 2 (skipped)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qverify", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the identity registry").set_defaults(func=cmd_list)

    chk = sub.add_parser("check", help="check one identity at a parameter point")
    chk.add_argument("identity")
    chk.add_argument("--params", required=True, help="TOML parameter file")
    chk.add_argument("--q", type=float, default=0.5, help="base q (default 0.5)")
    chk.add_argument("--tol", type=float, default=None, help="identity tolerance override")
    chk.add_argument("--json", action="store_true", help="emit the report as JSON")
    chk.set_defaults(func=cmd_check)

    swp = sub.add_parser("sweep", help="seeded sweep over identities and q values")
    swp.add_argument("--identity", nargs="*", default=["all"],
                     help="identity ids (default: all)")
    swp.add_argument("--samples", type=int, default=50)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--mode", choices=("real", "complex"), default="complex")
    swp.add_argument("--tol", type=float, default=None)
    swp.add_argument("--q", default="0.3,0.5,0.8", help="comma-separated q values")
    swp.add_argument("--out", default=None, help="JSON report path")
    swp.add_argument("--jobs", type=int, default=1,
                     help="worker processes (at most one per cell)")
    swp.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
