"""Workload plans and verdict accounting for the sweep benchmark.

Nothing here imports qverify, so the verdict rules can be tested on
synthetic reports.  A plan is the argument list of one ``qverify sweep``;
its sample count is the run length, fixed per workload so that a faster
program measures the same work.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

DEFAULT_Q = (0.3, 0.5, 0.8)


@dataclass(frozen=True)
class Plan:
    """One sweep: which identities, how many sample slots, which q, how many workers."""

    samples: int
    q_values: tuple
    jobs: int = 1
    series_only: bool = False  # drop the integral family

    def serial(self) -> "Plan":
        return Plan(self.samples, self.q_values, 1, self.series_only)

    def sweep_argv(self, ids, seed: int) -> list:
        """The ``qverify sweep`` command line (without the program name)."""
        return [
            "sweep", "--identity", *ids,
            "--samples", str(self.samples),
            "--seed", str(seed),
            "--mode", "complex",
            "--q", ",".join(repr(q) for q in self.q_values),
            "--jobs", str(self.jobs),
        ]


# Sample counts make each sweep long enough that the draws of one seed
# average out (the spread between seeds, not the machine, dominates short
# sweeps); near-one needs only one slot because each of its integral cells
# already averages 40 resampled quadratures.
PLANS = {
    "default": Plan(samples=40, q_values=DEFAULT_Q),
    "series": Plan(samples=60, q_values=DEFAULT_Q, series_only=True),
    "near-one": Plan(samples=1, q_values=(0.95,)),
    "default-jobs2": Plan(samples=40, q_values=DEFAULT_Q, jobs=2),
}

# Smoke plans exercise every code path in seconds: one slot, and no
# integral cells at q = 0.95 (each costs 5-15 s there).
SMOKE_PLANS = {
    "default": Plan(samples=1, q_values=DEFAULT_Q),
    "series": Plan(samples=1, q_values=DEFAULT_Q, series_only=True),
    "near-one": Plan(samples=1, q_values=(0.95,), series_only=True),
    "default-jobs2": Plan(samples=1, q_values=DEFAULT_Q, jobs=2),
}


def plan_for(workload: str, smoke: bool = False) -> Plan:
    return (SMOKE_PLANS if smoke else PLANS)[workload]


# Report keys that hold the pair offsets of each integral identity.  The
# stated closed form is exact when all of them are 0, so a fail there is
# wrong; with an offset >= 1 the fail is the documented defect.
_OFFSET_KEYS = {
    "thm-e-integral": re.compile(r"N\d+"),
    "corl-e-integral": re.compile(r"m\d+"),
    "corl-c-integral": re.compile(r"n"),
}


def fail_is_wrong(report: dict, family: str) -> bool:
    """True when a ``fail`` verdict on this report is ruled out by the mathematics."""
    if family in ("series", "reciprocity"):
        return True
    if family != "integral":
        raise ValueError(f"unknown identity family {family!r}")
    keys = _OFFSET_KEYS.get(report["id"])
    if keys is None:
        raise ValueError(f"no offset rule for integral identity {report['id']!r}")
    offsets = [v for k, v in report["params"].items() if keys.fullmatch(k)]
    return all(v == 0 for v in offsets)


def is_unverified(report: dict) -> bool:
    """A cell that ends without a verdict: skipped, sampling exhausted, or evaluator error."""
    return report["verdict"] == "skipped" or report["reason"].startswith("evaluator error")


def account(reports, families: dict) -> dict:
    """Verdict accounting for one sweep's reports.

    ``families`` maps identity id to family.  Returns the number of cells,
    the unverified cells, the wrong fails (as (id, slot, q) triples) and a
    digest of the reports with every ``elapsed`` key removed, which is the
    determinism contract: equal digests mean equal reports.
    """
    wrong = [
        [r["id"], r["slot"], r["q"]]
        for r in reports
        if r["verdict"] == "fail" and fail_is_wrong(r, families[r["id"]])
    ]
    stripped = [{k: v for k, v in r.items() if k != "elapsed"} for r in reports]
    digest = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()
    return {
        "cells": len(reports),
        "unverified": sum(is_unverified(r) for r in reports),
        "wrong": wrong,
        "digest": digest,
        "verdicts": "".join(r["verdict"][0] for r in reports),
    }
