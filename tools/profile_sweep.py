"""Where one ``qverify sweep`` spends its time, measured in this process.

Usage: python3 tools/profile_sweep.py [qverify sweep options]
e.g.   python3 tools/profile_sweep.py --identity watson thm-e-integral --samples 1

Runs the sweep once, serially (``--jobs 1`` is forced, so every call is
counted here), and prints its wall time, the summed ``elapsed`` of its
cells, ms per cell for each identity, and the time and calls of
``qcore.qpoch_inf_many`` (split into Askey-Wilson integrand calls, whose
input is 2-D, and all others), ``identities._grid_clear`` and
``identities.sample``.  A layer's time includes the layers it calls.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qverify import cli, identities, qcore  # noqa: E402


def instrument(fn, kind=lambda args: ""):
    """Replace fn in every qverify module that binds it; returns {kind: [calls, s]}."""
    stats = defaultdict(lambda: [0, 0.0])

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            entry = stats[kind(args)]
            entry[0] += 1
            entry[1] += time.perf_counter() - start

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("qverify") and getattr(mod, fn.__name__, None) is fn:
            setattr(mod, fn.__name__, timed)
    return stats


def main(argv) -> int:
    layers = {
        "qpoch_inf_many": instrument(qcore.qpoch_inf_many, lambda args: (
            "integrand" if getattr(args[0], "ndim", 0) == 2 else "other")),
        "_grid_clear": instrument(identities._grid_clear),
        "sample": instrument(identities.sample),
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", *argv, "--jobs", "1", "--out", str(out)])
        wall = time.perf_counter() - start
        if code not in (0, 1):  # an input error; cli has said why
            return code
        reports = json.loads(out.read_text())["reports"]
    per_id = defaultdict(list)
    for r in reports:
        per_id[r["id"]].append(r["elapsed"])
    print(f"wall {wall:.3f} s, summed elapsed {sum(map(sum, per_id.values())):.3f} s, "
          f"{len(reports)} cells")
    print(f"{'identity':24s} {'cells':>6s} {'ms/cell':>9s}")
    for cid in sorted(per_id):
        print(f"{cid:24s} {len(per_id[cid]):6d} {1e3 * sum(per_id[cid]) / len(per_id[cid]):9.2f}")
    print(f"{'layer':32s} {'calls':>8s} {'s':>9s}")
    for name, stats in layers.items():
        for kind in sorted(stats) or [""]:
            calls, secs = stats[kind]
            print(f"{name + (f' [{kind}]' if kind else ''):32s} {calls:8d} {secs:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
