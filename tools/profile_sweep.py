"""Where one ``qverify sweep`` spends its time, measured in this process.

Usage: python3 tools/profile_sweep.py [qverify sweep options]
e.g.   python3 tools/profile_sweep.py --identity watson thm-e-integral --samples 1

Runs the sweep once, serially (``--jobs 1`` is forced, so every call is
counted here), and prints its wall time, the summed ``elapsed`` of its
cells, ms per cell for each identity, and the time and calls of
``qcore.qpoch_inf_many`` ([prefetch] for the one call per (id, q) run of
cells that computes the closed forms' products ahead
(``qcore._prefetched``), and [other] for all other calls) and of
``qcore._h_products``, the Askey-Wilson integrand's h-functions ([unit
rows] for the row h(cos 2t; 1), computed on a miss of the
``integrals._unit_rows`` memo, and [lam rows] for the rest of each
integrand call), each with its summed factor count (factors 1 - x q^k of
(x;q)_oo, quadratic factors of h), which repeats exactly from run to run;
the hits and misses of the prefetch memo (bases of ``qfrac(..., INF)``
read from it, and bases sent to the kernel), ``qcore._near_pole`` (the
near-pole test of every check) and ``identities.sample``, then the stream
layer: the calls, terms summed, terms computed and time of
``series._sum_stream``, split by caller into the reciprocity difference
streams (called from ``identities._diff_sum``) and plain series (every
other caller).  Streams come in blocks of consecutive terms, so a sum that
stops inside a block leaves terms computed but not summed; both counts
repeat exactly from run to run.
A layer's time includes the layers it calls.
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

from qverify import cli, identities, qcore, series  # noqa: E402


def instrument(fn, kind=lambda args: "", work=lambda args, result: 0, feed=None):
    """Replace fn in every qverify module that binds it; returns {kind: [calls, s, work, fed]}.

    kind(args) runs first, in the wrapper called by fn's caller; feed(arg0,
    entry), if given, replaces the first argument (a stream fn draws from).
    """
    stats = defaultdict(lambda: [0, 0.0, 0, 0])

    def timed(*args, **kwargs):
        entry = stats[kind(args)]
        if feed is not None:
            args = (feed(args[0], entry), *args[1:])
        start, result = time.perf_counter(), None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            entry[0] += 1
            entry[1] += time.perf_counter() - start
            entry[2] += 0 if result is None else work(args, result)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("qverify") and getattr(mod, fn.__name__, None) is fn:
            setattr(mod, fn.__name__, timed)
    return stats


def stream_kind(args):
    """A difference stream reaches _sum_stream from identities._diff_sum, a plain
    series from any other caller."""
    return "difference" if sys._getframe(2).f_code.co_name == "_diff_sum" else "series"


def counted(blocks, entry):
    """The blocks of a stream, their terms counted into entry[3] as they are drawn."""
    for block in blocks:
        entry[3] += len(block[0] if isinstance(block, tuple) else block)
        yield block


def qpoch_kind(args):
    """The prefetch call comes from qcore._prefetched, every other call is [other]."""
    return "prefetch" if sys._getframe(2).f_code.co_name == "_prefetched" else "other"


def h_kind(args):
    """The row h(cos 2t; 1) comes from integrals._unit_rows, the lam rows from the integrand."""
    return "unit rows" if sys._getframe(2).f_code.co_name == "_unit_rows" else "lam rows"


def h_factors(args, result):
    """The quadratic factors that one _h_products call multiplied: each lam's
    count (``_h_factors``), once per entry of x; padding is not counted."""
    x, (_, _, _, counts) = args
    return int(counts.sum()) * x.size


def main(argv) -> int:
    layers = {
        "qpoch_inf_many": instrument(qcore.qpoch_inf_many, qpoch_kind,
                                     lambda args, result: int(result[2].sum())),
        "_h_products": instrument(qcore._h_products, h_kind, h_factors),
        "_near_pole": instrument(qcore._near_pole),
        "sample": instrument(identities.sample),
    }
    streams = instrument(series._sum_stream, stream_kind, lambda args, result: result.terms_used,
                         counted)
    qcore._prefetch_counts[:] = [0, 0]
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
    print(f"{'layer':32s} {'calls':>8s} {'s':>9s} {'factors':>10s}")
    for name, stats in layers.items():
        for kind in sorted(stats) or [""]:
            calls, secs, factors, _ = stats[kind]
            print(f"{name + (f' [{kind}]' if kind else ''):32s} {calls:8d} {secs:9.3f}"
                  + (f" {factors:10d}" if name in ("qpoch_inf_many", "_h_products") else ""))
    print("prefetch memo: {} hits, {} misses".format(*qcore._prefetch_counts))
    print(f"{'stream':32s} {'calls':>8s} {'terms':>9s} {'computed':>9s} {'s':>9s}")
    for kind in ("series", "difference"):
        calls, secs, terms, computed = streams[kind]
        print(f"{f'_sum_stream [{kind}]':32s} {calls:8d} {terms:9d} {computed:9d} {secs:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
