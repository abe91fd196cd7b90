"""tools/profile_sweep.py: the per-layer split of one sweep, in-process."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "profile_sweep.py"

# a row of the identity or layer table: name, count, seconds or ms, [work]
ROW = re.compile(r"(.*?\S)\s+(\d+)\s+(\d+\.\d+)(?:\s+(\d+))?$")


def table(lines):
    """{row name: (count, time, work or None)} of the identity and layer tables."""
    return {m[1]: m.groups()[1:] for line in lines if (m := ROW.match(line))}


def test_smoke():
    argv = [sys.executable, str(TOOL), "--identity", "watson", "thm-e-integral",
            "ramanujan-reciprocity", "--samples", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("wall ") and "9 cells" in lines[0]
    rows = table(lines[1:])
    # integrand calls: one transform for the levels up to 64 panels and one for
    # each level past them, three quadratures here, in one integrate_aw row;
    # the integrand makes no qpoch_inf_many call
    transforms, quadratures = int(rows["_cosine_sums"][0]), int(rows["integrate_aw"][0])
    assert transforms >= quadratures >= 3
    assert not any(k.startswith("integrate_aw [") for k in rows)
    assert {k for k in rows if k.startswith("qpoch_inf_many [")} <= {
        "qpoch_inf_many [prefetch]", "qpoch_inf_many [other]"}
    # one prefetch call per (id, q) run of cells with declared products (thm-e and
    # ramanujan, at 3 q); the closed forms read their products from it, and only
    # its misses make [other] calls
    assert rows["qpoch_inf_many [prefetch]"][0] == "6"
    hits, misses = memo(lines)
    assert hits > 0 and ("qpoch_inf_many [other]" in rows) == (misses > 0)
    assert rows["_near_pole"][0] == "9" and int(rows["sample"][0]) >= 9
    # each qpoch_inf_many row sums the factors its calls used, integrate_aw the
    # panels of each quadrature's last level (16 or more), each transform its
    # grid points (65 or more), and that work repeats exactly
    kernels = ("qpoch_inf_many [", "integrate_aw", "_cosine_sums")
    factors = {k: int(v[2]) for k, v in rows.items() if k.startswith(kernels)}
    assert factors["integrate_aw"] >= 16 * quadratures
    assert factors["_cosine_sums"] >= 65 * transforms
    assert all(v[2] is None for k, v in rows.items() if not k.startswith(kernels))
    again = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert {k: int(v[2]) for k, v in table(again.stdout.splitlines()[1:]).items()
            if k.startswith(kernels)} == factors
    assert {"watson", "thm-e-integral", "ramanujan-reciprocity"} <= rows.keys()
    # the stream layer: calls, terms summed, terms computed (blocks overshoot the
    # stop) and time of each kind of _sum_stream; the counts repeat exactly
    streams = stream_rows(lines)
    assert streams.keys() == {"[series]", "[difference]"}
    for calls, terms, computed, _ in streams.values():
        assert 0 < int(calls) <= int(terms) <= int(computed)
    assert ({k: v[:3] for k, v in stream_rows(again.stdout.splitlines()).items()}
            == {k: v[:3] for k, v in streams.items()})
    assert memo(again.stdout.splitlines()) == memo(lines)


def memo(lines):
    """(hits, misses) of the prefetch memo line."""
    (m,) = (m for line in lines if (m := re.fullmatch(r"prefetch memo: (\d+) hits, (\d+) misses", line)))
    return int(m[1]), int(m[2])


def stream_rows(lines):
    """{kind: [calls, terms, computed, s]} of the stream table."""
    return {line.split()[1]: line.split()[2:] for line in lines
            if line.startswith("_sum_stream [")}


def test_input_error_exits_3():
    proc = subprocess.run([sys.executable, str(TOOL), "--identity", "nope"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and "unknown identities" in proc.stderr
