"""tools/profile_sweep.py: the per-layer split of one sweep, in-process."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "profile_sweep.py"


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--identity", "watson", "thm-e-integral",
         "ramanujan-reciprocity", "--samples", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("wall ") and "9 cells" in lines[0]
    rows = {line.rsplit(None, 2)[0]: line.split()[-2:] for line in lines[1:]}
    # integrand calls: the unit rows only on a memo miss, the lam rows on every call
    unit_calls, lam_calls = (int(rows[f"qpoch_inf_many [{k}]"][0]) for k in ("unit rows", "lam rows"))
    assert 0 < unit_calls <= lam_calls
    assert int(rows["qpoch_inf_many [other]"][0]) > 0
    assert rows["_near_pole"][0] == "9" and int(rows["sample"][0]) >= 9
    assert {"watson", "thm-e-integral", "ramanujan-reciprocity"} <= rows.keys()
    # the stream layer: calls, terms and time of each kind of _sum_stream
    streams = {line.split()[1]: line.split()[2:] for line in lines
               if line.startswith("_sum_stream [")}
    assert streams.keys() == {"[series]", "[difference]"}
    for calls, terms, _ in streams.values():
        assert 0 < int(calls) <= int(terms)


def test_unit_rows_come_from_the_memo():
    # a second quadrature at the same q meets node sets that the first computed
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--identity", "thm-e-integral", "--samples", "2", "--q", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {line.rsplit(None, 2)[0]: int(line.split()[-2]) for line in proc.stdout.splitlines()
            if line.startswith("qpoch_inf_many [")}
    assert 0 < rows["qpoch_inf_many [unit rows]"] < rows["qpoch_inf_many [lam rows]"]


def test_input_error_exits_3():
    proc = subprocess.run([sys.executable, str(TOOL), "--identity", "nope"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and "unknown identities" in proc.stderr
