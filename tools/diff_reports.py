"""Compare two ``qverify sweep`` JSON reports modulo every ``elapsed`` key.

Usage: python3 tools/diff_reports.py OLD.json NEW.json.  Prints the
differences in ``config`` and ``summary``, then each differing cell, keyed
by (id, slot, q), with the fields that differ and the relative move of lhs
and rhs, then a tally: the cells whose values alone moved (lhs, rhs and
the residuals), with the largest relative move of lhs or rhs and the cell
and side where it happened, and the cells where anything else differs
(verdict, reason, sample_seed, params, ...).
Exits 0 when the reports are identical, 1 when they differ, and 2 on bad
input (fewer than two paths, or a file that cannot be read as JSON), with
the usage line or the error on stderr.
"""

import functools
import json
import sys

canon = functools.partial(json.dumps, sort_keys=True)

# the fields of a cell that reordered arithmetic may move without changing its verdict
VALUES = {"lhs", "rhs", "abs_residual", "rel_residual"}


def strip(obj):
    """obj without any key named ``elapsed``, at any depth."""
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def rel_move(old, new) -> float:
    return abs(complex(*new) - complex(*old)) / max(abs(complex(*old)), 1e-300)


def diff(old: dict, new: dict) -> list:
    """Lines describing the differences between two stripped reports."""
    lines = []
    for section in ("config", "summary"):
        parts = old.get(section, {}), new.get(section, {})
        for key in sorted(parts[0].keys() | parts[1].keys()):
            a, b = (canon(part.get(key)) for part in parts)
            if a != b:
                lines.append(f"{section} {key}: {a} -> {b}")
    cells = [{(r["id"], r["slot"], r["q"]): r for r in doc.get("reports", [])}
             for doc in (old, new)]
    values_only, other, largest, where = 0, 0, 0.0, ""
    for key in sorted(cells[0].keys() | cells[1].keys()):
        a, b = (c.get(key) for c in cells)
        if a is None or b is None:
            lines.append(f"cell {key}: only in {'NEW' if a is None else 'OLD'}")
            other += 1
        elif canon(a) != canon(b):
            fields = sorted(k for k in a.keys() | b.keys() if canon(a.get(k)) != canon(b.get(k)))
            moved = [rel_move(a[s], b[s]) for s in ("lhs", "rhs")]
            lines.append(f"cell {key}: {', '.join(fields)} differ; "
                         f"lhs moved {moved[0]:.3g}, rhs moved {moved[1]:.3g}")
            if VALUES.issuperset(fields):
                values_only += 1
                for side, move in zip(("lhs", "rhs"), moved):
                    if move > largest:
                        largest, where = move, f" ({key} {side})"
            else:
                other += 1
    if values_only or other:
        lines.append(f"tally: {values_only} cells differ in values only (largest lhs/rhs move "
                     f"{largest:.3g}{where}), {other} cells differ in verdict, reason, "
                     "sample_seed, params or another field")
    return lines


def main(argv) -> int:
    if len(argv) < 3:
        print("usage: python3 tools/diff_reports.py OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:3]:
        try:
            with open(path, encoding="utf-8") as fh:
                docs.append(strip(json.load(fh)))
        except (OSError, ValueError) as exc:
            print(f"diff_reports: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    old, new = docs
    lines = diff(old, new) or ([] if canon(old) == canon(new) else ["other keys differ"])
    print("\n".join(lines) if lines else "identical modulo elapsed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
