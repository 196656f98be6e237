"""Judge two results files of run.py against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline, B the candidate.  For each workload x end-to-end
metric this prints the median and quartiles of both files' per-run values
and one verdict:

* ``agree``: B's median is no worse than A's by more than the bound;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: A's or B's spread between quartiles, as a share of its
  median, is wider than the bound, and not every B value reads better
  than every A value.

``failed_frac`` has no bound: any increase is ``worse``.  The exit status
is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summarize(values):
    """n, median, first and third quartile, and the spread between the
    quartiles as a share of the median (``statistics.quantiles``)."""
    values = list(values)
    if not values:
        raise ValueError("no values to summarize")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def worsening(a, b, better):
    """How much worse B's median is than A's, as a share of A's."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a_values, b_values, bound, better):
    a, b = summarize(a_values), summarize(b_values)
    if a["spread"] > bound or b["spread"] > bound:
        if better == "lower":
            clear = max(b_values) < min(a_values)
        else:
            clear = min(b_values) > max(a_values)
        return "agree" if clear else "unresolved"
    if worsening(a["median"], b["median"], better) > bound:
        return "worse"
    return "agree"


def compare(a_doc, b_doc, spec):
    """Rows of (workload, metric, A summary, B summary, bound, verdict)."""
    rows = []
    for name in a_doc["workloads"]:
        a_wl = a_doc["workloads"][name]
        b_wl = b_doc["workloads"].get(name)
        if b_wl is None:
            rows.append((name, "(missing)", None, None, None, "worse"))
            continue
        for metric in spec["end_to_end"]:
            a_vals = [run[metric["name"]] for run in a_wl["runs"]]
            b_vals = [run[metric["name"]] for run in b_wl["runs"]]
            if not a_vals or not b_vals:
                rows.append((name, metric["name"], None, None,
                             metric["bound"], "unresolved"))
                continue
            rows.append((name, metric["name"], summarize(a_vals),
                         summarize(b_vals), metric["bound"],
                         verdict(a_vals, b_vals, metric["bound"],
                                 metric["better"])))
        a_ff, b_ff = a_wl["failed_frac"], b_wl["failed_frac"]
        rows.append((name, "failed_frac", summarize([a_ff]),
                     summarize([b_ff]), 0.0,
                     "worse" if b_ff > a_ff else "agree"))
    return rows


def _fmt(s):
    if s is None:
        return f"{'-':>34}"
    return (f"{s['median']:>10.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
            f"n={s['n']}").rjust(34)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(docs[0], docs[1], spec)
    print(f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'bound':>6}  verdict")
    for name, metric, a, b, bound, result in rows:
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:<15} {metric:<13} {_fmt(a)} {_fmt(b)} "
              f"{bound_text:>6}  {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
