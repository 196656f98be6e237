"""Performance-regression sentinel over the run-history store.

``python -m repro.obs.regress [--history PATH]`` ingests the
CRC-framed history JSONL (see :mod:`repro.obs.store`), groups records
into per-configuration series, computes a *rolling robust baseline*
for every numeric metric — median and MAD over the trailing window,
with a minimum-sample floor so two noisy points cannot declare a
trend — and compares each series' newest value against its own
history:

* a metric whose latest value sits more than ``--threshold`` robust
  z-scores (MAD-normalized) *and* more than ``--min-ratio`` relative
  change beyond its baseline median, in the metric's bad direction,
  is a **REGRESSION** and the process exits non-zero (CI gate);
* ``--warn-only`` downgrades regressions to warnings with exit 0 —
  the mode a repo runs in while its history is still shallow;
* everything else prints as a trend table (baseline median, latest,
  ratio, robust z), so the performance trajectory is visible on every
  CI run, not only when something breaks.

Both gates must trip together by design: the z-score alone fires on
near-zero-variance series where a 1% blip is "ten MADs", and the
ratio alone fires on noisy series where a 1.3x excursion is routine.
Median + MAD (not mean + stddev) keep one historical outlier — a
loaded CI runner, a cold cache — from inflating the baseline enough
to hide a real slowdown.

Metric direction comes from the name: duration-like metrics
(``*_seconds``, ``*_ms``, ``*ms_per*``, ``*latency*``, ``*overhead*``)
regress *upward*; throughput-like metrics (``*speedup*``, ``*per_s*``,
``*jobs_per*``, ``*rate*``, ``*hit_rate*``) regress *downward*;
anything else is reported but never gates (``--all`` gates those too,
treating higher as worse).
"""

from __future__ import annotations

import argparse
import json
import sys

from .store import HistoryStore, KIND_BENCH, KIND_RUN

DEFAULT_WINDOW = 20
DEFAULT_MIN_SAMPLES = 4
DEFAULT_THRESHOLD = 4.0
DEFAULT_MIN_RATIO = 0.25

# 1.4826 * MAD estimates the standard deviation of a normal sample
_MAD_SCALE = 1.4826

_HIGHER_IS_WORSE = ("seconds", "_ms", "ms_per", "latency", "overhead",
                    "_s_", "duration")
_LOWER_IS_WORSE = ("speedup", "per_s", "jobs_per", "rate", "ratio_x",
                   "throughput")


def metric_direction(name):
    """+1 = higher is worse, -1 = lower is worse, 0 = informational."""
    flat = name.lower()
    for token in _LOWER_IS_WORSE:
        if token in flat:
            return -1
    for token in _HIGHER_IS_WORSE:
        if token in flat:
            return +1
    return 0


def series_key(record):
    """The identity a record's metrics are comparable under.

    Runs group by (design, workload, knob tuple); benches by name.
    Knobs that change the work (workers, lanes, backend) must
    split the series — a 64-lane run is not slower than a 1-lane run,
    it is a different experiment.
    """
    if record.get("kind") == KIND_BENCH:
        return f"bench:{record.get('bench')}"
    config = record.get("config") or {}
    knobs = ",".join(f"{k}={config.get(k)}"
                     for k in sorted(config))
    return (f"run:{record.get('design')}/{record.get('workload')}"
            f"[{knobs}]")


def build_series(records):
    """{(series, metric): [values oldest..newest]} over valid rows."""
    series = {}
    for record in records:
        metrics = record.get("metrics")
        if not isinstance(metrics, dict):
            continue
        key = series_key(record)
        for name, value in metrics.items():
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                continue
            series.setdefault((key, name), []).append(float(value))
    return series


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_baseline(values):
    """(median, scaled-MAD) of a value list."""
    med = _median(values)
    mad = _median([abs(v - med) for v in values])
    return med, mad * _MAD_SCALE


def judge(values, *, window=DEFAULT_WINDOW,
          min_samples=DEFAULT_MIN_SAMPLES,
          threshold=DEFAULT_THRESHOLD, min_ratio=DEFAULT_MIN_RATIO,
          direction=+1):
    """Verdict dict for one series (oldest..newest values).

    The newest value is judged against the robust baseline of the
    ``window`` values before it.  Verdicts: ``insufficient`` (baseline
    below the min-sample floor), ``ok``, or ``regression``.
    """
    latest = values[-1]
    baseline = values[:-1][-window:]
    if len(baseline) < min_samples:
        return {"verdict": "insufficient", "latest": latest,
                "n_baseline": len(baseline), "median": None,
                "ratio": None, "z": None}
    median, sigma = robust_baseline(baseline)
    delta = (latest - median) * direction
    ratio = latest / median if median else float("inf")
    # Floor the spread at 1% of the median (or an absolute epsilon):
    # a bit-identical series has MAD 0 and would otherwise call any
    # measurable change an infinite z.
    sigma = max(sigma, abs(median) * 0.01, 1e-12)
    z = delta / sigma
    bad_ratio = ratio - 1.0 if direction > 0 else 1.0 - ratio
    regressed = (direction != 0 and z > threshold
                 and bad_ratio > min_ratio)
    return {"verdict": "regression" if regressed else "ok",
            "latest": latest, "n_baseline": len(baseline),
            "median": median, "ratio": ratio, "z": z}


def analyze(records, *, window=DEFAULT_WINDOW,
            min_samples=DEFAULT_MIN_SAMPLES,
            threshold=DEFAULT_THRESHOLD, min_ratio=DEFAULT_MIN_RATIO,
            gate_all=False, metric_filter=None):
    """[(series, metric, direction, verdict-dict)], sorted, judged."""
    rows = []
    for (key, metric), values in sorted(build_series(records).items()):
        if metric_filter and metric_filter not in metric:
            continue
        direction = metric_direction(metric)
        if direction == 0 and gate_all:
            direction = +1
        verdict = judge(values, window=window, min_samples=min_samples,
                        threshold=threshold, min_ratio=min_ratio,
                        direction=direction)
        if direction == 0 and verdict["verdict"] == "regression":
            verdict["verdict"] = "ok"      # informational metrics never gate
        rows.append((key, metric, direction, verdict))
    return rows


def render_table(rows):
    headers = ("series", "metric", "dir", "n", "baseline", "latest",
               "ratio", "z", "verdict")
    table = []
    for key, metric, direction, v in rows:
        table.append((
            key if len(key) <= 58 else key[:55] + "...",
            metric,
            {1: "^bad", -1: "vbad", 0: "info"}[direction],
            str(v["n_baseline"]),
            "-" if v["median"] is None else f"{v['median']:.4g}",
            f"{v['latest']:.4g}",
            "-" if v["ratio"] is None else f"{v['ratio']:.2f}x",
            "-" if v["z"] is None else f"{v['z']:+.1f}",
            v["verdict"].upper() if v["verdict"] == "regression"
            else v["verdict"],
        ))
    widths = [max(len(str(h)), *(len(r[i]) for r in table))
              if table else len(str(h))
              for i, h in enumerate(headers)]
    lines = ["  ".join(str(h).ljust(w)
                       for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in table)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Detect performance regressions in the repro "
                    "run-history store (median+MAD rolling baseline "
                    "per series; exits 1 on a regression).")
    parser.add_argument("--history", default=None,
                        help="history JSONL path (default: "
                             "$REPRO_OBS_HISTORY or the cache-root "
                             "history file)")
    parser.add_argument("--kind", choices=[KIND_RUN, KIND_BENCH, "all"],
                        default="all", help="record kinds to analyze")
    parser.add_argument("--metric", default=None,
                        help="only metrics whose name contains this "
                             "substring")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help=f"rolling baseline width (default "
                             f"{DEFAULT_WINDOW})")
    parser.add_argument("--min-samples", type=int,
                        default=DEFAULT_MIN_SAMPLES,
                        help=f"baseline points required before any "
                             f"verdict (default {DEFAULT_MIN_SAMPLES})")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help=f"robust z-score gate (default "
                             f"{DEFAULT_THRESHOLD})")
    parser.add_argument("--min-ratio", type=float,
                        default=DEFAULT_MIN_RATIO,
                        help=f"relative-change gate (default "
                             f"{DEFAULT_MIN_RATIO} = 25%%)")
    parser.add_argument("--all", action="store_true",
                        help="gate direction-less metrics too "
                             "(treating higher as worse)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (bootstrap "
                             "mode while the history is shallow)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable verdicts on stdout")
    args = parser.parse_args(argv)

    store = HistoryStore(args.history)
    if not store.enabled:
        print("history store disabled (REPRO_OBS_HISTORY); "
              "nothing to analyze")
        return 0
    records = store.read()
    if args.kind != "all":
        records = [r for r in records if r.get("kind") == args.kind]
    if not records:
        print(f"history store {store.path}: no records yet")
        return 0

    rows = analyze(records, window=args.window,
                   min_samples=args.min_samples,
                   threshold=args.threshold, min_ratio=args.min_ratio,
                   gate_all=args.all, metric_filter=args.metric)
    regressions = [(k, m) for k, m, _, v in rows
                   if v["verdict"] == "regression"]
    if args.json:
        # stdout stays pure JSON; the human regression lines go to
        # stderr so `regress --json | jq` works.
        print(json.dumps(
            [{"series": k, "metric": m, "direction": d, **v}
             for k, m, d, v in rows], indent=2, sort_keys=True))
        regressions_found = [(k, m) for k, m, _, v in rows
                             if v["verdict"] == "regression"]
        for key, metric in regressions_found:
            print(f"REGRESSION: {key} :: {metric}", file=sys.stderr)
        if regressions_found and not args.warn_only:
            return 1
        return 0
    else:
        print(f"== repro perf trend: {len(records)} record(s), "
              f"{len(rows)} series-metric pair(s), window "
              f"{args.window}, gate z>{args.threshold:g} and "
              f"|ratio-1|>{args.min_ratio:g} ==")
        print(render_table(rows))
    if regressions:
        print()
        for key, metric in regressions:
            print(f"REGRESSION: {key} :: {metric}")
        if args.warn_only:
            print("(--warn-only: not failing the build)")
            return 0
        return 1
    print()
    print("no regressions detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
