"""End-to-end benchmark: wall time to a Strober energy estimate.

One workload, one run (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload replay-heavy --seed 3 \
        --seconds 4 --trace 0

Every workload, one after another, with a results file for compare.py::

    python3 benchmarks/e2e/run.py --seed 0 --out <dir>

Load is one closed-loop caller: each ``run_strober`` call starts when the
previous one returns.  The program is driven only through its public API,
from measured child processes (child.py), each on its own artifact cache.
An untraced run (``--trace 0``) gives the end-to-end metrics:

* two cold processes side by side, one per CPU, each on an empty cache:
  their first-result times give ``setup_s``;
* when the first has exited, the second runs a warm loop for
  ``--seconds`` and at least five calls: ``run_s``, ``kips``, and
  ``peak_rss_mb`` after the cold call plus five warm calls;
* meanwhile, on the other CPU, three warm-start processes run one after
  another on the cache the first cold process filled: ``warm_start_s``.
  On ``journaled-2w``, whose calls use both CPUs, they run after the
  loop instead.

A traced run (``--trace 1``) gives the per-layer metrics from one traced
cold process and one traced warm-start process, and makes the untimed
reference calls.  Every call is checked (see README.md); a failed check
fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Everything a ``--workload`` run writes lives here and is removed when
# the run ends.
WORK = HERE / ".bench_work"

WARM_STARTS = 3        # one after another, beside the warm loop
MIN_WARM_CALLS = 5     # also the call after which peak RSS is read
TRACED_WARM_CALLS = 3  # untraced calls the tracing overhead is judged by
REPEAT = 5             # suite mode: untraced runs per workload
RUN_BUDGET_S = 170.0   # a run must end within 180 s


class RunFailed(Exception):
    pass


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env(cache, run_dir, sha):
    """The inherited environment minus every REPRO_* knob, plus ours."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(cache),
               REPRO_OBS_HISTORY=str(run_dir / "history.jsonl"),
               REPRO_GIT_SHA=sha or "unknown", TMPDIR=str(run_dir / "tmp"))
    return env


class Run:
    """One benchmark run of one workload: its processes and its files."""

    def __init__(self, workload, seed, run_dir, sha):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.sha = sha
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.procs = []
        self.results = []
        self._n = 0
        (run_dir / "tmp").mkdir(parents=True, exist_ok=True)

    def spawn(self, cache, **spec):
        self._n += 1
        name = f"p{self._n}"
        spec.update(workload=self.workload, seed=self.seed,
                    scratch=str(self.dir),
                    out=str(self.dir / f"{name}.json"))
        spec_path = self.dir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = child_env(self.dir / cache, self.dir, self.sha)
        log = open(self.dir / f"{name}.log", "w")
        env["E2E_SPAWN_T"] = repr(time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, text=True, start_new_session=True)
        log.close()
        proc.name = name
        self.procs.append(proc)
        return proc

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("run exceeded its time budget")
        return left

    def wait_line(self, proc):
        ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
        if not ready or not proc.stdout.readline():
            raise RunFailed(f"{proc.name} stopped before its first result")

    def finish(self, proc):
        """Wait for ``proc``; returns its result dict."""
        try:
            proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise RunFailed(
                f"{proc.name} exceeded the run's time budget") from None
        path = self.dir / f"{proc.name}.json"
        result = json.loads(path.read_text()) if path.exists() else {}
        if proc.returncode != 0 or result.get("failed") or not result:
            log = (self.dir / f"{proc.name}.log").read_text()[-2000:]
            sys.stderr.write(f"--- {proc.name} failed "
                             f"(exit {proc.returncode}):\n{log}\n")
            result.setdefault("failed", 1)
            result.setdefault("attempted", 1)
        self.results.append(result)
        return result

    def stop_all(self):
        """Stop every process this run started, and their children."""
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()

    # -- the two kinds of run ----------------------------------------------

    def untraced(self, seconds):
        """End-to-end metrics; returns their sample lists."""
        first = self.spawn("cache-a")
        loop = self.spawn("cache-b", wait_go=True,
                          warm={"seconds": seconds,
                                "min_calls": MIN_WARM_CALLS,
                                "rss_after": MIN_WARM_CALLS})
        cold = [self.finish(first)]
        self.wait_line(loop)
        loop.stdin.write("go\n")
        loop.stdin.flush()
        # Calls that use both CPUs run ~20% slower beside a warm start,
        # and only the first few warm calls would have one beside them.
        loop_first = WORKLOADS[self.workload].knobs.get("workers", 1) > 1
        if loop_first:
            cold.append(self.finish(loop))
        warm = [self.finish(self.spawn("cache-a"))
                for _ in range(WARM_STARTS)]
        if not loop_first:
            cold.append(self.finish(loop))
        self.check_results()
        instret = cold[1]["digests"][0][1]
        return {
            "setup_s": [r["first_s"] for r in cold],
            "run_s": cold[1]["run_s"],
            "kips": [instret / s / 1e3 for s in cold[1]["run_s"]],
            "warm_start_s": [r["first_s"] for r in warm],
            "peak_rss_mb": [cold[1]["peak_rss_mb"]],
        }

    def traced(self):
        """Per-layer metrics from a traced cold and warm-start process."""
        cold = self.finish(self.spawn(
            "cache-t", traced={"warm_calls": TRACED_WARM_CALLS}))
        warm = self.finish(self.spawn("cache-t", traced={"warm_calls": 0}))
        self.check_results()
        events = cold.pop("events") + warm.pop("events")
        (self.dir / "layers-trace.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return dict(cold["layers"], **warm["layers"])

    def check_results(self):
        if any(r.get("failed") for r in self.results):
            raise RunFailed("a measured process failed its checks")
        digests = {json.dumps(d) for r in self.results
                   for d in r.get("digests", [])}
        if len(digests) != 1:
            raise RunFailed(f"calls disagree on the result: {digests}")

    def counts(self):
        attempted = sum(r.get("attempted", 0) for r in self.results)
        failed = sum(r.get("failed", 0) for r in self.results)
        return max(attempted, 1), failed


def one_run(name, seed, seconds, trace, run_dir, sha):
    """(metrics or samples, attempted, failed, error) of one run."""
    run = Run(name, seed, run_dir, sha)
    values, error = {}, None
    try:
        values = run.traced() if trace else run.untraced(seconds)
    except RunFailed as exc:
        error = str(exc)
    finally:
        run.stop_all()
    attempted, failed = run.counts()
    if error is not None:
        failed = max(failed, 1)
    return values, attempted, failed, error


def metric_block(spec, key, values):
    """The metrics BENCHMARK.json lists under ``key``, with units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[key]}


def medians(samples):
    return {name: statistics.median(vals) for name, vals in samples.items()}


def environment(sha):
    def cc_version():
        try:
            out = subprocess.run(["cc", "--version"], capture_output=True,
                                 text=True, timeout=10)
            return out.stdout.splitlines()[0] if out.stdout else None
        except OSError:
            return None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "cc": cc_version(), "git_sha": sha,
            "machine": platform.machine()}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def prepare():
    """Fail fast without the program; byte-compile it outside any timing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program under {ROOT / 'src'}: run from a full "
                         f"checkout of the repository")
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src")], check=True,
                   stdout=subprocess.DEVNULL)


def new_run_dir(parent, label):
    run_dir = parent / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    return run_dir


def clean_run_dir(run_dir, keep):
    """Remove caches and scratch; ``keep`` also keeps logs and traces."""
    if not keep:
        shutil.rmtree(run_dir, ignore_errors=True)
        return
    for child in run_dir.iterdir():
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)
        elif child.suffix == ".rpj":
            child.unlink()


def single_run(args):
    spec = benchmark_spec()
    prepare()
    sha = git_sha()
    run_dir = new_run_dir(WORK, f"{args.workload}-s{args.seed}")
    try:
        values, attempted, failed, error = one_run(
            args.workload, args.seed, args.seconds, args.trace, run_dir, sha)
    finally:
        clean_run_dir(run_dir, keep=False)
        try:
            WORK.rmdir()    # unless another run is still using it
        except OSError:
            pass
    if error:
        print(f"run failed: {error}", file=sys.stderr)
    metrics = {}
    if not failed:
        values = values if args.trace else medians(values)
        metrics = metric_block(spec, "per_layer" if args.trace
                               else "end_to_end", values)
        for name, m in metrics.items():
            print(f"{args.workload:>15} {name:<28} {m['value']:>14.6g} "
                  f"{m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def suite(args):
    spec = benchmark_spec()
    prepare()
    sha = git_sha()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    seconds = spec["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds, "repeat": REPEAT,
           "environment": environment(sha), "workloads": {}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    all_ok = True
    for name in WORKLOADS:
        entry = {"runs": [], "samples": [], "attempted": 0, "failed": 0,
                 "errors": []}
        for i in range(REPEAT + 1):
            trace = i == REPEAT
            run_dir = new_run_dir(out, f"{name}-{'traced' if trace else i}")
            values, attempted, failed, error = one_run(
                name, args.seed, seconds, trace, run_dir, sha)
            clean_run_dir(run_dir, keep=True)
            entry["attempted"] += attempted
            entry["failed"] += failed
            if error:
                entry["errors"].append(error)
            if failed:
                continue
            if trace:
                entry["per_layer"] = values
            else:
                entry["samples"].append(values)
                entry["runs"].append(medians(values))
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        all_ok = all_ok and entry["failed"] == 0
        doc["workloads"][name] = entry
        print_workload(name, entry, units)
    path = out / "results.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"results: {path}")
    return 0 if all_ok else 1


def print_workload(name, entry, units):
    print(f"== {name}: {len(entry['runs'])} runs, "
          f"failed_frac {entry['failed_frac']:.4g}")
    for metric in units:
        if entry["runs"] and metric in entry["runs"][0]:
            vals = [r[metric] for r in entry["runs"]]
            value, n = statistics.median(vals), len(vals)
        elif metric in entry.get("per_layer", {}):
            value, n = entry["per_layer"][metric], 1
        else:
            continue
        print(f"  {metric:<28} {value:>14.6g} {units[metric]:<8} n={n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: warm-loop length "
                             "(default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: write results.json here")
    args = parser.parse_args(argv)
    if args.workload is not None:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        return single_run(args)
    if args.out is None:
        parser.error("give --workload (one run) or --out (every workload)")
    if args.seconds is not None:
        parser.error("--seconds goes with --workload; suite mode uses "
                     "BENCHMARK.json's run_seconds")
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
