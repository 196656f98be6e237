"""Observability layer (repro.obs): span nesting and ordering, the
no-op tracer's overhead bound, metrics registry semantics, Chrome-trace
export schema, cross-process capture under the replay worker pool,
cache-stats-from-registry visibility, the report CLI, and the
tolerant ``_merge_timings``."""

import json
import sys
import threading
import time

import pytest

from repro.core import run_strober
from repro.core.flow import _merge_timings
from repro.obs import (
    MetricsRegistry, NullTracer, Tracer, chrome_trace_events,
    export_chrome_trace, export_metrics_jsonl, get_registry, get_tracer,
    load_trace, set_tracer, tracing_enabled,
)
from repro.obs.report import (
    build_phase_tree, phase_coverage, render_report, root_pid,
    root_span, sampling_series, worker_rows,
)
from repro.parallel import cache_stats, reset_cache_stats


@pytest.fixture
def tracer():
    """A collecting tracer installed for the duration of one test."""
    t = Tracer()
    prev = set_tracer(t)
    yield t
    set_tracer(prev)


class TestSpans:
    def test_nesting_links_parent_child(self, tracer):
        with tracer.span("outer", cat="t") as outer:
            with tracer.span("inner", cat="t") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # completion order: inner closes first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_span_timing_and_attrs(self, tracer):
        with tracer.span("work", cat="t", fixed=1) as span:
            time.sleep(0.01)
            span.set(late=2)
        rec = tracer.find("work")[0]
        assert rec.dur >= 0.01
        assert rec.ts > 0
        assert rec.args == {"fixed": 1, "late": 2}
        assert rec.pid > 0 and rec.tid > 0

    def test_exception_recorded_and_propagated(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        rec = tracer.find("boom")[0]
        assert rec.args["error"] == "ValueError"

    def test_sibling_ordering(self, tracer):
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        names = [s.name for s in tracer.spans]
        assert names == ["a", "b", "c"]
        ts = [s.ts for s in tracer.spans]
        assert ts == sorted(ts)

    def test_threads_get_independent_stacks(self, tracer):
        seen = {}

        def worker(tag):
            with tracer.span(f"thread.{tag}") as span:
                seen[tag] = span.parent_id

        with tracer.span("main"):
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # the "main" span belongs to the main thread's stack only; the
        # worker threads' spans must not claim it as parent
        assert all(parent is None for parent in seen.values())

    def test_drain_ingest_round_trip(self, tracer):
        with tracer.span("shipped", cat="w", k=1):
            pass
        tracer.instant("incident", cat="w", detail="d")
        tracer.counter("level", 3.5)
        payload = tracer.drain()
        assert tracer.spans == [] and tracer.events == []
        other = Tracer()
        other.ingest(payload)
        assert other.find("shipped")[0].args == {"k": 1}
        assert other.events[0]["name"] == "incident"
        assert other.counters[0]["value"] == 3.5


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert isinstance(get_tracer(), NullTracer)
        assert not tracing_enabled()

    def test_null_records_nothing(self):
        null = NullTracer()
        with null.span("x", cat="y", a=1) as span:
            span.set(b=2)
        null.instant("e")
        null.counter("c", 1)
        assert null.drain() is None
        assert not null.enabled

    def test_noop_overhead_bound(self):
        """Instrumentation left in hot loops must stay near-free when
        tracing is off: the no-op span adds at most a few hundred ns
        per call over the bare loop."""
        null = NullTracer()
        n = 50_000

        def bare():
            acc = 0
            for i in range(n):
                acc += i
            return acc

        def spanned():
            acc = 0
            for i in range(n):
                with null.span("hot"):
                    acc += i
            return acc

        bare()     # warm up
        spanned()
        t0 = time.perf_counter()
        bare()
        t_bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        spanned()
        t_spanned = time.perf_counter() - t0
        per_call = (t_spanned - t_bare) / n
        assert per_call < 2e-6


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        hist = reg.histogram("h", (1, 4, 16))
        for v in (0.5, 3, 3, 100):
            hist.observe(v)
        assert reg.value("c") == 3.5
        assert reg.value("g") == 7.0
        assert reg.value("h") == pytest.approx((0.5 + 3 + 3 + 100) / 4)
        assert hist.counts == [1, 2, 0, 1]
        assert reg.value("missing", default=-1) == -1

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_merge_semantics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1)
        reg.gauge("g").set(1)
        reg.histogram("h", (10,)).observe(5)
        worker = MetricsRegistry()
        worker.counter("c").inc(4)
        worker.gauge("g").set(9)
        worker.histogram("h", (10,)).observe(20)
        reg.merge(worker.drain())
        assert worker.snapshot() == {}          # drain resets
        assert reg.value("c") == 5.0            # counters add
        assert reg.value("g") == 9.0            # gauges take newest
        assert reg.get("h").counts == [1, 1]    # buckets add
        assert reg.get("h").count == 2

    def test_merge_histogram_boundary_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", (10,))
        with pytest.raises(ValueError):
            reg.merge({"h": {"kind": "histogram", "boundaries": [99],
                             "counts": [0, 0], "total": 0, "count": 0}})

    def test_reset_prefix(self):
        reg = MetricsRegistry()
        reg.counter("a.x").inc()
        reg.counter("b.y").inc()
        reg.reset("a.")
        assert reg.value("a.x") == 0.0
        assert reg.value("b.y") == 1.0


class TestChromeExport:
    def test_schema(self, tracer, tmp_path):
        with tracer.span("root", cat="flow"):
            with tracer.span("child", cat="flow", lanes=4):
                pass
        tracer.instant("mark", cat="ev")
        tracer.counter("track", 1.0)
        reg = MetricsRegistry()
        reg.counter("m").inc()
        path = tmp_path / "t.json"
        export_chrome_trace(path, tracer, registry=reg,
                            meta={"design": "d"})
        doc = load_trace(path)
        events = doc["traceEvents"]
        assert isinstance(events, list)
        by_ph = {}
        for ev in events:
            by_ph.setdefault(ev["ph"], []).append(ev)
        for ev in by_ph["X"]:
            assert {"name", "cat", "ts", "dur", "pid", "tid",
                    "args"} <= set(ev)
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert len(by_ph["X"]) == 2
        assert by_ph["i"][0]["s"] == "p"
        assert by_ph["C"][0]["args"] == {"value": 1.0}
        assert by_ph["M"][0]["name"] == "process_name"
        # child interval contained in parent's (report relies on this)
        child = next(e for e in by_ph["X"] if e["name"] == "child")
        root = next(e for e in by_ph["X"] if e["name"] == "root")
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1
        assert doc["reproMeta"]["design"] == "d"
        assert doc["reproMetrics"]["m"]["value"] == 1.0

    def test_non_json_attrs_stringified(self, tracer):
        with tracer.span("s", obj=object(), ok=3):
            pass
        events, _ = chrome_trace_events(tracer)
        args = events[0]["args"]
        assert args["ok"] == 3
        assert isinstance(args["obj"], str)
        json.dumps(events)      # must not raise

    def test_load_trace_rejects_non_trace(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{\"nope\": 1}")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_metrics_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(3)
        path = tmp_path / "m.jsonl"
        export_metrics_jsonl(path, reg)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines == [
            {"kind": "counter", "name": "a", "value": 2.0},
            {"kind": "gauge", "name": "b", "value": 3.0},
        ]


class TestCacheStatsRegistry:
    def test_stats_are_registry_backed(self):
        reset_cache_stats()
        stats = cache_stats()
        assert stats == {"hits": 0, "misses": 0, "corrupt_dropped": 0,
                         "put_skipped": 0, "sched_seconds_saved": 0.0,
                         "csim.stale": 0, "glso.stale": 0,
                         "quarantined": 0}
        assert all(isinstance(v, int) for k, v in stats.items()
                   if k != "sched_seconds_saved")
        get_registry().counter("cache.hits").inc(3)
        assert cache_stats()["hits"] == 3
        reset_cache_stats()
        assert cache_stats()["hits"] == 0


class TestMergeTimings:
    class _FakeReport:
        pipeline = "fake"

        def per_pass_seconds(self):
            return {"p1": 1.0, "p2": 2.0}

        def as_dict(self):
            return {"pipeline": self.pipeline}

    def test_none_mid_list_does_not_drop_later_reports(self):
        """A None report anywhere in the list (resumed sim, cache-hit
        flow) must not stop later pipelines' pass timings from being
        merged."""
        timings = _merge_timings({}, ("sim_pipeline", None),
                                 ("asic_pipeline", self._FakeReport()))
        assert timings["sim_pipeline"] is None
        assert timings["asic_pipeline"] == {"pipeline": "fake"}
        assert timings["passes"] == {"fake/p1": 1.0, "fake/p2": 2.0}

    def test_report_without_per_pass_seconds_tolerated(self):
        timings = _merge_timings({}, ("asic_pipeline", object()))
        assert timings["asic_pipeline"] is None
        assert timings["passes"] == {}

    def test_all_present(self):
        timings = _merge_timings({"x": 1}, ("a", self._FakeReport()),
                                 ("b", self._FakeReport()))
        assert timings["x"] == 1
        assert timings["a"] == timings["b"] == {"pipeline": "fake"}


@pytest.fixture(scope="module")
def traced_worker_run(tmp_path_factory):
    """One small end-to-end run, traced, with a 2-process worker pool."""
    path = tmp_path_factory.mktemp("obs") / "trace.json"
    run = run_strober("rocket_mini", "towers", sample_size=6,
                      replay_length=32, backend="auto", seed=3,
                      workers=2, batch_lanes=2, trace=str(path))
    return run, load_trace(path)


class TestEndToEndTrace:
    def test_trace_path_recorded(self, traced_worker_run):
        run, doc = traced_worker_run
        assert run.trace_path.endswith("trace.json")

    def test_spans_from_distinct_pids(self, traced_worker_run):
        _, doc = traced_worker_run
        pids = {ev["pid"] for ev in doc["traceEvents"]
                if ev["ph"] == "X"}
        assert len(pids) >= 3      # parent + 2 replay workers

    def test_worker_parent_links_intact(self, traced_worker_run):
        """Every non-root span in every process must point at a parent
        span recorded by the same process."""
        _, doc = traced_worker_run
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        by_id = {ev["args"]["span_id"]: ev for ev in spans}
        roots = 0
        for ev in spans:
            parent_id = ev["args"]["parent_id"]
            if parent_id is None:
                roots += 1
                continue
            assert parent_id in by_id
            assert by_id[parent_id]["pid"] == ev["pid"]
        assert roots >= 3          # one root per traced process

    def test_phase_coverage(self, traced_worker_run):
        _, doc = traced_worker_run
        assert phase_coverage(doc) >= 0.9

    def test_phase_tree_shape(self, traced_worker_run):
        _, doc = traced_worker_run
        tree = build_phase_tree(doc)
        top = tree.children["strober.run"]
        assert {"phase.sim", "phase.flow", "phase.replay",
                "phase.energy"} <= set(top.children)
        run_span = root_span(doc)
        assert run_span["name"] == "strober.run"
        assert run_span["pid"] == root_pid(doc)

    def test_worker_rows(self, traced_worker_run):
        _, doc = traced_worker_run
        rows = worker_rows(doc)
        assert len(rows) == 2
        assert all(tasks >= 1 and busy > 0 for _, tasks, busy, _ in rows)
        # 6 snapshots at 2 lanes = 3 batches; every task span must be
        # in the trace (workers flush spans before each result, so the
        # last task's trace cannot be lost to supervisor teardown)
        assert sum(tasks for _, tasks, _, _ in rows) == 3

    def test_sampling_telemetry_converges(self, traced_worker_run):
        _, doc = traced_worker_run
        series = sampling_series(doc)
        assert len(series) >= 2
        assert [n for n, _, _ in series] == sorted(
            n for n, _, _ in series)
        assert series[-1][2] < series[0][2]    # error bound shrinks

    def test_timings_derived_from_spans(self, traced_worker_run):
        run, _ = traced_worker_run
        for key in ("sim_seconds", "flow_seconds", "replay_seconds",
                    "energy_seconds"):
            assert run.timings[key] >= 0
        assert run.timings["replay_seconds"] > 0
        assert any(name.startswith("strober-compile/")
                   for name in run.timings["passes"])

    def test_report_renders(self, traced_worker_run):
        _, doc = traced_worker_run
        text = render_report(doc)
        assert "phase-time tree" in text
        assert "worker utilization" in text
        assert "artifact cache" in text
        assert "sampling-error telemetry" in text
        assert "strober.run" in text

    def test_report_cli(self, traced_worker_run, capsys):
        from repro.obs.report import main
        run, _ = traced_worker_run
        assert main([run.trace_path]) == 0
        out = capsys.readouterr().out
        assert "strober run report" in out

    def test_global_tracer_restored(self, traced_worker_run):
        assert isinstance(get_tracer(), NullTracer)


class TestUntracedRun:
    def test_timings_still_populated(self):
        run = run_strober("rocket_mini", "towers", sample_size=2,
                          replay_length=32, backend="auto", seed=3)
        assert run.trace_path is None
        assert run.timings["replay_seconds"] > 0
        assert isinstance(get_tracer(), NullTracer)

    def test_run_key_assigned_and_stable(self):
        from repro.core.flow import compute_run_key
        a = compute_run_key("rocket_mini", "towers", 2, 32, 2_000_000,
                            3, None)
        b = compute_run_key("rocket_mini", "towers", 2, 32, 2_000_000,
                            3, None)
        c = compute_run_key("rocket_mini", "towers", 2, 32, 2_000_000,
                            4, None)
        assert a == b != c
        assert len(a) == 12


class TestCorrelation:
    def test_spans_and_instants_stamped(self):
        t = Tracer(correlation={"job_id": "job-7"})
        with t.span("work", cat="x"):
            pass
        t.instant("mark", cat="x")
        assert t.find("work")[0].args["job_id"] == "job-7"
        assert t.events[0]["args"]["job_id"] == "job-7"

    def test_explicit_attr_wins_over_correlation(self):
        t = Tracer(correlation={"job_id": "outer"})
        with t.span("work", job_id="inner"):
            pass
        t.instant("mark", job_id="inner")
        assert t.find("work")[0].args["job_id"] == "inner"
        assert t.events[0]["args"]["job_id"] == "inner"

    def test_set_correlation_updates_and_ignores_none(self):
        t = Tracer()
        t.set_correlation(run_key="abc", job_id=None)
        assert t.correlation == {"run_key": "abc"}
        with t.span("late"):
            pass
        assert t.find("late")[0].args["run_key"] == "abc"

    def test_null_tracer_accepts_correlation_calls(self):
        null = NullTracer()
        null.set_correlation(run_key="abc")    # no-op, no error
        assert null.correlation == {}

    def test_run_key_stamped_across_worker_pids(self, traced_worker_run):
        """The flow's run_key must land on every span of every traced
        process — the supervisor ships the correlation dict to replay
        workers in the spawn payload."""
        run, doc = traced_worker_run
        assert run.run_key
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len({ev["pid"] for ev in spans}) >= 3
        for ev in spans:
            assert ev["args"]["run_key"] == run.run_key
        assert doc["reproMeta"]["run_key"] == run.run_key

    def test_report_shows_run_key(self, traced_worker_run):
        from repro.obs.report import render_report
        run, doc = traced_worker_run
        assert f"run_key={run.run_key}" in render_report(doc)


class TestMergeSource:
    def test_mismatch_error_names_source(self):
        reg = MetricsRegistry()
        reg.histogram("h", (10,))
        payload = {"h": {"kind": "histogram", "boundaries": [99],
                         "counts": [0, 0], "total": 0, "count": 0}}
        with pytest.raises(ValueError, match=r"worker-pid-1234"):
            reg.merge(payload, source="worker-pid-1234")
        with pytest.raises(ValueError, match=r"boundary mismatch"):
            reg.merge(payload)     # sourceless merges still typed

    def test_unknown_kind_names_source(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match=r"job-3"):
            reg.merge({"x": {"kind": "banana", "value": 1}},
                      source="job-3")


class TestConcurrentDrainMerge:
    def test_totals_conserved_under_contention(self):
        """Worker registries hammered by increments while a merger
        thread drains them into a parent: nothing lost, nothing
        double-counted, no boundary errors."""
        parent = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(4)]
        per_thread = 2000
        stop = threading.Event()
        errors = []

        def producer(reg):
            try:
                for i in range(per_thread):
                    reg.counter("c").inc()
                    reg.histogram("h", (1, 10)).observe(i % 20)
            except Exception as exc:        # pragma: no cover
                errors.append(exc)

        def merger():
            try:
                while not stop.is_set():
                    for i, reg in enumerate(workers):
                        parent.merge(reg.drain(), source=f"worker-{i}")
            except Exception as exc:        # pragma: no cover
                errors.append(exc)

        producers = [threading.Thread(target=producer, args=(reg,))
                     for reg in workers]
        merge_thread = threading.Thread(target=merger)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # interleave as often as possible
        try:
            merge_thread.start()
            for t in producers:
                t.start()
            for t in producers:
                t.join(timeout=60)
            stop.set()
            merge_thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*producers, merge_thread])
        for i, reg in enumerate(workers):   # final sweep
            parent.merge(reg.drain(), source=f"worker-{i}")
        assert not errors
        assert parent.value("c") == 4 * per_thread
        hist = parent.get("h")
        assert hist.count == 4 * per_thread
        assert sum(hist.counts) == 4 * per_thread

    def test_update_through_a_held_reference_survives_drain(self):
        """A producer that took its instrument before a drain and updates
        it after: the update ships with the next drain."""
        reg = MetricsRegistry()
        counter, hist = reg.counter("c"), reg.histogram("h", (1,))
        counter.inc()
        hist.observe(0)
        first = reg.drain()
        counter.inc(2)
        hist.observe(5)
        second = reg.drain()
        assert first["c"]["value"] == 1.0
        assert second["c"]["value"] == 2.0
        assert first["h"]["counts"] == [1, 0]
        assert second["h"]["counts"] == [0, 1]
        assert reg.drain() == {}


class TestPromExposition:
    def test_registry_families_render_and_validate(self):
        from repro.obs import render_exposition, validate_exposition
        reg = MetricsRegistry()
        reg.counter("service.jobs_done").inc(42)
        reg.gauge("service.queue_depth").set(3)
        hist = reg.histogram("service.job_seconds", (1, 5))
        for v in (0.5, 2, 20):
            hist.observe(v)
        page = render_exposition(registry=reg)
        assert validate_exposition(page) == []
        assert "# TYPE repro_service_jobs_done_total counter" in page
        assert "repro_service_jobs_done_total 42" in page
        assert "repro_service_queue_depth 3" in page
        # cumulative buckets + mandatory +Inf terminal
        assert 'repro_service_job_seconds_bucket{le="1"} 1' in page
        assert 'repro_service_job_seconds_bucket{le="5"} 2' in page
        assert 'repro_service_job_seconds_bucket{le="+Inf"} 3' in page
        assert "repro_service_job_seconds_count 3" in page

    def test_labeled_samples_group_into_families(self):
        from repro.obs import (
            Sample, render_exposition, validate_exposition,
        )
        page = render_exposition(samples=[
            Sample("service.breaker_floor_info", 1,
                   labels={"design": "a", "floor": "interp"}),
            Sample("service.breaker_floor_info", 1,
                   labels={"design": "b", "floor": "none"}),
        ])
        assert validate_exposition(page) == []
        assert page.count("# TYPE repro_service_breaker_floor_info") == 1
        assert ('repro_service_breaker_floor_info'
                '{design="a",floor="interp"} 1') in page

    def test_label_values_escaped(self):
        from repro.obs import (
            Sample, render_exposition, validate_exposition,
        )
        page = render_exposition(samples=[
            Sample("weird", 1, labels={"x": 'a"b\\c\nd'})])
        assert validate_exposition(page) == []
        assert r'x="a\"b\\c\nd"' in page

    def test_process_health_samples(self):
        from repro.obs import (
            process_health_samples, render_exposition,
            validate_exposition,
        )
        samples = process_health_samples()
        names = {s.name for s in samples}
        assert "process.rss_bytes" in names
        assert all(s.value > 0 for s in samples)
        page = render_exposition(samples=samples)
        assert validate_exposition(page) == []

    def test_validator_catches_broken_pages(self):
        from repro.obs import validate_exposition
        assert validate_exposition("repro_x 1")          # no newline
        assert validate_exposition("not a sample !!\n")
        assert validate_exposition("# TYPE bad kind_of\n")
        # TYPE after its samples
        page = "repro_x 1\n# TYPE repro_x counter\n"
        assert any("after its samples" in e
                   for e in validate_exposition(page))
        # histogram without +Inf
        page = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n')
        assert any("+Inf" in e for e in validate_exposition(page))
        # non-cumulative buckets
        page = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 3\n")
        assert any("monotone" in e for e in validate_exposition(page))

    def test_conflicting_sample_kinds_rejected(self):
        from repro.obs import Sample, render_exposition
        with pytest.raises(ValueError, match="conflicting kinds"):
            render_exposition(samples=[
                Sample("x", 1, kind="gauge"),
                Sample("x", 2, kind="untyped")])
