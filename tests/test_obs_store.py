"""Run-history store and regression sentinel (repro.obs.store /
repro.obs.regress): CRC framing, torn-tail and foreign-schema skip,
concurrent multi-process appends, the record builders' schema, and the
sentinel's verdicts on synthetic performance trajectories."""

import json
import multiprocessing
import os
import zlib
from types import SimpleNamespace

import pytest

from repro.obs import (
    HistoryStore, append_bench_record, append_run_record, bench_record,
    default_history_path, get_registry, history_enabled, run_record,
)
from repro.obs.store import KIND_BENCH, KIND_RUN, MAGIC, SCHEMA_VERSION
from repro.obs.regress import (
    analyze, judge, main as regress_main, metric_direction, series_key,
)


@pytest.fixture
def store(tmp_path):
    return HistoryStore(str(tmp_path / "history.jsonl"))


def _fake_run(**overrides):
    base = dict(
        design="rocket_mini", workload="towers", wall_seconds=1.5,
        replays=[object()] * 3,
        result=SimpleNamespace(cycles=1000),
        sampling={"stop_reason": "target", "rel_error": 0.04, "n": 3},
        run_key="abc123def456",
        timings={"sim_seconds": 0.5, "flow_seconds": 0.3,
                 "replay_seconds": 0.6, "energy_seconds": 0.1,
                 "workers": 2, "batch_lanes": 8, "rtl_backend": "python",
                 "gl_backend": "interp", "flow_cache_hit": True})
    base.update(overrides)
    return SimpleNamespace(**base)


class TestFramingAndAppend:
    def test_append_read_round_trip(self, store):
        store.append({"kind": KIND_BENCH, "bench": "b",
                      "metrics": {"x_seconds": 1.0}})
        store.append({"kind": KIND_RUN, "design": "d"})
        records = store.read()
        assert len(records) == 2
        assert records[0]["kind"] == KIND_BENCH
        assert records[1]["kind"] == KIND_RUN
        # every record is stamped
        for record in records:
            assert record["v"] == SCHEMA_VERSION
            assert record["ts"] > 0
            assert record["pid"] == os.getpid()
            assert record["host"]

    def test_lines_are_crc_framed(self, store):
        store.append({"kind": KIND_BENCH, "bench": "b"})
        raw = open(store.path, "rb").read()
        assert raw.endswith(b"\n")
        magic, crc_hex, payload = raw[:-1].split(b" ", 2)
        assert magic == MAGIC.encode()
        assert int(crc_hex, 16) == zlib.crc32(payload) & 0xFFFFFFFF
        json.loads(payload)     # payload is plain JSON

    def test_kind_filter(self, store):
        store.append({"kind": KIND_BENCH, "bench": "b"})
        store.append({"kind": KIND_RUN, "design": "d"})
        assert len(store.read(kind=KIND_RUN)) == 1
        assert store.read(kind=KIND_RUN)[0]["design"] == "d"

    def test_missing_file_reads_empty(self, store):
        assert store.read() == []

    def test_disabled_store_is_noop(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HISTORY", "off")
        assert default_history_path() is None
        assert not history_enabled()
        disabled = HistoryStore()
        assert not disabled.enabled
        assert disabled.append({"kind": KIND_BENCH}) is None
        assert disabled.read() == []

    def test_env_path_wins(self, monkeypatch, tmp_path):
        target = str(tmp_path / "explicit.jsonl")
        monkeypatch.setenv("REPRO_OBS_HISTORY", target)
        assert default_history_path() == target
        assert HistoryStore().path == target

    def test_default_path_under_cache_root(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_OBS_HISTORY", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = default_history_path()
        assert path == str(tmp_path / "cache" / "history"
                           / "history.jsonl")


class TestTolerantRead:
    def test_torn_tail_skipped_not_fatal(self, store):
        store.append({"kind": KIND_BENCH, "bench": "a"})
        store.append({"kind": KIND_BENCH, "bench": "b"})
        # Simulate a writer killed mid-append: truncate the last line.
        raw = open(store.path, "rb").read()
        open(store.path, "wb").write(raw[:-10])
        before = get_registry().value("obs.history.torn_tail")
        with pytest.warns(RuntimeWarning, match="corrupt/torn"):
            records = store.read()
        assert [r["bench"] for r in records] == ["a"]
        assert get_registry().value("obs.history.torn_tail") == before + 1

    def test_append_continues_past_torn_tail(self, store):
        store.append({"kind": KIND_BENCH, "bench": "a"})
        with open(store.path, "ab") as f:
            f.write(b"RH1 deadbeef {\"torn")     # no newline, bad crc
        store.append({"kind": KIND_BENCH, "bench": "b"})
        # The torn fragment corrupts the line it shares with the next
        # append; everything before and after parses.
        with pytest.warns(RuntimeWarning):
            benches = [r["bench"] for r in store.read()]
        assert "a" in benches

    def test_corrupt_middle_line_skipped(self, store):
        store.append({"kind": KIND_BENCH, "bench": "a"})
        with open(store.path, "ab") as f:
            f.write(b"garbage line no frame\n")
        store.append({"kind": KIND_BENCH, "bench": "b"})
        before = get_registry().value("obs.history.skipped_corrupt")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            records = store.read()
        assert [r["bench"] for r in records] == ["a", "b"]
        assert (get_registry().value("obs.history.skipped_corrupt")
                == before + 1)

    def test_crc_mismatch_detected(self, store):
        store.append({"kind": KIND_BENCH, "bench": "a", "n": 1})
        raw = open(store.path, "rb").read()
        # Flip a payload byte without updating the CRC.
        open(store.path, "wb").write(raw.replace(b'"n":1', b'"n":7'))
        with pytest.warns(RuntimeWarning):
            assert store.read() == []

    def test_foreign_schema_version_skipped(self, store):
        store.append({"kind": KIND_BENCH, "bench": "old"})
        future = json.dumps({"v": SCHEMA_VERSION + 5, "kind": "run",
                             "shiny": True}).encode()
        crc = zlib.crc32(future) & 0xFFFFFFFF
        with open(store.path, "ab") as f:
            f.write(b"%s %08x " % (MAGIC.encode(), crc) + future + b"\n")
        before = get_registry().value("obs.history.skipped_foreign")
        with pytest.warns(RuntimeWarning, match="newer schema"):
            records = store.read()
        assert [r["bench"] for r in records] == ["old"]
        assert (get_registry().value("obs.history.skipped_foreign")
                == before + 1)


def _append_batch(path, tag, count):
    store = HistoryStore(path)
    for i in range(count):
        store.append({"kind": KIND_BENCH, "bench": f"{tag}-{i}",
                      "metrics": {"pad_seconds": float(i)}})


class TestConcurrentAppends:
    def test_two_processes_interleave_whole_lines(self, store):
        procs = [multiprocessing.Process(
            target=_append_batch, args=(store.path, tag, 50))
            for tag in ("p1", "p2")]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        records = store.read()     # no warning: nothing torn
        benches = [r["bench"] for r in records]
        assert len(benches) == 100
        assert set(benches) == {f"p{n}-{i}"
                                for n in (1, 2) for i in range(50)}
        # per-writer order is preserved even when interleaved
        for tag in ("p1", "p2"):
            mine = [b for b in benches if b.startswith(tag)]
            assert mine == [f"{tag}-{i}" for i in range(50)]


class TestRecordBuilders:
    def test_run_record_schema(self):
        record = run_record(_fake_run())
        assert record["kind"] == KIND_RUN
        assert record["design"] == "rocket_mini"
        assert record["run_key"] == "abc123def456"
        assert record["config"] == {"workers": 2, "batch_lanes": 8,
                                    "rtl_backend": "python",
                                    "gl_backend": "interp"}
        assert record["metrics"]["wall_seconds"] == 1.5
        assert record["metrics"]["sim_seconds"] == 0.5
        assert record["snapshots"] == 3
        assert record["cycles"] == 1000
        assert record["flow_cache_hit"] is True
        assert record["sampling"]["stop_reason"] == "target"

    def test_bench_record_lifts_numeric_scalars(self):
        record = bench_record("bench_x", {
            "speedup": 3.5, "lanes": 8, "label": "text",
            "nested": {"x": 1}, "flag": True})
        assert record["kind"] == KIND_BENCH
        assert record["bench"] == "bench_x"
        assert record["metrics"] == {"speedup": 3.5, "lanes": 8}

    def test_append_helpers_never_raise(self, tmp_path):
        # A store pointed at an unwritable path must not fail the run.
        bad = HistoryStore(str(tmp_path / "missing" / "x" / "\0bad"))
        before = get_registry().value("obs.history.append_errors")
        assert append_run_record(_fake_run(), store=bad) is None
        assert append_bench_record("b", {"x": 1}, store=bad) is None
        assert (get_registry().value("obs.history.append_errors")
                == before + 2)

    def test_append_run_record_round_trip(self, store):
        stamped = append_run_record(_fake_run(), store=store)
        assert stamped["kind"] == KIND_RUN
        assert store.read(kind=KIND_RUN)[0]["run_key"] == "abc123def456"


class TestDirectionAndSeries:
    def test_metric_direction(self):
        assert metric_direction("wall_seconds") == +1
        assert metric_direction("replay_seconds") == +1
        assert metric_direction("noop_overhead_fraction") == +1
        assert metric_direction("speedup") == -1
        assert metric_direction("jobs_per_minute") == -1
        assert metric_direction("hit_rate") == -1
        assert metric_direction("cycles") == 0

    def test_series_key_splits_configs(self):
        a = {"kind": KIND_RUN, "design": "d", "workload": "w",
             "config": {"workers": 1, "batch_lanes": 1}}
        b = {"kind": KIND_RUN, "design": "d", "workload": "w",
             "config": {"workers": 4, "batch_lanes": 64}}
        assert series_key(a) != series_key(b)
        bench = {"kind": KIND_BENCH, "bench": "b1"}
        assert series_key(bench) == "bench:b1"


def _bench_rows(values, bench="replay", metric="replay_seconds"):
    return [{"kind": KIND_BENCH, "bench": bench,
             "metrics": {metric: v}} for v in values]


class TestSentinelVerdicts:
    def test_clean_trajectory_is_ok(self):
        rows = analyze(_bench_rows([1.0, 1.02, 0.99, 1.01, 1.0, 0.98]))
        assert [v["verdict"] for _, _, _, v in rows] == ["ok"]

    def test_2x_slowdown_detected(self):
        values = [1.0, 1.02, 0.99, 1.01, 1.0, 0.98, 2.0]
        rows = analyze(_bench_rows(values))
        (_, metric, direction, verdict), = rows
        assert metric == "replay_seconds"
        assert direction == +1
        assert verdict["verdict"] == "regression"
        assert verdict["ratio"] == pytest.approx(2.0, rel=0.05)

    def test_noisy_but_flat_stays_green(self):
        # 30% swings around a flat median: the ratio gate alone would
        # fire, the combined z+ratio gate must not.
        values = [1.0, 1.3, 0.8, 1.25, 0.75, 1.2, 0.85, 1.3, 0.8, 1.28]
        rows = analyze(_bench_rows(values))
        assert [v["verdict"] for _, _, _, v in rows] == ["ok"]

    def test_throughput_drop_detected(self):
        values = [10.0, 10.2, 9.9, 10.1, 10.0, 4.5]
        rows = analyze(_bench_rows(values, metric="speedup"))
        (_, _, direction, verdict), = rows
        assert direction == -1
        assert verdict["verdict"] == "regression"

    def test_improvement_never_gates(self):
        values = [1.0, 1.02, 0.99, 1.01, 1.0, 0.4]    # 2.5x faster
        rows = analyze(_bench_rows(values))
        assert rows[0][3]["verdict"] == "ok"

    def test_min_sample_floor(self):
        rows = analyze(_bench_rows([1.0, 1.0, 5.0]))
        assert rows[0][3]["verdict"] == "insufficient"

    def test_zero_variance_baseline_needs_real_change(self):
        # Bit-identical history + a 3% blip: MAD is zero, but the
        # sigma floor keeps the blip from scoring an infinite z.
        verdict = judge([1.0] * 10 + [1.03], direction=+1)
        assert verdict["verdict"] == "ok"
        verdict = judge([1.0] * 10 + [2.0], direction=+1)
        assert verdict["verdict"] == "regression"

    def test_informational_metrics_never_gate(self):
        rows = analyze(_bench_rows([100, 100, 100, 100, 100, 900],
                                   metric="cycles"))
        assert rows[0][3]["verdict"] == "ok"
        gated = analyze(_bench_rows([100, 100, 100, 100, 100, 900],
                                    metric="cycles"), gate_all=True)
        assert gated[0][3]["verdict"] == "regression"


class TestSentinelCLI:
    def _seed(self, store, values):
        for record in _bench_rows(values):
            store.append(record)

    def test_exit_zero_on_clean_history(self, store, capsys):
        self._seed(store, [1.0, 1.02, 0.99, 1.01, 1.0])
        assert regress_main(["--history", store.path]) == 0
        out = capsys.readouterr().out
        assert "no regressions detected" in out
        assert "bench:replay" in out

    def test_exit_one_on_regression(self, store, capsys):
        self._seed(store, [1.0, 1.02, 0.99, 1.01, 1.0, 2.2])
        assert regress_main(["--history", store.path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: bench:replay :: replay_seconds" in out

    def test_warn_only_downgrades(self, store, capsys):
        self._seed(store, [1.0, 1.02, 0.99, 1.01, 1.0, 2.2])
        assert regress_main(["--history", store.path,
                             "--warn-only"]) == 0
        assert "--warn-only" in capsys.readouterr().out

    def test_json_output(self, store, capsys):
        self._seed(store, [1.0, 1.02, 0.99, 1.01, 1.0, 2.2])
        assert regress_main(["--history", store.path, "--json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["series"] == "bench:replay"
        assert rows[0]["verdict"] == "regression"

    def test_empty_history_is_fine(self, store, capsys):
        assert regress_main(["--history", store.path]) == 0
        assert "no records yet" in capsys.readouterr().out

    def test_disabled_store_is_fine(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_OBS_HISTORY", "off")
        assert regress_main([]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_metric_filter(self, store, capsys):
        self._seed(store, [1.0, 1.02, 0.99, 1.01, 1.0, 2.2])
        assert regress_main(["--history", store.path,
                             "--metric", "no_such_metric"]) == 0
