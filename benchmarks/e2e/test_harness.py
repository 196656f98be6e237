"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e``."""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from compare import compare, summarize, verdict  # noqa: E402
from layers import ACC, GEN, SPAN, LayerTracer, program_targets  # noqa: E402


class FakeClock:
    """Time moves only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    tracer.cost = 0.5

    def leaf():
        clock.advance(2.0)

    leaf_w = tracer.wrap("leaf", leaf, ACC)

    def middle():
        clock.advance(1.0)
        leaf_w()
        leaf_w()
        clock.advance(1.0)

    middle_w = tracer.wrap("middle", middle, SPAN)
    tracer.enabled = True
    with tracer.root("call"):
        clock.advance(3.0)
        middle_w()

    assert tracer.count("leaf") == 2
    assert tracer.total("leaf") == 4.0
    assert tracer.self_time("leaf") == 4.0
    assert tracer.total("middle") == 6.0
    # 6 s wall, 4 s in two wrapped children, 0.5 s wrapper cost each
    assert tracer.self_time("middle") == 1.0
    assert tracer.total("call") == 9.0
    assert tracer.self_time("call") == 9.0 - 6.0 - 0.5
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("middle", "call"), ("call", None)]


def test_generator_consumption_is_timed_not_its_creation():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def stream(n):
        for i in range(n):
            clock.advance(2.0)      # work done producing item i
            yield i

    stream_w = tracer.wrap("stream", stream, GEN)
    tracer.enabled = True
    with tracer.root("call"):
        gen = stream_w(3)
        assert tracer.count("stream") == 0
        items = []
        for item in gen:
            clock.advance(5.0)      # the consumer's own work
            items.append(item)

    assert items == [0, 1, 2]
    assert tracer.total("stream") == 6.0
    assert tracer.count("stream") == 4      # three items, then exhaustion
    assert tracer.self_time("call") == 15.0


def test_wrappers_are_removed_after_the_traced_call():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    class Sim:
        def step(self):
            clock.advance(1.0)

    module = types.SimpleNamespace(helper=lambda: clock.advance(1.0))
    original_step, original_helper = Sim.step, module.helper
    targets = [(Sim, "step", "sim.step", ACC),
               (module, "helper", "helper", SPAN)]
    with tracer.installed(targets):
        Sim().step()
        module.helper()
    assert tracer.count("sim.step") == 1 and tracer.count("helper") == 1
    assert Sim.step is original_step and module.helper is original_helper
    assert not tracer.enabled
    Sim().step()
    module.helper()
    assert tracer.count("sim.step") == 1 and tracer.count("helper") == 1


def test_program_wrappers_are_removed():
    pytest.importorskip("numpy")
    targets = program_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = LayerTracer()
    with tracer.installed(targets):
        assert any(vars(owner)[attr] is not original
                   for (owner, attr, _, _), original
                   in zip(targets, originals))
    for (owner, attr, _, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original, (owner, attr)


def test_calibrated_cost_is_small_and_positive():
    tracer = LayerTracer()
    cost = tracer.calibrate(n=2000)
    assert 0.0 <= cost < 1e-4
    assert "calibrate.noop" not in tracer.stats


def test_median_and_quartiles_with_n():
    one = summarize([2.0])
    assert one == {"n": 1, "median": 2.0, "q1": 2.0, "q3": 2.0,
                   "spread": 0.0}
    four = summarize([4.0, 1.0, 3.0, 2.0])
    assert four["n"] == 4 and four["median"] == 2.5
    assert (four["q1"], four["q3"]) == (1.25, 3.75)
    assert four["spread"] == pytest.approx(2.5 / 2.5)
    with pytest.raises(ValueError):
        summarize([])


def test_verdicts_on_synthetic_data():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.01, 1.00, 1.02, 0.99, 1.00], 0.1,
                   "lower") == "agree"
    assert verdict(base, [1.30, 1.31, 1.29, 1.30, 1.32], 0.1,
                   "lower") == "worse"
    # throughput: lower is worse
    assert verdict(base, [0.70, 0.71, 0.69, 0.70, 0.72], 0.1,
                   "higher") == "worse"
    assert verdict(base, [1.30, 1.31, 1.29, 1.30, 1.32], 0.1,
                   "higher") == "agree"
    noisy = [0.5, 1.5, 0.7, 1.4, 1.0]
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
    # a noisy candidate that beats every baseline run still agrees
    assert verdict(base, [0.5, 0.9, 0.6, 0.8, 0.7], 0.1,
                   "lower") == "agree"


def test_compare_flags_worse_metric_and_new_failures():
    spec = {"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def doc(run_s, failed_frac):
        return {"workloads": {"w": {"runs": [{"run_s": v} for v in run_s],
                                    "failed_frac": failed_frac}}}

    rows = compare(doc([1.0, 1.0, 1.0], 0.0), doc([1.2, 1.2, 1.2], 0.1),
                   spec)
    assert [(r[1], r[-1]) for r in rows] == [("run_s", "worse"),
                                             ("failed_frac", "worse")]
    rows = compare(doc([1.0, 1.0, 1.0], 0.0), doc([1.05, 1.0, 1.0], 0.0),
                   spec)
    assert [r[-1] for r in rows] == ["agree", "agree"]
