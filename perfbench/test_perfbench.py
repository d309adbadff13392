"""Tests of the benchmark itself: span arithmetic, wrapper hygiene,
metric naming and the layer-to-workload map.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import clock
import mkvcontrol
import run
import tracing
import workloads
from mkvcontrol import EmpiricalMoments, ControlProblem

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.total_s["outer"] == 10.0
    assert tracer.self_s["outer"] == 7.0
    assert tracer.total_s["inner"] == tracer.self_s["inner"] == 3.0


def test_self_time_counts_a_raising_span():
    ticks = iter([0.0, 2.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.calls["boom"] == 1 and tracer.self_s["boom"] == 2.0
    assert tracer._child_s == []


def _bindings(problem):
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name == "mkvcontrol" or name.startswith("mkvcontrol.")}
    classes = {c: dict(vars(c)) for c in (EmpiricalMoments, ControlProblem)}
    return modules, classes, dict(vars(problem))


def test_instrument_wraps_every_binding_and_restores_it():
    problem = mkvcontrol.get_scenario("lq").make_problem()
    before = _bindings(problem)
    original = mkvcontrol.stats.moments
    with tracing.instrument(tracing.Tracer(), [problem]):
        wrapped = mkvcontrol.stats.moments
        assert wrapped is not original
        assert mkvcontrol.solver.moments is wrapped
        assert mkvcontrol.horizon.moments is wrapped
        assert mkvcontrol.moments is wrapped
        assert mkvcontrol.enkf.map_moments is mkvcontrol.stats.map_moments
        assert mkvcontrol.solver.apply_control is \
            mkvcontrol.problem.apply_control
        assert "solve" in vars(EmpiricalMoments)
        assert vars(EmpiricalMoments)["solve"] is not before[1][
            EmpiricalMoments]["solve"]
        assert problem.drift is not before[2]["drift"]
    after = _bindings(problem)
    for got, want in zip(after, before):
        assert got.keys() == want.keys()
    for name, attrs in before[0].items():
        assert all(after[0][name][k] is v for k, v in attrs.items()), name
    for cls, attrs in before[1].items():
        assert all(after[1][cls][k] is v for k, v in attrs.items())
    assert all(after[2][k] is v for k, v in before[2].items())


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    for name in [*e2e, *layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
    for _, owner, moves in tracing.LAYER_METRICS.values():
        assert owner is None or owner in workloads.WORKLOADS
        assert moves is None or moves in e2e


BUILD = workloads.build


def _small_case(w, seed):
    """The workload's inputs on a short horizon, so a traced run takes
    about a second."""
    case = BUILD(w, seed)
    case.problem.horizon = {"langevin": 0.2, "pendulum": 0.002}.get(
        w.scenario, 0.02)
    if w.stationary:
        case.config.equilibrium_tol = 1.0
    return case


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_metrics_are_nonzero_on_their_workload(name, monkeypatch):
    monkeypatch.setattr(workloads, "build", _small_case)
    w = dataclasses.replace(workloads.WORKLOADS[name], n_paths=2)
    ledger = run.Ledger()
    metrics, _ = run.traced_run(w, 3, ledger, clock.CalibratedTimer())
    assert ledger.failures == []   # traced outputs equal untraced ones
    assert metrics.keys() == tracing.LAYER_METRICS.keys()
    for metric, (unit, owner, _) in tracing.LAYER_METRICS.items():
        value, got_unit = metrics[metric]
        assert got_unit == unit
        if owner == name:
            assert value > 0, metric
        if metric.startswith("dmap.") and name != "langevin_dmap":
            assert value == 0, metric
        if metric.startswith("horizon.") and name != "lq_stationary":
            assert value == 0, metric


def test_ledger_counts_failures_and_goes_on():
    ledger = run.Ledger()
    assert ledger.run("ok", lambda: 1, lambda v: []) == 1
    assert ledger.run("bad check", lambda: 2, lambda v: ["wrong"]) == 2
    assert ledger.run("raises", lambda: 1 / 0) is None
    assert ledger.attempted == 3 and len(ledger.failures) == 2


def test_calibrated_time_weights_each_stretch_by_its_kernel_time():
    timer = clock.CalibratedTimer()
    # work 0-1 s at kernel 0.5 s, 1.5-2.5 s at kernel 0.25 s, then 2.75-4 s
    timer._marks = [(1.0, 1.5), (2.5, 2.75)]
    timing = timer._timing(0.0, 4.0)
    assert timing.wall_s == 3.25
    assert timing.samples == 2 and timing.kernel_s == 0.375
    units = 1.0 / 0.5 + 1.0 / 0.25 + 1.25 / 0.25
    assert timing.scaled_s == pytest.approx(units * clock.REFERENCE_KERNEL_S)


def test_calibrated_timer_samples_and_restores_the_alarm():
    import signal
    timer = clock.CalibratedTimer(period_s=0.01)
    before = signal.getsignal(signal.SIGALRM)
    value, timing = timer.measure(lambda: [clock.kernel() for _ in range(200)])
    assert len(value) == 200
    assert timing.samples > 0 and timing.scaled_s > 0
    assert 0 < timing.wall_s and timer.busy_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lq_enkf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
