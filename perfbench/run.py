"""mkvcontrol benchmark: time to a control law, policy evaluation, and
per-layer self time.

Run from the repository root:

    python3 perfbench/run.py --workload lq_enkf --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  Times are taken with the
calibrated timer of ``clock.py`` and reported in seconds at its
reference machine speed; the plain wall seconds are printed beside
them.  A timed run (``--trace 0``) measures, with tracing off:

* ``setup_s``        import, ``make_problem`` and ``default_config`` in a
                     fresh interpreter, median of SETUP_SAMPLES processes;
* ``solve_s``        one ``solve`` (``stationary_solve`` on lq_stationary),
                     median of the run's solves;
* ``policy_eval_s``  one ``estimate_cost`` over the workload's paths;
* ``peak_rss_mb``    peak resident memory of this process;

and prints, without a bound, ``policy_cost`` (the Monte-Carlo cost of
the law), ``gain_rel_err`` (against the Riccati reference, lq workloads
only) and ``failed_ops_frac``.  The first solve always runs; a repeat
(up to the workload's ``max_solves``) starts only if it is expected to
end within ``--seconds`` of the first solve's start.

A traced run (``--trace 1``) solves once untraced and once with the
span wrappers of ``tracing.py`` installed, evaluates the law under
both, requires bitwise-identical outputs, and reports the per-layer
metrics of ``tracing.LAYER_METRICS``.

Every operation (setup sample, solve, evaluation) is checked: outputs
finite, Sinkhorn and hull certificates on the diffusion-map workload,
repeated solves with the same seed bitwise identical.  A failed check is
counted, not fatal.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "policy_eval_s": "s",
                    "peak_rss_mb": "MB"}

SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from clock import CalibratedTimer

def setup():
    sys.path.insert(0, sys.argv[2])
    import mkvcontrol
    scenario = mkvcontrol.get_scenario(sys.argv[3])
    scenario.make_problem()
    scenario.default_config()

_, timing = CalibratedTimer().measure(setup)
print(json.dumps(timing._asdict()))
"""


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, label, fn, check=None):
        """Run one operation and return its value, or None if it raised.
        ``check(value)`` returns the list of problems with the value."""
        self.attempted += 1
        try:
            value = fn()
            problems = check(value) if check is not None else []
        except Exception as exc:   # counted as a failed operation
            value = None
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return value


def setup_sample(w):
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), w.scenario],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy
    import scipy
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _median(samples):
    return statistics.median(samples) if samples else None


def _finite_cost(cost):
    import numpy as np
    return [] if np.isfinite(cost) else ["policy cost is not finite"]


def timed_run(w, seed, seconds, ledger, timer):
    import workloads as wl

    setups = [s for s in (ledger.run("setup", lambda: setup_sample(w))
                          for _ in range(SETUP_SAMPLES)) if s is not None]
    case = wl.build(w, seed)
    sols, timings = [], []

    def check_solve(result):
        problems = wl.check(case, result[0])
        if sols and not wl.identical(result[0], sols[0]):
            problems.append("outputs differ from the first solve")
        return problems

    for k in range(w.max_solves):
        if k and sum(t.wall_s for t in timings) + timings[-1].wall_s \
                > seconds:
            break
        result = ledger.run("solve",
                            lambda: timer.measure(lambda: wl.solve(w, case)),
                            check_solve)
        if result is None:
            break
        sols.append(result[0])
        timings.append(result[1])

    evaluated = None
    if sols:
        evaluated = ledger.run(
            "policy_eval",
            lambda: timer.measure(lambda: wl.evaluate(w, case, sols[0])),
            lambda r: _finite_cost(r[0]))
    cost, eval_timing = evaluated if evaluated else (None, None)

    metrics = {
        "setup_s": _median([s["scaled_s"] for s in setups]),
        "solve_s": _median([t.scaled_s for t in timings]),
        "policy_eval_s": eval_timing.scaled_s if eval_timing else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    kernel = [t.kernel_s for t in timings] + (
        [eval_timing.kernel_s] if eval_timing else [])
    info = {
        "policy_cost": cost,
        "gain_rel_err": wl.gain_rel_err(w, sols[0]) if sols else None,
        "setup_wall_s": _median([s["wall_s"] for s in setups]),
        "solve_wall_s": [t.wall_s for t in timings],
        "policy_eval_wall_s": eval_timing.wall_s if eval_timing else None,
        "kernel_median_s": _median(kernel),
        "samples": {"setup_s": len(setups), "solve_s": len(timings),
                    "policy_eval_s": int(eval_timing is not None)},
    }
    if sols and sols[0].diagnostics is not None:
        info["stationary_steps"] = (sols[0].diagnostics["forward_steps"],
                                    sols[0].diagnostics["reverse_steps"])
    return {name: (value, END_TO_END_UNITS[name])
            for name, value in metrics.items()}, info


def traced_run(w, seed, ledger, timer):
    import tracing
    import workloads as wl

    case = wl.build(w, seed)
    plain = ledger.run("solve",
                       lambda: timer.measure(lambda: wl.solve(w, case)),
                       lambda r: wl.check(case, r[0]))

    def same_as_plain(result):
        problems = wl.check(case, result[0])
        if plain is not None and not wl.identical(result[0], plain[0]):
            problems.append("traced outputs differ from untraced outputs")
        return problems

    tracer = tracing.Tracer(clock=timer.work_clock)
    with tracing.instrument(tracer, [case.problem]):
        traced = ledger.run("traced solve",
                            lambda: timer.measure(lambda: wl.solve(w, case)),
                            same_as_plain)
        traced_cost = None
        if traced is not None:
            traced_cost = ledger.run(
                "traced policy_eval",
                lambda: wl.evaluate(w, case, traced[0]), _finite_cost)
    plain_cost = None
    if plain is not None:
        plain_cost = ledger.run(
            "policy_eval", lambda: wl.evaluate(w, case, plain[0]),
            lambda c: [] if c == traced_cost
            else ["policy cost differs between traced and untraced runs"])

    steps = (0, 0)
    if traced is not None and traced[0].diagnostics is not None:
        steps = (traced[0].diagnostics["forward_steps"],
                 traced[0].diagnostics["reverse_steps"])
    overhead = None
    if plain is not None and traced is not None:
        overhead = traced[1].scaled_s / plain[1].scaled_s - 1.0
    values = tracer.layer_metrics(*steps, overhead_frac=overhead)
    info = {"policy_cost": plain_cost,
            "untraced_solve_s": plain[1].scaled_s if plain else None,
            "traced_solve_s": traced[1].scaled_s if traced else None}
    return {name: (values[name], unit)
            for name, (unit, _, _) in tracing.LAYER_METRICS.items()}, info


def _number(value):
    if value is None or isinstance(value, int):
        return value
    return float(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mkvcontrol" / "__init__.py").is_file():
        print(f"perfbench: no mkvcontrol sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mkvcontrol
    if Path(mkvcontrol.__file__).resolve().parent != SRC / "mkvcontrol":
        print(f"perfbench: imported mkvcontrol from {mkvcontrol.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from clock import CalibratedTimer
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    ledger = Ledger()
    timer = CalibratedTimer()
    if args.trace:
        metrics, info = traced_run(w, args.seed, ledger, timer)
    else:
        metrics, info = timed_run(w, args.seed, args.seconds, ledger, timer)
    env["loadavg_end"] = os.getloadavg()
    failed = len(ledger.failures)
    info["failed_ops_frac"] = failed / ledger.attempted

    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    for key, value in {**env, **info}.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
