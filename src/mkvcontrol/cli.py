"""Command-line front end.

Subcommands:

* ``scenarios`` -- list the registered benchmark scenarios.
* ``solve``     -- run the solver; writes forward.csv, reverse.csv,
  control.csv and manifest.ini into the output directory.
* ``simulate``  -- simulate the controlled dynamics under control.csv
  (solving first when it is absent); writes trajectory.csv.
* ``cost``      -- Monte-Carlo cost estimate; writes cost.txt.

Configuration comes from a registered scenario, optionally overridden
by an INI config file and then by command-line flags.  Every run
writes a manifest with the fully resolved configuration; re-running
with ``--config manifest.ini`` reproduces the outputs.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import configparser
import os
import sys

import numpy as np

from .errors import ConvergenceError, MkvError, NumericalBlowupError
from .problem import AffineControlSchedule
from .scenarios import REGISTRY, get_scenario
from .solver import (NoiseSchedule, SolverConfig, estimate_cost,
                     simulate_controlled, solve)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, times, *blocks):
    """One row per time: t, then the entries of each block at that time."""
    table = np.column_stack([times] + [np.reshape(b, (len(times), -1))
                                       for b in blocks])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _indexed(name, *dims):
    """Column names ``name_i`` (or ``name_ij``) over the given sizes."""
    return [name + "_" + "".join(str(i + 1) for i in idx)
            for idx in np.ndindex(*dims)]


def write_moments_csv(path, times, means, covs):
    d = means.shape[1]
    _write_csv(path, ["t"] + _indexed("m", d) + _indexed("C", d, d),
               times, means, covs)


def write_control_csv(path, sched: AffineControlSchedule):
    d = sched.shifts.shape[1]
    _write_csv(path, ["t"] + _indexed("A", d, d) + _indexed("c", d),
               sched.times, sched.gains, sched.shifts)


def read_control_csv(path) -> AffineControlSchedule:
    data = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    n_cols = data.shape[1]
    # t + d*d gains + d shifts
    d = int(round((-1 + np.sqrt(1 + 4 * (n_cols - 1))) / 2))
    if 1 + d * d + d != n_cols:
        raise ConfigError(f"{path}: malformed control.csv ({n_cols} columns)")
    times = data[:, 0]
    gains = data[:, 1:1 + d * d].reshape(-1, d, d)
    shifts = data[:, 1 + d * d:]
    return AffineControlSchedule(times=times, gains=gains, shifts=shifts)


def write_trajectory_csv(path, times, states, controls):
    header = (["t"] + _indexed("x", states.shape[1])
              + _indexed("u", controls.shape[1]))
    _write_csv(path, header, times, states, controls)


# ---------------------------------------------------------------------------
# configuration resolution

# solver config key -> (SolverConfig field, NoiseSchedule field or None,
# parser of its manifest string); the manifest writes them in this order
_SOLVER_KEYS = {
    "dt": ("dt", None, float),
    "ensemble_size": ("ensemble_size", None, int),
    "inflation": ("inflation", None, float),
    "backend": ("backend", None, str),
    "seed": ("seed", None, int),
    "eps_dm": ("eps_dm", None,
               lambda v: None if v in ("", None) else float(v)),
    "record_every": ("record_every", None, int),
    "eps_forward_first": ("eps_noise_forward", "first", float),
    "eps_forward_nfirst": ("eps_noise_forward", "n_first", int),
    "eps_forward_rest": ("eps_noise_forward", "rest", float),
    "eps_reverse_first": ("eps_noise_reverse", "first", float),
    "eps_reverse_nfirst": ("eps_noise_reverse", "n_first", int),
    "eps_reverse_rest": ("eps_noise_reverse", "rest", float),
}


def _config_to_dict(cfg: SolverConfig) -> dict:
    values = {}
    for key, (name, sub, _) in _SOLVER_KEYS.items():
        value = getattr(cfg, name)
        value = value if sub is None else getattr(value, sub)
        values[key] = "" if value is None else value
    return values


def _dict_to_config(d: dict, init_cov=None) -> SolverConfig:
    kwargs = {"eps_noise_forward": {}, "eps_noise_reverse": {}}
    for key, (name, sub, parse) in _SOLVER_KEYS.items():
        if sub is None:
            kwargs[name] = parse(d[key])
        else:
            kwargs[name][sub] = parse(d[key])
    for name in ("eps_noise_forward", "eps_noise_reverse"):
        kwargs[name] = NoiseSchedule(**kwargs[name])
    return SolverConfig(init_cov=init_cov, **kwargs)


def resolve_run(args) -> tuple:
    """Resolve scenario + config file + flags into a problem, a solver
    config, and the resolved key/value dict used for the manifest."""
    scenario_name = args.scenario
    file_values = {}
    if args.config:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        parser = configparser.ConfigParser()
        try:
            parser.read(args.config)
        except configparser.Error as exc:
            raise ConfigError(f"unreadable config {args.config}: {exc}")
        if parser.has_section("run") and parser.has_option("run", "scenario"):
            scenario_name = scenario_name or parser.get("run", "scenario")
        if parser.has_section("solver"):
            file_values = dict(parser.items("solver"))
    if not scenario_name:
        raise ConfigError("no scenario given (use --scenario or a config "
                          "file with a [run] scenario entry)")
    try:
        scenario = get_scenario(scenario_name)
    except KeyError as exc:
        raise ConfigError(str(exc))

    problem = scenario.make_problem()
    defaults = scenario.default_config()
    values = _config_to_dict(defaults)
    for key, val in file_values.items():
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"unknown solver config key {key!r}")
        values[key] = val

    # flag overrides; the --backend flag spells dmap_enkf "dmap"
    for key in ("seed", "dt", "ensemble_size", "backend"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = "dmap_enkf" if flag == "dmap" else flag
    try:
        cfg = _dict_to_config(values, init_cov=defaults.init_cov)
    except (MkvError, ValueError) as exc:
        raise ConfigError(f"invalid solver configuration: {exc}")
    return scenario, problem, cfg, values


def write_manifest(path, scenario_name, values, command):
    parser = configparser.ConfigParser()
    parser["run"] = {"scenario": scenario_name, "command": command}
    parser["solver"] = {k: str(v) for k, v in values.items()}
    with open(path, "w") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# subcommands

def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output directory not writable: {path}")


def cmd_scenarios(args):
    for name in sorted(REGISTRY):
        print(f"{name:14s} {REGISTRY[name].description}")
    return EXIT_OK


def _run_solve(scenario, problem, cfg, values, outdir, command):
    sched, record = solve(problem, cfg)
    write_moments_csv(os.path.join(outdir, "forward.csv"),
                      record.times, record.bar_means, record.bar_covs)
    write_moments_csv(os.path.join(outdir, "reverse.csv"),
                      record.times, record.tilde_means, record.tilde_covs)
    write_control_csv(os.path.join(outdir, "control.csv"), sched)
    write_manifest(os.path.join(outdir, "manifest.ini"),
                   scenario.name, values, command)
    return sched


def _saved_or_solved(scenario, problem, cfg, values, outdir, command):
    """The law in ``outdir``'s control.csv, solving for it when absent."""
    control_path = os.path.join(outdir, "control.csv")
    if not os.path.isfile(control_path):
        return _run_solve(scenario, problem, cfg, values, outdir, command)
    sched = read_control_csv(control_path)
    if sched.shifts.shape[1] != problem.dim_x:
        raise ConfigError(f"{control_path}: control law of dimension "
                          f"{sched.shifts.shape[1]}, expected {problem.dim_x}")
    return sched


def cmd_solve(args):
    scenario, problem, cfg, values = resolve_run(args)
    _ensure_outdir(args.out)
    _run_solve(scenario, problem, cfg, values, args.out, "solve")
    return EXIT_OK


def cmd_simulate(args):
    scenario, problem, cfg, values = resolve_run(args)
    _ensure_outdir(args.out)
    sched = _saved_or_solved(scenario, problem, cfg, values, args.out,
                             "simulate")
    rng = np.random.default_rng(cfg.seed + 1)
    times, states, controls = simulate_controlled(
        problem, sched, rho=args.rho, n_paths=1, rng=rng)
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                         times, states[0], controls[0])
    write_manifest(os.path.join(args.out, "manifest.ini"),
                   scenario.name, values, "simulate")
    return EXIT_OK


def cmd_cost(args):
    scenario, problem, cfg, values = resolve_run(args)
    _ensure_outdir(args.out)
    if args.zero_control:
        n = cfg.n_steps(problem.horizon)
        times = np.arange(n + 1) * cfg.dt
        d = problem.dim_x
        sched = AffineControlSchedule(
            times=times, gains=np.zeros((n + 1, d, d)),
            shifts=np.zeros((n + 1, d)))
    else:
        sched = _saved_or_solved(scenario, problem, cfg, values, args.out,
                                 "cost")
    rng = np.random.default_rng(cfg.seed + 2)
    mean, stderr = estimate_cost(problem, sched, n_paths=args.paths, rng=rng,
                                 rho=args.rho)
    cost_path = os.path.join(args.out, "cost.txt")
    with open(cost_path, "w") as fh:
        fh.write(f"J = {_fmt(mean)} +/- {_fmt(stderr)}\n")
        fh.write(f"n_paths = {args.paths}\n")
    print(f"J = {mean:.6g} +/- {stderr:.3g}")
    write_manifest(os.path.join(args.out, "manifest.ini"),
                   scenario.name, values, "cost")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mkvcontrol",
        description="Particle-based solver for affine feedback laws via "
                    "forward/reverse mean-field sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scenario", help="registered scenario name")
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--ensemble-size", dest="ensemble_size", type=int,
                        default=None)
        sp.add_argument("--backend", choices=["enkf", "dmap"], default=None)
        sp.add_argument("--out", default=".", help="output directory")

    sub.add_parser("scenarios", help="list registered scenarios")

    sp = sub.add_parser("solve", help="solve for the control schedule")
    add_common(sp)

    sp = sub.add_parser("simulate", help="simulate the controlled dynamics")
    add_common(sp)
    sp.add_argument("--rho", type=float, default=1.0,
                    help="noise scaling (0 for deterministic)")

    sp = sub.add_parser("cost", help="Monte-Carlo cost estimate")
    add_common(sp)
    sp.add_argument("--paths", type=int, default=100)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--zero-control", action="store_true",
                    help="evaluate the uncontrolled dynamics instead")

    return parser


def main(argv=None) -> int:
    # MKV_THREADS caps internal worker count; evaluation is sequential
    # and deterministic regardless of its value.
    os.environ.setdefault("MKV_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scenarios": cmd_scenarios,
        "solve": cmd_solve,
        "simulate": cmd_simulate,
        "cost": cmd_cost,
    }
    try:
        # the sweeps name non-finite values themselves (exit 3), so
        # numpy's floating-point warnings would only precede that line
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (NumericalBlowupError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, MkvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
