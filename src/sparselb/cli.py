"""Command-line interface: desk-scale experiments behind reproducible
manifests.

Subcommands: sweep, fluid {sync,async}, fixed-point, simulate, validate.
Every default is its flag's argparse default.  A sweep manifest (--config,
a JSON object keyed by the flags' destinations, lam for --lambda) is read
as flags placed before the command line's own, so explicit flags override
it and argparse checks it.  Identical arguments reproduce byte-identical
output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks, des, fixed_point, fluid_async, fluid_sync, model
from .model import FluidState, ModelParams, TruncationError, default_jmax
from .policies import PARAM_RULES, PolicyKind, PolicySpec


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _trajectory_csv(times: np.ndarray, states: np.ndarray) -> str:
    """CSV rows (t, i, j, y) for every non-zero cell, sorted."""
    lines = ["t,i,j,y"]
    for t, y in zip(times, states):
        for i, j in zip(*np.nonzero(y)):
            lines.append(f"{_fmt(t)},{i},{j},{_fmt(y[i, j])}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _refused(flags: str, *errors: type[Exception]):
    """Turn the errors raised in the block into usage errors of flags."""
    try:
        yield
    except errors as err:
        raise argparse.ArgumentTypeError(f"argument {flags}: {err}") from None


def _checked(kind, test, need: str):
    """An argparse type: kind(text), refused unless test passes on it."""
    def parse(text: str):
        if not test(value := kind(text)):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


_positive = _checked(float, lambda x: 0.0 < x < np.inf, "a finite value > 0")
_load = _checked(float, lambda x: 0.0 < x < 1.0, "0 < lambda < 1")
_count = _checked(int, lambda x: x >= 0, "an integer >= 0")
_positive_int = _checked(int, lambda x: x >= 1, "an integer >= 1")


def _policy(text: str) -> PolicySpec:
    """An argparse type: a policy selector, read by PolicySpec.parse."""
    try:
        return PolicySpec.parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _sweep_specs(text: str, sweep: list[float]) -> list[PolicySpec]:
    """The points of one --policies entry: one per sweep value if it names a
    kind that takes a parameter and gives none, else the entry itself.  A
    bad entry or sweep value raises ArgumentTypeError."""
    name = text.strip()
    kind = next((k for k in PARAM_RULES if k.value == name), None)
    if kind is None:
        return [_policy(name)]
    # The sweep values are rates and probabilities, never a probe count.
    if kind is PolicyKind.JSQ_D:
        raise argparse.ArgumentTypeError("jsq-d needs an explicit integer d, e.g. jsq-d:2")
    specs = []
    for val in sweep:
        with _refused(f"--sweep: {name}:{val:g}", ValueError):
            specs.append(PolicySpec(kind, **{PARAM_RULES[kind].field: val}))
    return specs


def _sweep_entry(text: str) -> str:
    """An argparse type: a --policies entry that _sweep_specs accepts."""
    _sweep_specs(text, [])
    return text


def _sim_configs(args: argparse.Namespace, specs: list[PolicySpec], flag: str
                 ) -> list[des.SimConfig]:
    """One simulation per spec, all set up before the first one runs."""
    params = ModelParams(n_servers=args.n, lam=args.lam)
    with _refused(f"{flag}/--n/--horizon/--warmup", des.SimulationError):
        return [des.SimConfig(params=params, policy=spec, horizon=args.horizon,
                              warmup=args.warmup, seed=args.seed) for spec in specs]


def cmd_sweep(args: argparse.Namespace) -> int:
    """One CSV row per (policy, parameter) point, Figure-1 style, in the
    order of kind and then parameter.  Each run reads only its own (seed,
    run index) streams, so the points run in that order."""
    specs = [spec for text in args.policies for spec in _sweep_specs(text, args.sweep)]
    # A kind's points all carry a parameter or none does, so None is never
    # compared with a number.
    specs.sort(key=lambda spec: (spec.kind.value, spec.param))
    lines = ["policy,param,msgs_per_job,mean_wait,mean_queue,ci_halfwidth"]
    for config in _sim_configs(args, specs, "--policies"):
        with _refused("--horizon/--warmup", des.HorizonError):
            rec = des.run_replications(config, args.runs)
        param, ci = config.policy.param, rec.mean_wait_ci  # ci is None from one run
        lines.append(",".join([
            config.policy.kind.value, "" if param is None else _fmt(param),
            _fmt(rec.msgs_per_job), _fmt(rec.mean_wait), _fmt(rec.mean_queue_per_server),
            "" if ci is None else _fmt(ci),
        ]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _initial_state(y0: str, lam: float, delta: float, jmax: int) -> FluidState:
    """The --y0 state; a file that cannot be read as a state, or a fixed
    point that y_star refuses, raises ArgumentTypeError."""
    with _refused(f"--y0: {y0}", OSError, ValueError, KeyError, TypeError):
        if y0 == "empty":
            return FluidState.empty(jmax)
        if y0 == "fixed-point":
            return fixed_point.y_star(lam, delta, jmax=jmax).y_star
        data = json.loads(Path(y0).read_text())
        entries = {(int(i), int(j)): float(v) for i, j, v in data["entries"]}
        return FluidState.from_entries(entries, jmax=jmax)


def cmd_fluid(args: argparse.Namespace) -> int:
    with _refused("--y0/--des-runs", ValueError):
        if args.des_runs and args.y0 != "empty":
            raise ValueError(f"the simulation starts empty, not from {args.y0}")
    epoch_rate = args.delta if args.kind == "sync" else None  # async runs have no epochs
    flags = "--jmax/--delta/--t-end/--grid-dt/--des-runs"
    with _refused(flags, model.StateError, OverflowError):  # before store is built
        jmax = args.jmax or default_jmax(args.lam, args.delta)
        n_store = math.ceil((args.t_end + 1e-12) / args.grid_dt)  # np.arange's length
        model.check_state_budget(n_store, jmax, "stored states")
    if args.kind == "async":  # after the store times, so that they keep their flags
        with _refused("--dt", ValueError), _refused("--dt/--delta/--t-end", model.StateError):
            fluid_async.step_for(args.t_end, args.delta, args.dt)
    store = np.arange(0.0, args.t_end + 1e-12, args.grid_dt)
    with _refused(flags, model.StateError):  # the epochs, before the stops are built
        states = len(fluid_sync.stored_stops(args.t_end, epoch_rate, store, jmax, "stored states")) + 1
    if args.des_runs:  # its one snapshot stack, on store, passed the check above
        kind = PolicyKind.SUJSQ_DET if args.kind == "sync" else PolicyKind.AUJSQ_EXP
        with _refused("--n", des.SimulationError):
            sim = des.SimConfig(
                params=ModelParams(n_servers=args.n, lam=args.lam),
                policy=PolicySpec(kind, delta=args.delta),
                horizon=args.t_end,
                warmup=0.0,
                seed=args.seed,
                trajectory_grid=store,
                snapshot_jmax=jmax,
            )
        states += des.snapshot_states(sim, args.des_runs)
    with _refused(flags, model.StateError):
        model.check_state_budget(states, jmax, "stored states")
    y0 = _initial_state(args.y0, args.lam, args.delta, jmax)
    with _refused("--jmax", TruncationError):
        if args.kind == "sync":
            run = fluid_sync.integrate_sync(y0, args.lam, args.delta, args.t_end, store_times=store)
        else:
            run = fluid_async.integrate_async(y0, args.lam, args.delta, args.t_end, args.dt, store)
    text = _trajectory_csv(run.times, run.states)
    if args.des_runs:  # simulated before anything is written
        with _refused("--t-end/--n", des.HorizonError):
            rec = des.run_replications(sim, args.des_runs)
        overlay = _trajectory_csv(rec.trajectory.times, rec.trajectory.y)
        if args.out == "-":
            text += overlay
        else:
            base = Path(args.out)
            base.with_name(base.stem + "_des" + base.suffix).write_text(overlay)
    _write(args.out, text)
    return 0


def cmd_fixed_point(args: argparse.Namespace) -> int:
    if args.delta_grid:
        lines = ["delta,m_star,nu,q_tilde"]
        for d in args.delta_grid:
            with _refused("--delta-grid", ValueError):
                fp = fixed_point.y_star(args.lam, d)
            lines.append(f"{_fmt(d)},{fp.m_star},{_fmt(fp.nu)},{_fmt(fp.q_tilde)}")
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    with _refused("--delta", ValueError):
        fp = fixed_point.y_star(args.lam, args.delta)
        level_det = fixed_point.m_star_det(args.lam, args.delta)
    y = fp.y_star.y
    entries = [
        [int(i), int(j), float(y[i, j])] for i, j in zip(*np.nonzero(y))
    ]
    doc = {
        "m_star": fp.m_star,
        "nu": fp.nu,
        "q_tilde": fp.q_tilde,
        "y_star": entries,
        "residual": fp.residual,
        "m_star_det": level_det,
    }
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    [config] = _sim_configs(args, [args.policy], "--policy")
    with _refused("--horizon/--warmup", des.HorizonError):
        rec = des.run_replications(config, args.runs)
    _write(args.out, json.dumps(rec.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0


def _validate_checks(budget: str, seed: int) -> fluid_sync.CheckReport:
    report = fluid_sync.CheckReport()

    # Analytic identities.
    worst_ab, worst_mono = checks.poisson_identity_residuals(np.linspace(0.0, 5.0, 11))
    report.record("poisson_ab_identity", worst_ab, 1e-12)
    report.record("poisson_a_ratio_monotone", worst_mono, 1e-12)

    bound = fluid_sync.queue_bound(0.7, 1.0 / 0.85)
    report.record("queue_bound_is_minimal", float(bound.s_star != 7), 0.5)

    worst_fp = 0.0
    for lam in (0.3, 0.5, 0.7, 0.9):
        for delta in (0.3, 0.85, 2.5):
            worst_fp = max(worst_fp, fixed_point.y_star(lam, delta).residual)
    report.record("fixed_point_residual", worst_fp, 1e-8)

    # Synchronous trajectory structure checks.
    run = fluid_sync.integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0)
    sync = fluid_sync.check_trajectory_invariants(run)
    worst_sync = max(sync.residuals[k] / sync.tolerances[k] for k in sync.residuals)
    report.record("sync_trajectory_checks", worst_sync, 1.0)

    # Fluid vs simulation, small scale.  The tolerance tracks the sampling
    # noise of the averaged occupancy fractions at the chosen size.
    n = 200 if budget == "smoke" else 500
    runs = 3 if budget == "smoke" else 5
    grid = np.arange(0.05, 6.0, 0.25)
    spec = PolicySpec.parse("aujsq-exp:0.85")
    sim = des.SimConfig(
        params=ModelParams(n_servers=n, lam=0.7),
        policy=spec,
        horizon=6.0,
        warmup=0.0,
        seed=seed,
        trajectory_grid=grid,
        snapshot_jmax=40,
    )
    rec = des.run_replications(sim, runs)
    fl = fluid_async.integrate_async(
        FluidState.empty(40), 0.7, 0.85, 6.0, dt=5e-3, store_times=grid
    )
    worst = checks.fluid_des_distance(rec.trajectory, fl)
    report.record("fluid_vs_des_supnorm", worst, 8.0 / np.sqrt(n * runs))

    # Exact chain vs simulation at N=2.
    horizon = 20000.0 if budget == "smoke" else 80000.0
    tv, *_ = checks.chain_vs_des(ModelParams(n_servers=2, lam=0.7), spec, 10, horizon, seed)
    report.record("ctmc_vs_des_tv", tv, 0.05)
    return report


def cmd_validate(args: argparse.Namespace) -> int:
    report = _validate_checks(args.budget, args.seed)
    failed = report.violations
    rows = [
        dict(name=k, value=v, tolerance=report.tolerances[k], passed=k not in failed)
        for k, v in report.residuals.items()
    ]
    doc = {"passed": not failed, "seed": args.seed, "checks": rows}
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselb",
        description="Dispatching with occasional queue updates: simulator, "
        "fluid limits, fixed points, and validation oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=_count, default=1)
    loaded = argparse.ArgumentParser(add_help=False)
    loaded.add_argument("--lambda", dest="lam", type=_load, default=0.7)

    p = sub.add_parser("sweep", parents=[seeded, loaded],
                       help="policy sweep CSV (mean wait vs messages)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="JSON manifest of flag values, read before the flags")
    p.add_argument("--n", type=_positive_int, default=200)
    p.add_argument("--policies", type=_sweep_entry, nargs="+",
                   default=["sujsq-det", "jiq-p", "jsq-d:2", "random"])
    p.add_argument("--sweep", type=float, nargs="+", default=[0.25, 0.5, 1.0])
    p.add_argument("--runs", type=_positive_int, default=10)
    p.add_argument("--horizon", type=_positive, default=5000.0)
    p.add_argument("--warmup", type=float, default=1000.0)

    common = argparse.ArgumentParser(add_help=False, parents=[seeded, loaded])
    common.add_argument("--delta", type=_positive, default=0.85)
    common.add_argument("--t-end", type=_positive, default=10.0)
    common.add_argument("--grid-dt", type=_positive, default=0.1)
    common.add_argument("--jmax", type=_count, default=None, help="0 or unset: default_jmax")
    common.add_argument("--y0", default="empty", help="empty | fixed-point | FILE.json")
    common.add_argument("--des-runs", type=_count, default=0)
    common.add_argument("--n", type=_positive_int, default=1000)
    fluid = sub.add_parser("fluid", help="integrate a fluid trajectory to CSV")
    kinds = fluid.add_subparsers(dest="kind", required=True)
    kinds.add_parser("sync", parents=[common], help="exact synchronized limit")
    p = kinds.add_parser("async", parents=[common], help="RK4 asynchronous limit")
    p.add_argument("--dt", type=_positive, default=None, help="default min(1/delta, 1)/100")

    p = sub.add_parser("fixed-point", parents=[out, loaded], help="stationary quantities as JSON")
    one_or_grid = p.add_mutually_exclusive_group()
    one_or_grid.add_argument("--delta", type=_positive, default=0.85)
    one_or_grid.add_argument("--delta-grid", type=_positive, nargs="+", default=None)

    p = sub.add_parser("simulate", parents=[seeded, loaded], help="run the event simulator")
    p.add_argument("--policy", type=_policy, required=True)
    p.add_argument("--n", type=_positive_int, default=200)
    p.add_argument("--horizon", type=_positive, default=1000.0)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--runs", type=_positive_int, default=1)

    p = sub.add_parser("validate", parents=[seeded], help="cross-layer consistency report")
    p.add_argument("--budget", choices=["smoke", "default"], default="default")
    return parser


def _manifest_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The sweep flags a manifest stands for: each key is a flag's
    destination, each value its value or list of values."""
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        parser.error("--config: need a JSON object of flag values")
    known = set(vars(args)) - {"command", "config"}
    tokens = []
    for key, value in doc.items():
        if key not in known or value is None:
            parser.error(f"--config: {key!r} is {'null' if key in known else 'not a sweep flag'}")
        flag = "--lambda" if key == "lam" else f"--{key}"
        tokens += [flag, *map(str, value)] if isinstance(value, list) else [f"{flag}={value}"]
    return tokens


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.config:
        args = parser.parse_args(["sweep", *_manifest_flags(parser, args), *argv[1:]])
    commands = {"sweep": cmd_sweep, "fluid": cmd_fluid, "fixed-point": cmd_fixed_point,
                "simulate": cmd_simulate, "validate": cmd_validate}
    try:
        return commands[args.command](args)
    except argparse.ArgumentTypeError as err:  # refused before anything ran
        parser.error(str(err))


if __name__ == "__main__":
    raise SystemExit(main())
