"""Command-line interface: desk-scale experiments behind reproducible
manifests.

Subcommands: sweep, fluid, fixed-point, simulate, validate.  A JSON config
file mirrors ExperimentConfig field names; explicit flags override file
values.  Identical config + seed reproduces byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ctmc, des, fixed_point, fluid_async, fluid_sync
from .model import FluidState, ModelParams, default_jmax, derive
from .policies import PolicySpec


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    n: int = 200
    lam: float = 0.7
    policies: list[str] | None = None
    sweep: list[float] | None = None
    runs: int = 10
    horizon: float = 5000.0
    warmup: float | None = 1000.0
    seed: int = 1
    out: str = "-"

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "ExperimentConfig":
        fields = {}
        if path:
            fields.update(json.loads(Path(path).read_text()))
        fields.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**fields)


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


def _sim_config(
    cfg: ExperimentConfig, spec: PolicySpec, grid: float | np.ndarray | None = None
) -> des.SimConfig:
    delta = spec.delta if spec.delta is not None else None
    params = ModelParams(n_servers=cfg.n, lam=cfg.lam, delta=delta)
    return des.SimConfig(
        params=params,
        policy=spec,
        horizon=cfg.horizon,
        warmup=cfg.warmup,
        seed=cfg.seed,
        trajectory_grid=grid,
    )


def cmd_sweep(cfg: ExperimentConfig) -> str:
    """One CSV row per (policy, parameter) point, Figure-1 style."""
    policies = cfg.policies or ["sujsq-det", "jiq-p", "jsq-d", "random"]
    sweep = cfg.sweep or [0.25, 0.5, 1.0]
    rows = []
    for text in policies:
        if ":" in text:
            specs = [PolicySpec.parse(text)]
        else:
            try:
                specs = [PolicySpec.parse(text)]  # parameterless kind
            except ValueError:
                specs = [PolicySpec.parse(f"{text}:{val:g}") for val in sweep]
        for spec in specs:
            rec = des.run_replications(_sim_config(cfg, spec), cfg.runs)
            rows.append(
                (
                    spec.kind.value,
                    float(spec.param) if spec.param is not None else -1.0,
                    rec.msgs_per_job,
                    rec.mean_wait,
                    rec.mean_queue_per_server,
                    rec.mean_wait_ci if rec.mean_wait_ci is not None else 0.0,
                )
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["policy,param,msgs_per_job,mean_wait,mean_queue,ci_halfwidth"]
    for kind, param, msgs, wait, queue, ci in rows:
        param_txt = "" if param < 0 else _fmt(param)
        lines.append(
            f"{kind},{param_txt},{_fmt(msgs)},{_fmt(wait)},{_fmt(queue)},{_fmt(ci)}"
        )
    return "\n".join(lines) + "\n"


def _initial_state(y0: str, lam: float, delta: float, jmax: int) -> FluidState:
    if y0 == "empty":
        return FluidState.empty(jmax)
    if y0 == "fixed-point":
        return fixed_point.y_star(lam, delta, jmax=jmax).y_star
    data = json.loads(Path(y0).read_text())
    entries = {(int(i), int(j)): float(v) for i, j, v in data["entries"]}
    return FluidState.from_entries(entries, jmax=jmax)


def cmd_fluid(args: argparse.Namespace) -> int:
    jmax = args.jmax or default_jmax(args.lam, args.delta)
    y0 = _initial_state(args.y0, args.lam, args.delta, jmax)
    store = np.arange(0.0, args.t_end + 1e-12, args.grid_dt)
    integrate = (
        fluid_sync.integrate_sync if args.kind == "sync" else fluid_async.integrate_async
    )
    run = integrate(y0, args.lam, args.delta, args.t_end, dt=args.dt, store_times=store)
    _write(args.out, _trajectory_csv(run.times, run.states))
    if args.des_runs:
        spec_text = ("sujsq-det" if args.kind == "sync" else "aujsq-exp")
        spec = PolicySpec.parse(f"{spec_text}:{args.delta:g}")
        sim = des.SimConfig(
            params=ModelParams(n_servers=args.n, lam=args.lam, delta=args.delta),
            policy=spec,
            horizon=args.t_end,
            warmup=0.0,
            seed=args.seed,
            trajectory_grid=store,
            snapshot_jmax=jmax,
        )
        rec = des.run_replications(sim, args.des_runs)
        overlay = _trajectory_csv(rec.trajectory.times, rec.trajectory.y)
        if args.out == "-":
            sys.stdout.write(overlay)
        else:
            base = Path(args.out)
            base.with_name(base.stem + "_des" + base.suffix).write_text(overlay)
    return 0


def cmd_fixed_point(args: argparse.Namespace) -> int:
    if args.delta_grid:
        lines = ["delta,m_star,nu,q_tilde"]
        for d in args.delta_grid:
            fp = fixed_point.y_star(args.lam, d)
            lines.append(f"{_fmt(d)},{fp.m_star},{_fmt(fp.nu)},{_fmt(fp.q_tilde)}")
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    fp = fixed_point.y_star(args.lam, args.delta)
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
        "m_star_det": fixed_point.m_star_det(args.lam, args.delta),
    }
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = PolicySpec.parse(args.policy)
    params = ModelParams(n_servers=args.n, lam=args.lam, delta=spec.delta)
    sim = des.SimConfig(
        params=params,
        policy=spec,
        horizon=args.horizon,
        warmup=args.warmup,
        seed=args.seed,
    )
    rec = (
        des.run_replications(sim, args.runs) if args.runs > 1 else des.run(sim)
    )
    _write(args.out, json.dumps(rec.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0


def _validate_checks(budget: str, seed: int, scale: float) -> list[dict]:
    checks: list[dict] = []

    def add(name: str, value: float, tol: float) -> None:
        checks.append(
            {"name": name, "value": value, "tolerance": tol, "passed": bool(value <= tol)}
        )

    # Analytic identities.
    worst_ab = 0.0
    worst_mono = 0.0
    for level in range(1, 21):
        for t in np.linspace(0.0, 5.0, 11):
            pm = fluid_sync.poisson_ab(level, float(t))
            worst_ab = max(worst_ab, abs(pm.a + pm.b - level))
            nxt = fluid_sync.poisson_ab(level + 1, float(t))
            worst_mono = max(worst_mono, pm.a / level - nxt.a / (level + 1))
    add("poisson_ab_identity", worst_ab, 1e-12 * scale)
    add("poisson_a_ratio_monotone", worst_mono, 1e-12 * scale)

    bound = fluid_sync.queue_bound(0.7, 1.0 / 0.85)
    add("queue_bound_is_minimal", 0.0 if bound.s_star == 7 else 1.0, 0.5 * scale)

    worst_fp = 0.0
    for lam in (0.3, 0.5, 0.7, 0.9):
        for delta in (0.3, 0.85, 2.5):
            worst_fp = max(worst_fp, fixed_point.y_star(lam, delta).residual)
    add("fixed_point_residual", worst_fp, 1e-8 * scale)

    # Synchronous trajectory structure checks.
    run = fluid_sync.integrate_sync(
        FluidState.empty(40), 0.7, 0.85, 6.0, dt=1e-3
    )
    report = fluid_sync.check_trajectory_invariants(run)
    add(
        "sync_trajectory_checks",
        max(report.residuals[k] / report.tolerances[k] for k in report.residuals),
        1.0 * scale,
    )

    # Fluid vs simulation, small scale.  The tolerance tracks the sampling
    # noise of the averaged occupancy fractions at the chosen size.
    n = 200 if budget == "smoke" else 500
    runs = 3 if budget == "smoke" else 5
    grid = np.arange(0.05, 6.0, 0.25)
    spec = PolicySpec.parse("aujsq-exp:0.85")
    sim = des.SimConfig(
        params=ModelParams(n_servers=n, lam=0.7, delta=0.85),
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
    worst = 0.0
    for k, t in enumerate(grid):
        sim_d = derive(rec.trajectory.y[k])
        fl_d = derive(fl.states[k + 1])
        for coord in range(3):
            worst = max(worst, abs(sim_d.v[coord] - fl_d.v[coord]))
            worst = max(worst, abs(sim_d.w[coord] - fl_d.w[coord]))
    add("fluid_vs_des_supnorm", worst, 8.0 / np.sqrt(n * runs) * scale)

    # Exact chain vs simulation at N=2.
    params = ModelParams(n_servers=2, lam=0.7, delta=0.85)
    spec = PolicySpec.parse("aujsq-exp:0.85")
    chain = ctmc.build_generator(params, spec, cap=10)
    pi = ctmc.stationary(chain)
    marginal = ctmc.queue_marginal(chain, pi)
    horizon = 20000.0 if budget == "smoke" else 80000.0
    sim = des.SimConfig(
        params=params, policy=spec, horizon=horizon, warmup=0.1 * horizon, seed=seed
    )
    rec = des.run(sim)
    hist = np.zeros(max(len(marginal), len(rec.queue_len_hist)))
    hist[: len(rec.queue_len_hist)] = rec.queue_len_hist
    exact = np.zeros_like(hist)
    exact[: len(marginal)] = marginal
    add("ctmc_vs_des_tv", float(0.5 * np.abs(hist - exact).sum()), 0.05 * scale)
    return checks


def cmd_validate(args: argparse.Namespace) -> int:
    checks = _validate_checks(args.budget, args.seed, args.tolerance_scale)
    passed = all(c["passed"] for c in checks)
    doc = {"passed": passed, "seed": args.seed, "checks": checks}
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if passed else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=0.7)
    p.add_argument("--delta", type=float, default=0.85)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselb",
        description="Dispatching with occasional queue updates: simulator, "
        "fluid limits, fixed points, and validation oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="policy sweep CSV (mean wait vs messages)")
    p.add_argument("--config", default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--policies", nargs="+", default=None)
    p.add_argument("--sweep", type=float, nargs="+", default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fluid", help="integrate a fluid trajectory to CSV")
    p.add_argument("kind", choices=["sync", "async"])
    _add_common(p)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--grid-dt", type=float, default=0.1)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--y0", default="empty", help="empty | fixed-point | FILE.json")
    p.add_argument("--des-runs", type=int, default=0)
    p.add_argument("--n", type=int, default=1000)

    p = sub.add_parser("fixed-point", help="stationary quantities as JSON")
    _add_common(p)
    p.add_argument("--delta-grid", type=float, nargs="+", default=None)

    p = sub.add_parser("simulate", help="run the event simulator")
    _add_common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--horizon", type=float, default=1000.0)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--runs", type=int, default=1)

    p = sub.add_parser("validate", help="cross-layer consistency report")
    _add_common(p)
    p.add_argument("--budget", choices=["smoke", "default"], default="default")
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        overrides = {
            k: getattr(args, k)
            for k in (
                "name",
                "n",
                "lam",
                "policies",
                "sweep",
                "runs",
                "horizon",
                "warmup",
                "seed",
                "out",
            )
        }
        cfg = ExperimentConfig.load(args.config, overrides)
        _write(cfg.out, cmd_sweep(cfg))
        return 0
    if args.command == "fluid":
        return cmd_fluid(args)
    if args.command == "fixed-point":
        return cmd_fixed_point(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    return cmd_validate(args)


if __name__ == "__main__":
    raise SystemExit(main())
