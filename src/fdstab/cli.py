"""Command-line surface: reproducible runs with CSV/JSON artifacts.

Subcommands: constants, simulate, phase, delay, spectral, shoot,
harnack-check, verify.  A flat key=value config file can preset any flag;
explicit flags override it.  Exit codes: 0 success, 1 usage error,
2 numerical failure, 3 verification failure.  All floats are printed with
17 significant digits so identical configurations produce bit-identical
artifacts.  Each subcommand's handler returns its artifact and ``main``
alone writes ``--out``; ``delay --simulate`` and ``harnack-check`` run the
battery's ``moment_matched_delay_run`` and ``harnack_quotient``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import flow
from .acceptance import harnack_quotient, moment_matched_delay_run, run_all
from .constants import build_ledger
from .fields import barenblatt_field, moment_matched_field
from .ledger import ConstantLedger
from .moments import classify_region, delay_bound, xy_integrate_batch
from .params import derive_exponents
from .shooting import emden_fowler_verify, shoot_disk_radial
from .spectral import (SpectrumQuery, critical_gap_parameters,
                       discretized_radial_eigs, eigenvalue, improved_gap,
                       lambda_ess, radial_oracle_mesh, spectral_gap)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(_fmt(v) for v in row)
                                 for row in rows]) + "\n"


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_config(argv: list[str]) -> dict:
    cfg = {}
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 == len(argv):
            raise ValueError("--config needs a file path")
        with open(argv[i + 1]) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# the flow module's solver settings, quoted in each flow artifact
_SOLVER_SETTINGS = ("STEP_TOL", "NEWTON_TOL", "NEWTON_MAX_ITER", "DT_INIT",
                    "DT_MAX", "MAX_STEPS", "PACE_WINDOW")


def _solver_record(stats: flow.SolverStats) -> dict:
    """A flow run's work counts and the solver settings it ran with."""
    return dataclasses.asdict(stats) | {name: getattr(flow, name)
                                        for name in _SOLVER_SETTINGS}


def _parse_init(spec: str, ex, mesh):
    if spec == "barenblatt":
        return barenblatt_field(ex, mesh)
    if spec.startswith("scaled-barenblatt:"):
        return barenblatt_field(ex, mesh, lam=float(spec.split(":", 1)[1]))
    if spec.startswith("moment-matched:"):
        l1, l2 = (float(v) for v in spec.split(":", 1)[1].split(","))
        return moment_matched_field(ex, mesh, l1, l2)
    raise ValueError(f"unknown initial datum {spec!r}; use barenblatt, "
                     "scaled-barenblatt:LAM or moment-matched:L1,L2")


def _constants(args) -> str:
    led = build_ledger(args.d, args.m, args.lam0, args.lam1,
                       args.A, args.G, args.eps)
    # echo the inputs as a leading unit entry so the artifact is
    # self-describing and re-runnable
    echoed = ConstantLedger()
    echoed.put("inputs", 1.0,
               f"d={args.d} m={_fmt(args.m)} lam0={_fmt(args.lam0)} "
               f"lam1={_fmt(args.lam1)} A={_fmt(args.A)} G={_fmt(args.G)} "
               f"eps={'auto' if args.eps is None else _fmt(args.eps)}")
    echoed.entries.update(led.entries)
    return echoed.to_json()


def _simulate(args) -> str:
    ex = derive_exponents(args.d, m=args.m)
    mesh = flow.default_flow_mesh(args.cells, args.r_max)
    fld = _parse_init(args.init, ex, mesh)
    solver = {"fdr": flow.solve_fdr, "fd": flow.solve_fd_original,
              "fdr-delayed": flow.solve_fdr_delayed}[args.equation]
    traj = solver(fld, args.t_end, n_saves=args.saves)
    if args.snapshot_out:
        snap = traj.snapshots[-1]
        _write(args.snapshot_out, _csv("r,value", zip(snap.r, snap.v)))
    return (f"# d={args.d} m={_fmt(args.m)} init={args.init} "
            f"equation={args.equation} cells={args.cells} "
            f"r_max={_fmt(args.r_max)} t_end={_fmt(args.t_end)}\n"
            + "# solver " + " ".join(f"{key}={_fmt(value)}" for key, value
                                     in _solver_record(traj.stats).items()) + "\n"
            + _csv(*traj.table()))


def _phase(args) -> str:
    ex = derive_exponents(args.d, m=args.m)
    # a path that leaves float64 is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        path = xy_integrate_batch(ex, args.x0, args.y0, args.t_end, args.dt)
    if not np.isfinite(path["energy"]).all():
        raise FloatingPointError(
            f"the phase path from x0 = {args.x0}, y0 = {args.y0} leaves float64: "
            "its energy L is not finite")
    return (f"# d={args.d} m={_fmt(args.m)} x0={_fmt(args.x0)} "
            f"y0={_fmt(args.y0)} dt={_fmt(args.dt)}\n"
            + _csv("t,X,Y,L", zip(path["t"], path["x"], path["y"],
                                  path["energy"])))


def _delay(args) -> dict:
    ex = derive_exponents(args.d, m=args.m)
    info = classify_region(ex, args.k0, args.s0)
    bound = delay_bound(ex, args.k0, args.s0)
    payload = {"region": info.region, "k_bullet": info.k_bullet, "t1": bound.t1,
               "tau_bound": bound.tau_bound, "tau_bullet": bound.tau_bullet}
    if args.simulate:
        traj = moment_matched_delay_run(ex, 0.8, 1.3, args.t_end)
        records = traj.delay
        payload["solver"] = _solver_record(traj.stats)
        payload["simulated_sup_abs_tau"] = max(abs(rec.tau) for rec in records)
        payload["simulated_tau_path"] = [
            {"t": rec.t, "tau": rec.tau, "lambda": rec.lam} for rec in records]
    return payload


def _spectral(args) -> dict:
    q = SpectrumQuery.from_p(args.d, args.p)
    gap = spectral_gap(q)
    eigs = {f"l{ell}k{k}": eigenvalue(ell, k, q)
            for ell, k in [(1, 0), (0, 1), (2, 0), (0, 2)] if args.d > 1 or not ell}
    payload = {"a": q.a, "lambda_mass_gap": gap.rayleigh, "flow_gap": gap.flow,
               "lambda_ess": lambda_ess(q),
               "eigenvalues": {key: {"value": res.value, "status": res.status}
                               for key, res in eigs.items()}}
    try:
        lam_star, case = improved_gap(args.d, args.p)
        payload["lambda_star"] = {"value": lam_star, "case": case}
    except ValueError as exc:
        payload["lambda_star"] = {"error": str(exc)}
    if args.d >= 3:
        crit = critical_gap_parameters(args.d)
        payload["critical"] = {
            "a_gap": crit.a_gap, "eta": crit.eta,
            "eta_branches": [crit.eta_low, crit.eta_high],
            "eta_branches_agree": crit.eta_branches_agree,
        }
    if args.oracle:
        vals = discretized_radial_eigs(q, radial_oracle_mesh())
        payload["oracle_radial_eigs"] = [float(v) for v in vals]
    return payload


def _shoot(args) -> dict:
    if args.problem == "line":
        sol = emden_fowler_verify(args.d)
        return {"d": args.d, "amplitude": sol.a_coef, "rate": sol.b_coef,
                "residual": sol.residual,
                "first_integral_error": sol.first_integral_error}
    res = shoot_disk_radial()
    if args.scan_out:
        _write(args.scan_out, _csv("a,slope_at_one,sign_changes", res.scan))
    return {"a_star": res.a_star, "constant": res.constant,
            "residual": res.residual, "sign_changes": res.sign_changes}


def _harnack(args) -> dict:
    ratio, mu, mu_log_h = harnack_quotient(args.coefficient, args.lam0,
                                           args.lam1)
    return {"ratio": ratio, "log_ratio": math.log(ratio), "mu": mu,
            "mu_log_h": mu_log_h, "bound_satisfied": math.log(ratio) <= mu_log_h}


def _verify(args) -> tuple[str, int]:
    lines = []
    results = run_all(printer=lines.append)
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        sys.stdout.write(text)
    return text, 0 if all(r.passed for r in results) else 3


def _add_common(sp, handler):
    sp.add_argument("--config", help="flat key=value preset file")
    sp.add_argument("--out", help="output path (stdout when omitted)")
    sp.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fdstab",
                                 description="fast-diffusion entropy toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="emit the constant ledger as JSON")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--lam0", type=float, default=0.5)
    sp.add_argument("--lam1", type=float, default=2.0)
    sp.add_argument("--A", type=float, default=1.0)
    sp.add_argument("--G", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=None)
    _add_common(sp, _constants)

    sp = sub.add_parser("simulate", help="run a flow and emit a trajectory CSV")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--init", default="scaled-barenblatt:1.2")
    sp.add_argument("--t-end", type=float, default=3.0)
    sp.add_argument("--equation", choices=("fdr", "fd", "fdr-delayed"),
                    default="fdr")
    sp.add_argument("--cells", type=int, default=400)
    sp.add_argument("--r-max", type=float, default=50.0)
    sp.add_argument("--saves", type=int, default=60)
    sp.add_argument("--snapshot-out", help="CSV r,value of the final state")
    _add_common(sp, _simulate)

    sp = sub.add_parser("phase", help="integrate the moment comparison system")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--t-end", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    _add_common(sp, _phase)

    sp = sub.add_parser("delay", help="delay bound and a simulated delay path")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--k0", type=float, default=0.0)
    sp.add_argument("--s0", type=float, default=0.0)
    sp.add_argument("--simulate", action="store_true",
                    help="also run a moment-matched trajectory")
    sp.add_argument("--t-end", type=float, default=2.5)
    _add_common(sp, _delay)

    sp = sub.add_parser("spectral", help="gaps, eigenvalues and the FEM oracle")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--oracle", action="store_true")
    _add_common(sp, _spectral)

    sp = sub.add_parser("shoot", help="the two shooting problems")
    sp.add_argument("--problem", choices=("disk", "line"), default="disk")
    sp.add_argument("--d", type=int, default=4, help="dimension for the line problem")
    sp.add_argument("--scan-out", help="CSV of the (a, slope, sign changes) scan")
    _add_common(sp, _shoot)

    sp = sub.add_parser("harnack-check", help="empirical Harnack quotient")
    sp.add_argument("--lam0", type=float, default=0.5)
    sp.add_argument("--lam1", type=float, default=2.0)
    sp.add_argument("--coefficient", choices=("checkerboard", "constant"),
                    default="checkerboard")
    _add_common(sp, _harnack)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(sp, _verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        cfg = _load_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if cfg:
        # inject config entries right after the subcommand so explicit
        # flags, which come later, win
        i = argv.index("--config")
        del argv[i:i + 2]
        injected: list[str] = []
        for key, value in cfg.items():
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    injected.append(flag)
            else:
                injected += [flag, value]
        argv = argv[:1] + injected + argv[1:]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # a handler returns its artifact, and verify also its exit code
        artifact, code = args.handler(args), 0
        if isinstance(artifact, tuple):
            artifact, code = artifact
        if isinstance(artifact, dict):
            artifact = json.dumps(artifact, indent=2, default=float)
        _write(args.out, artifact)
        return code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
