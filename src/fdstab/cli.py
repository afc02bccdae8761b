"""Command-line surface: reproducible runs with CSV/JSON artifacts.

Subcommands: constants, simulate, phase, delay, spectral, shoot,
harnack-check, verify.  A flat key=value config file can preset any flag;
explicit flags override it.  Exit codes: 0 success, 1 usage error,
2 numerical failure, 3 verification failure.  All floats are printed with
17 significant digits so identical configurations produce bit-identical
artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np


def _fmt(x) -> str:
    return "%.17g" % float(x)


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


def _parse_init(spec: str, ex, mesh):
    from .fields import (barenblatt_field, moment_matched_field,
                         normalized_to_profile_mass)

    if spec == "barenblatt":
        fld = barenblatt_field(ex, mesh)
    elif spec.startswith("scaled-barenblatt:"):
        fld = barenblatt_field(ex, mesh, lam=float(spec.split(":", 1)[1]))
    elif spec.startswith("moment-matched:"):
        l1, l2 = (float(v) for v in spec.split(":", 1)[1].split(","))
        fld = moment_matched_field(ex, mesh, l1, l2)
    else:
        raise ValueError(f"unknown initial datum {spec!r}; use barenblatt, "
                         "scaled-barenblatt:LAM or moment-matched:L1,L2")
    # align the analytic normalization with the mesh's own quadrature so
    # coarse meshes do not trip the solver's mass gate
    return normalized_to_profile_mass(fld)


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value preset file")
    sp.add_argument("--out", help="output path (stdout when omitted)")


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
    _add_common(sp)

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
    _add_common(sp)

    sp = sub.add_parser("phase", help="integrate the moment comparison system")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--t-end", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    _add_common(sp)

    sp = sub.add_parser("delay", help="delay bound and a simulated delay path")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--k0", type=float, default=0.0)
    sp.add_argument("--s0", type=float, default=0.0)
    sp.add_argument("--simulate", action="store_true",
                    help="also run a moment-matched trajectory")
    sp.add_argument("--t-end", type=float, default=2.5)
    _add_common(sp)

    sp = sub.add_parser("spectral", help="gaps, eigenvalues and the FEM oracle")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--oracle", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("shoot", help="the two shooting problems")
    sp.add_argument("--problem", choices=("disk", "line"), default="disk")
    sp.add_argument("--d", type=int, default=4, help="dimension for the line problem")
    sp.add_argument("--scan-out", help="CSV of the (a, slope, sign changes) scan")
    _add_common(sp)

    sp = sub.add_parser("harnack-check", help="empirical Harnack quotient")
    sp.add_argument("--lam0", type=float, default=0.5)
    sp.add_argument("--lam1", type=float, default=2.0)
    sp.add_argument("--coefficient", choices=("checkerboard", "constant"),
                    default="checkerboard")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(sp)
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
        return _dispatch(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    from .params import derive_exponents

    if args.command == "constants":
        from .constants import build_ledger
        from .ledger import ConstantLedger
        led = build_ledger(args.d, args.m, args.lam0, args.lam1,
                           args.A, args.G, args.eps)
        # echo the inputs as a leading unit entry so the artifact is
        # self-describing and re-runnable
        echoed = ConstantLedger()
        echoed.put("inputs", 1.0,
                   f"d={args.d} m={_fmt(args.m)} lam0={_fmt(args.lam0)} "
                   f"lam1={_fmt(args.lam1)} A={_fmt(args.A)} G={_fmt(args.G)} "
                   f"eps={'auto' if args.eps is None else _fmt(args.eps)}")
        for entry in led.entries.values():
            echoed.entries[entry.name] = entry
        _write(args.out, echoed.to_json())
        return 0

    if args.command == "simulate":
        from .flow import (default_flow_mesh, solve_fd_original, solve_fdr,
                           solve_fdr_delayed)
        ex = derive_exponents(args.d, m=args.m)
        mesh = default_flow_mesh(args.cells, args.r_max)
        fld = _parse_init(args.init, ex, mesh)
        solver = {"fdr": solve_fdr, "fd": solve_fd_original,
                  "fdr-delayed": solve_fdr_delayed}[args.equation]
        traj = solver(fld, args.t_end, n_saves=args.saves)
        meta = (f"# d={args.d} m={_fmt(args.m)} init={args.init} "
                f"equation={args.equation} cells={args.cells} "
                f"r_max={_fmt(args.r_max)} t_end={_fmt(args.t_end)}\n")
        _write(args.out, meta + traj.to_csv())
        if args.snapshot_out:
            snap = traj.snapshots[-1]
            rows = ["r,value"] + [f"{_fmt(r)},{_fmt(v)}"
                                  for r, v in zip(snap.r, snap.v)]
            _write(args.snapshot_out, "\n".join(rows) + "\n")
        return 0

    if args.command == "phase":
        from .moments import xy_integrate_batch
        ex = derive_exponents(args.d, m=args.m)
        path = xy_integrate_batch(ex, args.x0, args.y0, args.t_end, args.dt)
        rows = ["t,X,Y,L"]
        for t, x, y, e in zip(path["t"], path["x"], path["y"], path["energy"]):
            rows.append(",".join(_fmt(v) for v in (t, x, y, e)))
        meta = (f"# d={args.d} m={_fmt(args.m)} x0={_fmt(args.x0)} "
                f"y0={_fmt(args.y0)} dt={_fmt(args.dt)}\n")
        _write(args.out, meta + "\n".join(rows) + "\n")
        return 0

    if args.command == "delay":
        from .moments import classify_region, delay_bound
        ex = derive_exponents(args.d, m=args.m)
        info = classify_region(ex, args.k0, args.s0)
        bound = delay_bound(ex, args.k0, args.s0)
        payload = {
            "region": info.region,
            "k_bullet": info.k_bullet,
            "t1": bound.t1,
            "tau_bound": bound.tau_bound,
            "tau_bullet": bound.tau_bullet,
        }
        if args.simulate:
            from .flow import default_flow_mesh, solve_fdr_delayed
            mesh = default_flow_mesh(400)
            fld = _parse_init("moment-matched:0.8,1.3", ex, mesh)
            traj = solve_fdr_delayed(fld, args.t_end, n_saves=25)
            taus = [rec.tau for rec in traj.delay]
            payload["simulated_sup_abs_tau"] = max(abs(t) for t in taus)
            payload["simulated_tau_path"] = [
                {"t": rec.t, "tau": rec.tau, "lambda": rec.lam}
                for rec in traj.delay]
        _write(args.out, json.dumps(payload, indent=2, default=float))
        return 0

    if args.command == "spectral":
        from .spectral import (SpectrumQuery, critical_gap_parameters,
                               discretized_radial_eigs, eigenvalue,
                               improved_gap, lambda_ess, radial_oracle_mesh,
                               spectral_gap)
        q = SpectrumQuery.from_p(args.d, args.p)
        gap = spectral_gap(q)
        payload = {
            "a": q.a,
            "lambda_mass_gap": gap.rayleigh,
            "flow_gap": gap.flow,
            "lambda_ess": lambda_ess(q),
            "eigenvalues": {},
        }
        for ell, k in [(1, 0), (0, 1), (2, 0), (0, 2)]:
            if args.d == 1 and ell:
                continue
            res = eigenvalue(ell, k, q)
            payload["eigenvalues"][f"l{ell}k{k}"] = {
                "value": res.value, "status": res.status}
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
        _write(args.out, json.dumps(payload, indent=2, default=float))
        return 0

    if args.command == "shoot":
        if args.problem == "disk":
            from .shooting import shoot_disk_radial
            res = shoot_disk_radial()
            if args.scan_out:
                rows = ["a,slope_at_one,sign_changes"] + [
                    f"{_fmt(a)},{_fmt(s)},{n}" for a, s, n in res.scan]
                _write(args.scan_out, "\n".join(rows) + "\n")
            payload = {"a_star": res.a_star, "constant": res.constant,
                       "residual": res.residual,
                       "sign_changes": res.sign_changes}
        else:
            from .shooting import emden_fowler_verify
            sol = emden_fowler_verify(args.d)
            payload = {"d": args.d, "amplitude": sol.a_coef, "rate": sol.b_coef,
                       "residual": sol.residual,
                       "first_integral_error": sol.first_integral_error}
        _write(args.out, json.dumps(payload, indent=2, default=float))
        return 0

    if args.command == "harnack-check":
        from .constants import moser_chain
        from .parabolic import (checkerboard_coefficient, harnack_ratio,
                                solve_linear_parabolic)
        if args.coefficient == "checkerboard":
            coeff = checkerboard_coefficient(args.lam0, args.lam1)
        else:
            coeff = lambda t, x: np.full_like(np.asarray(x, dtype=float),
                                              args.lam1)
        hist = solve_linear_parabolic(coeff, args.lam0, args.lam1,
                                      (-4.0, 4.0), 2.2)
        ratio = harnack_ratio(hist, 1.1, 0.0, 1.0)
        mc = moser_chain(1, args.lam0, args.lam1)
        mu = hist.mu
        payload = {
            "ratio": ratio,
            "log_ratio": math.log(ratio),
            "mu": mu,
            "mu_log_h": mu * mc.h.ln_float(),
            "bound_satisfied": math.log(ratio) <= mu * mc.h.ln_float(),
        }
        _write(args.out, json.dumps(payload, indent=2, default=float))
        return 0

    if args.command == "verify":
        from .acceptance import run_all
        lines = []
        results = run_all(printer=lambda s: lines.append(s))
        _write(args.out, "\n".join(lines) + "\n")
        if args.out is not None:
            for line in lines:
                print(line)
        return 0 if all(r.passed for r in results) else 3

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
