"""The three benchmark workloads: seeded inputs, timed calls, output gates.

A workload is a list of kinds.  For each kind the benchmark draws a fresh
input from the seeded generator (untimed), times one call into fdstab on
it, then checks the output against tolerances that the verification
battery or the tier-1 tests already pin.  A check that fails raises
:class:`GateFailure`; the unit then counts as failed and its time is
dropped.

Every fdstab callable is reached through its module attribute at call
time (``F.solve_fdr``, not an imported name), so the traced run sees the
wrapped callables.  Inputs are built with public names only.

Input bands are narrow on purpose: the cost of a flow solve moves about
4 s per unit of the dilation lambda, so a draw in lambda +- 0.005 moves a
400-cell solve by about 1%.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from fdstab import constants as C
from fdstab import counterexample as CE
from fdstab import fields as Fi
from fdstab import flow as F
from fdstab import ledger as Le
from fdstab import logscale as Lg
from fdstab import moments as Mo
from fdstab import params as Pa
from fdstab import parabolic as Pb
from fdstab import profiles as Pr
from fdstab import shooting as Sh
from fdstab import spectral as Sp


class GateFailure(Exception):
    """An output missed one of the pinned tolerances."""


def _gate(ok, what: str) -> None:
    if not bool(ok):
        raise GateFailure(what)


@dataclass(frozen=True)
class Kind:
    """One input kind: ``draw(rng)`` makes an input, ``run(x)`` is the timed
    call, ``check(x, out)`` gates the output and returns accuracy figures,
    ``warm(x)`` is the same code path on a short horizon."""

    name: str
    draw: Callable[[np.random.Generator], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], dict]
    warm: Callable[[Any], Any]


# -- flows -------------------------------------------------------------------

EX34 = Pa.derive_exponents(3, m=0.75)
EX23 = Pa.derive_exponents(3, m=2.0 / 3.0)


def moment_matched(ex, mesh, l1: float, l2: float):
    """Two-dilation mix whose second moment matches the profile's."""
    c = (l2 - 1.0) / (l2 - l1)
    vals = c * Pr.barenblatt_scaled(ex, l1, mesh) \
        + (1.0 - c) * Pr.barenblatt_scaled(ex, l2, mesh)
    expo = 1.0 / (1.0 - ex.m) - ex.d / 2.0
    amp = c * l1 ** expo + (1.0 - c) * l2 ** expo
    fld = Fi.RadialField(ex, mesh, vals, Fi.TailModel(amp, 2.0 / (ex.m - 1.0)))
    return Fi.normalized_to_profile_mass(fld)


def _check_decay(traj) -> dict:
    """Gate of check_flow_properties: mass, exponential decay, quotient."""
    F_ = np.array([r.free_energy for r in traj.reports])
    Q = np.array([r.quotient for r in traj.reports])
    t = np.array(traj.times)
    _gate(traj.mass_drift < 1e-8, f"mass drift {traj.mass_drift:.2e} >= 1e-8")
    _gate(np.all(F_ <= F_[0] * np.exp(-4.0 * t) * 1.02), "F above F0 e^(-4t) 1.02")
    mask = F_ > 1e-12
    _gate(np.min(Q[mask]) >= 3.98, f"min Q {np.min(Q[mask]):.4f} < 3.98")
    return {"mass_drift": traj.mass_drift}


def _check_fdr(traj, ex) -> dict:
    """The rest of check_flow_properties (quotient law, fitted decay rate)
    and the moment law that tier-1 pins: max |dK/dt - (aS - 4K)| /
    max |aS - 4K| < 0.01 on interior saves."""
    F_ = np.array([r.free_energy for r in traj.reports])
    Q = np.array([r.quotient for r in traj.reports])
    t = np.array(traj.times)
    mask = (F_ > 1e-12)[:-1]
    dq, rhs = np.diff(Q) / np.diff(t), (Q * (Q - 4.0))[:-1]
    _gate(np.all(dq[mask] <= rhs[mask] + 0.05 * np.maximum(1.0, np.abs(rhs[mask]))),
          "dQ/dt above Q(Q - 4)")
    win = (F_ > 1e-10) & (F_ < 1e-3)
    rate = -np.polyfit(t[win], np.log(F_[win]), 1)[0]
    target = 4.0 + 2.0 * ex.d * (ex.m - 2.0 / 3.0)
    _gate(rate >= 0.9 * target, f"fitted rate {rate:.3f} < {0.9 * target:.3f}")
    K = np.array([r.rel_second_moment for r in traj.reports])
    S = np.array([r.rel_entropy for r in traj.reports])
    pred = ex.a_param * S - 4.0 * K
    resid = float(np.max(np.abs((np.gradient(K, t) - pred)[2:-2])) / np.max(np.abs(pred)))
    _gate(resid < 0.01, f"moment-law residual {resid:.2e} >= 0.01")
    return {"moment_residual": resid}


def fdr_kind(name: str, cells: int) -> Kind:
    mesh = F.default_flow_mesh(cells)

    def draw(rng):
        return Fi.normalized_to_profile_mass(
            Fi.barenblatt_field(EX34, mesh, rng.uniform(1.195, 1.205)))

    def check(x, traj):
        return _check_decay(traj) | _check_fdr(traj, EX34)

    return Kind(name, draw, lambda x: F.solve_fdr(x, 3.0, n_saves=60), check,
                lambda x: F.solve_fdr(x, 0.05, n_saves=2))


def delayed_kind(name: str, cells: int) -> Kind:
    """Moment-matched data near (l1, l2) = (0.8, 1.3), the battery's first
    pair and the one tier-1 runs.  The battery's five pairs cost 0.6 s to
    1.8 s each, so a draw among them would make the pass time follow the
    draw rather than the code."""
    mesh = F.default_flow_mesh(cells)
    tau_bullet = Mo.delay_bound(EX23, 0.0, 0.0).tau_bullet

    def draw(rng):
        return moment_matched(EX23, mesh, 0.8 + rng.uniform(-0.005, 0.005),
                              1.3 + rng.uniform(-0.005, 0.005))

    def check(x, traj):
        acc = _check_decay(traj)
        taus = np.array([rec.tau for rec in traj.delay])
        svals = np.array([rec.t + rec.tau for rec in traj.delay])
        sup = float(np.max(np.abs(taus)))
        _gate(sup <= tau_bullet, f"sup|tau| {sup:.3e} > tau_bullet {tau_bullet:.3e}")
        _gate(np.all(np.diff(svals) > 0.0), "s = t + tau not increasing")
        acc["tau_margin"] = tau_bullet - sup
        return acc

    return Kind(name, draw, lambda x: F.solve_fdr_delayed(x, 2.5, n_saves=25),
                check, lambda x: F.solve_fdr_delayed(x, 0.05, n_saves=2))


def fd_kind(name: str, cells: int) -> Kind:
    mesh = F.default_flow_mesh(cells)

    def draw(rng):
        return Fi.normalized_to_profile_mass(
            Fi.barenblatt_field(EX34, mesh, rng.uniform(0.995, 1.005)))

    def check(x, traj):
        # mass gate of the flows; entropy growth floor as in
        # test_fd_mass_and_growth_law, at its 1e-6 slack
        _gate(traj.mass_drift < 1e-8, f"mass drift {traj.mass_drift:.2e} >= 1e-8")
        E = np.array([s.entropy_integral() for s in traj.snapshots])
        floor = F.entropy_growth_floor(EX34, E[0], np.array(traj.times),
                                       mass=x.mass())
        _gate(np.all(E >= floor * (1.0 - 1e-6)), "entropy below the growth floor")
        return {"mass_drift": traj.mass_drift}

    return Kind(name, draw, lambda x: F.solve_fd_original(x, 0.1), check,
                lambda x: F.solve_fd_original(x, 0.005, n_saves=2))


# -- oracles -----------------------------------------------------------------

def _shoot_kind() -> Kind:
    def check(x, res):
        _gate(abs(res.a_star - 7.52449) <= 0.01, f"a* = {res.a_star}")
        _gate(abs(res.constant - 0.0564922) <= 5e-4, f"constant = {res.constant}")
        _gate(res.sign_changes == 1, f"{res.sign_changes} sign changes")
        return {}

    return Kind("shoot", lambda rng: 1.5 + rng.uniform(0.0, 0.25),
                lambda lo: Sh.shoot_disk_radial(scan_lo=lo), check,
                lambda lo: Sh.shoot_disk_radial(scan_lo=lo))


EX_ESCAPE = Pa.derive_exponents(3, p=1.5)
ESCAPE_K = (4, 8, 16, 32, 64)


def _escape_kind() -> Kind:
    def draw(rng):
        return [k * k * (1.0 + rng.uniform(-0.01, 0.01)) for k in ESCAPE_K]

    def run(centers):
        return [CE.counterexample_report(EX_ESCAPE, k, center=c)
                for k, c in zip(ESCAPE_K, centers)]

    def check(centers, reports):
        ds = [r.deficit for r in reports]
        es = [r.entropy for r in reports]
        ratios = [r.ratio for r in reports]
        _gate(all(a > b for a, b in zip(ds, ds[1:])), "deficit not decreasing")
        _gate(ds[-1] < ds[0] / 4.0, "deficit did not fall by 4")
        _gate(all(a < b for a, b in zip(es, es[1:])), "entropy not increasing")
        _gate(all(a > b for a, b in zip(ratios, ratios[1:])), "ratio not decreasing")
        slope = float(np.polyfit(np.log(centers), np.log(ratios), 1)[0])
        ex = EX_ESCAPE
        pred = -(2.0 - (ex.d + 2.0) * (1.0 - ex.m)) / (2.0 * ex.alpha)
        _gate(abs(slope - pred) <= 0.25 * abs(pred), f"slope {slope:.4f} vs {pred:.4f}")
        return {}

    return Kind("escape", draw, run, check,
                lambda centers: CE.counterexample_report(EX_ESCAPE, 4, center=centers[0]))


def _phase_kind() -> Kind:
    mt = Pr.closed_form_moments(EX23)

    def draw(rng):
        x0, y0 = [], []
        while len(x0) < 100:
            x = rng.uniform(-0.95 * mt.second_moment, 2.0 * mt.second_moment)
            y = rng.uniform(-0.95 * mt.entropy, 1.0)
            try:
                cap = Mo.psi_upper(EX23, x)
            except ValueError:   # x outside the admissible region, as in the battery
                continue
            if -mt.entropy < y <= cap:
                x0.append(x)
                y0.append(y)
        return np.array(x0), np.array(y0)

    def check(x, path):
        x0, y0 = x
        t = path["t"][:, None]
        eb = np.exp(-EX23.b_param * t)
        mix = EX23.a_param / (4.0 - EX23.b_param) * (eb - np.exp(-4.0 * t))
        xc = x0[None, :] * np.exp(-4.0 * t) + mix * y0[None, :]
        err = max(float(np.max(np.abs(path["x"] - xc))),
                  float(np.max(np.abs(path["y"] - y0[None, :] * eb))))
        _gate(err < 1e-8, f"|rk4 - closed form| = {err:.2e}")
        return {}

    return Kind("phase", draw,
                lambda x: Mo.xy_integrate_batch(EX23, x[0], x[1], 10.0, dt=1e-3),
                check, lambda x: Mo.xy_integrate_batch(EX23, x[0], x[1], 0.01))


def _spectral_kind() -> Kind:
    mesh = Sp.radial_oracle_mesh()

    def check(p, vals):
        exact = Sp.eigenvalue(0, 1, Sp.SpectrumQuery.from_p(3, p)).value
        _gate(abs(vals[1] - exact) <= 0.02 * exact,
              f"lambda01 {vals[1]:.4f} vs closed form {exact:.4f}")
        return {}

    return Kind("spectral", lambda rng: rng.uniform(1.95, 2.05),
                lambda p: Sp.discretized_radial_eigs(Sp.SpectrumQuery.from_p(3, p), mesh),
                check, lambda p: Sp.discretized_radial_eigs(Sp.SpectrumQuery.from_p(3, p), mesh))


# the battery's (d, m); m is only moved up because (3, 2/3) sits at p = p_star
MOMENT_PAIRS = [(3, 2.0 / 3.0), (3, 0.75), (2, 0.6), (4, 0.8)]


def _moments_kind() -> Kind:
    qmesh = Fi.quadrature_mesh()

    def draw(rng):
        return [(d, m + rng.uniform(0.0, 0.01)) for d, m in MOMENT_PAIRS]

    def run(pairs):
        out = []
        for d, m in pairs:
            ex = Pa.derive_exponents(d, m=m)
            mt = Pr.closed_form_moments(ex)
            fld = Fi.barenblatt_field(ex, qmesh)
            out.append([(fld.mass(), mt.mass),
                        (fld.second_moment(), mt.second_moment),
                        (fld.entropy_integral(), mt.entropy),
                        (fld.integrate_power(2 - m), mt.pow_2m),
                        (fld.integrate_power(2 - m, 2), mt.second_moment_pow_2m)])
        return out

    def check(pairs, out):
        worst = max(abs(a - b) / b for rows in out for a, b in rows)
        _gate(worst < 1e-6, f"worst quadrature rel err {worst:.2e}")
        return {}

    return Kind("moments", draw, run, check, lambda pairs: run(pairs[:1]))


def _golden_ledger():
    text = importlib.resources.files("fdstab").joinpath(
        "data/golden_ledger_d3_m075.json").read_text()
    golden = Le.ConstantLedger()
    for e in json.loads(text):
        ls = e["log_scale"]
        golden.entries[e["name"]] = Le.LedgerEntry(
            e["name"], Lg.LogReal(ls["lnsign"], ls["lndepth"], ls["lnmag"]),
            e["formula"])
    return golden


GOLDEN_INPUT = (3, 0.75, 0.5, 2.0, 1.0, 1.0)


def _ledger_kind() -> Kind:
    golden = _golden_ledger()

    def draw(rng):
        return (3, rng.uniform(0.745, 0.755), rng.uniform(0.49, 0.51),
                rng.uniform(1.98, 2.02), 1.0, 1.0)

    def run(args):
        return (C.build_ledger(*GOLDEN_INPUT), C.build_ledger(*args),
                C.build_ledger(*args))

    def check(args, out):
        gold, led, again = out
        bad = gold.close_to(golden, rel=1e-12)
        _gate(not bad, f"golden entries differ: {bad}")
        bad = led.close_to(again, rel=1e-12)
        _gate(not bad, f"ledger not reproducible: {bad}")
        return {}

    return Kind("ledger", draw, run, check, lambda args: C.build_ledger(*GOLDEN_INPUT))


def _harnack_kind() -> Kind:
    def draw(rng):
        return rng.uniform(0.45, 0.55), rng.uniform(1.9, 2.1)

    def run(lams):
        lam0, lam1 = lams
        coeff = Pb.checkerboard_coefficient(lam0, lam1)
        hist = Pb.solve_linear_parabolic(coeff, lam0, lam1, (-4.0, 4.0), 2.2)
        return Pb.harnack_ratio(hist, 1.1, 0.0, 1.0), C.moser_chain(1, lam0, lam1)

    def check(lams, out):
        ratio, mc = out
        bound = (lams[1] + 1.0 / lams[0]) * mc.h.ln_float()
        _gate(math.isfinite(ratio) and ratio >= 1.0, f"ratio {ratio}")
        _gate(math.log(ratio) <= bound, f"log ratio {math.log(ratio):.3e} > mu ln h")
        return {}

    return Kind("harnack", draw, run, check, run)


WORKLOADS: dict[str, Callable[[], list[Kind]]] = {
    # the traffic of verify, tier-1 and simulate: per-call overhead
    "flows": lambda: [fdr_kind("fdr", 400), delayed_kind("delayed", 400),
                      fd_kind("fd", 400)],
    # the same layer with more arithmetic per call
    "flow-refine": lambda: [fdr_kind("fdr_1600", 1600), fdr_kind("fdr_3200", 3200),
                            fd_kind("fd_1600", 1600)],
    # every non-flow path: the flow layer does no work here
    "oracles": lambda: [_shoot_kind(), _escape_kind(), _phase_kind(), _spectral_kind(),
                        _moments_kind(), _ledger_kind(), _harnack_kind()],
}
