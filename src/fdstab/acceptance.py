"""End-to-end verification checks, runnable from the CLI and the tests.

Each check returns a :class:`CheckResult`; ``run_all`` executes the full
battery and prints one pass/fail line per check.  Tolerances are pinned
here, not configurable.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from . import constants as C
from . import moments as Mo
from . import spectral as Sp
from .counterexample import counterexample_report
from .fields import (barenblatt_field, moment_matched_field,
                     normalized_to_profile_mass, quadrature_mesh)
from .flow import Trajectory, default_flow_mesh, solve_fdr, solve_fdr_delayed
from .functionals import (csiszar_kullback_gap, heisenberg_sides,
                          second_moment_bound_sides, xm_growth_bound, xm_norm)
from .ledger import ConstantLedger
from .parabolic import (checkerboard_coefficient, harnack_ratio,
                        solve_linear_parabolic)
from .params import ExponentSet, derive_exponents
from .profiles import closed_form_moments
from .shooting import emden_fowler_verify, shoot_disk_radial


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, passed, detail, t0) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)


def check_disk_shooting() -> CheckResult:
    t0 = time.perf_counter()
    res = shoot_disk_radial()
    # companion: the profile integrated at the collocated a* meets the
    # Neumann condition to the integration tolerance (|f'(1)| = 1.5e-9
    # measured)
    ok = (abs(res.a_star - 7.52449) <= 0.01
          and abs(res.constant - 0.0564922) <= 5e-4
          and res.sign_changes == 1
          and abs(res.slope_at_one) <= 1e-7
          and time.perf_counter() - t0 < 5.0)
    return _result("disk-shooting", ok,
                   f"a*={res.a_star:.6f} const={res.constant:.7f} "
                   f"residual={res.residual:.2e} |f'(1)|={abs(res.slope_at_one):.1e}", t0)


def check_interpolation_constants() -> CheckResult:
    t0 = time.perf_counter()
    k2 = C.embedding_constant(2)
    k3 = C.embedding_constant(3)
    k1 = C.embedding_constant(1, 8.0)
    # 25-digit references computed with independent arbitrary-precision
    # Gamma arithmetic (mpmath, dps = 30)
    k3_hp = 0.5476547144615429564643667
    k1_hp = 1.445902469855584736818706
    ok = (abs(k2 - 2.25675) <= 1e-5
          and abs(k3 - k3_hp) <= 1e-12 * k3_hp
          and abs(k1 - k1_hp) <= 1e-12 * k1_hp)
    return _result("interpolation-constants", ok,
                   f"K(2)={k2:.7f} K(3)={k3:.13f} K(1,p=8)={k1:.13f}", t0)


def check_emden_fowler() -> CheckResult:
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in (3, 4, 5, 6):
        sol = emden_fowler_verify(d)
        g0 = (0.25 * d * (d - 2.0)) ** ((d - 2.0) / 4.0)
        ok &= abs(sol.a_coef - g0) <= 1e-12 * g0
        if d == 4:
            ok &= abs(sol.a_coef - math.sqrt(2.0)) <= 1e-12
            ok &= sol.residual < 1e-10
        details.append(f"d={d}: A={sol.a_coef:.6f} res={sol.residual:.1e}")
    return _result("emden-fowler", ok, "; ".join(details), t0)


def check_closed_form_moments() -> CheckResult:
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for d, m in [(3, 2.0 / 3.0), (3, 0.75), (2, 0.6), (4, 0.8)]:
        ex = derive_exponents(d, m=m)
        mt = closed_form_moments(ex)
        fld = barenblatt_field(ex, quadrature_mesh())
        pairs = [(fld.mass(), mt.mass),
                 (fld.second_moment(), mt.second_moment),
                 (fld.entropy_integral(), mt.entropy),
                 (fld.integrate_power(2 - m), mt.pow_2m),
                 (fld.integrate_power(2 - m, 2), mt.second_moment_pow_2m)]
        worst = max(worst, max(abs(a - b) / b for a, b in pairs))
    ok &= worst < 1e-6
    ex = derive_exponents(3, m=2.0 / 3.0)
    mass = closed_form_moments(ex).mass
    ok &= abs(mass - math.pi ** 2 / 4.0) <= 1e-12 * mass
    return _result("closed-form-moments", ok,
                   f"worst quadrature rel err {worst:.2e}; "
                   f"M(3,2/3)-pi^2/4={mass - math.pi ** 2 / 4:.2e}", t0)


@functools.cache
def _dilated_profile_run() -> Trajectory:
    """The confined flow from B_1.2 at (d, m) = (3, 3/4) on the 400-cell
    flow mesh up to t = 3, 61 saves; run once and shared by the two checks
    that read it, neither of which changes it."""
    ex = derive_exponents(3, m=0.75)
    return solve_fdr(barenblatt_field(ex, default_flow_mesh(400), lam=1.2), 3.0)


def check_flow_properties() -> CheckResult:
    t0 = time.perf_counter()
    traj = _dilated_profile_run()
    F = np.array([r.free_energy for r in traj.reports])
    Q = np.array([r.quotient for r in traj.reports])
    t = np.array(traj.times)
    ok = traj.mass_drift < 1e-8
    ok &= bool(np.all(F <= F[0] * np.exp(-4.0 * t) * 1.02))
    mask = F > 1e-12
    ok &= bool(np.min(Q[mask]) >= 3.98)
    dq = np.diff(Q) / np.diff(t)
    rhs = (Q * (Q - 4.0))[:-1]
    ok &= bool(np.all(dq[mask[:-1]] <= rhs[mask[:-1]]
                      + 0.05 * np.maximum(1.0, np.abs(rhs[mask[:-1]]))))
    win = (F > 1e-10) & (F < 1e-3)
    rate = -np.polyfit(t[win], np.log(F[win]), 1)[0]
    target = 4.0 + 2.0 * 3.0 * (0.75 - 2.0 / 3.0)
    ok &= rate >= target * 0.9
    ok &= time.perf_counter() - t0 < 60.0
    return _result("flow-properties", ok,
                   f"mass drift {traj.mass_drift:.1e}, min Q {np.min(Q[mask]):.3f}, "
                   f"fitted rate {rate:.3f} (target >= {0.9 * target:.2f})", t0)


def check_phase_system() -> CheckResult:
    t0 = time.perf_counter()
    ex = derive_exponents(3, m=2.0 / 3.0)
    mt = closed_form_moments(ex)
    rng = np.random.default_rng(20260810)
    a = ex.a_param
    x0, y0 = [], []
    while len(x0) < 100:
        x = rng.uniform(-0.95 * mt.second_moment, 2.0 * mt.second_moment)
        y = rng.uniform(-0.95 * mt.entropy, 1.0)
        try:
            cap = Mo.psi_upper(ex, x)
        except ValueError:
            continue
        if -mt.entropy < y <= cap:
            x0.append(x)
            y0.append(y)
    x0 = np.array(x0)
    y0 = np.array(y0)
    path = Mo.xy_integrate_batch(ex, x0, y0, 10.0, dt=1e-3)
    xc, yc = Mo.xy_closed_form(Mo.PhaseState.make(ex, x0[:20], y0[:20]),
                               path["t"][:, None])
    err = max(float(np.max(np.abs(path["x"][:, :20] - xc))),
              float(np.max(np.abs(path["y"][:, :20] - yc))))
    ok = err < 1e-8
    ok &= bool(np.all(np.diff(path["energy"], axis=0)
                      <= 1e-10 * np.maximum(1.0, path["energy"][:-1])))
    tol = 1e-10
    for sel, lo_ok in ((y0 >= 0.0, np.all(path["y"][:, y0 >= 0.0] >= -tol)),
                       (y0 <= 0.0, np.all(path["y"][:, y0 <= 0.0] <= tol))):
        ok &= bool(lo_ok)
    cone = (x0 >= 0.0) & (y0 >= 0.0) & (y0 <= 4.0 * x0 / a)
    if np.any(cone):
        xs, ys = path["x"][:, cone], path["y"][:, cone]
        ok &= bool(np.all(xs >= -tol) and np.all(ys >= -tol)
                   and np.all(ys <= 4.0 * xs / a + tol))
    return _result("phase-system", ok, f"max |rk4 - closed| = {err:.2e} on 20 starts; "
                   "energy and region invariants on 100 starts", t0)


def moment_matched_delay_run(ex: ExponentSet, l1: float, l2: float,
                             t_end: float) -> Trajectory:
    """The delayed flow from the moment-matched mix of B_l1 and B_l2,
    sampled on the 400-cell flow mesh, 25 saves."""
    mesh = default_flow_mesh(400)
    return solve_fdr_delayed(moment_matched_field(ex, mesh, l1, l2), t_end, n_saves=25)


def check_delay_bound() -> CheckResult:
    t0 = time.perf_counter()
    ex = derive_exponents(3, m=2.0 / 3.0)
    tau_b = Mo.delay_bound(ex, 0.0, 0.0).tau_bullet
    assert tau_b is not None
    ok = True
    sups = []
    for l1, l2 in [(0.8, 1.3), (0.7, 1.5), (0.9, 1.15), (0.85, 1.25), (0.75, 1.4)]:
        traj = moment_matched_delay_run(ex, l1, l2, 2.5)
        taus = np.array([rec.tau for rec in traj.delay])
        svals = np.array([rec.t + rec.tau for rec in traj.delay])
        sups.append(float(np.max(np.abs(taus))))
        ok &= sups[-1] <= tau_b
        ok &= bool(np.all(np.diff(svals) > 0.0))
    return _result("delay-bound", ok,
                   f"sup|tau| over 5 runs: {max(sups):.2e} <= tau_bullet {tau_b:.3f}", t0)


def check_spectral() -> CheckResult:
    t0 = time.perf_counter()
    ok = True
    samples = [(8, 1.1), (2, 1.5), (3, 2.0), (3, 3.0), (4, 1.2),
               (5, 1.4), (3, 1.1), (6, 1.3), (2, 4.0), (7, 1.15)]
    for d, p in samples:
        q = Sp.SpectrumQuery.from_p(d, p)
        lam = Sp.eigenvalue(1, 0, q).value
        ok &= lam == 4.0 * p / (p - 1.0)
    q = Sp.SpectrumQuery.from_p(3, 2.0)
    vals = Sp.discretized_radial_eigs(q, Sp.radial_oracle_mesh())
    lam01 = float(vals[1])
    exact01 = Sp.eigenvalue(0, 1, q).value
    ok &= abs(lam01 - exact01) <= 0.02 * exact01
    crit6 = Sp.critical_gap_parameters(6)
    ok &= abs(crit6.a_low - crit6.a_high) <= 1e-12 * crit6.a_low
    ok &= not crit6.eta_branches_agree  # the mismatch must stay visible
    return _result("spectral", ok,
                   f"oracle lam01={lam01:.4f}; d=6 a-branches agree, "
                   f"eta branches ({crit6.eta_low:.4f} vs {crit6.eta_high:.4f}) reported", t0)


def _golden_ledger() -> ConstantLedger:
    return ConstantLedger.from_json(files("fdstab").joinpath(
        "data/golden_ledger_d3_m075.json").read_text())


def check_ledger_regression() -> CheckResult:
    t0 = time.perf_counter()
    led = C.build_ledger(3, 0.75, 0.5, 2.0, 1.0, 1.0)
    led2 = C.build_ledger(3, 0.75, 0.5, 2.0, 1.0, 1.0)
    bad = led.close_to(led2, rel=1e-12)
    ok = not bad
    detail = f"{len(led.names())} entries stable"
    bad_g = led.close_to(_golden_ledger(), rel=1e-12)
    ok &= not bad_g
    detail += f"; golden diff: {bad_g if bad_g else 'none'}"
    exc = derive_exponents(3, m=2.0 / 3.0)
    mc = C.moser_chain(3, 0.5, 2.0)
    ok &= mc.c2 == 2592.0
    _, kappa_star = C.positivity_constants(exc, C.smoothing_constant(exc))
    ok &= kappa_star == 96.0
    ok &= C.c_alpha_min(2.0) == 1.0
    # nu in (0,1) and nu >= 1/hbar at log-space resolution
    nu, hbar = mc.nu, mc.hbar
    ok &= nu.lnsign < 0  # nu < 1
    ln_nu = -nu.lnmag if nu.lndepth == 0 else -math.inf
    ln_inv_hbar = -hbar.lnmag if hbar.lndepth == 0 else -math.inf
    ok &= ln_nu >= ln_inv_hbar * (1.0 + 1e-12)
    return _result("ledger-regression", ok, detail, t0)


def check_counterexample() -> CheckResult:
    t0 = time.perf_counter()
    ex = derive_exponents(3, p=1.5)
    reports = [counterexample_report(ex, k) for k in (4, 8, 16, 32, 64)]
    ds = [r.deficit for r in reports]
    es = [r.entropy for r in reports]
    ratios = [r.ratio for r in reports]
    ok = all(a > b for a, b in zip(ds, ds[1:]))
    ok &= ds[-1] < ds[0] / 4.0
    ok &= all(a < b for a, b in zip(es, es[1:]))
    ok &= all(a > b for a, b in zip(ratios, ratios[1:]))
    slope = float(np.polyfit(np.log([r.center for r in reports]),
                             np.log(ratios), 1)[0])
    pred = -(2.0 - (ex.d + 2.0) * (1.0 - ex.m)) / (2.0 * ex.alpha)
    ok &= abs(slope - pred) <= 0.25 * abs(pred)
    return _result("counterexample-family", ok,
                   f"delta: {ds[0]:.3f}->{ds[-1]:.3f}; slope {slope:.4f} "
                   f"vs {pred:.4f}", t0)


def harnack_quotient(coefficient: str, lam0: float,
                     lam1: float) -> tuple[float, float, float]:
    """Harnack ratio, mu and mu ln h (h of the d = 1 Moser chain) of the
    "checkerboard" or "constant" (lam1) coefficient on x in (-4, 4) up to
    t = 2.2, the ratio read on the radius-1 cylinders around (1.1, 0)."""
    coeff = {"checkerboard": checkerboard_coefficient(lam0, lam1),
             "constant": lambda t, x: np.full_like(np.asarray(x, float), lam1),
             }[coefficient]
    hist = solve_linear_parabolic(coeff, lam0, lam1, (-4.0, 4.0), 2.2)
    return (harnack_ratio(hist, 1.1, 0.0, 1.0), hist.mu,
            hist.mu * C.moser_chain(1, lam0, lam1).h.ln_float())


def check_harnack() -> CheckResult:
    t0 = time.perf_counter()
    ratio, _, bound = harnack_quotient("checkerboard", 0.5, 2.0)
    ok = math.isfinite(ratio) and ratio >= 1.0 and math.log(ratio) <= bound
    return _result("harnack-sanity", ok,
                   f"log ratio {math.log(ratio):.4f} <= mu ln h = {bound:.3e} "
                   f"(margin {bound / math.log(ratio):.2e})", t0)


def check_paper_inequalities() -> CheckResult:
    t0 = time.perf_counter()
    traj = _dilated_profile_run()
    ex, snaps, mesh = traj.exponents, traj.snapshots, traj.snapshots[0].r
    # Heisenberg: equality on the dilations of B, which the flow keeps
    # (1.5e-5 to 2.0e-5 measured), strict on the moment-matched mix (7.4e-4)
    heis = [rhs / lhs - 1.0 for lhs, rhs in map(heisenberg_sides, snaps)]
    lhs, rhs = heisenberg_sides(moment_matched_field(ex, mesh, 0.8, 1.3))
    heis_mix = rhs / lhs - 1.0
    ok = 0.0 <= min(heis) and max(heis) <= 1e-4 and heis_mix > 1e-4
    # the second moment under its tail-norm bound, the tail norm under its
    # growth cap
    k_ratio = min(rhs / lhs for lhs, rhs in map(second_moment_bound_sides, snaps))
    xm = [xm_norm(snap) for snap in snaps]
    cap = xm_growth_bound(xm[0], ex, C.mass_displacement_constant(ex).to_float())
    ok &= k_ratio >= 1.0 and cap >= max(xm)
    # both Csiszar-Kullback forms on every save, against the profile
    # sampled on the mesh, each save rescaled past the mass gate; the f-side
    # ratio is half the standard one (see csiszar_kullback_gap), so both
    # hold where it does
    ref = barenblatt_field(ex, mesh)
    saves = [normalized_to_profile_mass(snap) for snap in snaps]
    ck = [rhs / lhs for lhs, rhs in (csiszar_kullback_gap(s, ref) for s in saves)]
    held = sum(a / 2.0 >= 1.0 for a in ck)
    ok &= held == len(snaps)
    # the threshold time of the critical case exceeds the delay bound
    chain = C.ghp_chain(derive_exponents(3, m=2.0 / 3.0), 1.0)
    lead, tau_b = C.critical_time_margin(chain, C.stability_constants_critical(chain))
    ok &= lead > tau_b
    return _result("paper-inequalities", ok,
                   f"Heisenberg rhs/lhs-1 {min(heis):.2e}..{max(heis):.2e} "
                   f"(mix {heis_mix:.1e}); K bound ratio {k_ratio:.2f}; "
                   f"tail-norm cap margin {cap / max(xm):.1e}; CK ratio {min(ck):.2f}, "
                   f"fg {min(ck) / 2.0:.2f} on {held}/{len(snaps)} saves; "
                   f"T lead {lead:.3f} > tau_bullet {tau_b:.3f}", t0)


ALL_CHECKS = [
    check_disk_shooting,
    check_interpolation_constants,
    check_emden_fowler,
    check_closed_form_moments,
    check_flow_properties,
    check_phase_system,
    check_delay_bound,
    check_spectral,
    check_ledger_regression,
    check_counterexample,
    check_harnack,
    check_paper_inequalities,
]


def run_all(printer=print) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        printer(f"[{status}] {res.name:28s} ({res.seconds:6.1f}s)  {res.detail}")
    n_fail = sum(not r.passed for r in results)
    printer(f"{len(results) - n_fail}/{len(results)} checks passed")
    return results
