"""Radial finite-volume solvers for the fast-diffusion flows.

Three flows are integrated on a graded node-centered mesh (faces at node
midpoints, control volumes around nodes):

* ``solve_fdr``: the confined equation dv/dt = div(v grad(|x|^2 - v^{m-1})),
  whose stationary state is the profile B; sampling B at the nodes gives a
  discrete fixed point of the scheme exactly, because the centered
  difference of the quadratic B^{m-1} = 1 + r^2 at a face midpoint is
  exact.
* ``solve_fd_original``: the unconfined equation du/dt = Lap(u^m).
* ``solve_fdr_delayed``: the confined flow together with the time-delay
  equation dtau/dt = (moment ratio)^{-alpha/2} - 1 integrated with Heun
  steps on the same grid.

Time stepping is TR-BDF2 (second order, L-stable), each stage a damped
Newton solve of a tridiagonal system, with the embedded local error
estimate of Hosea and Shampine controlling the step; a step that cannot
meet the tolerance, or a run that takes max_steps steps short of t_end,
raises RuntimeError.  Mass is bookkept as the scheme's cell-volume sum
corrected by the flux through the outer face, weighted as the stages
apply it, so the reported drift isolates solver error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .fields import (DENSITY_FLOOR, RadialField, barenblatt_field, graded_mesh,
                     profile_tail, require_profile_mass)
from .functionals import EntropyReport, FixedReference, entropy_report
from .moments import DelayRecord
from .params import ExponentSet
from .profiles import (barenblatt, barenblatt_mass, closed_form_moments,
                       gns_optimal_constants, omega_d)

# TR-BDF2: the trapezoid stage reaches t + _GAMMA dt, both stages carry the
# implicit weight _D dt, and the BDF2 stage is v1 = v0 + _A (vg - v0) + _D dt f1
_GAMMA = 2.0 - math.sqrt(2.0)
_D = 0.5 * _GAMMA
_A = 1.0 / (_GAMMA * (2.0 - _GAMMA))
# local error weights on rhs at (t, t + _GAMMA dt, t + dt)
_E0, _E1, _E2 = (_GAMMA - 1.0) / 3.0, 1.0 / 3.0, -_GAMMA / 3.0


# Newton stops at max|residual| < NEWTON_TOL max(base); the time step
# starts at DT_INIT and never grows past DT_MAX
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30
DT_INIT = 1e-4
DT_MAX = 0.05


@dataclass(frozen=True)
class SolverOptions:
    step_tol: float = 1e-8       # local error of one step, max norm over max v
    max_steps: int = 2_000_000


@dataclass
class SolverStats:
    """Work counts of one run; machine independent, so runs compare by them."""

    accepted: int = 0            # accepted time steps
    rejected: int = 0            # steps retried with a smaller dt
    stage_solves: int = 0        # implicit stage solves, failed ones included
    newton_iters: int = 0        # Newton iterations (tridiagonal solves) in them
    dt_min: float = math.inf     # over accepted steps
    dt_max: float = 0.0
    dt_last: float = math.nan


@dataclass
class Trajectory:
    """Saved snapshots, entropy reports and bookkeeping of one run.

    ``conserved_mass`` is the scheme's own measure (cell volumes times
    nodal values, corrected by the outer-face flux), which the implicit
    steps conserve to Newton tolerance; the reports' ``mass`` field is
    the trapezoid quadrature of the same nodes and can differ at the
    mesh-resolution level while the profile changes shape.
    """

    exponents: ExponentSet
    times: list[float]
    snapshots: list[RadialField]
    reports: list[EntropyReport]
    mass_drift: float                    # max relative drift of bookkept mass
    sup_rel_err: list[float]             # sup |v/B - 1| per snapshot
    conserved_mass: list[float]
    stats: SolverStats
    delay: list[DelayRecord] | None = None

    def to_csv(self) -> str:
        """One row per save: the entropy report of a confined run, or the
        bookkept mass and int u^m of a free one, which carries no reports."""
        if self.reports[0] is None:
            rows = ["t,mass,entropy_integral"]
            for t, m_fv, snap in zip(self.times, self.conserved_mass,
                                     self.snapshots):
                rows.append(",".join("%.17g" % x for x in
                                     (t, m_fv, snap.entropy_integral())))
            return "\n".join(rows) + "\n"
        header = "t,F,I,Q,mass,second_moment,K,S,tau,lambda,sup_rel_err"
        rows = [header]
        for i, (t, rep) in enumerate(zip(self.times, self.reports)):
            tau, lam = (math.nan, math.nan)
            if self.delay is not None:
                tau, lam = self.delay[i].tau, self.delay[i].lam
            rows.append(",".join("%.17g" % x for x in (
                t, rep.free_energy, rep.fisher, rep.quotient, rep.mass,
                rep.second_moment, rep.rel_second_moment, rep.rel_entropy,
                tau, lam, self.sup_rel_err[i])))
        return "\n".join(rows) + "\n"


class _RadialScheme:
    """Geometry and flux assembly shared by the two nonlinear flows: the
    confined flow when given an outer ghost value, the free flow with a
    zero-flux outer boundary when not."""

    def __init__(self, ex: ExponentSet, mesh: np.ndarray,
                 ghost_value: float | None):
        self.ex = ex
        self.r = np.asarray(mesh, dtype=float)
        d = ex.d
        faces = 0.5 * (self.r[1:] + self.r[:-1])
        r_ghost = 2.0 * self.r[-1] - self.r[-2]
        outer_face = 0.5 * (self.r[-1] + r_ghost)
        self.faces = np.concatenate([[0.0], faces, [outer_face]])  # n+1 faces
        self.two_faces = 2.0 * faces
        self.area = self.faces ** (d - 1)
        self.vol = (self.faces[1:] ** d - self.faces[:-1] ** d) / d
        self.h = np.diff(self.r)
        self.h_ghost = r_ghost - self.r[-1]
        self.confined = ghost_value is not None
        self.ghost_value = ghost_value
        if self.confined:
            self.w_ghost = max(ghost_value, DENSITY_FLOOR) ** (ex.m - 1.0)

    def evaluate(self, v: np.ndarray) -> tuple:
        """rhs(v), its tridiagonal Jacobian as the bands (lower, diag,
        upper), and the flux through the outer face, from one pass.

        Each flow's flux through the interior faces is written next to its
        derivatives dl, dr in the node left and right of the face.
        """
        m, n = self.ex.m, v.size
        vc = np.maximum(v, DENSITY_FLOOR)
        flux = np.zeros(n + 1)
        if self.confined:
            w = vc ** (m - 1.0)
            dw = (m - 1.0) * vc ** (m - 2.0)
            base = self.two_faces - (w[1:] - w[:-1]) / self.h
            vbar = 0.5 * (v[1:] + v[:-1])
            flux[1:n] = vbar * base
            dl = 0.5 * base + vbar * dw[:-1] / self.h
            dr = 0.5 * base - vbar * dw[1:] / self.h
            base_o = 2.0 * self.faces[n] - (self.w_ghost - w[-1]) / self.h_ghost
            vbar_o = 0.5 * (v[-1] + self.ghost_value)
            flux[n] = vbar_o * base_o
            dl_o = 0.5 * base_o + vbar_o * dw[-1] / self.h_ghost
        else:
            # zero-flux outer boundary for the free flow
            dwm = m * vc ** (m - 1.0)
            w = vc ** m
            flux[1:n] = (w[1:] - w[:-1]) / self.h
            dl = -dwm[:-1] / self.h
            dr = dwm[1:] / self.h
            dl_o = 0.0
        rhs = (self.area[1:] * flux[1:] - self.area[:-1] * flux[:-1]) / self.vol
        # face i+1/2 (index i+1 in flux) adds to rows i and i+1
        face = self.area[1:n]
        diag = np.zeros(n)
        diag[:-1] += face * dl / self.vol[:-1]
        diag[1:] += -face * dr / self.vol[1:]
        diag[-1] += self.area[-1] * dl_o / self.vol[-1]
        upper = face * dr / self.vol[:-1]
        lower = -face * dl / self.vol[1:]
        return rhs, (lower, diag, upper), flux[n]


def _implicit_step(scheme: _RadialScheme, base: np.ndarray, h: float, v: np.ndarray,
                   stats: SolverStats) -> tuple[np.ndarray, tuple] | None:
    """Solve v - h rhs(v) = base by damped Newton from the guess v.

    Newton ends when the residual falls below NEWTON_TOL, after
    NEWTON_MAX_ITER iterations, or when the line search finds no decrease
    (the residual sits at the rounding floor); the last two are accepted
    when the residual is below 100 NEWTON_TOL.  Returns (v,
    scheme.evaluate(v)), or None when Newton does not converge.
    """
    stats.stage_solves += 1
    scale = float(np.max(base)) + 1e-30
    ev = scheme.evaluate(v)
    res = v - h * ev[0] - base
    norm = float(np.max(np.abs(res))) / scale
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            return v, ev
        lower, diag, upper = ev[1]
        stats.newton_iters += 1
        *_, delta, info = dgtsv(-h * lower, 1.0 - h * diag, -h * upper, -res)
        if info != 0:
            return None
        lam = 1.0
        for _ in range(12):
            trial = np.maximum(v + lam * delta, 0.0)
            ev_t = scheme.evaluate(trial)
            res_t = trial - h * ev_t[0] - base
            norm_t = float(np.max(np.abs(res_t))) / scale
            if norm_t < norm:
                v, ev, res, norm = trial, ev_t, res_t, norm_t
                break
            lam *= 0.5
        else:
            break
    return (v, ev) if norm < NEWTON_TOL * 100.0 else None


class _Stepper:
    """TR-BDF2 time stepping with an embedded error estimate.

    A step is a trapezoid stage to t + gamma dt and a BDF2 stage to t + dt,
    gamma = 2 - sqrt(2), so both stages solve v - h rhs(v) = base with the
    same h = gamma dt / 2 (Bank et al., IEEE Trans. CAD 4, 1985; Hosea and
    Shampine, Appl. Numer. Math. 20, 1996).  The rhs at the end of a step
    is the first stage value of the next one, and each stage solve
    returns the evaluation of its state, so the error filter and the
    mass bookkeeping need no pass of their own.
    """

    def __init__(self, scheme: _RadialScheme, opts: SolverOptions, v: np.ndarray):
        self.scheme = scheme
        self.opts = opts
        self.stats = SolverStats()
        self.t = 0.0
        self.v = v
        self.f, _, self.outer = scheme.evaluate(v)  # rhs, outer-face flux
        self.boundary_mass = 0.0    # integral of the outer-face flux

    def advance(self, dt: float) -> tuple[float, float]:
        """One step with local error control; returns (dt_taken, dt_next)."""
        scheme, opts, stats = self.scheme, self.opts, self.stats
        v0, f0 = self.v, self.f
        while True:
            if dt < 1e-14:
                raise RuntimeError(
                    f"time step fell below 1e-14 near t = {self.t} without "
                    f"meeting step_tol = {opts.step_tol}")
            h = _D * dt
            # Newton starts from an explicit Euler predictor for the
            # trapezoid stage and from the line through v0 and vg for BDF2,
            # each kept only where it stays positive
            guess = v0 + 2.0 * h * f0
            stage = _implicit_step(scheme, v0 + h * f0, h,
                                   np.where(guess > 0.0, guess, v0), stats)
            if stage is not None:
                vg, (fg, _, outer_g) = stage
                guess = v0 + (vg - v0) / _GAMMA
                stage = _implicit_step(scheme, v0 + _A * (vg - v0), h,
                                       np.where(guess > 0.0, guess, vg), stats)
            if stage is None:
                stats.rejected += 1
                dt *= 0.25
                continue
            v1, (f1, (lower, diag, upper), outer1) = stage
            # local error C dt^3 y''' with y''' from the second divided
            # difference of rhs over the stage points, filtered through
            # (I - h J(v1))^{-1} so that stiff modes do not inflate it
            *_, est, info = dgtsv(-h * lower, 1.0 - h * diag, -h * upper,
                                  dt * (_E0 * f0 + _E1 * fg + _E2 * f1))
            err = math.inf if info != 0 else \
                float(np.max(np.abs(est))) / (float(np.max(np.abs(v1))) + 1e-30)
            if err <= opts.step_tol:
                break
            stats.rejected += 1
            dt *= max(0.2, 0.7 * (opts.step_tol / err) ** (1.0 / 3.0))
        # the outer-face flux weighted as the two stages apply it
        self.boundary_mass += h * (_A * (self.outer + outer_g) + outer1) \
            * scheme.area[-1] * omega_d(scheme.ex.d)
        self.v, self.f, self.outer = v1, f1, outer1
        self.t += dt
        stats.accepted += 1
        stats.dt_min = min(stats.dt_min, dt)
        stats.dt_max = max(stats.dt_max, dt)
        stats.dt_last = dt
        grow = 0.9 * (opts.step_tol / max(err, 1e-30)) ** (1.0 / 3.0)
        return dt, min(DT_MAX, dt * min(4.0, max(0.2, grow)))


def _make_field(ex: ExponentSet, r: np.ndarray, v: np.ndarray) -> RadialField:
    v = np.maximum(v, 0.0)
    return RadialField(ex, r, v, profile_tail(ex).through(r, v))


def _confined_start(v0: RadialField) -> tuple[_RadialScheme, np.ndarray]:
    """Scheme and renormalized nodal values shared by the confined flows.

    The initial mass is renormalized to the profile mass when within 1e-6
    relative and rejected otherwise; the outer ghost node carries the
    profile value.
    """
    ex = v0.exponents
    mass0 = require_profile_mass(v0)
    r = v0.r
    ghost = float(barenblatt(ex, 2.0 * r[-1] - r[-2]))
    scheme = _RadialScheme(ex, r, ghost)
    return scheme, v0.v * (barenblatt_mass(ex) / mass0)


def solve_fdr(v0: RadialField, t_end: float, opts: SolverOptions = SolverOptions(),
              n_saves: int = 60) -> Trajectory:
    """Integrate the confined flow; initial mass is renormalized to the
    profile mass when within 1e-6 relative, rejected otherwise."""
    scheme, v = _confined_start(v0)
    return _run(scheme, v, t_end, opts, n_saves)


def solve_fd_original(u0: RadialField, t_end: float,
                      opts: SolverOptions = SolverOptions(), n_saves: int = 60) -> Trajectory:
    """Integrate the unconfined flow with a zero-flux outer boundary."""
    scheme = _RadialScheme(u0.exponents, u0.r, None)
    return _run(scheme, u0.v.copy(), t_end, opts, n_saves)


def _run(scheme: _RadialScheme, v: np.ndarray, t_end: float, opts: SolverOptions,
         n_saves: int, delay: bool = False) -> Trajectory:
    """Step to t_end and keep the time, snapshot, bookkept mass and (delayed
    flow) tau at n_saves + 1 save times; reports, errors and delay records
    are formed from the saved snapshots after the run."""
    if not t_end > 0.0 or n_saves < 1:
        raise ValueError(f"a flow run needs t_end > 0 and n_saves >= 1, "
                         f"got t_end = {t_end}, n_saves = {n_saves}")
    ex, r = scheme.ex, scheme.r
    m2_star = closed_form_moments(ex).second_moment
    stepper = _Stepper(scheme, opts, v)
    save_times = np.linspace(0.0, t_end, n_saves + 1).tolist()

    def bookkept_mass():
        # cell-volume mass corrected by the outer-face flux; the analytic
        # tail is not included because it is not evolved by the scheme
        return float(np.sum(scheme.vol * stepper.v)) * omega_d(ex.d) \
            - stepper.boundary_mass

    mass_ref = bookkept_mass()
    times, snaps, fv_mass, taus = [0.0], [_make_field(ex, r, v)], [mass_ref], [0.0]
    drift, tau = 0.0, 0.0
    if delay:
        ratio = snaps[0].second_moment() / m2_star
    dt = DT_INIT
    while stepper.t < t_end - 1e-12 and stepper.stats.accepted < opts.max_steps:
        dt = min(dt, t_end - stepper.t, max(1e-12, save_times[len(times)] - stepper.t))
        dt_taken, dt = stepper.advance(dt)
        snap = None
        if delay:
            # Heun update of the delay equation on the PDE grid
            g0 = ratio ** (-0.5 * ex.alpha) - 1.0
            snap = _make_field(ex, r, stepper.v)
            ratio = snap.second_moment() / m2_star
            g1 = ratio ** (-0.5 * ex.alpha) - 1.0
            dtau = 0.5 * dt_taken * (g0 + g1)
            if dtau <= -dt_taken:
                raise RuntimeError("delay rate reached ds/dt <= 0")
            tau += dtau
        mass = bookkept_mass()
        drift = max(drift, abs(mass - mass_ref) / mass_ref)
        if stepper.t >= save_times[len(times)] - 1e-12:
            times.append(stepper.t)
            snaps.append(_make_field(ex, r, stepper.v) if snap is None else snap)
            fv_mass.append(mass)
            taus.append(tau)
    if stepper.t < t_end - 1e-12:
        raise RuntimeError(
            f"stopped at t = {stepper.t} short of t_end = {t_end}: "
            f"max_steps = {opts.max_steps} accepted steps taken")
    reports, rel_errs, delays = [None] * len(times), [math.nan] * len(times), None
    if scheme.confined:
        # differenced against the discretized profile (the scheme's fixed
        # point), so the shared quadrature bias cancels; the tails do not (a
        # snapshot refits its tail at the last node, the reference has the
        # exact one), so at the profile itself a save reads F = -6.4e-12 at
        # (3, 3/4) and F = 4.0e-8, K = -3.0e-4, S = -2.0e-4 at (3, 2/3)
        ref = FixedReference.of(barenblatt_field(ex, r))
        reports = [entropy_report(snap, ref) for snap in snaps]
        rel_errs = [float(np.max(np.abs(snap.v / ref.field.v - 1.0)))
                    for snap in snaps]
    if delay:
        delays = [DelayRecord(t=t, tau=tau, r_factor=math.exp(2.0 * tau),
                              lam=rep.second_moment / m2_star / math.exp(4.0 * tau))
                  for t, tau, rep in zip(times, taus, reports)]
    return Trajectory(exponents=ex, times=times, snapshots=snaps,
                      reports=reports, mass_drift=drift, sup_rel_err=rel_errs,
                      conserved_mass=fv_mass, stats=stepper.stats, delay=delays)


def solve_fdr_delayed(v0: RadialField, t_end: float,
                      opts: SolverOptions = SolverOptions(), n_saves: int = 60) -> Trajectory:
    """Confined flow plus the delay equation.

    The trajectory carries one ``DelayRecord`` per save: the time, tau,
    the r-factor e^{2 tau} and the matching scale lambda.  Nothing is
    checked along the run; ``reconstruct_delayed`` rescales a saved
    snapshot, and ``test_delayed_flow_tau_bound`` checks at the last save
    that the rescaled snapshot's second moment is lambda times the
    profile's."""
    scheme, v = _confined_start(v0)
    return _run(scheme, v, t_end, opts, n_saves, delay=True)


def reconstruct_delayed(traj: Trajectory, index: int) -> tuple[float, RadialField]:
    """The rescaled snapshot w(s, y) = rf^d v(t, rf*y) at one save index."""
    if traj.delay is None:
        raise ValueError("trajectory carries no delay records")
    rec = traj.delay[index]
    snap = traj.snapshots[index]
    rf = rec.r_factor
    return rec.t + rec.tau, snap.dilated(rf, rf ** traj.exponents.d)


def map_fd_to_selfsimilar(ex: ExponentSet, t: float, r: np.ndarray,
                          u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Push one unconfined snapshot through the self-similar change of
    variables: returns (s, y, v(s, y)) with s = log(R)/2, y = lam* r / R."""
    lb = ex.lambda_bullet
    R = (1.0 + ex.alpha * t) ** (1.0 / ex.alpha)
    s = 0.5 * math.log(R)
    y = lb * r / R
    v = (R / lb) ** ex.d * u
    return s, y, v


def default_flow_mesh(n_cells: int = 400, r_max: float = 50.0) -> np.ndarray:
    """Solver mesh: uniform core to r = 5, geometric tail to r_max;
    ``ValueError`` unless n_cells >= 2 and r_max > 5."""
    if n_cells < 2 or not r_max > 5.0:
        raise ValueError(f"a flow mesh needs n_cells >= 2 and r_max > 5, "
                         f"got n_cells = {n_cells}, r_max = {r_max}")
    n_core = n_cells // 2
    return graded_mesh(5.0, n_core, r_max, n_cells - n_core)


def entropy_growth_floor(ex: ExponentSet, e0: float, t,
                         mass: float | None = None) -> np.ndarray:
    """Lower bound for int u^m along the unconfined flow of given mass.

    Integrates E' >= C0 E^{1-k} with k = (m - m_c)/(1 - m), which gives
    E(t)^k >= E(0)^k + k C0 t, with equality for the self-similar
    solution.  (A grouped display of this bound circulates with the
    reciprocal coefficient C0/k; the two agree only at the critical
    exponent, and the k C0 form is the one the self-similar solution
    saturates.)  ``mass`` defaults to the canonical profile mass.
    """
    g = gns_optimal_constants(ex)
    p, th, d, m = ex.p, ex.theta, ex.d, ex.m
    if mass is None:
        mass = closed_form_moments(ex).mass
    c0 = (p - 1.0) / (2.0 * p) * (p + 1.0) ** 2 * g.c_gns ** (2.0 / th) \
        * mass ** (((d + 2.0) * m - d) / (d * (1.0 - m)))
    k = (m - ex.m_c) / (1.0 - m)
    return (e0 ** k + k * c0 * np.asarray(t)) ** (1.0 / k)
