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

The three flows share one entry, :func:`_run`, and take their datum as
sampled: any datum whose cell-volume mass is off its quadrature mass by
more than RESOLUTION_TOL, a datum the mesh does not resolve, is refused
with ``ValueError`` before the first step, and only then is a confined
datum rescaled to the profile mass
(:func:`~fdstab.fields.normalized_to_profile_mass` is the flows' one
mass gate).

Time stepping is TR-BDF2 (second order, L-stable), each stage a damped
Newton solve of a tridiagonal system, with the embedded local error
estimate of Hosea and Shampine holding each step to STEP_TOL; a step that
cannot meet it, a run that takes MAX_STEPS steps short of t_end, or one
whose recent pace projects past MAX_STEPS, raises RuntimeError.  The step
controller alone sets the steps, and only the last one is clipped, at
t_end: a save time inside a step reads the cubic Hermite interpolant of
the step's end values and slopes (dense output).  Mass is bookkept as the
scheme's cell-volume sum corrected by the flux through the outer face,
weighted as the stages apply it, so the reported drift isolates solver
error.  The solver settings are the module constants below, one value
for every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg loads at the first solve, so importing fdstab skips it

from .fields import (DENSITY_FLOOR, RadialField, barenblatt_field, graded_mesh,
                     normalized_to_profile_mass, profile_tail)
from .functionals import EntropyReport, entropy_report
from .moments import DelayRecord
from .params import ExponentSet
from .profiles import barenblatt, closed_form_moments, gns_optimal_constants, omega_d

# TR-BDF2: the trapezoid stage reaches t + _GAMMA dt, both stages carry the
# implicit weight _D dt, and the BDF2 stage is v1 = v0 + _A (vg - v0) + _D dt f1
_GAMMA = 2.0 - math.sqrt(2.0)
_D = 0.5 * _GAMMA
_A = 1.0 / (_GAMMA * (2.0 - _GAMMA))
# local error weights on rhs at (t, t + _GAMMA dt, t + dt)
_E0, _E1, _E2 = (_GAMMA - 1.0) / 3.0, 1.0 / 3.0, -_GAMMA / 3.0


# the local error of one step, max norm over max v, and the accepted steps
# a run may take
STEP_TOL = 1e-8
MAX_STEPS = 2_000_000
# Newton stops at max|residual| < NEWTON_TOL max(base); the time step
# starts at DT_INIT and never grows past DT_MAX
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30
DT_INIT = 1e-4
DT_MAX = 0.05
# a run checks its pace (mean dt) every PACE_WINDOW accepted steps
PACE_WINDOW = 100
# the largest |cell-volume mass / quadrature mass - 1| of a datum a flow
# accepts.  Resolved data read at most 2.9e-3 on the CLI tests' 120-cell
# mesh and 2.3e-2 on 60 cells at d = 2, 3 and 5, and every dilation
# 1e-4 <= lam <= 1e4 of B that the 1e-3 mass gate admits on 120-1600
# cells at d = 3 reads at most 0.055 (a margin of 1.8x); the data the mesh
# does not resolve read 0.31 (lam = 1e-3 on 400 cells at (3, 3/4)), -0.18
# (1e3), -0.996 (1e4) and 6.2e105 (1e-30, also rescaled to the profile
# mass), so the nearest is 1.8x above the bound
RESOLUTION_TOL = 0.1


@dataclass
class SolverStats:
    """Work counts of one run; machine independent, so runs compare by them."""

    accepted: int = 0            # accepted time steps
    rejected: int = 0            # steps retried with a smaller dt
    stage_solves: int = 0        # implicit stage solves, failed ones included
    newton_iters: int = 0        # Newton iterations in them, one system solve each
    dt_min: float = math.inf     # over accepted steps; only the last is clipped
    dt_max: float = 0.0
    dt_last: float = math.nan


@dataclass
class Trajectory:
    """Saved snapshots, entropy reports and bookkeeping of one run.

    Snapshot 0 holds the values the run starts from: a confined datum's
    rescaled to the profile mass, a free datum's as given.  The last
    holds the state at t_end; a save between them falls inside a step
    and holds the cubic Hermite interpolant of that step's end states and
    rhs (a stiff node the chord, see :func:`_run`), its bookkept mass and
    tau interpolated with the same weights, unless the step ends within
    1e-12 of it.
    ``conserved_mass`` is the scheme's own measure (cell volumes times
    nodal values, corrected by the outer-face flux), which the implicit
    steps conserve to Newton tolerance; the reports' ``mass`` field is
    the trapezoid quadrature of the same nodes and can differ at the
    mesh-resolution level while the profile changes shape.  From B_1.2 at
    (d, m) = (3, 3/4) on 400 cells, the snapshots drift off the profile's
    quadrature mass by up to 4.4e-5 relative by t = 3 while the bookkept
    mass drifts by 2.2e-14; so the Csiszar-Kullback bound, whose 1e-6 gate
    is :func:`~fdstab.fields.require_profile_mass`, reads a save after the
    first only once :func:`~fdstab.fields.normalized_to_profile_mass` has
    rescaled it.
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

    def table(self) -> tuple[str, list[tuple]]:
        """(CSV header, one row per save): the entropy report of a confined
        run, or the bookkept mass and int u^m of a free one, which carries
        no reports."""
        if self.reports[0] is None:
            return "t,mass,entropy_integral", [
                (t, m_fv, snap.entropy_integral()) for t, m_fv, snap
                in zip(self.times, self.conserved_mass, self.snapshots)]
        rows = []
        for i, (t, rep) in enumerate(zip(self.times, self.reports)):
            tau, lam = (math.nan, math.nan)
            if self.delay is not None:
                tau, lam = self.delay[i].tau, self.delay[i].lam
            rows.append((t, rep.free_energy, rep.fisher, rep.quotient, rep.mass,
                         rep.second_moment, rep.rel_second_moment,
                         rep.rel_entropy, tau, lam, self.sup_rel_err[i]))
        return "t,F,I,Q,mass,second_moment,K,S,tau,lambda,sup_rel_err", rows


class _RadialScheme:
    """Geometry and flux assembly shared by the two nonlinear flows: the
    confined flow, whose outer ghost node carries the profile value, when
    ``confined``, the free flow with a zero-flux outer boundary when not.

    The per-mesh factors of the fluxes and of their derivatives are formed
    here, once per run.  So one evaluation makes one power w of the nodal
    values and writes the area-weighted fluxes into one face buffer, and
    the Newton system at that state takes the derivative of the power
    from the same w (k vc^(k-1) = k w / vc) instead of a second power.
    A time step (:class:`_Stepper`) whose stages take one Newton
    iteration each makes 4 evaluations and forms and solves 2 systems.
    """

    def __init__(self, ex: ExponentSet, mesh: np.ndarray, confined: bool):
        self.ex = ex
        self.r = np.asarray(mesh, dtype=float)
        d, m = ex.d, ex.m
        faces = 0.5 * (self.r[1:] + self.r[:-1])
        r_ghost = 2.0 * self.r[-1] - self.r[-2]
        outer_face = 0.5 * (self.r[-1] + r_ghost)
        self.faces = np.concatenate([[0.0], faces, [outer_face]])  # n+1 faces
        self.area = self.faces ** (d - 1)
        self.vol = (self.faces[1:] ** d - self.faces[:-1] ** d) / d
        self.omega = omega_d(d)
        face = self.area[1:-1]                 # the interior faces
        inv_h = 1.0 / np.diff(self.r)
        self.inv_vol = 1.0 / self.vol
        # face / vol for the node left and right of each interior face,
        # and the outer face's area over the last cell's volume
        self.face_vol_l = face / self.vol[:-1]
        self.face_vol_r = face / self.vol[1:]
        self.area_vol_o = self.area[-1] / self.vol[-1]
        # area times flux on the n+1 faces: each evaluation writes all but
        # the zero flux through r = 0
        self.flux = np.zeros(self.faces.size)
        self.confined = confined
        if confined:
            # the flux through a face is vbar (2 face - dw / h), vbar the
            # mean of the face's two nodes, so area times flux is
            # (face / 2) (v_l + v_r) (2 face - dw / h); and vbar times the
            # derivative (m - 1) w / vc of w is (v_l + v_r) (m - 1) / (2 h)
            # times w / vc
            self.inv_h = inv_h
            self.two_faces = 2.0 * faces
            self.half_face = 0.5 * face
            self.jac_factor = (m - 1.0) / 2.0 * inv_h
            self.h_ghost = r_ghost - self.r[-1]
            self.ghost_value = float(barenblatt(ex, r_ghost))
            self.w_ghost = max(self.ghost_value, DENSITY_FLOOR) ** (m - 1.0)
        else:
            # the flux dw / h has the derivatives -/+ (m / h) w / vc in the
            # nodes left and right of its face
            self.face_inv_h = face * inv_h
            self.jac_factor = m * inv_h

    def evaluate(self, v: np.ndarray) -> tuple:
        """rhs(v) and the flux through the outer face, from one pass, and
        the parts of that pass which :meth:`system` needs to form the
        Newton system at v: the clipped state vc and its power w first."""
        n = v.size
        vc = np.maximum(v, DENSITY_FLOOR)
        flux = self.flux
        if self.confined:
            w = vc ** (self.ex.m - 1.0)
            base = np.subtract(w[1:], w[:-1])
            base *= self.inv_h
            np.subtract(self.two_faces, base, out=base)
            vsum = v[1:] + v[:-1]
            inner = np.multiply(self.half_face, vsum, out=flux[1:n])
            inner *= base
            base_o = 2.0 * self.faces[n] - (self.w_ghost - w[-1]) / self.h_ghost
            vbar_o = 0.5 * (v[-1] + self.ghost_value)
            outer = vbar_o * base_o
            flux[n] = self.area[-1] * outer
            parts = (vc, w, vsum, base, base_o, vbar_o)
        else:
            # zero-flux outer boundary for the free flow
            w = vc ** self.ex.m
            inner = np.subtract(w[1:], w[:-1], out=flux[1:n])
            inner *= self.face_inv_h
            outer = 0.0
            parts = (vc, w)
        rhs = np.subtract(flux[1:], flux[:-1])
        rhs *= self.inv_vol
        return rhs, outer, parts

    def system(self, parts: tuple, h: float) -> tuple:
        """Bands (lower, diag, upper) of I - h J at the state whose
        evaluation gave ``parts``, J the tridiagonal Jacobian of rhs.

        Each flow's flux through the interior faces has the derivatives
        dl, dr in the node left and right of the face; the bands are
        formed from a = h dl and b = -h dr.
        """
        vc, w = parts[:2]
        q = w / vc
        if self.confined:
            vsum, base, base_o, vbar_o = parts[2:]
            c = vsum * self.jac_factor
            c *= h
            half = (0.5 * h) * base
            a = c * q[:-1]
            a += half
            b = c * q[1:]
            b -= half
            dl_o = 0.5 * base_o + vbar_o * (self.ex.m - 1.0) * q[-1] / self.h_ghost
            outer = h * self.area_vol_o * dl_o
        else:
            c = self.jac_factor * -h
            a = c * q[:-1]
            b = c * q[1:]
            outer = 0.0
        # face i+1/2 adds face dl / vol and face dr / vol to row i of J and
        # -face dl / vol and -face dr / vol to row i+1, and the outer face
        # adds area dl_o / vol to the last row
        diag = np.empty(q.size)
        np.multiply(a, self.face_vol_l, out=diag[:-1])
        diag[-1] = outer
        diag[1:] += b * self.face_vol_r
        np.subtract(1.0, diag, out=diag)
        return a * self.face_vol_r, diag, b * self.face_vol_l


def _factor(bands: tuple) -> list | None:
    """LU factors of the tridiagonal system (LAPACK dgttrf), or None when
    it is singular; the bands are overwritten."""
    *lu, info = scipy.linalg.lapack.dgttrf(*bands, overwrite_dl=1, overwrite_d=1,
                                           overwrite_du=1)
    return lu if info == 0 else None


def _solve(lu: list, b: np.ndarray) -> np.ndarray | None:
    """The solve with the factors of :func:`_factor` (LAPACK dgttrs), or
    None when it fails; b is overwritten."""
    x, info = scipy.linalg.lapack.dgttrs(*lu, b, overwrite_b=1)
    return x if info == 0 else None


def _solve_once(bands: tuple, b: np.ndarray) -> np.ndarray | None:
    """The solve of a tridiagonal system whose factors nothing reuses, in
    one LAPACK dgtsv call (the elimination of dgttrf and dgttrs, so the
    same floats), or None when it is singular; bands and b are
    overwritten."""
    *_, x, info = scipy.linalg.lapack.dgtsv(*bands, b, overwrite_dl=1, overwrite_d=1,
                                            overwrite_du=1, overwrite_b=1)
    return x if info == 0 else None


def _implicit_step(scheme: _RadialScheme, base: np.ndarray, h: float, v: np.ndarray,
                   stats: SolverStats, keep_factors: bool) -> tuple | None:
    """Solve v - h rhs(v) = base by damped Newton from the guess v.

    Newton ends when the residual falls below NEWTON_TOL, after
    NEWTON_MAX_ITER iterations, or when the line search finds no decrease
    (the residual sits at the rounding floor); the last two are accepted
    when the residual is below 100 NEWTON_TOL.  Each iteration forms and
    solves its Newton system once, factored with dgttrf when
    ``keep_factors`` and by one dgtsv call when not; a line-search trial
    forms none.  Returns (v, scheme.evaluate(v), lu), lu the factors of
    the last iteration's system, or None when they were not kept or the
    guess met NEWTON_TOL; or None when Newton does not converge.
    """
    stats.stage_solves += 1
    scale = float(base.max()) + 1e-30
    ev = scheme.evaluate(v)
    res = v - h * ev[0] - base
    norm = float(np.abs(res).max()) / scale
    lu = None
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            return v, ev, lu
        stats.newton_iters += 1
        bands = scheme.system(ev[2], h)
        # the Newton step is -step; res is solved in place
        if keep_factors:
            lu = _factor(bands)
            step = None if lu is None else _solve(lu, res)
        else:
            step = _solve_once(bands, res)
        if step is None:
            return None
        lam = 1.0
        for _ in range(12):
            trial = v - (step if lam == 1.0 else lam * step)
            np.maximum(trial, 0.0, out=trial)
            ev_t = scheme.evaluate(trial)
            res_t = trial - h * ev_t[0] - base
            norm_t = float(np.abs(res_t).max()) / scale
            if norm_t < norm:
                v, ev, res, norm = trial, ev_t, res_t, norm_t
                break
            lam *= 0.5
        else:
            break
    return (v, ev, lu) if norm < NEWTON_TOL * 100.0 else None


class _Stepper:
    """TR-BDF2 time stepping with an embedded error estimate.

    A step is a trapezoid stage to t + gamma dt and a BDF2 stage to t + dt,
    gamma = 2 - sqrt(2), so both stages solve v - h rhs(v) = base with the
    same h = gamma dt / 2 (Bank et al., IEEE Trans. CAD 4, 1985; Hosea and
    Shampine, Appl. Numer. Math. 20, 1996).  The rhs at the end of a step
    is the first stage value of the next one, and each stage solve
    returns the evaluation of its state, so the error filter and the
    mass bookkeeping need no rhs pass of their own.  A Newton system
    I - h J is formed and solved once per Newton iteration.  The error
    filter solves with the BDF2 stage's last iteration matrix, the
    iteration matrix with which Hosea and Shampine filter, so that stage
    keeps its dgttrf factors and the trapezoid stage solves by one dgtsv
    call; only when the BDF2 stage meets NEWTON_TOL at its guess does the
    filter form the system at the stage's end state, solved by one dgtsv
    call.  A step whose stages take one Newton iteration each makes 4 rhs
    passes, forms 2 Newton systems, and makes 1 dgtsv call, 1 dgttrf
    factorization and 2 dgttrs solves.  The run interpolates the saves
    inside a step from the stepper's state before and after it: v, rhs,
    the outer-face flux and the boundary mass.
    """

    def __init__(self, scheme: _RadialScheme, v: np.ndarray):
        self.scheme = scheme
        self.stats = SolverStats()
        self.t = 0.0
        self.v = v
        self.f, self.outer, _ = scheme.evaluate(v)  # rhs, outer-face flux
        self.boundary_mass = 0.0    # integral of the outer-face flux

    def advance(self, dt: float) -> tuple[float, float]:
        """One step with local error control; returns (dt_taken, dt_next)."""
        scheme, stats = self.scheme, self.stats
        v0, f0 = self.v, self.f
        while True:
            if dt < 1e-14:
                raise RuntimeError(
                    f"time step fell below 1e-14 near t = {self.t} without "
                    f"meeting STEP_TOL = {STEP_TOL}")
            h = _D * dt
            # Newton starts from an explicit Euler predictor for the
            # trapezoid stage and from the line through v0 and vg for BDF2,
            # each kept only where it stays positive
            hf0 = h * f0
            base = v0 + hf0
            guess = base + hf0
            stage = _implicit_step(scheme, base, h,
                                   np.where(guess > 0.0, guess, v0), stats, False)
            if stage is not None:
                vg, (fg, outer_g, _), _ = stage
                dvg = vg - v0
                guess = v0 + dvg / _GAMMA
                stage = _implicit_step(scheme, v0 + _A * dvg, h,
                                       np.where(guess > 0.0, guess, vg), stats, True)
            if stage is None:
                stats.rejected += 1
                dt *= 0.25
                continue
            v1, (f1, outer1, parts1), lu = stage
            # local error C dt^3 y''' with y''' from the second divided
            # difference of rhs over the stage points, filtered through
            # the iteration matrix I - h J so that stiff modes do not
            # inflate it; v1 >= 0, so max v1 is max |v1|
            y3 = dt * (_E0 * f0 + _E1 * fg + _E2 * f1)
            est = _solve_once(scheme.system(parts1, h), y3) if lu is None \
                else _solve(lu, y3)
            err = math.inf if est is None \
                else float(np.abs(est).max()) / (float(v1.max()) + 1e-30)
            if err <= STEP_TOL:
                break
            stats.rejected += 1
            dt *= max(0.2, 0.7 * (STEP_TOL / err) ** (1.0 / 3.0))
        # the outer-face flux weighted as the two stages apply it
        self.boundary_mass += h * (_A * (self.outer + outer_g) + outer1) \
            * scheme.area[-1] * scheme.omega
        self.v, self.f, self.outer = v1, f1, outer1
        self.t += dt
        stats.accepted += 1
        stats.dt_min = min(stats.dt_min, dt)
        stats.dt_max = max(stats.dt_max, dt)
        stats.dt_last = dt
        grow = 0.9 * (STEP_TOL / max(err, 1e-30)) ** (1.0 / 3.0)
        return dt, min(DT_MAX, dt * min(4.0, max(0.2, grow)))


def _make_field(ex: ExponentSet, r: np.ndarray, v: np.ndarray) -> RadialField:
    # a fresh array, handed over read-only so that the field keeps it uncopied
    v = np.maximum(v, 0.0)
    v.flags.writeable = False
    return RadialField(ex, r, v, profile_tail(ex).through(r, v))


def _hermite_weights(theta: float, dt: float) -> tuple[float, float, float, float]:
    """(h00, dt h10, h01, dt h11) at theta = (t - t0) / dt: the cubic
    Hermite interpolant of the values y0, y1 and slopes y0', y1' at t0 and
    t0 + dt is h00 y0 + dt h10 y0' + h01 y1 + dt h11 y1' (Hairer, Norsett
    and Wanner, Solving ODEs I, II.6)."""
    rest = 1.0 - theta
    return ((1.0 + 2.0 * theta) * rest * rest, dt * theta * rest * rest,
            theta * theta * (3.0 - 2.0 * theta), -dt * theta * theta * rest)


def _second_moment_of(ex: ExponentSet, r: np.ndarray):
    """v -> the second moment of _make_field(ex, r, v), without the field.

    The weight omega_d r^{d+1}, the mesh differences and the tail factor
    are formed once; per call the trapezoid sum and the tail term keep the
    expressions and order of RadialField.quad and RadialField.power_tail,
    with the amplitude fitted as TailModel.through fits it, so the float is
    the field's own.  The tail term converges (expo < 0) wherever the
    profile's second moment, which the delayed flow divides by, exists.
    """
    tail = profile_tail(ex)
    weight = omega_d(ex.d) * r ** (ex.d + 1)
    dr = r[1:] - r[:-1]
    expo = ex.d + 2 + tail.power
    omega, r_pow, r_last = omega_d(ex.d), float(r[-1]) ** expo, float(r[-1])

    def second_moment(v: np.ndarray) -> float:
        y = np.maximum(v, 0.0) * weight
        total = float((dr * (y[1:] + y[:-1]) / 2.0).sum())
        amplitude = max(float(v[-1]), 0.0) / r_last ** tail.power
        if amplitude == 0.0:
            return total
        return total + omega * amplitude * r_pow / (-expo)
    return second_moment


def solve_fdr(v0: RadialField, t_end: float, n_saves: int = 60) -> Trajectory:
    """Integrate the confined flow from v0 as sampled; :func:`_run` rescales
    it to the profile mass and refuses what the mesh does not resolve."""
    return _run(v0, t_end, n_saves, confined=True)


def solve_fd_original(u0: RadialField, t_end: float, n_saves: int = 60) -> Trajectory:
    """Integrate the unconfined flow with a zero-flux outer boundary from u0
    as given, at its own mass; :func:`_run` refuses what the mesh does not
    resolve."""
    return _run(u0, t_end, n_saves, confined=False)


def _out_of_steps(remaining: float, pace: float, pace0: float, windows_run: int,
                  windows_left: float) -> bool:
    """Whether windows_left more windows of PACE_WINDOW steps fall short of
    the remaining time when the pace (mean dt) of the last window keeps
    growing by the mean factor g per window by which it grew from pace0,
    the pace of the first window, windows_run windows earlier.

    For g > 1 they cover W pace (g + ... + g^n) = W pace g (g^n - 1)/(g - 1),
    compared in logs; a pace stuck within rounding of pace0 (g - 1 ~ 1e-14)
    so covers no more than a constant one.
    """
    g = (pace / pace0) ** (1.0 / windows_run)
    if g <= 1.0:
        return remaining > PACE_WINDOW * pace * windows_left
    return windows_left * math.log(g) \
        < math.log1p(remaining * (g - 1.0) / (PACE_WINDOW * pace * g))


def _run(datum: RadialField, t_end: float, n_saves: int, confined: bool,
         delay: bool = False) -> Trajectory:
    """The one entry of the three flows: step from the datum to t_end and
    keep the time, snapshot, bookkept mass and (delayed flow) tau at
    n_saves + 1 save times; reports, errors and delay records are formed
    from the saved snapshots after the run.

    Only the step onto t_end is clipped, so a save time strictly inside a
    step (1e-12 from its ends) reads the cubic Hermite interpolant of the
    step's end values v0, v1 and their slopes rhs, except at a node that
    the cubic puts more than 1e-2 off the chord between v0 and v1, which
    takes the chord (a stiff node; no resolved node comes near).  Its
    bookkept mass is its cell-volume mass less the boundary mass
    interpolated with the same weights and the outer-face flux as slope,
    so h00 bk0 + h01 bk1 up to rounding when no node takes the chord, and
    the delayed flow's tau there interpolates Heun's end values and the
    rates g of the delay equation.  A step that ends on a save keeps its
    own end state.

    Before any step, a datum the mesh does not resolve is refused, as the
    module docstring says; only then is a confined datum rescaled to the
    profile mass, as the relative entropy is measured against the profile
    of the datum's own mass.

    Every PACE_WINDOW accepted steps the run projects the steps it still
    needs (see :func:`_out_of_steps`) and raises ``RuntimeError`` at once
    when they exceed those left under MAX_STEPS.  The rule reads the step
    count and the simulated time, not the clock, and changes no step.
    """
    if not t_end > 0.0 or n_saves < 1:
        raise ValueError(f"a flow run needs t_end > 0 and n_saves >= 1, "
                         f"got t_end = {t_end}, n_saves = {n_saves}")
    ex, r = datum.exponents, datum.r
    scheme = _RadialScheme(ex, r, confined)

    def cell_mass(v):
        # the scheme's own measure: the analytic tail is not included
        # because the scheme does not evolve it
        return float((scheme.vol * v).sum()) * scheme.omega

    # checked on the datum as sampled: rescaling leaves the relative gap as it is
    sampled_mass, quad_mass = cell_mass(datum.v), datum.mass()
    if not abs(sampled_mass - quad_mass) <= RESOLUTION_TOL * quad_mass:
        raise ValueError(
            f"the mesh does not resolve the initial datum: its cell-volume "
            f"mass {sampled_mass:.6g} and its quadrature mass {quad_mass:.6g} "
            f"differ by more than RESOLUTION_TOL = {RESOLUTION_TOL:g} relative")
    if confined:
        datum = normalized_to_profile_mass(datum, "initial datum")
    m2_star = closed_form_moments(ex).second_moment
    stepper = _Stepper(scheme, datum.v)
    save_times = np.linspace(0.0, t_end, n_saves + 1).tolist()
    # the boundary mass's rate per unit outer-face flux
    rate = scheme.area[-1] * scheme.omega
    mass_ref = cell_mass(stepper.v)
    times, snaps, fv_mass, taus = [0.0], [_make_field(ex, r, datum.v)], [mass_ref], [0.0]
    drift, tau, g1 = 0.0, 0.0, 0.0
    if delay:
        second_moment = _second_moment_of(ex, r)
        g1 = (snaps[0].second_moment() / m2_star) ** (-0.5 * ex.alpha) - 1.0
    dt = DT_INIT
    t_window, pace0 = 0.0, math.nan
    while stepper.t < t_end - 1e-12 and stepper.stats.accepted < MAX_STEPS:
        t0, v0, f0, outer0, bm0 = (stepper.t, stepper.v, stepper.f, stepper.outer,
                                   stepper.boundary_mass)
        dt_taken, dt = stepper.advance(min(dt, t_end - stepper.t))
        k = stepper.stats.accepted
        if k % PACE_WINDOW == 0:
            pace = (stepper.t - t_window) / PACE_WINDOW
            t_window = stepper.t
            if k == PACE_WINDOW:
                pace0 = pace
            elif _out_of_steps(t_end - stepper.t, pace, pace0, k // PACE_WINDOW - 1,
                               (MAX_STEPS - k) / PACE_WINDOW):
                raise RuntimeError(
                    f"at t = {stepper.t} after {k} accepted steps (mean dt "
                    f"{pace:.3g} over the last {PACE_WINDOW}) the run cannot reach "
                    f"t_end = {t_end} within MAX_STEPS = {MAX_STEPS}")
        # the saves strictly inside the step, then the one it ends on, if
        # any; a field is built at save times only
        first = inside = len(times)
        while save_times[inside] < stepper.t - 1e-12:
            inside += 1
        snap = _make_field(ex, r, stepper.v) \
            if stepper.t >= save_times[inside] - 1e-12 else None
        g0, tau0 = g1, tau
        if delay:
            # Heun update of the delay equation dtau/dt = g on the PDE
            # grid; a step that ends on a save measures its field, whose
            # report reads the kept integral
            m2 = second_moment(stepper.v) if snap is None else snap.second_moment()
            g1 = (m2 / m2_star) ** (-0.5 * ex.alpha) - 1.0
            dtau = 0.5 * dt_taken * (g0 + g1)
            if dtau <= -dt_taken:
                raise RuntimeError("delay rate reached ds/dt <= 0")
            tau += dtau
        mass = cell_mass(stepper.v) - stepper.boundary_mass
        drift = max(drift, abs(mass - mass_ref) / mass_ref)
        for t in save_times[first:inside]:
            # dense output: the slopes are rhs for v, the weighted
            # outer-face flux for the boundary mass and g for tau
            theta = (t - t0) / dt_taken
            h00, h10, h01, h11 = _hermite_weights(theta, dt_taken)
            v = h00 * v0 + h10 * f0 + h01 * stepper.v + h11 * stepper.f
            # a stiff node, whose rhs swings by many times its value within
            # the step, can leave the chord by its whole value, even below
            # zero, where resolved nodes stay within 2.5e-4 of it
            chord = (1.0 - theta) * v0 + theta * stepper.v
            v = np.where(np.abs(v - chord) <= 1e-2 * chord, v, chord)
            boundary = h00 * bm0 + h01 * stepper.boundary_mass \
                + rate * (h10 * outer0 + h11 * stepper.outer)
            times.append(t)
            snaps.append(_make_field(ex, r, v))
            fv_mass.append(cell_mass(v) - boundary)
            taus.append(h00 * tau0 + h10 * g0 + h01 * tau + h11 * g1)
        if snap is not None:
            times.append(stepper.t)
            snaps.append(snap)
            fv_mass.append(mass)
            taus.append(tau)
    if stepper.t < t_end - 1e-12:
        raise RuntimeError(
            f"stopped at t = {stepper.t} short of t_end = {t_end}: "
            f"MAX_STEPS = {MAX_STEPS} accepted steps taken")
    reports, rel_errs, delays = [None] * len(times), [math.nan] * len(times), None
    if scheme.confined:
        # differenced against the discretized profile (the scheme's fixed
        # point), so the shared quadrature bias cancels; the tails do not (a
        # snapshot refits its tail at the last node, the reference has the
        # exact one), so at the profile itself a save reads F = -6.4e-12 at
        # (3, 3/4) and F = 4.0e-8, K = -3.0e-4, S = -2.0e-4 at (3, 2/3)
        ref = barenblatt_field(ex, r)
        reports = [entropy_report(snap, ref) for snap in snaps]
        rel_errs = [float(np.abs(snap.v / ref.v - 1.0).max())
                    for snap in snaps]
    if delay:
        delays = [DelayRecord(t=t, tau=tau,
                              lam=rep.second_moment / m2_star / math.exp(4.0 * tau))
                  for t, tau, rep in zip(times, taus, reports)]
    return Trajectory(exponents=ex, times=times, snapshots=snaps,
                      reports=reports, mass_drift=drift, sup_rel_err=rel_errs,
                      conserved_mass=fv_mass, stats=stepper.stats, delay=delays)


def solve_fdr_delayed(v0: RadialField, t_end: float, n_saves: int = 60) -> Trajectory:
    """Confined flow plus the delay equation, from v0 as sampled and with
    the entry rules of :func:`_run`.

    The trajectory carries one ``DelayRecord`` per save: the time, tau
    and the matching scale lambda.  Nothing is checked along the run;
    ``reconstruct_delayed`` rescales a saved snapshot by the r-factor
    e^{2 tau}, and ``test_delayed_flow_tau_bound`` checks at the last save
    that the rescaled snapshot's second moment is lambda times the
    profile's."""
    return _run(v0, t_end, n_saves, confined=True, delay=True)


def reconstruct_delayed(traj: Trajectory, index: int) -> tuple[float, RadialField]:
    """The rescaled snapshot w(s, y) = rf^d v(t, rf*y) at one save index."""
    if traj.delay is None:
        raise ValueError("trajectory carries no delay records")
    rec = traj.delay[index]
    snap = traj.snapshots[index]
    rf = math.exp(2.0 * rec.tau)
    return rec.t + rec.tau, snap.dilated(rf, rf ** traj.exponents.d)


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
