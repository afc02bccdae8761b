"""The constructive constant chains, evaluated end-to-end in log space.

The chains stack as follows: an H^1 embedding constant K feeds the
parabolic iteration constants (sigma, c0, c1, c2) which assemble the
Harnack constant h; h and the ellipticity spread give the Hoelder
exponent nu and the interpolation exponent vartheta = nu/(d+nu); the
local smoothing/positivity constants (c3, kappa_bar, kappa, kappa_star)
give the two-sided profile bounds (t_bar, M_bar, t_under, M_under) and
the epsilon thresholds; everything combines into the regularity constant
K_control, the exponent a_exp and the threshold-time constants; finally
the stability constants (zeta, zeta_star, Z and the critical-case family)
are read off the threshold time.

h alone satisfies ln(h) ~ 1e142 for d = 3, so quantities downstream of
nu ~ exp(-mu ln h) leave float64 entirely; every value is therefore
carried as a :class:`~fdstab.logscale.LogReal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ledger import ConstantLedger
from .logscale import ONE, LogReal, logreal
from .moments import delay_bound
from .params import ExponentSet, derive_exponents
from .profiles import barenblatt_mass, closed_form_moments, omega_d
from .spectral import critical_gap_parameters

CHI = 1.0 / 580.0
_LN2 = math.log(2.0)
# sigma_series stops past the peak once a term falls below this fraction
# of the running sum
_SIGMA_TAIL = 1e-40


# ---------------------------------------------------------------------------
# interpolation constants
# ---------------------------------------------------------------------------


def embedding_constant(d: int, p: float | None = None) -> float:
    """Constant K of ||f||_p^2 <= K (||grad f||^2 + R^-2 ||f||^2) on balls.

    Three branches: the critical Sobolev constant for d >= 3, the disk
    constant 4/sqrt(pi) for d = 2, and 2^{1+2/p} max{(p-2)/pi^2, 1/4} for
    d = 1, where the exponent p in (4, inf) must be supplied.
    """
    if d >= 3:
        return math.exp(math.log(4.0) + 2.0 / d * math.lgamma((d + 1.0) / 2.0)
                        - (2.0 / d) * math.log(2.0) - (1.0 + 1.0 / d) * math.log(math.pi))
    if d == 2:
        return 4.0 / math.sqrt(math.pi)
    if p is None:
        raise ValueError("the d = 1 branch needs an exponent p in (4, inf)")
    if not p > 4.0:
        raise ValueError(f"the d = 1 branch needs p > 4, got {p}")
    return 2.0 ** (1.0 + 2.0 / p) * max((p - 2.0) / math.pi ** 2, 0.25)


def holder_lp_interp_constant(d: int, nu: LogReal) -> LogReal:
    """Constant of the sup-norm interpolation between L^1 and C^nu norms.

    All four factors are assembled with LogReal arithmetic so the
    doubly-small Hoelder exponents coming out of the Harnack chain are
    handled without underflow.
    """
    dn = logreal(float(d)) / nu                      # d/nu
    denom = logreal(float(d)).add(nu)                # d + nu
    exp_small = nu / denom                           # nu/(d+nu)
    exp_big = logreal(float(d)) / denom              # d/(d+nu)
    lead = logreal(2.0).powf(d / _to_float_or_zero(denom))  # 2^(d/(d+nu))
    vol = logreal(1.0 + d / omega_d(d))
    mid = ONE.add(dn).pow_logreal(exp_big)
    last = dn.pow_logreal(exp_small).add((ONE / dn).pow_logreal(exp_big))
    return lead * vol * mid * last


def _to_float_or_zero(x: LogReal) -> float:
    try:
        return x.to_float()
    except OverflowError:
        return 0.0 if x.lnsign < 0 else math.inf


# ---------------------------------------------------------------------------
# parabolic Harnack chain
# ---------------------------------------------------------------------------


def _logaddexp(x: float, y: float) -> float:
    """ln(e^x + e^y) on floats, branch for branch as numpy's logaddexp."""
    if x == y:
        return x + _LN2
    tmp = x - y
    if tmp > 0.0:
        return x + math.log1p(math.exp(-tmp))
    return y + math.log1p(math.exp(tmp))


def sigma_series(d: int) -> LogReal:
    """sum_j (3/4)^j ((2+j)(1+j))^{2d+4}, accumulated in log space."""
    q = 2.0 * d + 4.0
    log34 = math.log(0.75)
    total = -math.inf
    j = 0
    while True:
        term = j * log34 + q * math.log((2.0 + j) * (1.0 + j))
        total = _logaddexp(total, term)
        # past the peak the increments decay geometrically
        if term < total + math.log(_SIGMA_TAIL) and j > q / math.log(4.0 / 3.0):
            break
        j += 1
        if j > 100000:
            raise RuntimeError("series did not converge")
    return LogReal.from_ln(total)


@dataclass(frozen=True)
class MoserChain:
    mu: LogReal          # lam1 + 1/lam0; itself beyond float64 range for
    embed_K: float       # some admissible fast-diffusion chains
    sigma: LogReal
    c0: LogReal
    c1: LogReal
    c2: float
    h: LogReal
    hbar: LogReal
    nu: LogReal
    vartheta: LogReal


def moser_chain(d: int, lam0: float | LogReal, lam1: float | LogReal) -> MoserChain:
    """Assemble sigma, c0, c1, c2, h, hbar, nu and vartheta = nu/(d+nu).

    The d = 1 branch of the embedding constant uses p = 8, the exponent
    the iteration fixes in low dimension.  The ellipticity bounds may be
    given as LogReal because the normalized fast-diffusion coefficients
    themselves overflow float64 for some admissible exponents.
    """
    if not isinstance(lam0, LogReal):
        lam0 = logreal(float(lam0))
    if not isinstance(lam1, LogReal):
        lam1 = logreal(float(lam1))
    if lam1 < lam0:
        raise ValueError("need 0 < lam0 <= lam1")
    mu = lam1.add(ONE / lam0)
    K = embedding_constant(d, p=8.0 if d == 1 else None)
    sig = sigma_series(d)

    ln_c0 = (2.0 / d) * math.log(3.0) \
        + ((d + 2.0) * (3.0 * d * d + 18.0 * d + 24.0) + 13.0) / (2.0 * d) * math.log(2.0) \
        + (d + 1.0) * (d + 2.0) * ((1.0 + 4.0 / d ** 2) * math.log(2.0 + d)
                                   - (1.0 + 2.0 / d ** 2) * math.log(d)) \
        + (2.0 * d + 4.0) / d * math.log(K)
    c0 = LogReal.from_ln(ln_c0)

    gam = (d + 2.0) / d if d >= 3 else 5.0 / 3.0
    ln_inner = (2.0 * gam * gam + 7.0 * (gam - 1.0)) * math.log(2.0) \
        + (gam + 1.0) * (2.0 * gam - 1.0) * math.log(gam) \
        + (gam + 1.0) * (gam - 1.0) * math.log(d) + (gam - 1.0) * math.log(K)
    c1 = LogReal.from_ln((gam - 1.0) * math.log(3.0) + gam / (gam - 1.0) ** 2 * ln_inner)

    c2 = 2.0 ** (d + 2) * 3.0 ** d * d

    # ln h = 2^{d+4} 3^d d + c0^3 * 2^{2(d+2)+3} (1 + 2^{d+2}/(sqrt2-1)^{2(d+2)}) sigma
    bracket = 1.0 + 2.0 ** (d + 2) / (math.sqrt(2.0) - 1.0) ** (2 * (d + 2))
    ln_h_log = _logaddexp(
        math.log(2.0 ** (d + 4) * 3.0 ** d * d),
        3.0 * ln_c0 + (2.0 * (d + 2) + 3.0) * math.log(2.0)
        + math.log(bracket) + sig.ln_float())
    h = LogReal.exp_of(LogReal.from_ln(ln_h_log))
    hbar = h.pow_logreal(mu)

    # ln h >= 2^{d+4} 3^d d >= 96 and mu >= lam0 + 1/lam0 >= 2, so
    # nu ~ 1/(hbar ln 4) < e^{-192}: vartheta = nu/(d + nu) is nu/d at
    # float precision
    nu = _nu_from_hbar(hbar)
    vartheta = nu / logreal(float(d))
    return MoserChain(mu=mu, embed_K=K, sigma=sig, c0=c0, c1=c1, c2=c2, h=h,
                      hbar=hbar, nu=nu, vartheta=vartheta)


def _nu_from_hbar(hbar: LogReal) -> LogReal:
    """nu = log_4(hbar/(hbar-1)), stable for astronomically large hbar."""
    inv = ONE / hbar
    x = _to_float_or_zero(inv)
    if 1e-8 < x < 1.0:
        return logreal(-math.log1p(-x) / math.log(4.0))
    # -log1p(-x) = x (1 + x/2 + ...) -> nu = x/ln4 exactly at float precision
    return inv / logreal(math.log(4.0))


# ---------------------------------------------------------------------------
# auxiliary lemma constants
# ---------------------------------------------------------------------------


def bombieri_giusti_kappa0(beta: float, c1: LogReal, c2: float,
                           theta: float) -> LogReal:
    """kappa0 = exp[max(2 c2, 8 c1^3 / (1-theta)^{2 beta})]."""
    alt = c1.powf(3.0) * logreal(8.0) / logreal((1.0 - theta) ** (2.0 * beta))
    two_c2 = logreal(2.0 * c2)
    return LogReal.exp_of(alt if two_c2 < alt else two_c2)


def aleksandrov_constant(d: int) -> float:
    """A_d = omega_d 4^{d-1} of the reflection mean-value bound."""
    return omega_d(d) * 4.0 ** (d - 1)


# ---------------------------------------------------------------------------
# global two-sided profile bounds and the regularity constant
# ---------------------------------------------------------------------------


def mass_displacement_constant(ex: ExponentSet) -> LogReal:
    """c3 = 2^{m/(1-m)} omega_d (16(d+1)(3+m)/(1-m))^{1/(1-m)} (rho0+1), rho0 = 1."""
    m, d = ex.m, ex.d
    ln = m / (1.0 - m) * math.log(2.0) + math.log(omega_d(d)) \
        + math.log(16.0 * (d + 1.0) * (3.0 + m) / (1.0 - m)) / (1.0 - m) \
        + math.log(2.0)
    return LogReal.from_ln(ln)


def _smoothing_parameters(ex: ExponentSet) -> tuple[float, float, float]:
    """(p_m, q, beta) of the local smoothing table."""
    d, m = ex.d, ex.m
    if d >= 3:
        return 2.0 * d / (d - 2.0), d / 2.0, ex.alpha
    if d == 2:
        return 4.0, 2.0, 2.0 * (ex.alpha - 1.0)
    return 4.0 / m, 2.0 / (2.0 - m), 2.0 * m / (2.0 - m)


def smoothing_constant(ex: ExponentSet) -> LogReal:
    """kappa_bar of the local L1 -> Linf bound, in log space."""
    d, m = ex.d, ex.m
    p_m, q, beta = _smoothing_parameters(ex)
    K = embedding_constant(d, p=p_m if d == 1 else None)
    # log-sum of the k^beta factors
    ratio = q / (q + 1.0)
    series = 0.0
    term_j, j = ratio, 1
    while True:
        inc = math.log(j + 1.0) * term_j
        series += inc
        term_j *= ratio
        j += 1
        if inc < 1e-22 and j > 10:
            break
    # the additive constant grows like C^{1/(1-m)}; assemble it in logs
    ln_a1 = math.log(3.0) + math.log(16.0 * (d + 1.0) * (3.0 + m)) / (1.0 - m) \
        - math.log(2.0 - m) - m / (1.0 - m) * math.log(1.0 - m)
    ln_a2 = (d - m * (d + 1.0)) / (1.0 - m) * math.log(2.0) \
        - d * math.log(3.0) - math.log(d)
    ln_a_omega = _logaddexp(ln_a1, ln_a2) + math.log(omega_d(d))
    ln_one_plus_a_omega = _logaddexp(0.0, ln_a_omega)
    xi = (2.0 / 3.0) ** (beta / (4.0 * (q + 1.0)))
    ln_b = 2.0 * (q + 1.0) * math.log(38.0) - 4.0 * (q + 1.0) * math.log(1.0 - xi)
    ln_k_pow_beta = beta * math.log(4.0 * beta / (beta + 2.0)) \
        + 2.0 * math.log(4.0 / (beta + 2.0)) \
        + 8.0 * (q + 1.0) * math.log(math.pi) + 8.0 * series \
        + 2.0 * m / (1.0 - m) * math.log(2.0) \
        + 2.0 * ln_one_plus_a_omega + ln_b
    return LogReal.from_ln(ln_k_pow_beta / beta + 2.0 * q / beta * math.log(K))


def positivity_constants(ex: ExponentSet, kb: LogReal) -> tuple[LogReal, float]:
    """(kappa, kappa_star) of the local lower bound, given kappa_bar = kb."""
    d, m, al = ex.d, ex.m, ex.alpha
    kappa_star = 2.0 ** (3.0 * al + 2.0) * d ** al
    ln_inner = 4.0 * math.log(1.0 - m) - 38.0 * math.log(2.0) - 4.0 * math.log(d) \
        - 16.0 * (1.0 - m) * al * math.log(math.pi) \
        - al * al * (1.0 - m) * kb.ln_float()
    ln_kappa = math.log(al * omega_d(d)) + 2.0 / ((1.0 - m) ** 2 * al * d) * ln_inner
    return LogReal.from_ln(ln_kappa), kappa_star


def _b_delta(ex: ExponentSet) -> float:
    """Scale factor ((1-m)/(2 m alpha))^{1/alpha} of the point-source form."""
    return ((1.0 - ex.m) / (2.0 * ex.m * ex.alpha)) ** (1.0 / ex.alpha)


def barenblatt_cnu_constant(ex: ExponentSet) -> float:
    """Hoelder-seminorm bound of the unit-time point-source profile."""
    m, d = ex.m, ex.d
    b = _b_delta(ex)
    # the two 1/(1-m) powers overflow apart next to m = 1; their ratio stays O(1)
    ln_alt = (3.0 - 2.0 * m) / (1.0 - m) * math.log(2.0) + d * math.log(b) \
        + (2.0 - m) * math.log(2.0 - m) - 0.5 * math.log(1.0 - m) \
        - (5.0 - 3.0 * m) / (2.0 * (1.0 - m)) * math.log(3.0 - m)
    return 2.0 * b * max(1.0, math.exp(ln_alt))


@dataclass(frozen=True)
class GHPChain:
    """Two-sided profile bounds and the inner-estimate constant chain."""

    ex: ExponentSet
    A: float
    c3: LogReal
    kappa_bar: LogReal
    kappa: LogReal
    kappa_star: float
    t_bar: LogReal
    M_bar: LogReal
    t_under_bound: float
    M_under: LogReal
    eps_bar: LogReal
    eps_under: float             # 1 at float precision when M_under is tiny
    one_minus_eps_under: LogReal  # (M_under/M)^{2/alpha}, kept exactly
    eps_md: float
    C_under: LogReal
    C_over: LogReal
    lam0: LogReal
    lam1: LogReal
    moser: MoserChain
    K_control: LogReal
    a_exp: LogReal
    cbar_star: LogReal       # sup over eps of the three threshold terms


def _profile_bounds_on_cylinders(ex: ExponentSet) -> tuple[LogReal, LogReal]:
    """(sup, inf) of the delayed point-source profile over the two
    space-time cylinders entering the ellipticity normalization.

    With B(t, s) = t^{1/(1-m)} b^{-alpha/(1-m)} (t^{2/alpha} b^{-2} +
    s^2)^{1/(m-1)}, the supremum sits at s = 0 (or at the large-mass
    limit on the annular cylinder) and the infimum on the outer shell at
    an endpoint in t, because the only interior stationary point in t is
    a maximum.  Values are returned in log form: the 1/(1-m) powers leave
    float64 range close to m = 1.
    """
    m, al, d = ex.m, ex.alpha, ex.d
    ln_b = math.log((1.0 - m) / (2.0 * m * al)) / al

    def ln_profile(t: float, s: float) -> float:
        return (math.log(t) - al * ln_b
                - math.log(t ** (2.0 / al) * math.exp(-2.0 * ln_b) + s * s)) \
            / (1.0 - m)

    ln_sup_q2 = d * ln_b + (d / al) * math.log(4.0)
    ln_sup_q4 = (math.log(32.0) - al * ln_b) / (1.0 - m)
    ln_inf_q2 = min(ln_profile(0.25, 8.0), ln_profile(2.0, 8.0))
    return LogReal.from_ln(max(ln_sup_q2, ln_sup_q4)), LogReal.from_ln(ln_inf_q2)


def ghp_chain(ex: ExponentSet, A: float) -> GHPChain:
    """Assemble the full two-sided-bound chain for tail bound A."""
    d, m, al = ex.d, ex.m, ex.alpha
    if d >= 2 and not (ex.m_1 <= m < 1.0 or ex.is_critical):
        raise ValueError(f"need m in [m_1, 1) = [{ex.m_1}, 1), got {m}")
    if d == 1 and not (ex.m_tilde1 < m < 1.0):
        raise ValueError(f"need m in (m~_1, 1) = ({ex.m_tilde1}, 1), got {m}")
    if A <= 0.0:
        raise ValueError("A must be positive")
    mass = barenblatt_mass(ex)
    b = _b_delta(ex)
    c3 = mass_displacement_constant(ex)
    kb = smoothing_constant(ex)
    kappa, kappa_star = positivity_constants(ex, kb)

    kb_ln = kb.ln_float()
    # c_shift leaves float64 at d = 2 for m up to about 0.525
    ln_c_shift = max(0.0, (5.0 - m) * math.log(2.0)
                     + (1.0 - m) * kb_ln + al * math.log(b))
    c_shift = LogReal.from_ln(ln_c_shift)
    t_bar = c_shift * logreal(A ** (1.0 - m))
    M_bar = LogReal.from_ln(
        al / (2.0 * (1.0 - m)) * math.log(2.0) + 0.5 * al * kb_ln
        # ln(1 + c) = ln c + log1p(1/c)
        + 0.5 * d * (ln_c_shift + math.log1p(math.exp(-ln_c_shift)))
        - 0.5 * d * al * math.log(b) + 2.0 * math.log(mass))
    t_under_bound = 0.5 * kappa_star * A ** (1.0 - m)
    m_under_first = logreal(2.0 ** (-0.5 * d)) * (kappa / logreal(b ** d)).powf(0.5 * al)
    # the powers of 2, 1.5 and alpha with exponents ~ 1/(1-m) leave
    # float64 once 1/(1-m) exceeds about 1020, so they are formed in log form
    m_under_second = kappa / LogReal.from_ln(
        0.5 * d * math.log(d * (1.0 - m)) + al / (2.0 * (1.0 - m)) * math.log(al))
    m_small = m_under_first if m_under_first < m_under_second else m_under_second
    M_under = m_small * logreal(kappa_star).powf(1.0 / (1.0 - m)) * logreal(mass ** 2)

    eps_bar = (M_bar / logreal(mass)).powf(2.0 / al).sub(ONE)
    one_minus_eps_under = (M_under / logreal(mass)).powf(2.0 / al)
    eps_under = 1.0 - _to_float_or_zero(one_minus_eps_under)
    eps_md = min(_to_float_or_zero(eps_bar), eps_under, 0.5)

    e_c = 2.0 / ((1.0 - m) * al)
    C_under = one_minus_eps_under / LogReal.from_ln(e_c * math.log(2.0))
    C_over = ONE.add(eps_bar) * LogReal.from_ln(e_c * math.log(1.5))

    sup_b, inf_b = _profile_bounds_on_cylinders(ex)
    lam0 = (C_over * sup_b).powf(m - 1.0) * logreal(m)
    lam1 = (C_under * inf_b).powf(m - 1.0) * logreal(m)
    moser = moser_chain(d, lam0, lam1)
    K_control = _k_control(ex, moser, kb)
    a_exp = logreal(al * (2.0 - m) / (1.0 - m)) / moser.vartheta
    cbar = cbar_star(ex, eps_md, c_shift, kappa_star, K_control, moser.vartheta)
    return GHPChain(ex=ex, A=A, c3=c3, kappa_bar=kb, kappa=kappa,
                    kappa_star=kappa_star, t_bar=t_bar,
                    M_bar=M_bar, t_under_bound=t_under_bound, M_under=M_under,
                    eps_bar=eps_bar, eps_under=eps_under,
                    one_minus_eps_under=one_minus_eps_under, eps_md=eps_md,
                    C_under=C_under, C_over=C_over, lam0=lam0, lam1=lam1,
                    moser=moser, K_control=K_control, a_exp=a_exp,
                    cbar_star=cbar)


def _k_control(ex: ExponentSet, moser: MoserChain, kappa_bar: LogReal) -> LogReal:
    """The inner-estimate constant K multiplying eps^{-1/(1-m)}."""
    d, m, al = ex.d, ex.m, ex.alpha
    mass = barenblatt_mass(ex)
    b = _b_delta(ex)
    nu, vth = moser.nu, moser.vartheta
    vth_f = _to_float_or_zero(vth)
    nu_f = _to_float_or_zero(nu)

    lead_ln = (3.0 * d / al + (3.0 + 6.0 * al) / (al * (1.0 - m)) + vth_f + 10.0) \
        * math.log(2.0) \
        + vth_f * math.log(al + mass) - vth_f * math.log(m) \
        - (2.0 * (1.0 + vth_f) + 2.0 / (1.0 - m)) * math.log(1.0 - m)

    c_holder = holder_lp_interp_constant(d, nu)
    cnu2 = barenblatt_cnu_constant(ex)
    # 2^nu/(2^nu - 1) is 1/(nu ln 2) at float precision: nu < e^{-192} (moser_chain)
    osc = ONE / (nu * logreal(math.log(2.0)))
    inner_exp = d / (d + nu_f)
    t_a = (kappa_bar * logreal(mass ** (2.0 / al)) * osc).add(logreal(cnu2)) \
        .powf(inner_exp)
    t_b = logreal(ex.lambda_bullet ** (2.0 * d) / al ** (d / al)
                  * mass ** inner_exp)
    bracket = ONE.add(logreal(b ** d) * c_holder * (t_a.add(t_b)))
    return LogReal.from_ln(lead_ln) * bracket


# -- epsilon-dependent radii and times --------------------------------------


def outer_times_radii(chain: GHPChain, eps: float) -> dict:
    """T and rho of the outer comparison, both branches, at one epsilon.

    T_under is a float; T_over, which carries c_shift, and the radii are
    LogReals, because c_shift overflows float64 at d = 2 near m_1 and
    rho_under wherever 1 - eps_under is astronomically small.
    """
    ex = chain.ex
    m, al = ex.m, ex.alpha
    if not 0.0 < eps < chain.eps_md:
        raise ValueError(f"eps must lie in (0, {chain.eps_md})")
    lb = ex.lambda_bullet
    # up - 1 = (1+eps)^{1-m} - 1 and 1 - dn = 1 - (1-eps)^{1-m} without
    # cancellation, which next to m = 1 would round them to 0
    up_m1 = math.expm1((1.0 - m) * math.log1p(eps))
    one_m_dn = -math.expm1((1.0 - m) * math.log1p(-eps))
    t_under = (chain.kappa_star * (2.0 * chain.A) ** (1.0 - m) + 2.0 / al) / one_m_dn
    t_over = chain.t_bar * logreal(2.0 / up_m1)
    # ((1-eps)/(1-eps_under))^{1-m} - 1 = expm1(x), with
    # ln expm1(x) = x + log1p(-e^{-x}) so that nothing overflows
    x = (1.0 - m) * (math.log1p(-eps) - chain.one_minus_eps_under.ln_float())
    rho_under = LogReal.from_ln(
        0.5 * (math.log(2.0 + up_m1) + x + math.log1p(-math.exp(-x))
               - math.log(one_m_dn)) - math.log(lb))
    rho_over = logreal(math.sqrt((up_m1 + 2.0) / up_m1) / lb)
    return {"T_under": t_under, "T_over": t_over,
            "rho_under": rho_under, "rho_over": rho_over}


@dataclass(frozen=True)
class ThresholdConstants:
    c_star: LogReal
    t_star: LogReal
    T_star: LogReal


def threshold_time(chain: GHPChain, eps: float, G: float) -> ThresholdConstants:
    """Threshold times in original and self-similar variables at one eps
    and energy bound G."""
    ex = chain.ex
    al, m = ex.alpha, ex.m
    if not 0.0 < eps <= chain.eps_md:
        raise ValueError(f"eps must lie in (0, {chain.eps_md}]")
    if G <= 0.0:
        raise ValueError("G must be positive")
    cbar = chain.cbar_star
    scale = logreal(1.0 + chain.A ** (1.0 - m) + G ** (0.5 * al))
    inv_eps_pow = logreal(1.0 / eps).pow_logreal(chain.a_exp) if eps != 1.0 \
        else ONE
    t_star = cbar * scale * inv_eps_pow
    c_star = cbar * logreal(ex.lambda_bullet ** -al)
    arg = ONE.add(logreal(al) * c_star * scale * inv_eps_pow)
    T_star = arg.ln_logreal() / logreal(2.0 * al)
    return ThresholdConstants(c_star=c_star, t_star=t_star, T_star=T_star)


def cbar_star(ex: ExponentSet, eps_md: float, c_shift: LogReal, kappa_star: float,
              K_control: LogReal, vartheta: LogReal) -> LogReal:
    """sup over eps in (0, eps_md] of the three threshold terms.

    The middle term eps^a kappa_2(eps) is constant in eps and equals
    (4 alpha)^{alpha-1} K^{alpha/vartheta}.  The bounded terms are
    monotone: (1+eps)^{1-m} - 1 is concave and vanishes at 0, so
    eps/((1+eps)^{1-m} - 1) increases and is largest at eps_md, while
    1 - (1-eps)^{1-m} is convex, so eps/(1 - (1-eps)^{1-m}) decreases to
    its eps -> 0 limit 1/(1-m).  In practice the middle term dominates by
    an enormous margin.
    """
    m, al = ex.m, ex.alpha
    best_bounded = max(
        c_shift * logreal(8.0 * eps_md / math.expm1((1.0 - m) * math.log1p(eps_md))),
        logreal(2.0 ** (3.0 - m) * kappa_star / (1.0 - m)),
        logreal(8.0 / (al * (1.0 - m))))
    k2_term = logreal((4.0 * al) ** (al - 1.0)) \
        * K_control.pow_logreal(logreal(al) / vartheta)
    return max(best_bounded, k2_term)


# ---------------------------------------------------------------------------
# stability constants
# ---------------------------------------------------------------------------


def c_alpha_min(alpha: float) -> float:
    """inf over x>0, y>=0 of (1 + x^{2/alpha} + y)/(1 + x + y^{alpha/2})^{2/alpha}.

    With q = 2/alpha >= 1 and u = y^{alpha/2} the quotient reads
    (1 + x^q + u^q)/(1 + x + u)^q, and the power-mean inequality
    ((1 + x^q + u^q)/3)^{1/q} >= (1 + x + u)/3 bounds it below by
    3^{1-q}, with equality at x = u = 1.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    return 3.0 ** (1.0 - 2.0 / alpha)


@dataclass(frozen=True)
class SubcriticalStability:
    eta: float
    chi: float
    eps_star: float
    c_alpha: float
    zeta: LogReal
    zeta_star: LogReal
    Z: LogReal
    C_stab: LogReal


def stability_constants_subcritical(chain: GHPChain, G: float) -> SubcriticalStability:
    """Improved entropy-production constants in the strictly subcritical range."""
    ex = chain.ex
    if ex.d >= 2 and not ex.m > ex.m_1:
        raise ValueError("subcritical chain requires m > m_1; "
                         "use the critical chain at m = m_1")
    if ex.d == 1 and not ex.m > 0.5:
        raise ValueError("need m > 1/2 for d = 1")
    eta = 2.0 * ex.d * (ex.m - ex.m_1)
    eps_star = _eps_star(chain, eta)
    thr = threshold_time(chain, eps_star, G)
    zeta = _zeta_from_T(eta, thr.T_star)
    cal = c_alpha_min(ex.alpha)
    zeta_star = logreal(4.0 * eta / (4.0 + eta)) \
        * (logreal(eps_star).pow_logreal(chain.a_exp)
           / (logreal(2.0 * ex.alpha) * thr.c_star)).powf(2.0 / ex.alpha) \
        * logreal(cal)
    Z = zeta_star / logreal(1.0 + chain.A ** (2.0 * (1.0 - ex.m) / ex.alpha) + G)
    C_stab = zeta * logreal((ex.p - 1.0) / (ex.p + 1.0))
    return SubcriticalStability(eta=eta, chi=CHI, eps_star=eps_star, c_alpha=cal,
                                zeta=zeta, zeta_star=zeta_star, Z=Z,
                                C_stab=C_stab)


def _eps_star(chain: GHPChain, eta: float) -> float:
    """min{eps_md, chi eta}/2, the subcritical threshold's epsilon."""
    return 0.5 * min(chain.eps_md, CHI * eta)


def _zeta_from_T(eta: float, T: LogReal) -> LogReal:
    """zeta = 4 eta e^{-4T} / (4 + eta - eta e^{-4T})."""
    decay = LogReal.exp_of(T * logreal(4.0), sign=-1)
    denom = logreal(4.0 + eta).sub(logreal(eta) * decay)
    return logreal(4.0 * eta) * decay / denom


@dataclass(frozen=True)
class CriticalStability:
    eta: float
    tau_bullet: float
    q_scale: float
    c_frak_star: LogReal
    F_frak_star: LogReal
    C_star: LogReal
    G: float                  # S_star/(1-m), the threshold time's energy bound


def stability_constants_critical(chain: GHPChain) -> CriticalStability:
    """Stability constants in the critical regime m = m_1 = (d-1)/d, d >= 3.

    The energy bound is G = S_star/(1-m), which enters only the threshold
    time.  eta follows the low branch of the published pair for d <= 6 and the
    high branch above; ``spectral.CriticalGap`` carries both branches, and
    ``verify`` reports their d = 6 mismatch.  tau_bullet comes from the
    delay analysis with vanishing relative second moment.
    """
    ex, A = chain.ex, chain.A
    d = ex.d
    if not ex.is_critical:
        raise ValueError(f"the critical chain requires m = m_1 = {ex.m_1}, got {ex.m}")
    eta = critical_gap_parameters(d).eta
    mt = closed_form_moments(ex)
    tau_b = delay_bound(ex, 0.0, 0.0).tau_bullet
    assert tau_b is not None
    q = 2.0 ** (1.0 - 0.5 * d) / (d + 2.0)
    G_crit = mt.entropy / (1.0 - ex.m)
    thr = threshold_time(chain, min(CHI * eta, chain.eps_md), G_crit)
    al = ex.alpha
    c_frak = logreal(al) * thr.c_star * logreal(1.0 / q).pow_logreal(chain.a_exp) \
        * logreal((1.0 + G_crit) ** (0.5 * al)) \
        * logreal(1.0 + math.exp(2.0 * al * tau_b))
    cal = c_alpha_min(al)
    f_frak = logreal(4.0 * eta / ((4.0 + eta) * (d - 1.0))) \
        * (logreal(0.5 * eta * CHI).pow_logreal(chain.a_exp)
           / (logreal(2.0 * al) * c_frak)).powf(2.0 / al) \
        * logreal(cal)
    c_star_of_A = f_frak / logreal(1.0 + A ** (1.0 / (2.0 * d)))
    return CriticalStability(eta=eta, tau_bullet=tau_b, q_scale=q,
                             c_frak_star=c_frak, F_frak_star=f_frak,
                             C_star=c_star_of_A, G=G_crit)


def critical_time_margin(chain: GHPChain,
                         stab: CriticalStability) -> tuple[float, float]:
    """(T(eps,A) - T_star(q eps, A, S_star/(1-m)), tau_bullet) as floats.

    The two times agree to within an O(1) additive term that sits far
    below float64 resolution of their common magnitude, so the difference
    is evaluated symbolically from the definitions: the q^{-a} factors
    cancel against the epsilon rescaling, so eps drops out, and what
    remains is the plain number below, which must exceed tau_bullet.
    alpha, m and A come from the chain the constants were built on, G from
    the constants themselves.
    """
    al, m, G = chain.ex.alpha, chain.ex.m, stab.G
    lead = math.log(al) + 0.5 * al * math.log1p(G) \
        + math.log1p(math.exp(2.0 * al * stab.tau_bullet)) \
        - math.log1p(G ** (0.5 * al) / (1.0 + chain.A ** (1.0 - m)))
    return lead / (2.0 * al), stab.tau_bullet


# ---------------------------------------------------------------------------
# the full ledger
# ---------------------------------------------------------------------------


def build_ledger(d: int, m: float, lam0: float, lam1: float,
                 A: float, G: float, eps: float | None = None) -> ConstantLedger:
    """Evaluate every chain at pinned inputs and return the named ledger."""
    ex = derive_exponents(d, m=m)
    # one regime decides both the stability chain and the default eps
    critical = ex.is_critical
    led = ConstantLedger()
    mos = moser_chain(d, lam0, lam1)
    led.put("embed_K", mos.embed_K,
            "K: ||f||_p^2 <= K(||grad f||^2 + R^-2||f||^2) on balls")
    led.put("sigma", mos.sigma, "sum (3/4)^j ((2+j)(1+j))^(2d+4)")
    led.put("c0", mos.c0, "3^(2/d) 2^(...) ((2+d)^(1+4/d^2)/d^(1+2/d^2))^((d+1)(d+2)) K^((2d+4)/d)")
    led.put("c1", mos.c1, "3^(g-1)(2^(2g^2+7(g-1)) g^((g+1)(2g-1)) d^((g+1)(g-1)) K^(g-1))^(g/(g-1)^2)")
    led.put("c2", mos.c2, "2^(d+2) 3^d d")
    led.put("h", mos.h, "exp[2^(d+4) 3^d d + c0^3 2^(2(d+2)+3)(1+2^(d+2)/(sqrt2-1)^(2(d+2))) sigma]")
    led.put("hbar", mos.hbar, "h^(lam1 + 1/lam0)")
    led.put("nu", mos.nu, "log_4(hbar/(hbar-1))")
    led.put("vartheta_moser", mos.vartheta, "nu/(d+nu) for the pinned (lam0, lam1)")
    led.put("lambda_b_psi", 2.0 ** d * d, "weighted Poincare bound for the cutoff-squared weight")
    led.put("kappa0", bombieri_giusti_kappa0(d + 2.0, mos.c1, mos.c2, 0.5),
            "exp[max(2 c2, 8 c1^3/(1-theta)^(2 beta))] at theta=1/2, beta=d+2")
    led.put("A_d", aleksandrov_constant(d), "omega_d 4^(d-1)")

    chain = ghp_chain(ex, A)
    led.put("c3", chain.c3, "2^(m/(1-m)) omega_d (16(d+1)(3+m)/(1-m))^(1/(1-m)) (rho0+1)")
    led.put("kappa_bar", chain.kappa_bar, "local L1->Linf smoothing constant")
    led.put("kappa", chain.kappa, "local positivity constant")
    led.put("kappa_star", chain.kappa_star, "2^(3 alpha + 2) d^alpha")
    led.put("t_bar", chain.t_bar, "c A^(1-m), c = max{1, 2^(5-m) kappa_bar^(1-m) b^alpha}")
    led.put("M_bar", chain.M_bar, "2^(alpha/(2(1-m))) kappa_bar^(alpha/2)(1+c)^(d/2) b^(-d alpha/2) M^2")
    led.put("t_under_bound", chain.t_under_bound, "kappa_star A^(1-m)/2")
    led.put("M_under", chain.M_under,
            "min{2^(-d/2)(kappa/b^d)^(alpha/2), kappa/((d(1-m))^(d/2) alpha^(alpha/(2(1-m))))} kappa_star^(1/(1-m)) M^2")
    led.put("eps_bar", chain.eps_bar, "(M_bar/M)^(2/alpha) - 1")
    led.put("eps_under", chain.eps_under, "1 - (M_under/M)^(2/alpha)")
    led.put("eps_md", chain.eps_md, "min{eps_bar, eps_under, 1/2}")
    led.put("C_under", chain.C_under, "(1-eps_under)/2^(2/((1-m) alpha))")
    led.put("C_over", chain.C_over, "(1+eps_bar)(3/2)^(2/((1-m) alpha))")
    led.put("lam0_ghp", chain.lam0, "ellipticity floor from the profile bounds")
    led.put("lam1_ghp", chain.lam1, "ellipticity cap from the profile bounds")
    led.put("nu_ghp", chain.moser.nu, "Hoelder exponent at the chain's (lam0, lam1)")
    led.put("K_control", chain.K_control, "inner-estimate constant of the relative-error bound")
    led.put("a_exp", chain.a_exp, "(alpha/vartheta)(2-m)/(1-m)")

    if eps is None:
        eps = 0.5 * chain.eps_md if critical \
            else _eps_star(chain, 2.0 * d * (m - ex.m_1))
    rr = outer_times_radii(chain, eps)
    led.put("T_under_eps", rr["T_under"], "outer lower comparison time at pinned eps")
    led.put("T_over_eps", rr["T_over"], "outer upper comparison time at pinned eps")
    led.put("rho_under_eps", rr["rho_under"], "outer lower comparison radius at pinned eps")
    led.put("rho_over_eps", rr["rho_over"], "outer upper comparison radius at pinned eps")
    thr = threshold_time(chain, eps, G)
    led.put("cbar_star", chain.cbar_star, "sup over eps of the three threshold terms")
    led.put("c_star", thr.c_star, "cbar_star lambda_bullet^(-alpha)")
    led.put("t_star", thr.t_star, "cbar_star (1+A^(1-m)+G^(alpha/2))/eps^a")
    led.put("T_star", thr.T_star, "(1/(2 alpha)) log(1 + alpha c_star (1+A^(1-m)+G^(alpha/2))/eps^a)")

    if not critical:
        stab = stability_constants_subcritical(chain, G)
        led.put("eta", stab.eta, "2 d (m - m_1)")
        led.put("chi", stab.chi, "1/580")
        led.put("eps_star", stab.eps_star, "min{eps_md, chi eta}/2")
        led.put("c_alpha", stab.c_alpha, "inf (1+x^(2/alpha)+y)/(1+x+y^(alpha/2))^(2/alpha)")
        led.put("zeta", stab.zeta, "4 eta e^(-4 T_star)/(4 + eta - eta e^(-4 T_star))")
        led.put("zeta_star", stab.zeta_star,
                "(4 eta/(4+eta)) (eps_star^a/(2 alpha c_star))^(2/alpha) c_alpha")
        led.put("Z", stab.Z, "zeta_star/(1 + A^(2(1-m)/alpha) + G)")
        led.put("C_stab", stab.C_stab, "((p-1)/(p+1)) zeta")
    else:
        cs = stability_constants_critical(chain)
        led.put("eta_crit", cs.eta, "(d-2)^2/(8d) for d<=6, 2(d-4)/d above")
        led.put("tau_bullet", cs.tau_bullet, "delay bound at vanishing relative second moment")
        led.put("c_frak_star", cs.c_frak_star,
                "alpha c_star q^(-a) (1+S_star/(1-m))^(alpha/2)(1+e^(2 alpha tau_bullet))")
        led.put("F_frak_star", cs.F_frak_star, "critical-case stability prefactor")
        led.put("C_star_A", cs.C_star, "F_frak_star/(1+A^(1/(2d)))")
    return led
