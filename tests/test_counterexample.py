"""Escape-family behavior: exact invariants and the published limits."""

import functools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fdstab.counterexample import counterexample_report
from fdstab.params import derive_exponents
from fdstab.profiles import barenblatt_mass

EX = derive_exponents(3, p=1.5)


@functools.cache
def _report(k):
    # a report at the default center is a pure function of k, so the
    # tests share them
    return counterexample_report(EX, k)


# (deficit, entropy, xm_norm, ratio) at the default centers k^2, as the
# full-grid quadrature computed them before the row-blocked kernel
PINNED = {
    4: (0.7458119467172586, 344.55163006732454,
        12918187927.794437, 1.9512846152952448),
    8: (0.5609585713206711, 2762.8397366718486,
        2124126066676817.0, 1.0847149592369099),
    16: (0.3849517913771936, 22107.48306516144,
         3.015818072199522e+20, 0.6216706743131168),
    32: (0.2538157669457979, 176863.03790704918,
         4.096462019305572e+25, 0.3597415909452143),
    64: (0.16362198511423953, 1414906.3185877982,
         5.369598189059758e+30, 0.2098223433664423),
}


@pytest.mark.parametrize("k", sorted(PINNED))
def test_pinned_battery_values(k):
    rep = _report(k)
    got = (rep.deficit, rep.entropy, rep.xm_norm, rep.ratio)
    assert got == pytest.approx(PINNED[k], rel=1e-12)
    assert all(type(v) is float for v in got)


def test_quadrature_memory_is_blocked():
    # the k = 4 grid has 3449 x 999 points, 27.6 MB per full-grid array;
    # the quadrature works on blocks of z rows and holds none of those
    tracemalloc.start()
    try:
        counterexample_report(EX, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("k", [4, 64])
def test_worker_split_cannot_move_a_bit(k, monkeypatch):
    # every row block is computed the same way whichever worker runs it,
    # so one worker, four workers and the default split agree bit for bit;
    # four workers with a short switch interval interleave their blocks,
    # and a block written into another worker's buffer or rows would show.
    # The pool lives for one call and leaves no thread behind.
    def fields(rep):
        return [v.hex() for v in (rep.deficit, rep.entropy, rep.xm_norm, rep.ratio)]

    default = fields(_report(k))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            threads = threading.active_count()
            assert fields(counterexample_report(EX, k)) == default
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)


def test_moment_bookkeeping():
    # the entropy is dominated by the exact second-moment term
    rep = _report(16)
    mass = barenblatt_mass(EX)
    moment_term = (EX.p + 1.0) / (EX.p - 1.0) * (2.0 / 16) * 256.0 ** 2 * mass
    assert rep.entropy <= moment_term
    assert rep.entropy >= 0.8 * moment_term


def test_monotonicity_suite():
    reports = [_report(k) for k in (8, 16, 32)]
    ds = [r.deficit for r in reports]
    es = [r.entropy for r in reports]
    ratios = [r.ratio for r in reports]
    assert ds[0] > ds[1] > ds[2] > 0
    assert es[0] < es[1] < es[2]
    assert ratios[0] > ratios[1] > ratios[2]


def test_vanishing_ratio_slope():
    reports = [_report(k) for k in (8, 16, 32, 64)]
    slope = float(np.polyfit(np.log([r.center for r in reports]),
                             np.log([r.ratio for r in reports]), 1)[0])
    pred = -(2.0 - (EX.d + 2.0) * (1.0 - EX.m)) / (2.0 * EX.alpha)
    assert abs(slope - pred) <= 0.25 * abs(pred)


def test_overlap_and_dimension_guards():
    with pytest.raises(ValueError):
        counterexample_report(EX, 3)  # centers 9 < 12: bumps overlap
    with pytest.raises(ValueError):
        counterexample_report(EX, 1)
    with pytest.raises(ValueError):
        counterexample_report(derive_exponents(2, p=1.5), 8)


def test_alternative_center_rule():
    # any centers with |x_k|^2/k -> infinity work.  The weight-driven
    # parts of the entropy and the tail norm both scale like 1/k with a
    # center factor that cancels in the ratio, so the rule-independent
    # statement is the k-slope ((d+2)(1-m)-2)/alpha; the slope against
    # the center distance is that divided by the rule's growth exponent.
    ks = (16, 32, 64)
    centers = [3.0 * k ** 1.5 for k in ks]
    reports = [counterexample_report(EX, k, center=c)
               for k, c in zip(ks, centers)]
    ds = [r.deficit for r in reports]
    es = [r.entropy for r in reports]
    assert ds[0] > ds[1] > ds[2] > 0
    assert es[0] < es[1] < es[2]
    slope_k = float(np.polyfit(np.log(ks),
                               np.log([r.ratio for r in reports]), 1)[0])
    pred_k = ((EX.d + 2.0) * (1.0 - EX.m) - 2.0) / EX.alpha
    assert abs(slope_k - pred_k) <= 0.25 * abs(pred_k)


def test_deficit_separation_independence():
    # once the bumps are far apart the deficit depends only on the weights,
    # not on the separation: the interaction corrections have died off
    rep_near = counterexample_report(EX, 8, center=64.0)
    rep_far = counterexample_report(EX, 8, center=640.0)
    assert abs(rep_near.deficit - rep_far.deficit) < 5e-3 * rep_far.deficit
