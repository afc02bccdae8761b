"""Iterated-log arithmetic for constant chains of extreme magnitude.

The explicit constant chains compose exponentials: a Harnack constant h
with ln(h) ~ 1e144 is routine, the Hoelder exponent behaves like
exp(-mu ln h), and quantities downstream of 1/nu iterate further, so a
fixed number of log levels is not enough.  ``LogReal`` stores a positive
real x through a signed tower

    ln(x) = lnsign * E(lndepth, lnmag),   E(0, v) = v,  E(k, v) = exp(E(k-1, v))

in one canonical form, which the constructor enforces: depth >= 1 only
when |ln x| does not fit a float64 (lnmag > ln(float max) ~ 709.78), and
x = 1 only as ``ONE``; ordering, sums and ``close_to`` rely on it.  This
is the level-index idea of Clenshaw & Olver (J. ACM 31, 1984).
Multiplication, powers, and sums of positive terms are supported at any
depth; once magnitudes differ beyond float64 resolution the dominant term
is returned, which is exact at working precision.  Additions that would
cancel two equal super-exponential magnitudes of opposite sign are
refused rather than guessed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# above this |ln x|, the plain value of x overflows/underflows a float64
_LN_PLAIN_MAX = 700.0
# the largest magnitude whose exp is finite
_LN_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class LogReal:
    """A positive real number in signed iterated-log representation."""

    lnsign: int   # sign of ln(x): +1, -1, or 0 for x == 1
    lndepth: int  # tower height of the stored magnitude
    lnmag: float  # nonnegative magnitude, > _LN_FLOAT_MAX whenever lndepth >= 1

    def __post_init__(self):
        if self.lndepth < 0:
            raise ValueError("lndepth must be >= 0")
        if not math.isfinite(self.lnmag) or self.lnmag < 0.0:
            raise ValueError(f"lnmag must be finite and >= 0, got {self.lnmag}")
        if self.lnsign not in (-1, 0, 1):
            raise ValueError("lnsign must be -1, 0 or +1")
        # depth >= 1 only when exp(lnmag) overflows; lnsign 0 only for ONE
        if (self.lndepth >= 1 and self.lnmag <= _LN_FLOAT_MAX) \
                or (self.lnsign == 0) != (self.lnmag == 0.0):
            raise ValueError(f"non-canonical encoding {self!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_float(x: float) -> "LogReal":
        if not (x > 0.0) or not math.isfinite(x):
            raise ValueError(f"LogReal requires a finite positive value, got {x}")
        return LogReal.from_ln(math.log(x))

    @staticmethod
    def from_ln(ln_x: float) -> "LogReal":
        """Build from a plain float ln(x)."""
        if not math.isfinite(ln_x):
            raise ValueError(f"ln(x) must be finite, got {ln_x}")
        if ln_x == 0.0:
            return ONE
        return LogReal(1 if ln_x > 0 else -1, 0, abs(ln_x))

    @staticmethod
    def canonical(sign: int, depth: int, mag: float) -> "LogReal":
        """The canonical LogReal of ln x = sign * E(depth, mag): lowered
        while exp(mag) is finite."""
        while depth >= 1 and mag <= _LN_FLOAT_MAX:
            mag = math.exp(mag)
            depth -= 1
        return LogReal(sign, depth, mag)

    # -- the two tower primitives --------------------------------------

    def ln_signed(self) -> tuple[int, "LogReal"]:
        """(sign of ln x, |ln x| as a LogReal)."""
        if self.lnsign == 0:
            return (0, ONE)
        if self.lndepth == 0:
            return (self.lnsign, LogReal.from_float(self.lnmag))
        # |ln x| = E(lndepth, lnmag) is the value whose own ln is
        # E(lndepth - 1, lnmag), canonical as it stands
        return (self.lnsign, LogReal(1, self.lndepth - 1, self.lnmag))

    @staticmethod
    def exp_of(t: "LogReal", sign: int = 1) -> "LogReal":
        """exp(sign * t) for a positive LogReal t."""
        if sign == 0:
            return ONE
        if t.lnsign < 0:
            # t <= 1: exp(+-t) is plain, possibly exactly 1
            if t.lndepth >= 1 or t.lnmag > _LN_PLAIN_MAX:
                return ONE
            return LogReal.from_ln(sign * math.exp(-t.lnmag))
        if t.lnsign == 0:
            return LogReal.from_ln(float(sign))
        # t = E(lndepth + 1, lnmag) as a value
        return LogReal.canonical(sign, t.lndepth + 1, t.lnmag)

    # -- conversions ---------------------------------------------------

    def ln_float(self) -> float:
        """ln(x) as a plain float; raises if it does not fit."""
        if self.lndepth >= 1:
            raise OverflowError("ln(x) exceeds float64 range")
        return self.lnsign * self.lnmag

    def ln_logreal(self) -> "LogReal":
        """ln(x) as a LogReal; requires x > 1."""
        sign, mag = self.ln_signed()
        if sign <= 0:
            raise ValueError("ln(x) as LogReal requires x > 1")
        return mag

    def to_float(self) -> float:
        ln_x = self.ln_float()
        if abs(ln_x) > _LN_PLAIN_MAX:
            raise OverflowError("value exceeds float64 range")
        return math.exp(ln_x)

    @property
    def representable(self) -> bool:
        return self.lndepth == 0 and self.lnmag <= _LN_PLAIN_MAX

    @property
    def log_representable(self) -> bool:
        return self.lndepth == 0

    def to_repr(self) -> dict:
        """Stable dictionary form for golden files and JSON export."""
        return {"lnsign": self.lnsign, "lndepth": self.lndepth, "lnmag": self.lnmag}

    # -- arithmetic ----------------------------------------------------

    def _plain_ln(self) -> float | None:
        """ln(x) as a float at depth 0, else None."""
        return self.lnsign * self.lnmag if self.lndepth == 0 else None

    def __mul__(self, other: "LogReal") -> "LogReal":
        la, lb = self._plain_ln(), other._plain_ln()
        # one level up only when the plain sum of logs overflows
        if la is not None and lb is not None and math.isfinite(la + lb):
            return LogReal.from_ln(la + lb)
        s, m = _signed_add(*self.ln_signed(), *other.ln_signed())
        return LogReal.exp_of(m, s)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        return self * LogReal(-other.lnsign, other.lndepth, other.lnmag)

    def powf(self, c: float) -> "LogReal":
        """x**c for a plain float exponent."""
        if c == 0.0:
            return ONE
        s, m = self.ln_signed()
        return LogReal.exp_of(m * LogReal.from_float(abs(c)),
                              s * (1 if c > 0 else -1))

    def pow_logreal(self, c: "LogReal") -> "LogReal":
        """x**c where the positive exponent c is itself a LogReal."""
        if c == ONE:
            return self
        s, m = self.ln_signed()
        return LogReal.exp_of(m * c, s)

    def add(self, other: "LogReal") -> "LogReal":
        """x + y for positive reals, exact at float64 resolution."""
        a, b = (self, other) if not self.__lt__(other) else (other, self)
        return _dominant_sum(1, a, 1, b)[1]

    def sub(self, other: "LogReal") -> "LogReal":
        """x - y for positive reals with x > y, exact at float64 resolution."""
        s, m = _dominant_sum(1, self, -1, other) if other.__lt__(self) else (0, ONE)
        if s <= 0:
            raise ValueError("sub requires the left operand to be larger")
        return m

    # -- ordering -------------------------------------------------------

    def __lt__(self, other: "LogReal") -> bool:
        s1, k1, v1 = self.lnsign, self.lndepth, self.lnmag
        s2, k2, v2 = other.lnsign, other.lndepth, other.lnmag
        if s1 != s2:
            return s1 < s2
        if s1 == 0:
            return False
        if k1 != k2:
            return (k1 < k2) if s1 > 0 else (k1 > k2)
        return (v1 < v2) if s1 > 0 else (v1 > v2)

    def close_to(self, other: "LogReal", rel: float = 1e-12) -> bool:
        """Relative agreement of the leveled representations."""
        if self.lnsign != other.lnsign or self.lndepth != other.lndepth:
            return False
        if self.lnsign == 0:
            return True
        return abs(self.lnmag - other.lnmag) \
            <= rel * max(abs(self.lnmag), abs(other.lnmag), 1.0)


def _signed_add(s1: int, m1: LogReal, s2: int, m2: LogReal) -> tuple[int, LogReal]:
    """s1*m1 + s2*m2 for signed magnitudes carried as LogReal values; only
    reached once a sum of logs leaves float64, so one magnitude > e^700."""
    if s1 == 0:
        return (s2, m2)
    if s2 == 0:
        return (s1, m1)
    if m2.__lt__(m1) or (not m1.__lt__(m2) and s1 == s2):
        return _dominant_sum(s1, m1, s2, m2)
    return _dominant_sum(s2, m2, s1, m1)


def _dominant_sum(big_s: int, big: LogReal, small_s: int,
                  small: LogReal) -> tuple[int, LogReal]:
    """big_s*big + small_s*small for big >= small, as big (1 +- small/big).

    Once small/big < 1e-17 the dominant term is the sum at float64
    resolution; this is the level-index rule of Clenshaw & Olver (J. ACM
    31, 1984).  Terms that cancel at that resolution return sign 0.
    """
    ratio = small / big
    r = ratio.to_float() if ratio.representable else 0.0  # else below e^-700
    if r < 1e-17:
        return (big_s, big)
    if big_s == small_s:
        return (big_s, big * LogReal.from_float(1.0 + r))
    # 1 - r from ln r: 1.0 - r would lose all digits as r -> 1
    one_minus_r = -math.expm1(ratio.ln_float())
    if one_minus_r == 0.0:
        return (0, ONE)
    return (big_s, big * LogReal.from_float(one_minus_r))


ONE = LogReal(0, 0, 0.0)


def logreal(x: float) -> LogReal:
    return LogReal.from_float(x)
