"""Log-polar complex arithmetic.

Values are stored as (log magnitude, argument) so that products whose
factors differ from 1 by amounts far below double underflow (for example
exp(-360)) remain exactly representable.  The argument is kept in the
canonical half-open interval (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = ["LogComplex", "wrap_angle", "log1p_complex", "logsum"]

_NEG_INF = float("-inf")
_LOG2 = math.log(2.0)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    if -math.pi < theta <= math.pi:
        return theta
    t = math.fmod(theta, 2.0 * math.pi)
    if t > math.pi:
        t -= 2.0 * math.pi
    elif t <= -math.pi:
        t += 2.0 * math.pi
    return t


def log1p_complex(u: complex) -> complex:
    """log(1+u) without cancellation for small |u|."""
    x, y = u.real, u.imag
    re = 0.5 * math.log1p(2.0 * x + x * x + y * y)
    im = math.atan2(y, 1.0 + x)
    return complex(re, im)


@dataclass(frozen=True)
class LogComplex:
    """A complex number as (log|z|, arg z); zero is (-inf, 0)."""

    log_mag: float
    arg: float

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(_NEG_INF, 0.0)

    @staticmethod
    def one() -> "LogComplex":
        return LogComplex(0.0, 0.0)

    @staticmethod
    def from_complex(z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return LogComplex.zero()
        try:
            log_mag = math.log(abs(z))
        except OverflowError:   # finite parts, modulus past the largest double
            log_mag = math.log(abs(0.5 * z)) + _LOG2
        # atan2, not cmath.phase: the latter overflows on subnormal parts
        return LogComplex(log_mag, math.atan2(z.imag, z.real))

    @staticmethod
    def from_difference(z: complex, p: complex) -> "LogComplex":
        """z - p, taken at half scale where the difference overflows."""
        w = z - p
        if cmath.isfinite(w):
            return LogComplex.from_complex(w)
        h = LogComplex.from_complex(0.5 * z - 0.5 * p)
        return LogComplex(h.log_mag + _LOG2, h.arg)

    @staticmethod
    def from_polar(log_mag: float, arg: float) -> "LogComplex":
        if log_mag == _NEG_INF:
            return LogComplex.zero()
        return LogComplex(log_mag, wrap_angle(arg))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_mag == _NEG_INF

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0.0 + 0.0j
        try:
            mag = math.exp(self.log_mag)
        except OverflowError:
            mag = math.inf
        return complex(mag * math.cos(self.arg), mag * math.sin(self.arg))

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mag + other.log_mag,
                          wrap_angle(self.arg + other.arg))

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by zero LogComplex")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mag - other.log_mag,
                          wrap_angle(self.arg - other.arg))

    def __neg__(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.log_mag, wrap_angle(self.arg + math.pi))

    def conj(self) -> "LogComplex":
        if self.is_zero:
            return self
        # keep the canonical range: conj(pi) stays pi
        a = -self.arg
        if a == -math.pi:
            a = math.pi
        return LogComplex(self.log_mag, a)

    def sqrt(self) -> "LogComplex":
        """Principal square root (halves the canonical argument)."""
        if self.is_zero:
            return self
        return LogComplex(0.5 * self.log_mag, 0.5 * self.arg)

    def powi(self, k: int) -> "LogComplex":
        if self.is_zero:
            return self if k > 0 else LogComplex.one()
        return LogComplex(k * self.log_mag, wrap_angle(k * self.arg))


def _sum_logs(logs, re: float = 0.0, im: float = 0.0,
              p: float = 1.0) -> LogComplex:
    """exp(re + i im) times the product of exp(p l) over complex logs l:
    real parts and arguments added in order, the argument wrapped once."""
    for l in logs:
        re += p * l.real
        im += p * l.imag
    return LogComplex.from_polar(re, im)


def logsum(terms: list[LogComplex]) -> LogComplex:
    """Sum of log-polar values, accurate when one term dominates.

    The largest magnitude is factored out so the remaining ratios are
    representable doubles; ratios below exp(-700) relative to the leader
    vanish, which is below one ulp of the returned log magnitude.
    """
    live = [t for t in terms if not t.is_zero]
    if not live:
        return LogComplex.zero()
    lead = max(live, key=lambda t: t.log_mag)
    acc = 0.0 + 0.0j
    for t in live:
        d = t.log_mag - lead.log_mag
        if d < -700.0:
            continue
        acc += cmath.rect(math.exp(d), t.arg)
    if acc == 0:
        return LogComplex.zero()
    return LogComplex(lead.log_mag + math.log(abs(acc)),
                      math.atan2(acc.imag, acc.real))
