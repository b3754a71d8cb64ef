"""Closed-form 1-D machinery: the incomplete beta integral B_n, shooting
profiles, the C^1 matching constant, and cos^2-type limit profiles.

The profile of the normalized shooting solution w (w(0)=1, w'(0)=0,
-w'' = 1/(c (n-1) w^n)) is recovered from the implicit relation

    B_n(1 - w^{n-1}(t)) = sqrt(2/c) * t,

where B_n(x) = integral_0^x  h^{-1/2} (1-h)^{-(n-3)/(2(n-1))} dh is the
incomplete beta function B(x; 1/2, 1/2 + 1/(n-1)).  The complement 1 - x is
inverted on its own, through I_x(a, b) = 1 - I_{1-x}(b, a), which keeps
powers like w^{n+1} = (1-x)^{(n+1)/(n-1)} accurate near the profile's zero
even for n in the hundreds.  Profile evaluations take whole arrays of t
and refuse (ValueError) a t beyond the profile's domain, not clip it.

The matching constant c_n glues the profile C^1 to the line w(1)(2 - t).
In x = 1 - w^{n-1}(1), with c = 2/B_n(x)^2, its defining gap reads

    G(x) = (1-x)^{(n+1)/(n-1)} - x B_n(x)^2 / (n-1)^2,

which only needs the forward integral: G(0) = 1 > 0 and G(1) < 0 bracket
the root on [0, 1], and Newton steps take the derivative from the integrand,
B_n'(x) = x^{-1/2} (1-x)^{-(n-3)/(2(n-1))}.  The gap F(c) through the
inversion is evaluated once, as the final check.

Every entry point that takes an exponent n passes it through `check_n`,
the package's one exponent rule (n finite and at least 3, NaN refused),
which `sweeps.check_n_list` also applies to each sweep exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np
from scipy.special import beta, betainc, betaincinv

ROOT_TOL = 1e-12        # |G| at the last Newton step and |F(c)| at the result
MAX_ROOT_STEPS = 100    # Newton steps of the matching constant before ConstructionError
N_CAP = 400             # profile evaluation cap in double precision


class ConstructionError(RuntimeError):
    pass


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


# --- the incomplete beta integral B_n ----------------------------------------

def check_n(n: float) -> float:
    """n as a float; ValueError unless it is finite and at least 3."""
    n = float(n)
    if not 3.0 <= n < math.inf:
        raise ValueError(f"exponent n must be finite and >= 3, got {n}")
    return n


def _beta_exponents(n: float) -> tuple[float, float]:
    """(a, b) with B_n(x) = B(x; a, b)."""
    return 0.5, 0.5 + 1.0 / (n - 1.0)


def _invert(y, n: float, complement: bool = False) -> np.ndarray:
    """x with B_n(x) = y, or 1 - x when `complement`, elementwise.

    Each side is inverted directly, so each is accurate near its own zero.
    betaincinv runs once per distinct value of y: on a symmetric grid, or
    one whose tail is clipped to the endpoint, most values repeat.
    """
    a, b = _beta_exponents(n)
    total = beta(a, b)
    values, index = np.unique(np.minimum(np.maximum(y, 0.0), total),
                              return_inverse=True)
    index = index.reshape(np.shape(y))    # flat on numpy 1.x, shaped like y on 2.x
    # inside the roundoff band of the endpoint x is 1; fractional-power
    # evaluations downstream would amplify the residual otherwise
    end = values >= total - 1e-12 * (1.0 + total)
    if complement:
        return np.where(end, 0.0, betaincinv(b, a, (total - values) / total))[index]
    return np.where(end, 1.0, betaincinv(a, b, values / total))[index]


def _invert_scalar(y: float, n: float) -> tuple[float, float]:
    """(x, 1 - x) with B_n(x) = y: `_invert` in float arithmetic, both sides.

    Raises ValueError for y outside [0, B_n(1)] beyond roundoff; inside, y is
    clipped and the endpoint band applies as in `_invert`.
    """
    a, b = _beta_exponents(n)
    total = float(beta(a, b))
    if y < -1e-12 or y > total + 1e-9:
        raise ValueError(f"value {y} outside [0, B_n(1) = {total}]")
    y = min(max(y, 0.0), total)
    if y >= total - 1e-12 * (1.0 + total):
        return 1.0, 0.0
    return (float(betaincinv(a, b, y / total)),
            float(betaincinv(b, a, (total - y) / total)))


def beta_integral(x: float, n: float) -> float:
    """B_n(x) = integral_0^x h^{-1/2} (1-h)^{-(n-3)/(2(n-1))} dh, x in [0, 1]."""
    n = check_n(n)
    x = float(x)
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"argument {x} outside [0, 1]")
    a, b = _beta_exponents(n)
    return float(beta(a, b) * betainc(a, b, min(max(x, 0.0), 1.0)))


def beta_integral_inverse(y: float, n: float) -> float:
    """Monotone inverse of B_n on [0, B_n(1)]."""
    return _invert_scalar(float(y), check_n(n))[0]


def beta_total_closed_form(n: float) -> float:
    """B_n(1) through the Gamma function: sqrt(pi) G(1/2 + 1/(n-1)) / G(n/(n-1)).

    Dual route to a quadrature of the integrand.
    """
    n = check_n(n)
    e = 1.0 / (n - 1.0)
    return math.sqrt(math.pi) * gamma_fn(0.5 + e) / gamma_fn(1.0 + e)


# --- profile parametrization ---------------------------------------------------

def lower_matching_bound(n: float) -> float:
    """Largest c with first zero at 1: 2 G^2(n/(n-1)) / (pi G^2(1/2 + 1/(n-1)))."""
    n = check_n(n)
    e = 1.0 / (n - 1.0)
    r = gamma_fn(1.0 + e) / gamma_fn(0.5 + e)
    return 2.0 * r * r / math.pi


def upper_matching_bound(n: float) -> float:
    """Value of c at which the first zero reaches 2 (four times the lower bound)."""
    return 4.0 * lower_matching_bound(n)


def first_zero(c: float, n: float) -> float:
    """First zero T of the shooting profile at strength c (closed form)."""
    n = check_n(n)
    if not 0 < c < math.inf:
        raise ValueError("profile strength c must be positive and finite")
    e = 1.0 / (n - 1.0)
    return math.sqrt(math.pi * c / 2.0) * gamma_fn(0.5 + e) / gamma_fn(1.0 + e)


def _exp(lg):
    return np.exp(np.minimum(lg, 700.0))


def _domain(t, t_max: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.size and (t.min() < -1e-12 or t.max() > t_max * (1.0 + 1e-12)):
        raise ValueError(f"t outside the profile domain [0, {t_max}]")
    return np.minimum(np.maximum(t, 0.0), t_max)


def _result(t: np.ndarray, out):
    return out if t.ndim else float(out)


def _log_profile(t: np.ndarray, n: float, c: float) -> np.ndarray:
    """log w(t) = log(1 - x(t)) / (n - 1) for t in [0, T]."""
    if n > N_CAP:
        raise ValueError(f"profile evaluation capped at n = {N_CAP}")
    xi = _invert(math.sqrt(2.0 / c) * t, n, complement=True)
    with np.errstate(divide="ignore"):
        return np.log(xi) / (n - 1.0)


def _log_glued(t: np.ndarray, n: float, c: float) -> np.ndarray:
    """log y(t) for the profile continued by the line w(1)(2 - t), t in [0, 2]."""
    with np.errstate(divide="ignore"):
        line = np.log(np.where(t > 1.0, 2.0 - t, 1.0))
    return _log_profile(np.minimum(t, 1.0), n, c) + line


def profile_value(t, n: float, c: float):
    """Normalized shooting profile w(t) on [0, T]; w(0)=1, w(T)=0.

    Takes a scalar or an array of t; a scalar gives a float.
    """
    n = check_n(n)
    t = _domain(t, first_zero(c, n))
    return _result(t, _exp(_log_profile(t, n, c)))


def profile_power(t, n: float, c: float):
    """w^{n+1}(t), evaluated as (1-x)^{(n+1)/(n-1)} for accuracy near the zero."""
    n = check_n(n)
    t = _domain(t, first_zero(c, n))
    return _result(t, _exp((n + 1.0) * _log_profile(t, n, c)))


def _gap_scale(n: float) -> float:
    """(n - 1)^2; ConstructionError where it overflows (n above about 1.3e154)."""
    try:
        return (n - 1.0) ** 2
    except OverflowError as exc:
        raise ConstructionError(f"matching at n={n}: (n - 1)^2 overflows") from exc


def matching_slope_gap(n: float, c: float) -> float:
    """F(c) = w^{n+1}(1) - 2/(c (n-1)^2) * (1 - w^{n-1}(1)).

    Zero exactly when the inner profile glues C^1 to the line w(1)(2-t);
    strictly increasing in c on the matching bracket.
    """
    n = check_n(n)
    x1, xi1 = _invert_scalar(math.sqrt(2.0 / c), n)
    return xi1 ** ((n + 1.0) / (n - 1.0)) - 2.0 / (c * _gap_scale(n)) * x1


def matching_constant(n: float) -> float:
    """The unique c in (c_lower, c_upper] with matching_slope_gap(c) = 0.

    Solved in x = 1 - w^{n-1}(1), where sqrt(2/c) = B_n(x) and the gap reads

        G(x) = F(2 / B_n(x)^2) = (1-x)^{(n+1)/(n-1)} - x B_n(x)^2 / (n-1)^2.

    G(0) = 1 > 0 and G(1) = -B_n(1)^2/(n-1)^2 < 0, so [0, 1] brackets the
    root for every n.  Newton steps with the exact derivative, through
    B_n'(x) = x^{-1/2} (1-x)^{-(n-3)/(2(n-1))}, start at x = 1/2; a step
    leaving the bracket, shrunk by the sign of each G, is replaced by the
    bracket's midpoint.  Each step costs one betainc, five or fewer on
    [3, 400].  At |G| <= ROOT_TOL, B_n is advanced by one more Newton step
    to first order (B_n' times the step, no betainc), and c = 2/B_n^2 is
    accepted only if |F(c)| <= ROOT_TOL through the inversion route.

    Against a 50-digit root, c is within 2e-15 relative up to n = 1e6 and
    1e-8 up to n = 1e8.  Both terms of G scale like 1/n^2, so from about
    n = 2e6 on the absolute ROOT_TOL is met before Newton converges, and the
    error grows (6e-7 at n = 1e12).
    """
    n = check_n(n)
    a, b = _beta_exponents(n)
    total = float(beta(a, b))
    power = (n + 1.0) / (n - 1.0)
    dbx_power = -(n - 3.0) / (2.0 * (n - 1.0))
    scale = _gap_scale(n)
    lo, hi, x = 0.0, 1.0, 0.5
    for _ in range(MAX_ROOT_STEPS):
        xi = 1.0 - x
        bx = total * float(betainc(a, b, x))
        gap = xi ** power - x * bx * bx / scale
        dbx = xi ** dbx_power / math.sqrt(x)
        step = gap / (-power * xi ** (power - 1.0) - bx * (bx + 2.0 * x * dbx) / scale)
        if abs(gap) <= ROOT_TOL:
            break
        if gap > 0.0:
            lo = x
        else:
            hi = x
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    else:
        raise ConstructionError(
            f"matching constant did not converge at n={n} in {MAX_ROOT_STEPS} "
            f"steps, |G| = {abs(gap):.3e}")
    bx -= dbx * step
    c = 2.0 / (bx * bx)
    gap = matching_slope_gap(n, c)
    if not abs(gap) <= ROOT_TOL:
        raise ConstructionError(
            f"matching constant at n={n} fails its check: |F({c:.17g})| = "
            f"{abs(gap):.3e} > {ROOT_TOL:g}")
    return c


def glued_profile(t, n: float, c: float):
    """Profile w on [0,1] continued by the line w(1)(2 - t) on (1, 2]."""
    n = check_n(n)
    t = _domain(t, 2.0)
    return _result(t, _exp(_log_glued(t, n, c)))


def glued_profile_power(t, n: float, c: float):
    """y^{n+1}(t) for the glued profile, stable for large n."""
    n = check_n(n)
    t = _domain(t, 2.0)
    return _result(t, _exp((n + 1.0) * _log_glued(t, n, c)))


# --- profile objects -----------------------------------------------------------

@dataclass(frozen=True)
class OneDProfile:
    """Shooting profile for one exponent n, in either parametrization.

    `for_interval` fixes the first zero at the interval radius (datum = 1 on
    (-R, R)); `for_matched` selects the strength c so the profile glues C^1
    to a straight line hitting zero at t = 2 (datum = indicator of (-1, 1)
    inside (-2, 2)).
    """

    n: float
    c: float
    t_zero: float
    kind: Literal["interval", "matched"]
    radius: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.t_zero < math.inf:
            raise ValueError("first zero must be positive and finite")

    @classmethod
    def for_interval(cls, radius: float, n: float) -> "OneDProfile":
        if not 0 < radius < math.inf:
            raise ValueError("radius must be positive and finite")
        radius = float(radius)
        c = radius * radius * lower_matching_bound(n)
        if not 0 < c < math.inf:
            raise ValueError(f"radius {radius:g} is out of range at n = {float(n):g}: "
                             f"its profile strength c = R^2 c_lower(n) is {c:g}")
        return cls(n=float(n), c=c, t_zero=first_zero(c, n), kind="interval",
                   radius=radius)

    @classmethod
    def for_matched(cls, n: float) -> "OneDProfile":
        c = matching_constant(n)
        return cls(n=float(n), c=c, t_zero=first_zero(c, n), kind="matched")

    @property
    def amplitude(self) -> float:
        """alpha with alpha^{n+1} = c (n-1)."""
        return math.exp(math.log(self.c * (self.n - 1.0)) / (self.n + 1.0))

    def w(self, t):
        """Normalized profile, even in t, defined for |t| <= t_zero."""
        return profile_value(np.abs(t), self.n, self.c)

    def y(self, t):
        """Glued profile on [-2, 2] (matched parametrization)."""
        return glued_profile(np.abs(t), self.n, self.c)

    def u(self, t):
        """Solution profile alpha * w (interval) or alpha * y (matched)."""
        base = self.w if self.kind == "interval" else self.y
        return self.amplitude * base(t)

    def v(self, t):
        """Quasilinear transform c (n-1)/(n+1) * profile^{n+1}."""
        scale = self.c * (self.n - 1.0) / (self.n + 1.0)
        power = profile_power if self.kind == "interval" else glued_profile_power
        return scale * power(np.abs(t), self.n, self.c)


@dataclass(frozen=True)
class LimitProfile:
    """Closed-form limit objects of the large-exponent construction."""

    radius: float
    geometry: Literal["interval", "matched"]

    def g(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) <= self.radius,
                       np.cos(np.pi * t / (2.0 * self.radius)) ** 2, 0.0)
        return out if out.ndim else float(out)

    def v(self, t):
        scale = 2.0 * self.radius ** 2 / math.pi ** 2
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) < self.radius,
                       scale * np.cos(np.pi * t / (2.0 * self.radius)) ** 2, 0.0)
        return out if out.ndim else float(out)

    def u(self, t):
        t = np.asarray(t, dtype=float)
        if self.geometry == "matched":
            out = np.where(np.abs(t) <= 1.0, 1.0,
                           np.maximum(2.0 - np.abs(t), 0.0))
        else:
            out = np.where(np.abs(t) < self.radius, 1.0, 0.0)
        return out if out.ndim else float(out)


def limit_profiles(radius: float = 1.0,
                   geometry: Literal["interval", "matched"] = "interval"
                   ) -> LimitProfile:
    """Limit profile objects; the matched geometry fixes the radius at 1."""
    if geometry not in ("interval", "matched"):
        raise ValueError(f"unknown geometry {geometry!r}")
    if geometry == "matched":
        return LimitProfile(1.0, "matched")
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    return LimitProfile(float(radius), "interval")
