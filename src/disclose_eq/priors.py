"""Prior valuation distributions on [0, 1].

Three families: uniform, power (cdf v**a), and piecewise-linear cdfs.
Every moment the solvers consume is closed form, including the power
moments of the cdf, so the nested bisections upstream never touch a
quadrature rule.  Methods accept floats (fast path inside solver loops)
and numpy arrays (grids, sampling); cdf_cum is the fused scalar primitive
of those loops, F(v) and its integral from one evaluation of the piece.
A solver step reads it once at v_L and hands the pair (CdfCum) to each
moment it takes there (the at_a arguments); the pair at 1 is read once
per prior (at_one).
"""
from __future__ import annotations

import bisect as _stdbisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Union

import numpy as np

from .errors import ConfigError, DomainError, config_number
from .tolerances import CONVEXITY_SLACK

ArrayLike = Union[float, np.ndarray]
CdfCum = tuple[float, float]  # (F(v), int_0^v F) from one Prior.cdf_cum(v)


def _check_unit_interval(x: ArrayLike, name: str) -> None:
    if isinstance(x, np.ndarray):
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails both
            raise DomainError(f"{name} must lie in [0, 1]")
    elif not 0.0 <= x <= 1.0:
        raise _outside_unit_interval(x, name)


def _outside_unit_interval(x: float, name: str) -> DomainError:
    return DomainError(f"{name} must lie in [0, 1], got {x!r}")


@dataclass(frozen=True)
class TruncatedMoments:
    """Conditional moments of the prior on an interval (a, b).

    mass       F(b) - F(a)
    mu_tilde   E[v | a < v < b]
    eta_tilde  E[F(v)**(n-1) | a < v < b] = (F(b)**n - F(a)**n) / (n * mass)
    """

    mass: float
    mu_tilde: float
    eta_tilde: float


class Prior:
    """Common moment machinery; subclasses provide cdf/quantile primitives."""

    # -- primitives supplied by subclasses --------------------------------
    def cdf(self, v: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def quantile(self, q: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def quantile_in_place(self, q: np.ndarray) -> None:
        """quantile(q) written over q, bit for bit; q lies in [0, 1] and is
        not checked."""
        q[...] = self.quantile(q)

    def cdf_cum(self, v: float) -> tuple[float, float]:
        """(cdf(v), cum_pow_cdf(v, 1)) for a scalar v, bit for bit."""
        raise NotImplementedError

    def cum_pow_cdf(self, v: ArrayLike, k: int) -> ArrayLike:
        """Integral of F**k from 0 to v (k >= 1)."""
        raise NotImplementedError

    def pow_cdf_deriv(self, v: float, n: int) -> float:
        """Derivative of F(v)**(n-1); right-continuous at kinks."""
        raise NotImplementedError

    def check_convexity(self, n: int) -> bool:
        """Whether F(v)**(n-1) is weakly convex on [0, 1], the model's
        domain, decided by each family from its parameters: exactly, but for
        the power family's tolerances.CONVEXITY_SLACK on a*(n-1) >= 1."""
        raise NotImplementedError

    def to_json_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    # -- derived moments ---------------------------------------------------
    @cached_property
    def at_one(self) -> CdfCum:  # cdf_cum(1.0), evaluated once per prior
        return self.cdf_cum(1.0)

    def mean(self) -> float:
        return 1.0 - float(self.at_one[1])  # cum_pow_cdf(1.0, 1), bit for bit

    def partial_vf(self, a: float, b: float) -> float:
        """Integral of v dF over (a, b), by parts: vF| - int F."""
        fa, cum_a = self.cdf_cum(a)
        fb, cum_b = self.cdf_cum(b)
        return b * fb - a * fa - (cum_b - cum_a)

    def mass_and_vf_above(self, a: float, at_a: CdfCum | None = None) -> tuple[float, float]:
        """(1 - F(a), partial_vf(a, 1)) from one evaluation at a, at_a = cdf_cum(a) if given."""
        fa, cum_a = at_a or self.cdf_cum(a)
        f1, cum_1 = self.at_one
        return 1.0 - fa, f1 - a * fa - (cum_1 - cum_a)  # 1.0 * f1 == f1

    def conditional_mean_above(self, a: float, at_a: CdfCum | None = None) -> float:
        """E[v | v > a]; at_a as in mass_and_vf_above."""
        mass, vf = self.mass_and_vf_above(a, at_a)
        if mass <= 0.0:
            raise DomainError("conditional mean above the support top")
        return vf / mass

    def truncated_moments(self, a: float, b: float, n: int, at_a: CdfCum | None = None) -> TruncatedMoments:
        if b <= a:
            raise DomainError(f"degenerate interval: need a < b, got [{a}, {b}]")
        _check_unit_interval(a, "a")
        _check_unit_interval(b, "b")
        fa, cum_a = at_a or self.cdf_cum(a)
        fb, cum_b = self.at_one if b == 1.0 else self.cdf_cum(b)
        mass = fb - fa
        mu_tilde = (b * fb - a * fa - (cum_b - cum_a)) / mass  # partial_vf(a, b) / mass
        eta_tilde = (fb**n - fa**n) / (n * mass)
        return TruncatedMoments(mass=mass, mu_tilde=mu_tilde, eta_tilde=eta_tilde)


@dataclass(frozen=True)
class UniformPrior(Prior):
    """F(v) = v."""

    def cdf(self, v: ArrayLike) -> ArrayLike:
        _check_unit_interval(v, "v")
        return v

    def quantile(self, q: ArrayLike) -> ArrayLike:
        _check_unit_interval(q, "q")
        return q

    def quantile_in_place(self, q: np.ndarray) -> None:
        pass

    def cdf_cum(self, v: float) -> tuple[float, float]:
        if not 0.0 <= v <= 1.0:
            raise _outside_unit_interval(v, "v")
        return v, 0.5 * v * v

    def cum_pow_cdf(self, v: ArrayLike, k: int) -> ArrayLike:
        if k == 1:
            # not v ** 2 / 2: for a float v, libm's pow makes that differ
            # from 0.5 * v * v in the last bit at 0.07-0.2% of points
            return 0.5 * v * v
        return v ** (k + 1) / (k + 1)

    def pow_cdf_deriv(self, v: float, n: int) -> float:
        return (n - 1) * v ** (n - 2)

    def check_convexity(self, n: int) -> bool:
        return n >= 2

    def to_json_dict(self) -> dict[str, Any]:
        return {"family": "uniform"}


@dataclass(frozen=True)
class PowerPrior(Prior):
    """F(v) = v**a with a > 0.

    F**(n-1) is weakly convex iff a*(n-1) >= 1; the constructor does not
    enforce that (the prior carries no n), solvers check it.
    """

    a: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"power exponent must be positive, got {self.a!r}")

    def cdf(self, v: ArrayLike) -> ArrayLike:
        _check_unit_interval(v, "v")
        return v**self.a

    def quantile(self, q: ArrayLike) -> ArrayLike:
        _check_unit_interval(q, "q")
        return q ** (1.0 / self.a)

    def quantile_in_place(self, q: np.ndarray) -> None:
        q **= 1.0 / self.a  # `**=` takes the fast cases of `**` (a square root for 1/2)

    def cdf_cum(self, v: float) -> tuple[float, float]:
        if not 0.0 <= v <= 1.0:
            raise _outside_unit_interval(v, "v")
        a1 = self.a + 1.0
        return v**self.a, v**a1 / a1

    def cum_pow_cdf(self, v: ArrayLike, k: int) -> ArrayLike:
        return v ** (self.a * k + 1.0) / (self.a * k + 1.0)

    def pow_cdf_deriv(self, v: float, n: int) -> float:
        e = self.a * (n - 1) - 1.0
        return self.a * (n - 1) * v**e

    def check_convexity(self, n: int) -> bool:
        return self.a * (n - 1) >= 1.0 - CONVEXITY_SLACK

    def to_json_dict(self) -> dict[str, Any]:
        return {"family": "power", "a": self.a}


@dataclass(frozen=True)
class PiecewiseLinearPrior(Prior):
    """Piecewise-linear cdf through knots ((0,0), ..., (1,1)).

    Knot values and cumulative probabilities must be strictly increasing,
    which keeps the density positive and finite on every piece; all
    integrals below are exact piece-wise polynomials.

    F**(n-1) is convex for every n >= 2 exactly when the piece slopes are
    nondecreasing: a density that steps down at a knot of cdf q > 0 is a
    concave kink of (n-1) q**(n-2) (m_right - m_left) at every n.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ks = self.knots
        if len(ks) < 3:
            raise DomainError("piecewise cdf needs at least 3 knots (>= 2 segments)")
        if not all(math.isfinite(x) for knot in ks for x in knot):
            raise DomainError("knots must be finite")
        if ks[0] != (0.0, 0.0) or ks[-1] != (1.0, 1.0):
            raise DomainError("piecewise cdf must start at (0,0) and end at (1,1)")
        xs = [k[0] for k in ks]
        qs = [k[1] for k in ks]
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise DomainError("knot values must be strictly increasing")
        if any(q1 <= q0 for q0, q1 in zip(qs, qs[1:])):
            raise DomainError("knot probabilities must be strictly increasing")

    # views cached in the instance dict; equality and hashing see only knots
    @cached_property
    def _xs(self) -> tuple[float, ...]:
        return tuple(k[0] for k in self.knots)

    @cached_property
    def _qs(self) -> tuple[float, ...]:
        return tuple(k[1] for k in self.knots)

    @cached_property
    def _slopes(self) -> tuple[float, ...]:
        xs, qs = self._xs, self._qs
        return tuple((qs[i + 1] - qs[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))

    def _piece(self, v: float) -> int:
        i = _stdbisect.bisect_right(self._xs, v) - 1
        return min(max(i, 0), len(self._xs) - 2)

    def cdf(self, v: ArrayLike) -> ArrayLike:
        _check_unit_interval(v, "v")
        if isinstance(v, np.ndarray):
            return np.interp(v, self._xs, self._qs)
        i = self._piece(v)
        return self._qs[i] + self._slopes[i] * (v - self._xs[i])

    def quantile(self, q: ArrayLike) -> ArrayLike:
        _check_unit_interval(q, "q")
        if isinstance(q, np.ndarray):
            return np.interp(q, self._qs, self._xs)
        j = min(max(_stdbisect.bisect_right(self._qs, q) - 1, 0), len(self._qs) - 2)
        return self._xs[j] + (q - self._qs[j]) / self._slopes[j]

    @cached_property
    def _knot_cums(self) -> dict[int, tuple[float, ...]]:
        return {}

    def _knot_cum(self, k: int) -> tuple[float, ...]:
        """Integral of F**k from 0 up to each knot, built once per k."""
        cums = self._knot_cums.get(k)
        if cums is None:
            qs, ms = self._qs, self._slopes
            out = [0.0]
            for i in range(len(ms)):
                piece = (qs[i + 1] ** (k + 1) - qs[i] ** (k + 1)) / (ms[i] * (k + 1))
                out.append(out[-1] + piece)
            cums = self._knot_cums[k] = tuple(out)
        return cums

    def cum_pow_cdf(self, v: ArrayLike, k: int) -> ArrayLike:
        cums = self._knot_cum(k)
        xs, qs, ms = self._xs, self._qs, self._slopes
        if isinstance(v, np.ndarray):
            idx = np.clip(np.searchsorted(xs, v, side="right") - 1, 0, len(ms) - 1)
            f = np.interp(v, xs, qs)
            base = np.asarray(cums)[idx]
            q0 = np.asarray(qs)[idx]
            m = np.asarray(ms)[idx]
            return base + (f ** (k + 1) - q0 ** (k + 1)) / (m * (k + 1))
        i = self._piece(v)
        f = qs[i] + ms[i] * (v - xs[i])
        return cums[i] + (f ** (k + 1) - qs[i] ** (k + 1)) / (ms[i] * (k + 1))

    @cached_property
    def _knot_cum1(self) -> tuple[float, ...]:
        return self._knot_cum(1)

    def cdf_cum(self, v: float) -> tuple[float, float]:
        if not 0.0 <= v <= 1.0:
            raise _outside_unit_interval(v, "v")
        xs = self._xs
        # _piece without its floor: v >= 0 = xs[0], so only v = 1 needs the cap
        i = min(_stdbisect.bisect_right(xs, v) - 1, len(xs) - 2)
        q, m = self._qs[i], self._slopes[i]
        f = q + m * (v - xs[i])
        return f, self._knot_cum1[i] + (f**2 - q**2) / (m * 2)

    def pow_cdf_deriv(self, v: float, n: int) -> float:
        f, density = self.cdf(v), self._slopes[self._piece(v)]
        return (n - 1) * f ** (n - 2) * density

    def check_convexity(self, n: int) -> bool:
        # the slopes cdf itself uses, compared exactly
        ms = self._slopes
        return all(m0 <= m1 for m0, m1 in zip(ms, ms[1:]))

    def to_json_dict(self) -> dict[str, Any]:
        return {"family": "piecewise", "knots": [list(k) for k in self.knots]}


def prior_from_json(spec: dict[str, Any]) -> Prior:
    """Build a Prior from its JSON encoding; raises ConfigError on bad specs."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("prior spec must be an object with a 'family' key")
    family = spec["family"]
    try:
        if family == "uniform":
            return UniformPrior()
        if family == "power":
            return PowerPrior(a=config_number(spec["a"], "a"))
        if family == "piecewise":
            knots = tuple((config_number(x, "knot"), config_number(q, "knot")) for x, q in spec["knots"])
            return PiecewiseLinearPrior(knots=knots)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed prior spec: {exc}") from exc
    raise ConfigError(f"unknown prior family {family!r}")
