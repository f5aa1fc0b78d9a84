"""Search-cost distributions for heterogeneous costly searchers.

A cost distribution is either finite-support (``DiscreteCosts``) or a
piecewise-linear cdf (``ContinuousCosts``).  The simulator draws search
costs from one, and the cost-heterogeneity check in ``verify`` reads its
support and cdf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Union

import numpy as np

from .errors import ConfigError, DomainError, config_number
from .tolerances import COST_CDF_ZERO, COST_MASS_TOL


@dataclass(frozen=True)
class DiscreteCosts:
    """Finite-support search-cost distribution: ((cost, prob), ...)."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for point in self.points for x in point):
            raise DomainError("costs and probabilities must be finite")
        costs = [c for c, _ in self.points]
        probs = [p for _, p in self.points]
        if not costs or any(c <= 0.0 for c in costs):
            raise DomainError("costs must be strictly positive")
        if any(b <= a for a, b in zip(costs, costs[1:])):
            raise DomainError("costs must be strictly increasing")
        if any(p <= 0.0 for p in probs) or abs(sum(probs) - 1.0) > COST_MASS_TOL:
            raise DomainError("probabilities must be positive and sum to 1")

    @property
    def s_min(self) -> float:
        return self.points[0][0]

    @property
    def s_max(self) -> float:
        return self.points[-1][0]

    def cdf(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        for c, p in self.points:
            out += np.where(xs >= c, p, 0.0)
        return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class ContinuousCosts:
    """Piecewise-linear cost cdf on [s_1, s_k] with positive density at s_1."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise DomainError("need at least two knots")
        if not all(math.isfinite(x) for knot in self.knots for x in knot):
            raise DomainError("cost knots must be finite")
        xs = [k[0] for k in self.knots]
        qs = [k[1] for k in self.knots]
        if xs[0] <= 0.0:
            raise DomainError("lowest cost must be strictly positive")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("cost knots must be strictly increasing")
        if abs(qs[0]) > COST_CDF_ZERO or abs(qs[-1] - 1.0) > COST_MASS_TOL:
            raise DomainError("cost cdf must run from 0 to 1")
        if any(b < a for a, b in zip(qs, qs[1:])):
            raise DomainError("cost cdf must be nondecreasing")
        if self.density_at_min <= 0.0:
            raise DomainError("density at the lowest cost must be positive")

    @property
    def s_min(self) -> float:
        return self.knots[0][0]

    @property
    def s_max(self) -> float:
        return self.knots[-1][0]

    @property
    def density_at_min(self) -> float:
        (x0, q0), (x1, q1) = self.knots[0], self.knots[1]
        return (q1 - q0) / (x1 - x0)

    def cdf(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.interp(xs, [k[0] for k in self.knots], [k[1] for k in self.knots])
        out = np.where(xs < self.s_min, 0.0, out)
        out = np.where(xs >= self.s_max, 1.0, out)
        return float(out[0]) if np.ndim(x) == 0 else out


CostDistribution = Union[DiscreteCosts, ContinuousCosts]


def cost_distribution_from_json(spec: dict[str, Any]) -> CostDistribution:
    try:
        kind = spec["type"]
        if kind == "discrete":
            points = ((config_number(c, "cost"), config_number(p, "probability")) for c, p in spec["points"])
            return DiscreteCosts(points=tuple(points))
        if kind == "continuous":
            knots = ((config_number(x, "knot"), config_number(q, "knot")) for x, q in spec["knots"])
            return ContinuousCosts(knots=tuple(knots))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed cost distribution: {exc}") from exc
    raise ConfigError(f"unknown cost distribution type {spec.get('type')!r}")
