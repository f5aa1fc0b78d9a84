"""Arbitrary-precision references, independent of float64 rounding.

contact_point_mp bisects the unscaled mean-match equation of a candidate
(reference.mean_match_residual_unscaled) in mpmath at 40 digits.  The
exponent range of an mpf is unbounded, so F(v)^(n-1) never underflows and
the equation needs no rescaling: it checks candidate.solve_beta's contact
point up to n = 2^20 without sharing its float model.  The priors are
rebuilt from their parameters in closed form (_mp_prior); their cdf and
integrated cdf are polynomials on each piece.

large_market_contact_mp solves the concealing candidate's contact point
from a different equation, one in F and its integral only (no power of F),
at 40 digits, and at n = infinity the limit v_inf; cdf_over_density_mp
gives the constant F/f(v_inf) of the 1/n law that n (v_H - v_inf) follows.
"""
from __future__ import annotations

import bisect
from typing import Callable

import mpmath as mp

from disclose_eq.priors import PiecewiseLinearPrior, PowerPrior, Prior, UniformPrior

MpFunction = Callable[[mp.mpf], mp.mpf]


def _mp_prior(prior: Prior) -> tuple[MpFunction, MpFunction]:
    """(cdf, cum_cdf) of the prior as functions of an mpf, at the working precision."""
    if isinstance(prior, UniformPrior):
        return (lambda v: v), (lambda v: v * v / 2)
    if isinstance(prior, PowerPrior):
        a = mp.mpf(prior.a)
        return (lambda v: v**a), (lambda v: v ** (a + 1) / (a + 1))
    if isinstance(prior, PiecewiseLinearPrior):
        xs = [mp.mpf(x) for x, _ in prior.knots]
        qs = [mp.mpf(q) for _, q in prior.knots]
        areas = [mp.mpf(0)]
        for i in range(len(xs) - 1):
            areas.append(areas[-1] + (xs[i + 1] - xs[i]) * (qs[i] + qs[i + 1]) / 2)

        def piece(v: mp.mpf) -> int:
            return min(max(bisect.bisect_right(xs, v) - 1, 0), len(xs) - 2)

        def cdf(v: mp.mpf) -> mp.mpf:
            i = piece(v)
            return qs[i] + (qs[i + 1] - qs[i]) / (xs[i + 1] - xs[i]) * (v - xs[i])

        def cum_cdf(v: mp.mpf) -> mp.mpf:
            i = piece(v)
            return areas[i] + (v - xs[i]) * (qs[i] + cdf(v)) / 2

        return cdf, cum_cdf
    raise TypeError(f"no closed form for {type(prior).__name__}")


def contact_point_mp(
    prior: Prior, n: int, v_l: float, r: float, *, dps: int = 40, halvings: int = 140
) -> mp.mpf:
    """v_H of the candidate at (v_L, r): the root in (r, 1) of the unscaled
    mean-match residual, or 1 when the residual is not positive at 1 (the
    pooled branch caps at 1 before re-contact)."""
    with mp.workdps(dps):
        cdf, cum_cdf = _mp_prior(prior)
        v_l, r = mp.mpf(v_l), mp.mpf(r)
        fl = cdf(v_l)
        fln1 = fl ** (n - 1)
        cum_l = cum_cdf(v_l)

        def residual(v: mp.mpf) -> mp.mpf:
            fv = cdf(v)
            mass = fv - fl
            vf = v * fv - v_l * fl - (cum_cdf(v) - cum_l)
            eta_mass = (fv**n - fl * fln1) / n - fln1 * mass
            return (fv ** (n - 1) - fln1) * (vf - r * mass) - eta_mass * (v - r)

        lo, hi = r, mp.mpf(1)
        if residual(hi) <= 0:
            return hi
        for _ in range(halvings):
            mid = (lo + hi) / 2
            if residual(mid) > 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def large_market_contact_mp(prior: Prior, n: float, r: float, *, dps: int = 40, halvings: int = 140) -> mp.mpf:
    """v_H of the concealing candidate at (0, r) from its exact equation in
    F and the integral of F alone: the root in (r, 1) of

        Phi_n(v) = int_0^v F - (1 - 1/n) F(v) (v - r),

    and at n = mp.inf the infinite market's v_inf.  The pooled branch is
    G^(n-1) = beta (v - r) on [r, v_H] with G(v_H) = F(v_H), so int_r^{v_H} G
    = (n - 1)/n F(v_H) (v_H - r), and the preserved mean, int_0^{v_H} G =
    int_0^{v_H} F, is Phi_n(v_H) = 0.  Phi_n(r) = int_0^r F > 0, and Phi_n
    rises then falls on (r, 1), so a negative Phi_n(1) (the branch re-contacts
    the prior before 1) brackets its one root, which is bisected."""
    with mp.workdps(dps):
        cdf, cum_cdf = _mp_prior(prior)
        r, c = mp.mpf(r), 1 - 1 / mp.mpf(n)

        def phi(v: mp.mpf) -> mp.mpf:
            return cum_cdf(v) - c * cdf(v) * (v - r)

        lo, hi = r, mp.mpf(1)
        if phi(hi) >= 0:
            raise ValueError(f"the pooled branch reaches 1 before re-contact at n = {n}")
        for _ in range(halvings):
            mid = (lo + hi) / 2
            if phi(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def cdf_over_density_mp(prior: Prior, v: mp.mpf, *, dps: int = 40) -> mp.mpf:
    """F(v) / f(v), the density by mpmath's numerical derivative of the cdf
    (v inside a piece of a piecewise prior)."""
    with mp.workdps(dps):
        cdf, _ = _mp_prior(prior)
        return cdf(v) / mp.diff(cdf, v)
