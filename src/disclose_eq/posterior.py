"""Piecewise posterior-mean distributions.

A posterior cdf is a contiguous list of segments on [0, top] plus at most
one atom.  Each segment kind (FullDisclosure, Flat, AffinePower) owns its
algebra: cdf(prior, v), integral(prior, lo, hi, k) of cdf**k over [lo, hi]
(lo <= hi within the segment; hi may be an array), quantile_in_place(prior,
q) and to_json_dict().

The cdf is right-continuous; an atom of mass m at x shows up as a jump
between the segment ending at x and the one starting there.  Every
integral used downstream (plain and power moments of the cdf) is closed
form per segment.

A point finds its segment by one searchsorted of the segment ends into
the sorted points, which cuts them into one contiguous slice per
segment.  Unsorted input is sorted once, and the results go back to the
caller's order.  The cdf and its integrals see sorted grids or a few
points.  `sample` takes a block of random variates in any order, which
that sort would cost more than it saves: it evaluates each segment's
quantile on all the variates, clipped to the segment's cdf levels, and
keeps it where the variate reaches the segment's lower level.  The
quantiles are computed in place, so `sample_into` can write a block into
arrays that the simulator reuses from block to block.

The integral-precision order lives here too: informativeness_compare is
the mean-preserving-contraction check of a general posterior, used by the
deviation gate and the welfare statics (candidate validation reads a
candidate's integrated gap at its segment ends instead, which its
structure makes enough).  It integrates both posteriors with cum_integral
on one grid: the uniform base grid with the breakpoints of both
distributions inserted.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Union

import numpy as np

from .errors import DomainError, ValidationFailureError
from .priors import Prior
from .tolerances import ATOM_MATCH_TOL, CONTINUITY_TOL, MPC_TOL, POOLED_LEVEL_FLOOR

ArrayLike = Union[float, np.ndarray]

# integral-precision order: the uniform grid (merged with both
# distributions' breakpoints) that MPC_TOL is read on
_MPC_GRID = 2001
_MPC_BASE = np.linspace(0.0, 1.0, _MPC_GRID)
_MPC_BASE_LIST = _MPC_BASE.tolist()

LESS_INFORMATIVE = "LessInformative"
MORE_INFORMATIVE = "MoreInformative"
EQUALLY_INFORMATIVE = "EquallyInformative"
INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class FullDisclosure:
    """The cdf follows the prior F on [a, b]."""

    a: float
    b: float

    def cdf(self, prior: Prior, v: ArrayLike) -> ArrayLike:
        return prior.cdf(v)

    def integral(self, prior: Prior, lo: float, hi: ArrayLike, k: int = 1) -> ArrayLike:
        return prior.cum_pow_cdf(hi, k) - prior.cum_pow_cdf(lo, k)

    def quantile_in_place(self, prior: Prior, q: np.ndarray) -> None:
        prior.quantile_in_place(q)

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": "full_disclosure", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Flat:
    """The cdf is constant at level on [a, b]: a support gap."""

    a: float
    b: float
    level: float

    def cdf(self, prior: Prior, v: ArrayLike) -> ArrayLike:
        return np.full_like(v, self.level) if isinstance(v, np.ndarray) else self.level

    def integral(self, prior: Prior, lo: float, hi: ArrayLike, k: int = 1) -> ArrayLike:
        return self.level**k * (hi - lo)

    def quantile_in_place(self, prior: Prior, q: np.ndarray) -> None:
        q.fill(self.a)  # no mass here: the level is first reached at a

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": "flat", "a": self.a, "b": self.b, "level": self.level}


@dataclass(frozen=True)
class AffinePower:
    """cdf**root_power is the line base + slope*(v - a) on [a, b]: a
    candidate's pooled branch from a = r (Candidate.pooled), root_power = n - 1.

    In a large concealing market the line starts at base = 0 and its rise
    over [a, b], F(b)**root_power, leaves the float range, so slope
    underflows.  There (_scaled) the branch is read from hi, the cdf at b:
    cdf = hi * t**(1/root_power) with t = (v - a) / (b - a).  Everywhere
    else hi is not read, and the line's arithmetic runs unchanged.
    """

    a: float
    b: float
    base: float
    slope: float
    root_power: int
    hi: float = 0.0  # the cdf at b when base == 0; 0.0 otherwise

    def _scaled(self) -> bool:
        """Whether base + slope (v - a) underflows on [a, b]."""
        return self.base == 0.0 and self.hi > 0.0 and self.slope * (self.b - self.a) < POOLED_LEVEL_FLOOR

    def _t(self, v: ArrayLike) -> ArrayLike:
        """(v - a) / (b - a), clipped to [0, 1]."""
        t = (v - self.a) / (self.b - self.a)
        return t.clip(0.0, 1.0) if isinstance(t, np.ndarray) else min(max(t, 0.0), 1.0)

    def line(self, v: ArrayLike) -> ArrayLike:
        """cdf**root_power, extended past [a, b] and unclipped."""
        return self.base + self.slope * (v - self.a)

    def _w(self, v: ArrayLike) -> ArrayLike:
        """cdf**root_power, clipped to [0, 1]."""
        w = self.line(v)
        return w.clip(0.0, 1.0) if isinstance(w, np.ndarray) else min(max(w, 0.0), 1.0)

    def cdf(self, prior: Prior, v: ArrayLike) -> ArrayLike:
        if self._scaled():
            return self.hi * self._t(v) ** (1.0 / self.root_power)
        w = self._w(v)
        return w if self.root_power == 1 else w ** (1.0 / self.root_power)

    def integral(self, prior: Prior, lo: float, hi: ArrayLike, k: int = 1) -> ArrayLike:
        p = self.root_power
        if self._scaled():
            e = (k + p) / p
            return self.hi**k * (self.b - self.a) * p / (k + p) * (self._t(hi) ** e - self._t(lo) ** e)
        scale = self.slope * (k + p)
        coef = p / scale if scale != 0.0 else math.inf
        if coef == 0.0 or not math.isfinite(coef):
            # outside the scaled form, F**(n-1) underflows in large markets,
            # and the slope goes to 0 or so near it that the coefficient overflows
            if np.any(hi > lo):
                raise ValidationFailureError(
                    "pooled-slope",
                    f"pooled slope {self.slope} on [{self.a}, {self.b}] (root power {p})",
                )
            return hi - lo  # empty intervals only
        e = (k + p) / p
        return coef * (self._w(hi) ** e - self._w(lo) ** e)

    def quantile_in_place(self, prior: Prior, q: np.ndarray) -> None:
        """a + (q**root_power - base) / slope, bit for bit: `**=` takes
        the same fast cases as `**` (a copy for 1, a square for 2), and the
        final addition commutes.  The scaled branch inverts hi * t**(1/root_power)."""
        if self._scaled():
            q /= self.hi
            q **= self.root_power
            q *= self.b - self.a
            q += self.a
            return
        q **= self.root_power
        q -= self.base
        q /= self.slope
        q += self.a

    def to_json_dict(self) -> dict[str, Any]:
        """The branch's fields; hi only in the scaled form, the one that reads it."""
        scaled = {"hi": self.hi} if self._scaled() else {}
        return {"kind": "affine_power", "a": self.a, "b": self.b, "base": self.base,
                "beta": self.slope, "r_anchor": self.a, "root_power": self.root_power, **scaled}


Segment = Union[FullDisclosure, Flat, AffinePower]


@dataclass(frozen=True)
class PosteriorDistribution:
    prior: Prior
    segments: tuple[Segment, ...]
    atom: tuple[float, float] | None = None  # (location, mass)

    def _seg_levels(self, seg: Segment) -> tuple[float, float]:
        return float(seg.cdf(self.prior, seg.a)), float(seg.cdf(self.prior, seg.b))

    # -- views cached in the instance dict; equality sees only the fields --
    @cached_property
    def _ends(self) -> np.ndarray:
        return np.array([seg.b for seg in self.segments])

    @cached_property
    def _prefixes(self) -> dict[int, tuple[float, ...]]:
        return {}

    def _prefix(self, k: int) -> tuple[float, ...]:
        """Integral of cdf**k from 0 up to each segment end, built once per k."""
        prefix = self._prefixes.get(k)
        if prefix is None:
            out = [0.0]
            for seg in self.segments:
                out.append(out[-1] + seg.integral(self.prior, seg.a, seg.b, k))
            prefix = self._prefixes[k] = tuple(out)
        return prefix

    @cached_property
    def _cum_top(self) -> float:
        return self.cum_integral(1.0)

    # -- public surface -----------------------------------------------------
    @property
    def top(self) -> float:
        """Top of the support (cdf reaches 1 there)."""
        last = self.segments[-1].b
        if self.atom is not None:
            return max(last, self.atom[0])
        return last

    def breakpoints(self) -> list[float]:
        pts = {0.0, 1.0}
        for seg in self.segments:
            pts.add(seg.a)
            pts.add(seg.b)
        if self.atom is not None:
            pts.add(self.atom[0])
        return sorted(pts)

    def cdf_left(self, v: ArrayLike) -> ArrayLike:
        """Left limit of the cdf at v.  Segments join continuously, so the
        atom is the cdf's only jump: its mass is dropped at its location only."""
        out = self.cdf(v)
        if self.atom is not None:
            out = out - np.where(np.asarray(v) == self.atom[0], self.atom[1], 0.0)
        return out

    def support_bottom(self) -> float:
        """Lowest value carrying mass (the inverse cdf at zero)."""
        return float(self.sample(0.0))

    def cdf(self, v: ArrayLike) -> ArrayLike:
        """Right-continuous cdf; atoms jump at their location."""
        # side="left" sends a point on a segment end to the *next* segment, which
        # makes the cdf right-continuous across an atom between segments.
        return self._by_segment(v, "left", lambda i, seg, x: seg.cdf(self.prior, x), lambda x: 1.0)

    def cum_integral(self, z: ArrayLike, k: int = 1) -> ArrayLike:
        """Integral of cdf**k from 0 to z."""
        return self._cum(z, k)

    def _cum(self, z: ArrayLike, k: int) -> ArrayLike:
        prefix = self._prefix(k)
        return self._by_segment(
            z,
            "right",
            lambda i, seg, x: prefix[i] + seg.integral(self.prior, seg.a, x.clip(seg.a, seg.b), k),
            lambda x: prefix[-1] + (x - self._ends[-1]),  # cdf == 1 past the top
        )

    def _by_segment(self, v: ArrayLike, side: str, on_segment, past_end) -> ArrayLike:
        """on_segment(i, segment, points) on each segment's slice of the sorted
        points, past_end(points) beyond the last end; side says which segment
        a point on an end belongs to."""
        scalar = not isinstance(v, np.ndarray)
        pts = np.asarray(v, dtype=float).ravel()
        order = None
        if pts.size > 1 and not np.all(pts[:-1] <= pts[1:]):
            order = np.argsort(pts, kind="stable")
            pts = pts[order]
        out = np.empty_like(pts)
        lo = 0
        cuts = pts.searchsorted(self._ends, side=side).tolist()
        for i, (seg, hi) in enumerate(zip(self.segments, cuts)):
            if hi > lo:
                out[lo:hi] = on_segment(i, seg, pts[lo:hi])
                lo = hi
        out[lo:] = past_end(pts[lo:])
        if scalar:
            return float(out[0])
        if order is not None:
            out[order] = out.copy()  # scatter back to the caller's order
        return out.reshape(np.shape(v) or (1,))

    def mean(self) -> float:
        return 1.0 - self._cum_top

    def excess_above(self, r: ArrayLike) -> ArrayLike:
        """E[(v - r)+] = integral of (1 - cdf) from r to 1."""
        return (1.0 - r) - (self._cum_top - self.cum_integral(r))

    @cached_property
    def _quantile_table(self) -> tuple[tuple[float, float, Any], ...]:
        """(q_lo, q_hi, quantile) per segment with mass and for the atom,
        ascending in q_lo."""
        table: list[tuple[float, float, Any]] = []
        for seg in self.segments:
            lo, hi = self._seg_levels(seg)
            if hi > lo:
                table.append((lo, hi, seg.quantile_in_place))
        if self.atom is not None:
            loc, mass = self.atom
            lo = float(self.cdf(loc)) - mass
            table.append((lo, lo + mass, Flat(loc, loc, lo).quantile_in_place))  # every q maps to loc
        table.sort(key=lambda t: t[0])
        return tuple(table)

    def sample(self, u: ArrayLike) -> ArrayLike:
        """Inverse-cdf sampling; u in [0, 1)."""
        scalar = not isinstance(u, np.ndarray)
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):  # NaN fails both
            raise DomainError("sampling variates must lie in [0, 1)")
        out = np.empty_like(arr)
        self.sample_into(arr, out, np.empty_like(arr), np.empty(arr.shape, dtype=bool))
        return float(out[0]) if scalar else out

    def sample_into(self, u: np.ndarray, out: np.ndarray, scratch: np.ndarray, mask: np.ndarray) -> None:
        """sample(u) written into out, for variates already known to lie in
        [0, 1).  scratch and mask have u's shape and are overwritten."""
        # a variate belongs to the last entry whose q_lo it reaches, or to the
        # first: each entry overwrites the variates at or above its q_lo
        (lo, hi, quantile), *rest = self._quantile_table
        np.clip(u, lo, hi, out=out)
        quantile(self.prior, out)
        for lo, hi, quantile in rest:
            np.clip(u, lo, hi, out=scratch)
            quantile(self.prior, scratch)
            np.greater_equal(u, lo, out=mask)
            np.copyto(out, scratch, where=mask)

    def validate(self) -> None:
        """Structural checks: contiguous, nondecreasing, reaches 1 at the top."""
        prev_end = 0.0
        prev_level = 0.0
        for seg in self.segments:
            if abs(seg.a - prev_end) > CONTINUITY_TOL:
                raise ValidationFailureError("segment-contiguity", f"gap at {seg.a}")
            lo, hi = self._seg_levels(seg)
            jump = 0.0
            if self.atom is not None and abs(self.atom[0] - seg.a) <= ATOM_MATCH_TOL:
                jump = self.atom[1]
            if lo + CONTINUITY_TOL < prev_level or abs(lo - prev_level - jump) > CONTINUITY_TOL:
                raise ValidationFailureError(
                    "cdf-continuity", f"level {prev_level}->{lo} at {seg.a} (atom {jump})"
                )
            if hi < lo - CONTINUITY_TOL:
                raise ValidationFailureError("cdf-monotone", f"segment on [{seg.a},{seg.b}]")
            prev_end = seg.b
            prev_level = hi
        if self.atom is not None and abs(self.atom[0] - prev_end) <= ATOM_MATCH_TOL:
            prev_level += self.atom[1]
        if abs(prev_level - 1.0) > CONTINUITY_TOL:
            raise ValidationFailureError("cdf-top", f"cdf({prev_end}) = {prev_level} != 1")

    def to_json_dict(self) -> dict[str, Any]:
        segs = [seg.to_json_dict() for seg in self.segments]
        return {"segments": segs, "atom": list(self.atom) if self.atom else None}


def full_disclosure_distribution(prior: Prior) -> PosteriorDistribution:
    return PosteriorDistribution(prior=prior, segments=(FullDisclosure(0.0, 1.0),))


def point_mass(prior: Prior, loc: float) -> PosteriorDistribution:
    """Degenerate posterior: all mass at loc (the no-information signal)."""
    return PosteriorDistribution(
        prior=prior, segments=(Flat(0.0, loc, 0.0),), atom=(loc, 1.0)
    )


@dataclass(frozen=True)
class InformativenessVerdict:
    verdict: str
    min_gap_forward: float
    min_gap_backward: float
    mean_gap: float


def drop_repeats(x: np.ndarray) -> np.ndarray:
    """A sorted nonempty 1-d array without its repeated values (the first of
    each run stays)."""
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


def insert_points(base: np.ndarray, base_list: list[float], points) -> np.ndarray:
    """The sorted union of a sorted grid without repeats (base, and base_list
    its tolist()) and some points without NaN: each point that is not a base
    point is inserted where it belongs, with no sort of the base and no
    np.unique (its first call imports numpy.ma on numpy >= 2.3)."""
    pieces, lo = [], 0
    for x in sorted(set(points)):
        i = bisect_left(base_list, x)
        if i == len(base_list) or base_list[i] != x:
            pieces += (base[lo:i], [x])
            lo = i
    pieces.append(base[lo:])
    return np.concatenate(pieces)


def informativeness_compare(
    g0: PosteriorDistribution, g1: PosteriorDistribution
) -> InformativenessVerdict:
    """Rank g0 against g1 by integral precision: both are integrated with
    cum_integral on the base grid with their breakpoints inserted.

    LessInformative means g0 is a mean-preserving contraction of g1.
    Incomparability is an ordinary outcome, not an error.
    """
    grid = insert_points(_MPC_BASE, _MPC_BASE_LIST, [*g0.breakpoints(), *g1.breakpoints()])
    delta = g1.cum_integral(grid) - g0.cum_integral(grid)
    mean_gap = float(delta[-1])
    min_fwd = float(np.min(delta))
    min_bwd = float(np.min(-delta))
    means_match = abs(mean_gap) <= MPC_TOL
    g0_less = means_match and min_fwd >= -MPC_TOL
    g0_more = means_match and min_bwd >= -MPC_TOL
    if g0_less and g0_more:
        verdict = EQUALLY_INFORMATIVE
    elif g0_less:
        verdict = LESS_INFORMATIVE
    elif g0_more:
        verdict = MORE_INFORMATIVE
    else:
        verdict = INCOMPARABLE
    return InformativenessVerdict(
        verdict=verdict,
        min_gap_forward=min_fwd,
        min_gap_backward=min_bwd,
        mean_gap=mean_gap,
    )


def check_deviation_mpc(g_dev: PosteriorDistribution, prior: Prior) -> None:
    """Raise ValidationFailureError("deviation-not-mpc") unless the deviation
    g_dev is a mean-preserving contraction of the prior."""
    v = informativeness_compare(g_dev, full_disclosure_distribution(prior))
    if v.verdict not in (LESS_INFORMATIVE, EQUALLY_INFORMATIVE):
        raise ValidationFailureError(
            "deviation-not-mpc", f"min_gap={v.min_gap_forward}, mean_error={v.mean_gap}"
        )
