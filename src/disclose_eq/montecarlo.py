"""Agent-level simulation of the search market.

RNG discipline: counter-based Philox streams keyed by (seed, block index),
one block of consumers per stream.  One ordered map runs the blocks (on a
thread pool, or in the calling thread when serial) and their totals are
reduced in block order, so serial and parallel execution produce
bit-identical reports and any rerun with the same seed and config
reproduces every number exactly.

Savvy consumers visit all firms at zero cost and buy the best draw.
Costly searchers draw a search cost, receive the reservation value the
equilibrium disclosure assigns to that cost, visit firms in a uniformly
random order, stop at the first draw at or above their reservation value,
and otherwise buy the best of all n draws.  Every visit costs the
consumer her search cost, the first one included.  Once both types have
stopped, one tally records their purchases: a savvy consumer is the case
that visits every firm, stops at the best draw and pays nothing.  A
single cost or a finite set of costs has its stop quantiles solved once
per simulation (_Plan).  A drawn cost gets its cell of a grid cached per
posterior by one search (_cells); only consumers with a draw near their
stop quantile get the exact solve, the cell's stop band decides the rest.

A block is a few passes over whole arrays.  The stopping rule, the best
draw and the tracked firm's position are loops over the n columns, and
the tally finds each draw's curve bin in a lookup table (_Binning) rather
than by binary search.  In markets of up to three firms each firm's place
in the visit order is its rank among the consumer's keys, found by
pairwise comparisons instead of a per-row sort (_visit_order).  Integer
selects (the first hit, visits, the position bought, the tracked firm's
position, the unseen-draw bin) are arithmetic on 0/1 factors rather than
masked copies or np.where: their masks are random, and NumPy's masked
loops then mispredict a branch per element.  Each worker runs its blocks
on one set of arrays (_Buffers), made in the calling thread, sized by the
larger group of a block and reused by every block it runs.  A block that
allocated its own arrays got fresh pages from the OS each time, since
malloc hands freed large arrays back, and zero-filling those pages took
about 1,400 page faults per 65,536 consumers.  The draws, the sampled
values and the curve bins are written into the reused arrays, and the
per-row integers are kept in the smallest type that holds n + 1.

A unilateral deviation runs through the same path: every draw comes from
the equilibrium posterior except the deviant firm's, which are redrawn
from its own posterior with the same variates, and consumers keep the
reservation values the equilibrium disclosure implies.
"""
from __future__ import annotations

import functools
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace
from typing import Any, Union

import numpy as np

from .costs import ContinuousCosts, CostDistribution, DiscreteCosts
from .endogenous import Equilibrium
from .errors import DomainError
from .posterior import ArrayLike, PosteriorDistribution, check_deviation_mpc, insert_points
from .tolerances import SIM_BYTES_MAX, STOP_MARGIN, SUPPORT_BOTTOM_TOL

_BLOCK = 1 << 16
CONSUMERS_MAX, BINS_MAX = 10**10, 10_000  # SimConfig's caps: over an hour at 2M/s; a 2**14-cell lookup


@dataclass(frozen=True)
class SingleCost:
    s: float


@dataclass(frozen=True)
class HeterogeneousCosts:
    costs: CostDistribution


CostModel = Union[SingleCost, HeterogeneousCosts]


@dataclass(frozen=True)
class SimConfig:
    consumers: int
    seed: int
    cost_model: CostModel
    bins: int = 50
    workers: int = 1  # threads running the blocks; 1 runs them in the calling thread

    def __post_init__(self) -> None:
        if not 1 <= self.consumers <= CONSUMERS_MAX:
            raise DomainError(f"need 1 to {CONSUMERS_MAX} consumers, not {self.consumers}")
        if self.workers < 1:
            raise DomainError("need at least one worker")
        if not 10 <= self.bins <= BINS_MAX:
            raise DomainError(f"need 10 to {BINS_MAX} bins, not {self.bins}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class CurveBin:
    bin_left: float
    bin_right: float
    v_mid: float
    u_hat: float
    se: float
    visits: int


@dataclass(frozen=True)
class SimReport:
    consumers: int
    seed: int
    n_savvy: int
    n_inexperienced: int
    eta_hat: float
    eta_se: float
    cs_savvy_hat: float
    cs_savvy_se: float
    cs_inexperienced_hat: float
    cs_inexperienced_se: float
    firm_sale_shares: tuple[float, ...]
    visit_histogram: tuple[int, ...]
    multi_search_freq: float
    curve: tuple[CurveBin, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "conditional_sale_curve" if k == "curve" else k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(self).items()
        }


_DEPTH = 12  # the stop grid's points are j / 2**_DEPTH
_ROUND_POINTS = 2048  # excess_above's fixed cost per call, counted in points it evaluates


def _check_costs(g: PosteriorDistribution, costs: np.ndarray) -> None:
    if not np.all((0.0 < costs) & (costs < g.mean())):
        raise DomainError(f"cost must lie in (0, E_G[v]) = (0, {g.mean()})")


def reservation_for_cost(g: PosteriorDistribution, s: ArrayLike) -> ArrayLike:
    """Reservation values solving E[(v - r)+] = s under g, one per cost.

    Every cost must lie in (0, E_G[v]).  One array bisection on [0, 1]
    serves all costs: 40 halvings take the bracket to 2**-40 <= 1e-12, and
    an element whose residual is exactly 0 stays at that midpoint.  Each
    value equals what `bisect_root` returns for that cost with xtol=1e-12
    (tolerances.THRESHOLD_XTOL).

    The halvings run in rounds, each replayed on one table of excess_above
    that holds every midpoint they visit bit for bit (the points are dyadic):
    the cached stop grid for the first _DEPTH, then for a round of w the
    2**w - 1 inner points of each open bracket, where w is the bit length of
    _ROUND_POINTS over their count.  So a few costs take 10 or more a call.
    """
    costs = np.atleast_1d(np.asarray(s, dtype=float))
    _check_costs(g, costs)
    lo, hi, depth = np.zeros(len(costs)), np.ones(len(costs)), 0
    live = np.argsort(-costs)  # brackets in ascending order, whose points excess_above takes faster
    while depth < 40 and len(live):
        x, c = lo[live], costs[live]
        if depth == 0:
            w, row, excess = _DEPTH, 0, _stop_grid(g)[0]
        else:  # point j of bracket i at excess[row[i] + j]
            w = min(40 - depth, max(1, (_ROUND_POINTS // len(live)).bit_length()))
            row = np.arange(len(live)) * ((1 << w) - 1) - 1
            excess = g.excess_above((x[:, None] + np.arange(1, 1 << w) * 2.0 ** -(depth + w)).reshape(-1))
        depth += w
        a, b = np.zeros(len(live), dtype=np.intp), np.full(len(live), 1 << w)
        for _ in range(w):
            mid = (a + b) >> 1
            e = excess[row + mid]  # e >= c where excess - c >= 0, e > c where > 0
            a, b = np.where(e >= c, mid, a), np.where(e > c, b, mid)
        lo[live], hi[live] = x + a * 2.0**-depth, x + b * 2.0**-depth
        live = live[a < b]  # a zero residual closed the others
    r = 0.5 * (lo + hi)
    return r if isinstance(s, np.ndarray) else float(r[0])


def stop_quantile(g: PosteriorDistribution, r: ArrayLike) -> ArrayLike:
    """Quantiles below which a draw from g fails the reservation test, per r.

    The stopping rule is applied to the sampling variates rather than the
    sampled values: near the support bottom the pooled cdf can be so steep
    that a reservation value correct to 1e-12 still mislabels a visible
    share of the mass, while in quantile space the rule is exact.  A
    reservation at or below the support bottom never triggers search.
    """
    q = np.where(np.asarray(r) <= g.support_bottom() + SUPPORT_BOTTOM_TOL, 0.0, g.cdf_left(r))
    return q if isinstance(r, np.ndarray) else float(q)


@functools.lru_cache(maxsize=16)
def _stop_grid(g: PosteriorDistribution) -> tuple[np.ndarray, np.ndarray, bool]:
    """excess_above and stop_quantile at j / 2**_DEPTH, read-only, and whether
    the excess is nonincreasing there; built once for each of the last 16 g."""
    points = np.arange((1 << _DEPTH) + 1) / (1 << _DEPTH)
    excess, stops = g.excess_above(points), stop_quantile(g, points)
    excess.flags.writeable = stops.flags.writeable = False
    return excess, stops, bool(np.all(excess[:-1] >= excess[1:]))


def _cells(g: PosteriorDistribution, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cost's grid cell [lo, hi], which holds its reservation value times
    2**_DEPTH.  Where the grid's excess is nonincreasing, reservation_for_cost's
    first _DEPTH halvings end in the cell whose top hi is the first interior
    point with an excess below the cost (else the last point), or stop at a
    point whose excess equals the cost, which lies below hi: then lo = 0.
    Where the excess rises anywhere, every cell is [0, 2**_DEPTH]."""
    _check_costs(g, costs)
    excess, _, falling = _stop_grid(g)
    if not falling:
        return np.zeros(len(costs), dtype=np.intp), np.full(len(costs), 1 << _DEPTH)
    # searched top down, where the excess ascends; sorted keys halve the search's time
    order = np.argsort(costs)
    hi = np.empty(len(costs), dtype=np.intp)
    hi[order] = (1 << _DEPTH) - excess[-2:0:-1].searchsorted(costs[order], side="left")
    return np.where(excess[hi - 1] == costs, 0, hi - 1), hi


def _bin_edges(bins: int, eq: Equilibrium) -> np.ndarray:
    """Roughly `bins` edges over [0, 1]; the reservation value is always an
    edge (the payoff jump must be estimable) and so are the other structural
    breakpoints, which keeps bin averages aligned with midpoint payoffs."""
    base = np.linspace(0.0, 1.0, bins + 1)
    forced = [x for x in eq.thresholds if 0.0 < x < 1.0]
    # drop the base edges that crowd a forced breakpoint, but never 0 or 1
    crowding = np.zeros(len(base), dtype=bool)
    for x in forced:
        crowding |= np.abs(base - x) < 0.25 / bins
    crowding[[0, -1]] = False
    base = base[~crowding]
    return insert_points(base, base.tolist(), forced)


_CHUNK = 1 << 14  # values binned per pass


class _Binning:
    """Curve bins over edges from 0.0 to 1.0, found by lookup.  The cells
    are [c, c + 1) / cells for a power of two `cells`, so that v * cells is
    exact and c = floor(v * cells).  A value in cell c lies in bin `below[c]`
    plus one for each edge strictly inside the cell that it reaches.  `index`
    is np.digitize(v, edges) - 1 clipped to the bins, bit for bit."""

    def __init__(self, edges: np.ndarray) -> None:
        self.edges = edges
        n_bins = len(edges) - 1
        self.cells = max(4096, 1 << n_bins.bit_length())  # at most one evenly spaced edge per cell
        floors = np.arange(self.cells + 1) / self.cells
        self.below = np.minimum(edges.searchsorted(floors, side="right") - 1, n_bins - 1)
        scaled = edges * self.cells
        inner = scaled != np.floor(scaled)
        cell, inner = np.floor(scaled[inner]).astype(np.intp), edges[inner]
        self.inside: list[np.ndarray] = []  # the k-th edge inside each cell, else inf
        while len(inner):
            first = np.concatenate([[True], cell[1:] != cell[:-1]])
            level = np.full(self.cells + 1, np.inf)
            level[cell[first]] = inner[first]
            self.inside.append(level)
            cell, inner = cell[~first], inner[~first]

    def index(self, vals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Bin of each value, into out (intp, vals' shape), in
        chunks that keep the temporaries small; cells outside the table are
        clipped into it."""
        flat = vals.reshape(-1)
        idx_flat = out.reshape(-1)
        for start in range(0, len(flat), _CHUNK):
            v = flat[start : start + _CHUNK]
            cell = (v * self.cells).astype(np.intp)
            chunk = idx_flat[start : start + _CHUNK]
            self.below.take(cell, out=chunk, mode="clip")
            for level in self.inside:
                chunk += v >= level.take(cell, mode="clip")
        return out


@dataclass
class _Totals:
    n_savvy: int
    n_inexp: int
    sales: np.ndarray
    visit_hist: np.ndarray
    bin_visits: np.ndarray
    bin_sales: np.ndarray
    firm0_visits_inexp: int = 0
    multi: int = 0
    sum_cs_savvy: float = 0.0
    sumsq_cs_savvy: float = 0.0
    sum_cs_inexp: float = 0.0
    sumsq_cs_inexp: float = 0.0

    def merge(self, other: "_Totals") -> "_Totals":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class _Plan:
    """What every block of one simulation shares.  `firm` is tracked; it is
    the deviant when g_dev, its posterior, is set.  `stops` holds the stop
    quantile of each cost, in the model's order, under eq.g and under g_dev
    (None without a deviant), or is None for continuous costs, which every
    block solves for its own draws."""

    eq: Equilibrium
    config: SimConfig
    binning: _Binning
    firm: int
    g_dev: PosteriorDistribution | None
    stops: tuple | None


def _plan(eq: Equilibrium, config: SimConfig, firm: int = 0, g_dev: PosteriorDistribution | None = None) -> _Plan:
    """One simulation's plan; `firm` deviates to g_dev when that is set."""
    binning = _Binning(_bin_edges(config.bins, eq))
    eq.g.validate()  # hand-built markets arrive unsolved; _costly's stop bands need this
    model, stops = config.cost_model, None
    if isinstance(model, SingleCost) or isinstance(model.costs, DiscreteCosts):
        costs = [model.s] if isinstance(model, SingleCost) else [c for c, _ in model.costs.points]
        r = reservation_for_cost(eq.g, np.array(costs))
        stops = stop_quantile(eq.g, r), (stop_quantile(g_dev, r) if g_dev is not None else None)
    return _Plan(eq, config, binning, firm, g_dev, stops)


def _draw_costs(rng: np.random.Generator, model: CostModel, size: int) -> tuple:
    """Each consumer's search cost (one number for a single cost), and for
    known costs the index of each draw among them (0 for a single cost, None
    for continuous costs).  A single cost draws no variate, drawn costs one
    per consumer."""
    if isinstance(model, SingleCost):
        return model.s, 0
    costs = model.costs
    u = rng.random(size)
    if isinstance(costs, DiscreteCosts):
        values = np.array([c for c, _ in costs.points])
        cum = np.cumsum([p for _, p in costs.points])
        # the last cost takes every u from cum[-2] up: the sum of the
        # probabilities may round, or be accepted, below the largest u
        which = np.searchsorted(cum[:-1], u, side="right")
        return values[which], which
    if isinstance(costs, ContinuousCosts):
        xs, qs = zip(*costs.knots)
        return np.interp(u, qs, xs), None
    raise DomainError(f"unknown cost model {model!r}")


def _narrow(n: int) -> type:
    """The smallest signed integer type that holds n + 1: the per-row
    positions, visits and ranks of a market of n firms."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max > n)


def _group_rows(size: int, alpha: float) -> int:
    """Rows for the larger group (savvy or costly) of a block of `size`
    consumers: its expected count plus six standard deviations, so that
    about one block in 10**9 has to grow the arrays."""
    p = max(alpha, 1.0 - alpha)
    return min(size, math.ceil(p * size + 6.0 * math.sqrt(size * p * (1.0 - p))))


class _Buffers:
    """One worker's arrays, reused by every block it runs, so that a block
    writes into pages the process already holds.  Each region takes several
    roles in turn (group() names them); roles that share a region are never
    alive at once:

    draws  float, rows x n: the alpha draw, the variates u, then the curve
           bins (as intp), once u is dead
    vals   float, rows x n: the visit keys, then the values drawn
    spare  float, rows x max(n, 2): sample's scratch, then the running
           maximum, then the surplus and its cost term
    flags  bool, rows x max(n, 2): sample's mask, then two per-row flags
    ints   narrow, (n + 4) rows: the ranks (rows x n), the first hit (then
           visits), the position bought, a scratch row, the tracked position
    wide   intp, 3 rows: the firm bought (then each purchase's bin), the flat
           index of each purchase (then a scratch row), the row offsets i * n

    The regions are views of one allocation.  Freed as one large block, it
    leaves the allocator's heap mapped for the next simulation in the
    process (glibc raises its trim threshold to the largest block freed).
    Freed as six blocks, the regions left the 8,192-consumer simulation of
    the benchmark's simulate round to fault in about 180 pages each time.
    """

    def __init__(self, n: int, rows: int) -> None:
        self.n, self.narrow, self.rows = n, _narrow(n), 0
        self.reserve(rows)

    def reserve(self, rows: int) -> None:
        """Room for groups of up to `rows` consumers; grows, never shrinks."""
        if rows <= self.rows:
            return
        n, cols = self.n, max(self.n, 2)  # spare and flags hold two rows
        regions = [("draws", np.float64, rows * n), ("vals", np.float64, rows * n),
                   ("spare", np.float64, rows * cols), ("wide", np.intp, 3 * rows),
                   ("flags", np.bool_, rows * cols), ("ints", self.narrow, (n + 4) * rows)]
        spans = [-(-np.dtype(dtype).itemsize * size // 64) * 64 for _, dtype, size in regions]
        total = sum(spans)
        if total > SIM_BYTES_MAX:
            raise DomainError(
                f"a worker's arrays for {rows} consumers in a market of n = {n} would take "
                f"{total / 2**30:.1f} GiB, over the bound of {SIM_BYTES_MAX / 2**30:.0f} GiB"
            )
        for name, _, _ in regions:
            setattr(self, name, None)  # the old memory is freed before the new is allocated
        memory = np.empty(total, dtype=np.uint8)
        start = 0
        for (name, dtype, size), span in zip(regions, spans):
            setattr(self, name, memory[start : start + span].view(dtype)[:size])
            start += span
        self.wide[2 * rows :] = np.arange(0, rows * n, n)
        self.rows = rows

    def group(self, count: int) -> SimpleNamespace:
        """Views for a group of `count` consumers."""
        n, rows = self.n, self.rows

        def grid(a: np.ndarray) -> np.ndarray:
            return a[: count * n].reshape(count, n)

        def row(a: np.ndarray, k: int) -> np.ndarray:
            return a[k * rows : k * rows + count]

        return SimpleNamespace(
            u=grid(self.draws), idx=grid(self.draws.view(np.intp)), vals=grid(self.vals),
            scratch=grid(self.spare), top=row(self.spare, 0), cs=row(self.spare, 0), term=row(self.spare, 1),
            mask=grid(self.flags), flag=row(self.flags, 0), any_hit=row(self.flags, 1),
            rank=grid(self.ints), first_hit=row(self.ints, n), stop_pos=row(self.ints, n + 1),
            tmp=row(self.ints, n + 2), pos=row(self.ints, n + 3),
            firm=row(self.wide, 0), bought=row(self.wide, 1), steps=row(self.wide, 2),
        )


def _blend(acc: np.ndarray, value, flag: np.ndarray, step: np.ndarray) -> None:
    """acc += (value - acc) * flag, through the scratch row step: the
    integer select on 0/1 flags that the kernel uses in place of masked
    copies and np.where, whose branches mispredict on random masks."""
    np.subtract(value, acc, out=step)
    step *= flag
    acc += step


def _tally(t: _Totals, vals, visits, stop_pos, firm, cost, binning: _Binning, b) -> tuple[float, float]:
    """Record what a group of consumers bought and return the sum and the sum
    of squares of their surplus.  Consumer i saw the first visits[i] draws
    of row i of vals, bought the one at stop_pos[i] from firm[i], and paid
    `cost` (one per consumer, or one for all) for each visit.  b holds the
    group's views (_Buffers.group)."""
    n = vals.shape[1]
    t.sales += np.bincount(firm, minlength=len(t.sales))  # before b.firm is reused
    bought = np.add(b.steps, stop_pos, out=b.bought)  # flat index of each purchase
    cs = np.take(vals.reshape(-1), bought, out=b.cs)
    cs -= np.multiply(visits, cost, out=b.term)
    total = float(np.sum(cs))
    cs *= cs
    total_sq = float(np.sum(cs))
    n_bins = len(t.bin_visits)
    idx = binning.index(vals, b.idx)
    t.bin_sales += np.bincount(np.take(idx.reshape(-1), bought, out=b.firm), minlength=n_bins)
    if visits.min() < n:  # draws never seen go to an extra bin
        for j in range(1, n):
            # the intp step: n_bins - col does not fit the narrow type
            _blend(idx[:, j], n_bins, np.less_equal(visits, j, out=b.flag), b.bought)
    t.bin_visits += np.bincount(idx.reshape(-1), minlength=n_bins + 1)[:n_bins]
    return total, total_sq


def _first_max(vals: np.ndarray, b) -> np.ndarray:
    """Column of each row's maximum, ties to the lowest column, written to
    b.stop_pos."""
    n = vals.shape[1]
    best, top, better = b.stop_pos, b.top, b.flag
    best.fill(0)
    np.copyto(top, vals[:, 0])
    for j in range(1, n):
        np.greater(vals[:, j], top, out=better)
        if j < n - 1:
            np.maximum(top, vals[:, j], out=top)
        _blend(best, j, better, b.tmp)
    return best


def _savvy(rng: np.random.Generator, plan: _Plan, b) -> tuple:
    """Savvy consumers visit every firm for free and buy the best draw.
    Returns _tally's (vals, visits, stop_pos, firm, cost)."""
    u = rng.random(out=b.u)
    plan.eq.g.sample_into(u, b.vals, b.scratch, b.mask)
    if plan.g_dev is not None:
        plan.g_dev.sample_into(u[:, plan.firm], b.vals[:, plan.firm], b.top, b.flag)
    best = _first_max(b.vals, b)  # ties go to the lowest firm index
    b.first_hit.fill(plan.eq.n)
    np.copyto(b.firm, best)  # bincount reads intp
    return b.vals, b.first_hit, best, b.firm, 0.0


# Rows of at most this many keys are ranked by pairwise comparisons, which
# cost O(n**2): per 42,600 rows 0.18 ms against 2.3 ms for np.argsort at
# n = 2, 0.6 against 3.1 ms at n = 3 and 3.3 against 3.3 ms at n = 5 (NumPy
# 2.4.6, 2-vCPU Xeon VM).  np.argsort orders rows of 2 or 3 tied keys as a
# stable sort would, and longer rows differently (a SIMD sort takes over), so
# only up to 3 keys do the ranks reproduce its order, ties included.
_RANKED_N = 3


def _ranks(keys: np.ndarray, rank: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Position of each column in its row's stable ascending order of keys,
    written to rank: #{i < j: k_i <= k_j} + #{i > j: k_i < k_j} for column
    j.  later is a per-row scratch flag."""
    rank.fill(0)
    for j in range(keys.shape[1]):
        for i in range(j + 1, keys.shape[1]):
            np.less(keys[:, i], keys[:, j], out=later)  # firm i comes before firm j
            rank[:, j] += later
            np.logical_not(later, out=later)
            rank[:, i] += later
    return rank


def _visit_order(keys: np.ndarray, track_firm: int, b) -> tuple:
    """Each row visits the firms in ascending order of its keys, as
    np.argsort orders them.  Returns the tracked firm's position in each
    row and a function from one position per row to the firm visited there
    (written to b.firm)."""
    n = keys.shape[1]
    if n <= _RANKED_N:
        rank = _ranks(keys, b.rank, b.flag)

        def firm_at(pos: np.ndarray) -> np.ndarray:
            b.firm.fill(0)
            for j in range(1, n):
                _blend(b.firm, j, np.equal(rank[:, j], pos, out=b.flag), b.tmp)
            return b.firm

        return rank[:, track_firm], firm_at
    order = np.argsort(keys, axis=1)  # firm at each position
    b.pos.fill(0)
    for j in range(1, n):
        _blend(b.pos, j, np.equal(order[:, j], track_firm, out=b.flag), b.tmp)

    def firm_at(pos: np.ndarray) -> np.ndarray:
        return np.take(order.reshape(-1), np.add(b.steps, pos, out=b.bought), out=b.firm)

    return b.pos, firm_at


def _stop_rule(u, vals, stop, stop_dev, pos_of_tracked, b) -> tuple[np.ndarray, np.ndarray]:
    """Visits and the position bought, per row.  A consumer stops at the
    first position whose variate reaches its stop quantile (stop_dev for the
    tracked firm's draw when a deviant is set) and otherwise visits all n
    and buys the best draw."""
    n = u.shape[1]
    first_hit, hit = b.first_hit, b.flag
    first_hit.fill(n)  # n: no draw passes the stop rule
    for j in reversed(range(n)):
        np.greater_equal(u[:, j], stop, out=hit)
        if stop_dev is not None:  # swap in the deviant's test at its position
            hit ^= (hit ^ (u[:, j] >= stop_dev)) & (pos_of_tracked == j)
        _blend(first_hit, j, hit, b.tmp)
    any_hit = np.less(first_hit, n, out=b.any_hit)
    stop_pos = _first_max(vals, b)
    _blend(stop_pos, first_hit, any_hit, b.tmp)
    first_hit += any_hit  # now the visits
    return first_hit, stop_pos


def _near_band(u: np.ndarray, bottom: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Indices of the rows of u with a variate in their band [bottom, top)."""
    return np.flatnonzero(functools.reduce(np.logical_or, ((col >= bottom) & (col < top) for col in u.T)))


def _costly(t: _Totals, rng: np.random.Generator, plan: _Plan, count: int, b) -> tuple:
    """Costly searchers visit firms in a random order and stop by their
    reservation values, applied in quantile space.  Counts their visits in t
    and returns _tally's (vals, visits, stop_pos, firm, cost).

    Known costs take their stops from the plan.  A drawn cost gets its grid
    cell [lo, hi] (_cells) and the stop band [stop(lo) - STOP_MARGIN,
    stop(hi) + STOP_MARGIN) of that cell under eq.g and g_dev.  The stop
    quantile, the cdf's left limit, rises with r within a segment up to the
    few-ulp error of `**` and steps down by at most 1e-9 at a segment join
    of a validated posterior.  The margin covers both, so stop(lo) -
    STOP_MARGIN <= stop(r) <= stop(hi) + STOP_MARGIN for the exact
    reservation value r: a variate below the band fails the stop rule and
    one above it passes, whatever r is.  Only a consumer with a variate in
    the band needs r; every other stops as if its stop quantile were the
    band's top, so the reports stay bit for bit those of the exact solve.
    """
    eq, g_dev = plan.eq, plan.g_dev
    costs, which = _draw_costs(rng, plan.config.cost_model, count)
    # per consumer: the stop quantile, or for drawn costs the band around it
    if plan.stops is None:
        lo, hi = _cells(eq.g, costs)
        (bottom, stop), (bottom_dev, stop_dev) = (
            (None, None) if g is None else (_stop_grid(g)[1][lo] - STOP_MARGIN, _stop_grid(g)[1][hi] + STOP_MARGIN)
            for g in (eq.g, g_dev)
        )
        del lo, hi  # freed before the draws
    else:
        stop, stop_dev = (None if top is None else top[which] for top in plan.stops)
    pos_of_tracked, firm_at = _visit_order(rng.random(out=b.vals), plan.firm, b)
    u = rng.random(out=b.u)
    # value drawn at each *position*; the deviant's cells redrawn from g_dev
    vals = b.vals
    eq.g.sample_into(u, vals, b.scratch, b.mask)
    if g_dev is not None:
        at = np.add(b.steps, pos_of_tracked, out=b.bought)  # the tracked firm's cells
        vals.reshape(-1)[at] = g_dev.sample(u.reshape(-1)[at])
    if plan.stops is None:  # the stops so far are the band tops
        near = _near_band(u, bottom, stop)
        if g_dev is not None:
            near = np.union1d(near, _near_band(u.reshape(-1)[at, None], bottom_dev, stop_dev))
        r_near = reservation_for_cost(eq.g, costs[near])
        stop[near] = stop_quantile(eq.g, r_near)
        if g_dev is not None:
            stop_dev[near] = stop_quantile(g_dev, r_near)
    visits, stop_pos = _stop_rule(u, vals, stop, stop_dev, pos_of_tracked, b)
    np.copyto(b.firm, visits)  # bincount reads intp
    hist = np.bincount(b.firm, minlength=eq.n + 1)
    t.visit_hist += hist
    t.multi = int(hist[2:].sum())
    t.firm0_visits_inexp = int(np.count_nonzero(np.less(pos_of_tracked, visits, out=b.flag)))
    return vals, visits, stop_pos, firm_at(stop_pos), costs


def _simulate_block(plan: _Plan, block_index: int, size: int, buffers: _Buffers) -> _Totals:
    """One block of consumers, on `buffers`, which no other block uses
    meanwhile."""
    eq, n = plan.eq, plan.eq.n
    key = np.array([plan.config.seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    buffers.reserve(-(-size // n))  # the alpha draw fills the first `size` variates
    draw = rng.random(out=buffers.draws[:size])
    n_inexp = int(np.count_nonzero(np.less(draw, eq.alpha, out=buffers.flags[:size])))
    del draw  # the group's reserve() may free the memory it views
    buffers.reserve(max(size - n_inexp, n_inexp))
    n_bins = len(plan.binning.edges) - 1
    t = _Totals(size - n_inexp, n_inexp, np.zeros(n), np.zeros(n + 1), np.zeros(n_bins), np.zeros(n_bins))
    if t.n_savvy:
        b = buffers.group(t.n_savvy)
        bought = _savvy(rng, plan, b)
        t.sum_cs_savvy, t.sumsq_cs_savvy = _tally(t, *bought, plan.binning, b)
    if n_inexp:
        b = buffers.group(n_inexp)
        bought = _costly(t, rng, plan, n_inexp, b)
        t.sum_cs_inexp, t.sumsq_cs_inexp = _tally(t, *bought, plan.binning, b)
    return t


def _run_blocks(plan: _Plan) -> _Totals:
    threads = plan.config.workers
    consumers, n = plan.config.consumers, plan.eq.n
    blocks = -(-consumers // _BLOCK)  # the last one may be partial
    # one set of arrays per worker, made here: a pool thread's malloc arena
    # would keep their pages after the run
    free: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(min(threads, blocks)):
        free.put(_Buffers(n, _group_rows(min(_BLOCK, consumers), plan.eq.alpha)))

    def run(i: int) -> _Totals:
        buffers = free.get()
        try:
            return _simulate_block(plan, i, min(_BLOCK, consumers - i * _BLOCK), buffers)
        finally:
            free.put(buffers)

    # a pool starts its threads on the first submit, and submits every block;
    # a serial run takes one block at a time in this thread (no start-up)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return functools.reduce(_Totals.merge, (pool.map if threads > 1 else map)(run, range(blocks)))


def _se_mean(total: float, total_sq: float, count: int) -> float:
    if count < 2:
        return float("nan")
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return float(np.sqrt(var / count))


def simulate_market(eq: Equilibrium, config: SimConfig) -> SimReport:
    """Simulate the market under the equilibrium disclosure."""
    plan = _plan(eq, config)
    t, edges, n_cons = _run_blocks(plan), plan.binning.edges, config.consumers
    eta_hat = t.firm0_visits_inexp / t.n_inexp if t.n_inexp else float("nan")
    eta_se = float(np.sqrt(max(eta_hat * (1 - eta_hat), 0.0) / t.n_inexp)) if t.n_inexp else float("nan")
    with np.errstate(invalid="ignore", divide="ignore"):
        u_hat = np.where(t.bin_visits > 0, t.bin_sales / np.maximum(t.bin_visits, 1), np.nan)
        se = np.sqrt(np.maximum(u_hat * (1 - u_hat), 0.0) / np.maximum(t.bin_visits, 1))
    curve = tuple(
        CurveBin(float(lo), float(hi), float(0.5 * (lo + hi)), float(u), float(e), int(v))
        for lo, hi, u, e, v in zip(edges[:-1], edges[1:], u_hat, se, t.bin_visits)
    )
    shares = tuple(float(x) / n_cons for x in t.sales)
    return SimReport(
        consumers=n_cons,
        seed=config.seed,
        n_savvy=t.n_savvy,
        n_inexperienced=t.n_inexp,
        eta_hat=float(eta_hat),
        eta_se=eta_se,
        cs_savvy_hat=t.sum_cs_savvy / t.n_savvy if t.n_savvy else float("nan"),
        cs_savvy_se=_se_mean(t.sum_cs_savvy, t.sumsq_cs_savvy, t.n_savvy),
        cs_inexperienced_hat=t.sum_cs_inexp / t.n_inexp if t.n_inexp else float("nan"),
        cs_inexperienced_se=_se_mean(t.sum_cs_inexp, t.sumsq_cs_inexp, t.n_inexp),
        firm_sale_shares=shares,
        visit_histogram=tuple(int(x) for x in t.visit_hist),
        multi_search_freq=t.multi / t.n_inexp if t.n_inexp else 0.0,
        curve=curve,
    )


def simulate_deviation(
    eq: Equilibrium,
    firm_index: int,
    g_dev: PosteriorDistribution,
    config: SimConfig,
) -> tuple[float, float]:
    """Sale share (and s.e.) of one firm deviating to g_dev.

    Consumers keep the reservation values implied by the equilibrium
    disclosure (passive beliefs); only the deviant's draws change.
    """
    if not 0 <= firm_index < eq.n:
        raise DomainError("firm_index out of range")
    g_dev.validate()
    check_deviation_mpc(g_dev, eq.prior)
    total = _run_blocks(_plan(eq, config, firm_index, g_dev))
    share = float(total.sales[firm_index]) / config.consumers
    se = float(np.sqrt(max(share * (1 - share), 0.0) / config.consumers))
    return share, se
