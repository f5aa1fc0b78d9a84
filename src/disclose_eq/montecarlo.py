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
single cost or a finite set of costs has its reservation values solved
once per simulation.  Costs drawn from a continuous distribution have
theirs bracketed per block from one grid (_brackets), and only the few
consumers with a draw close to their stop quantile get the exact solve:
for everyone else the bracket already decides every stop (_costly).

A block is a few passes over whole arrays.  The stopping rule, the best
draw and the tracked firm's position are loops over the n columns, and
the tally finds each draw's curve bin in a lookup table (_Binning) rather
than by binary search.  In markets of up to three firms each firm's place
in the visit order is its rank among the consumer's keys, found by
pairwise comparisons instead of a per-row sort (_visit_order).  Integer
selects (the first hit, visits, the position bought, the tracked firm's
position, the unseen-draw bin) are arithmetic on 0/1 factors rather than
masked copies or np.where: their masks are random, and NumPy's masked
loops then mispredict a branch per element.  Each group's arrays are
freed before the next group draws its own, which bounds the memory of a
block.

A unilateral deviation runs through the same path: every draw comes from
the equilibrium posterior except the deviant firm's, which are redrawn
from its own posterior with the same variates, and consumers keep the
reservation values the equilibrium disclosure implies.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Any, Union

import numpy as np

from .costs import ContinuousCosts, CostDistribution, DiscreteCosts
from .endogenous import Equilibrium
from .errors import DomainError
from .posterior import ArrayLike, PosteriorDistribution, check_deviation_mpc, sorted_unique

_BLOCK = 1 << 16


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
    workers: int | None = None  # default: DISCLOSE_EQ_THREADS or serial

    def __post_init__(self) -> None:
        if self.consumers < 1:
            raise DomainError("need at least one consumer")
        if self.workers is not None and self.workers < 1:
            raise DomainError("need at least one worker")
        if self.bins < 10:
            raise DomainError("need at least 10 bins")
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


_DEPTH = 12  # halvings replayed from one grid of excess_above
_MARGIN = 1e-8  # quantile margin around a bracket's stop values


def _brackets(g: PosteriorDistribution, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bracket [lo, hi] around each cost's reservation value after the
    first _DEPTH halvings of reservation_for_cost's bisection.

    Every midpoint those halvings visit is a grid point j / 2**_DEPTH, so
    excess_above on that grid, which g computes once, replays them bit for
    bit.  Every cost must lie in (0, E_G[v]).
    """
    mean = g.mean()
    if not np.all((0.0 < costs) & (costs < mean)):
        raise DomainError(f"cost must lie in (0, E_G[v]) = (0, {mean})")
    cells = 1 << _DEPTH
    excess = g.excess_on_grid(cells)
    lo = np.zeros(len(costs), dtype=np.intp)
    hi = np.full(len(costs), cells)
    for _ in range(_DEPTH):
        mid = (lo + hi) >> 1
        f = excess[mid] - costs
        lo = np.where(f >= 0.0, mid, lo)
        hi = np.where(f > 0.0, hi, mid)
    return lo / cells, hi / cells


def reservation_for_cost(g: PosteriorDistribution, s: ArrayLike) -> ArrayLike:
    """Reservation values solving E[(v - r)+] = s under g, one per cost.

    Every cost must lie in (0, E_G[v]).  One array bisection on [0, 1]
    serves all costs: 40 halvings take the bracket to 2**-40 <= 1e-12, and
    an element whose residual is exactly 0 stays at that midpoint.  The
    first _DEPTH halvings are replayed from one grid (_brackets), the rest
    evaluate excess_above per cost.  Each value equals what `bisect_root`
    returns for that cost with xtol=1e-12.
    """
    costs = np.atleast_1d(np.asarray(s, dtype=float))
    lo, hi = _brackets(g, costs)
    for _ in range(40 - _DEPTH):
        mid = 0.5 * (lo + hi)
        f = g.excess_above(mid) - costs
        lo = np.where(f >= 0.0, mid, lo)
        hi = np.where(f > 0.0, hi, mid)
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
    q = np.where(np.asarray(r) <= g.support_bottom() + 1e-9, 0.0, g.cdf_left(r))
    return q if isinstance(r, np.ndarray) else float(q)


def _bin_edges(bins: int, eq: Equilibrium) -> np.ndarray:
    """Roughly `bins` edges over [0, 1]; the reservation value is always an
    edge (the payoff jump must be estimable) and so are the other structural
    breakpoints, which keeps bin averages aligned with midpoint payoffs."""
    base = np.linspace(0.0, 1.0, bins + 1)
    forced = [x for x in (eq.v_l_star, eq.r_star, eq.v_h_star, eq.v_t_star) if 0.0 < x < 1.0]
    # drop the base edges that crowd a forced breakpoint, but never 0 or 1
    crowding = np.zeros(len(base), dtype=bool)
    for x in forced:
        crowding |= np.abs(base - x) < 0.25 / bins
    crowding[[0, -1]] = False
    return sorted_unique(np.concatenate([base[~crowding], forced]))


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

    def index(self, vals: np.ndarray) -> np.ndarray:
        """Bin of each value, in chunks that keep the temporaries small;
        cells outside the table are clipped into it."""
        flat = vals.reshape(-1)
        idx = np.empty(flat.shape, dtype=np.intp)
        for start in range(0, len(flat), _CHUNK):
            v = flat[start : start + _CHUNK]
            cell = (v * self.cells).astype(np.intp)
            out = idx[start : start + _CHUNK]
            self.below.take(cell, out=out, mode="clip")
            for level in self.inside:
                out += v >= level.take(cell, mode="clip")
        return idx.reshape(vals.shape)


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


def _draw_costs(rng: np.random.Generator, model: CostModel, size: int) -> np.ndarray:
    if isinstance(model, SingleCost):
        return np.full(size, model.s)
    costs = model.costs
    u = rng.random(size)
    if isinstance(costs, DiscreteCosts):
        values = np.array([c for c, _ in costs.points])
        cum = np.cumsum([p for _, p in costs.points])
        return values[np.searchsorted(cum, u, side="right")]
    if isinstance(costs, ContinuousCosts):
        xs = [k[0] for k in costs.knots]
        qs = [k[1] for k in costs.knots]
        return np.interp(u, qs, xs)
    raise DomainError(f"unknown cost model {model!r}")


def _tally(t: _Totals, vals, visits, stop_pos, firm, cost, binning: _Binning) -> tuple[float, float]:
    """Record what a group of consumers bought and return the sum and the sum
    of squares of their surplus.  Consumer i saw the first visits[i] draws
    of row i of vals, bought the one at stop_pos[i] from firm[i], and paid
    `cost` (one per consumer, or one for all) for each visit."""
    bought = np.arange(len(vals)) * vals.shape[1] + stop_pos  # flat index of each purchase
    cs = vals.ravel().take(bought) - visits * cost
    t.sales += np.bincount(firm, minlength=len(t.sales))
    n_bins = len(t.bin_visits)
    idx = binning.index(vals)
    t.bin_sales += np.bincount(idx.ravel().take(bought), minlength=n_bins)
    if visits.min() < vals.shape[1]:  # draws never seen go to an extra bin
        for j in range(1, vals.shape[1]):
            col = idx[:, j]
            col += (n_bins - col) * (visits <= j)
    t.bin_visits += np.bincount(idx.ravel(), minlength=n_bins + 1)[:n_bins]
    return float(np.sum(cs)), float(np.sum(cs * cs))


def _first_max(vals: np.ndarray) -> np.ndarray:
    """Column of each row's maximum, ties to the lowest column."""
    best = np.zeros(len(vals), dtype=np.intp)
    top = vals[:, 0]
    for j in range(1, vals.shape[1]):
        better = vals[:, j] > top
        np.copyto(best, j, where=better)
        top = np.maximum(top, vals[:, j])
    return best


Deviant = Union[tuple[int, PosteriorDistribution], None]


def _savvy(rng: np.random.Generator, eq: Equilibrium, count: int, deviant: Deviant) -> tuple:
    """Savvy consumers visit every firm for free and buy the best draw.
    Returns _tally's (vals, visits, stop_pos, firm, cost)."""
    u = rng.random((count, eq.n))
    vals = np.asarray(eq.g.sample(u))
    if deviant is not None:
        firm, g_dev = deviant
        vals[:, firm] = g_dev.sample(u[:, firm])
    best = _first_max(vals)  # ties go to the lowest firm index
    return vals, np.full(count, eq.n), best, best, 0.0


# Rows of at most this many keys are ranked by pairwise comparisons, which
# cost O(n**2): per 42,600 rows 0.18 ms against 2.3 ms for np.argsort at
# n = 2, 0.6 against 3.1 ms at n = 3 and 3.3 against 3.3 ms at n = 5 (NumPy
# 2.4.6, 2-vCPU Xeon VM).  np.argsort orders rows of 2 or 3 tied keys as a
# stable sort would, and longer rows differently (a SIMD sort takes over), so
# only up to 3 keys do the ranks reproduce its order, ties included.
_RANKED_N = 3


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Position of each column in its row's stable ascending order of keys:
    #{i < j: k_i <= k_j} + #{i > j: k_i < k_j} for column j."""
    rank = np.zeros(keys.shape, dtype=np.int8)  # a rank is below n <= _RANKED_N
    for j in range(keys.shape[1]):
        for i in range(j + 1, keys.shape[1]):
            later = keys[:, i] < keys[:, j]  # firm i comes before firm j
            rank[:, j] += later
            rank[:, i] += ~later
    return rank


def _visit_order(keys: np.ndarray, track_firm: int) -> tuple:
    """Each row visits the firms in ascending order of its keys, as
    np.argsort orders them.  Returns the tracked firm's position in each
    row and a function from one position per row to the firm visited there."""
    count, n = keys.shape
    if n <= _RANKED_N:
        rank = _ranks(keys)
        del keys

        def firm_at(pos: np.ndarray) -> np.ndarray:
            firm = np.zeros(count, dtype=np.intp)
            for j in range(1, n):
                firm += j * (rank[:, j] == pos)
            return firm

        return rank[:, track_firm], firm_at
    order = np.argsort(keys, axis=1)  # firm at each position
    del keys
    pos_of_tracked = np.zeros(count, dtype=np.intp)
    for j in range(1, n):
        pos_of_tracked += j * (order[:, j] == track_firm)
    return pos_of_tracked, lambda pos: order[np.arange(count), pos]


def _stop_rule(u, vals, stop, stop_dev, pos_of_tracked) -> tuple[np.ndarray, np.ndarray]:
    """Visits and the position bought, per row.  A consumer stops at the
    first position whose variate reaches its stop quantile (stop_dev for the
    tracked firm's draw when a deviant is set) and otherwise visits all n
    and buys the best draw.  The selects are integer arithmetic: on random
    masks NumPy's masked copies and np.where mispredict their branches."""
    n = u.shape[1]
    first_hit = np.full(len(u), n)  # n: no draw passes the stop rule
    for j in reversed(range(n)):
        hit = u[:, j] >= stop
        if stop_dev is not None:  # swap in the deviant's test at its position
            hit ^= (hit ^ (u[:, j] >= stop_dev)) & (pos_of_tracked == j)
        first_hit -= (first_hit - j) * hit
    any_hit = first_hit < n
    stop_pos = _first_max(vals)
    stop_pos += (first_hit - stop_pos) * any_hit
    return first_hit + any_hit, stop_pos


def _stop_band(g: PosteriorDistribution, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantiles [stop(lo) - _MARGIN, stop(hi) + _MARGIN) around the stop
    quantile of every reservation value in [lo, hi], per bracket."""
    return stop_quantile(g, lo) - _MARGIN, stop_quantile(g, hi) + _MARGIN


def _near_band(u: np.ndarray, bottom: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Indices of the rows of u with a variate in their band [bottom, top)."""
    near = np.zeros(len(u), dtype=bool)
    for j in range(u.shape[1]):
        near |= (u[:, j] >= bottom) & (u[:, j] < top)
    return np.flatnonzero(near)


def _costly(t: _Totals, rng: np.random.Generator, eq: Equilibrium, config: SimConfig,
            count: int, deviant: Deviant, known: tuple[np.ndarray, np.ndarray] | None) -> tuple:
    """Costly searchers visit firms in a random order and stop by their
    reservation values, applied in quantile space.  Counts their visits in t
    and returns _tally's (vals, visits, stop_pos, firm, cost).

    Known costs come with their reservation values.  Drawn costs get a
    bracket [lo, hi] from _brackets, and a consumer needs its exact
    reservation value r only if one of its variates u lies in the band
    [stop(lo) - _MARGIN, stop(hi) + _MARGIN) of its cost: below the band
    u < stop(r) and above it u >= stop(r), whatever r in [lo, hi] is.  The
    stop quantile is the left limit of the cdf (0 at the support bottom).
    It rises with r within a segment up to the few-ulp error of `**`, and
    the cdf of a validated posterior steps down by at most 1e-9 at a segment
    join.  The margin covers both, so stop(lo) - _MARGIN <= stop(r) <=
    stop(hi) + _MARGIN.  Every other consumer stops as if its stop quantile
    were the band's top, which decides each of its variates the same way,
    so the reports stay bit for bit those of the exact solve.
    """
    n = eq.n
    track_firm, g_dev = deviant if deviant else (0, None)
    costs = _draw_costs(rng, config.cost_model, count)
    # per unique cost: the stop quantile, or for drawn costs the band around it
    if known is None:
        uniq, inverse = np.unique(costs, return_inverse=True)
        lo, hi = _brackets(eq.g, uniq)
        bottom, top = _stop_band(eq.g, lo, hi)
        bottom_dev, top_dev = _stop_band(g_dev, lo, hi) if g_dev is not None else (None, None)
        del uniq, lo, hi  # freed before the draws
    else:
        uniq, r_uniq = known
        inverse = np.searchsorted(uniq, costs)
        top = stop_quantile(eq.g, r_uniq)
        top_dev = stop_quantile(g_dev, r_uniq) if g_dev is not None else None
    pos_of_tracked, firm_at = _visit_order(rng.random((count, n)), track_firm)
    u = rng.random((count, n))
    # value drawn at each *position*; the deviant's cells redrawn from g_dev
    vals = np.asarray(eq.g.sample(u))
    stop = top[inverse]
    rows = np.arange(count)
    stop_dev = None
    if g_dev is not None:
        vals[rows, pos_of_tracked] = g_dev.sample(u[rows, pos_of_tracked])
        stop_dev = top_dev[inverse]
    if known is None:  # the stops so far are the band tops
        near = _near_band(u, bottom[inverse], stop)
        if g_dev is not None:
            tracked = _near_band(u[rows, pos_of_tracked, None], bottom_dev[inverse], stop_dev)
            near = np.union1d(near, tracked)
        r_near = reservation_for_cost(eq.g, costs[near])
        stop[near] = stop_quantile(eq.g, r_near)
        if g_dev is not None:
            stop_dev[near] = stop_quantile(g_dev, r_near)
    visits, stop_pos = _stop_rule(u, vals, stop, stop_dev, pos_of_tracked)
    hist = np.bincount(visits, minlength=n + 1)
    t.visit_hist += hist
    t.multi = int(hist[2:].sum())
    t.firm0_visits_inexp = int(np.sum(pos_of_tracked < visits))
    return vals, visits, stop_pos, firm_at(stop_pos), costs


def _simulate_block(
    eq: Equilibrium,
    config: SimConfig,
    block_index: int,
    size: int,
    binning: _Binning,
    deviant: Deviant,
    known: tuple[np.ndarray, np.ndarray] | None,
) -> _Totals:
    """One block of consumers; `deviant` is (firm, its posterior) or None,
    and `known` is (costs, reservation values) when the costs are known up
    front, or None to solve the reservation values of the block's draws."""
    n = eq.n
    key = np.array([config.seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    n_inexp = int(np.sum(rng.random(size) < eq.alpha))
    n_bins = len(binning.edges) - 1
    t = _Totals(size - n_inexp, n_inexp, np.zeros(n), np.zeros(n + 1), np.zeros(n_bins), np.zeros(n_bins))
    if t.n_savvy:
        bought = _savvy(rng, eq, t.n_savvy, deviant)
        t.sum_cs_savvy, t.sumsq_cs_savvy = _tally(t, *bought, binning)
    if n_inexp:
        bought = _costly(t, rng, eq, config, n_inexp, deviant, known)
        t.sum_cs_inexp, t.sumsq_cs_inexp = _tally(t, *bought, binning)
    return t


def _known_reservations(
    g: PosteriorDistribution, model: CostModel
) -> tuple[np.ndarray, np.ndarray] | None:
    """Every cost the model can draw, ascending, with its reservation value
    under g; None for continuous costs, which are solved block by block."""
    if isinstance(model, SingleCost):
        costs = np.array([model.s])
    elif isinstance(model.costs, DiscreteCosts):
        costs = np.array([c for c, _ in model.costs.points])
    else:
        return None
    return costs, reservation_for_cost(g, costs)


def _thread_count(workers: int | None) -> int:
    """`workers` if set, else DISCLOSE_EQ_THREADS, else 1."""
    if workers is not None:
        return workers
    raw = os.environ.get("DISCLOSE_EQ_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DomainError(f"DISCLOSE_EQ_THREADS must be a positive integer, not {raw!r}")
    return threads


def _run_blocks(eq, config, deviant=None) -> tuple[_Totals, np.ndarray]:
    threads = _thread_count(config.workers)
    binning = _Binning(_bin_edges(config.bins, eq))
    eq.g.validate()  # hand-built markets arrive unsolved; _costly's stop bands need this
    known = _known_reservations(eq.g, config.cost_model)
    sizes = [min(_BLOCK, config.consumers - start) for start in range(0, config.consumers, _BLOCK)]

    def run(i: int, size: int) -> _Totals:
        return _simulate_block(eq, config, i, size, binning, deviant, known)

    # a pool starts its threads on the first submit; a serial run stays in
    # this thread, where a short simulation skips the thread's start-up
    with ThreadPoolExecutor(max_workers=threads) as pool:
        blocks = (pool.map if threads > 1 else map)(run, range(len(sizes)), sizes)
        return functools.reduce(_Totals.merge, blocks), binning.edges


def _se_mean(total: float, total_sq: float, count: int) -> float:
    if count < 2:
        return float("nan")
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return float(np.sqrt(var / count))


def simulate_market(eq: Equilibrium, config: SimConfig) -> SimReport:
    """Simulate the market under the equilibrium disclosure."""
    total, edges = _run_blocks(eq, config)
    return _report_from_totals(eq, config, total, edges)


def _report_from_totals(eq, config, t: _Totals, edges: np.ndarray) -> SimReport:
    n_cons = config.consumers
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
    total, _ = _run_blocks(eq, config, (firm_index, g_dev))
    share = float(total.sales[firm_index]) / config.consumers
    se = float(np.sqrt(max(share * (1 - share), 0.0) / config.consumers))
    return share, se
