"""Independent optimality certification of solved markets.

Two routes, deliberately redundant:

* the closed-form multiplier and the four concavification optimality
  checks (continuity/convexity, domination, contact on the support, and
  the integral identity), all evaluated analytically or on dense grids;
  the payoff and the multiplier share one branch object per market
  (Equilibrium.branches), and each is evaluated once per certificate, on
  all its grids together;
* a discretized linear-program best response over the exact feasible
  polytope (nonnegativity, unit mass, matched mean, and stop-loss
  dominance at every grid point), posed over the cumulative mass moved
  and the stop-loss slack at the grid points: one LP of 6m - 5 nonzeros,
  every one +-1 or a cell width, run unscaled at fixed feasibility
  tolerances of 1e-10 on any strictly increasing grid (_cumulative_lp).
  Its CSC input is, entry for entry, the matrix that the sparse products
  defining it would give.  oracle_gap first tests the vertex that pools
  the market's stretch [v_L*, v_H*] for optimality in closed form, in
  O(m) arithmetic at HiGHS's tolerance (_pooling_vertex), and reads the
  value from that vertex where it passes: on 1,656 of the 1,760 oracles
  of the benchmark's markets (m = 201 and 801), with no HiGHS call.
  Elsewhere the model goes to HiGHS through the binding SciPy ships
  (scipy.optimize._highspy) under _LP_OPTIONS, set in HiGHS's own terms:
  dual simplex without presolve or scaling, under devex pricing.  So the
  solve is the one linprog(method="highs") runs with those options,
  without its input checks and result post-processing.  As under
  linprog, each call makes its own HiGHS instance and gives it those
  settings and the model, as arrays in one passModel call (a HighsLp's
  setters copy each array element by element); nothing of one call's
  solve is kept for the next.  A model or a starting basis HiGHS
  rejects is a typed oracle-lp failure.  HiGHS starts from the pooling
  vertex's basis, where best_response_oracle, which has no market,
  starts from the slack basis as linprog does.  From the slack basis the
  dual simplex takes far more iterations (47,298 on the seeded test
  markets at m = 201), which only best_response_oracle and markets off
  their equilibrium pay.  The masses are f less the differences of
  HiGHS's column values C, so best_response_oracle's value and masses
  are linprog's to the bit.  HiGHS solves the exact model: it drops only
  matrix entries under HIGHS_SMALL_ENTRY, its floor (at its default of
  1e-9 it dropped the width of a narrower cell, and its masses missed
  the prior's mean).

A certificate computes each value once per market.  check_dm_conditions
sorts its two grids together once; multiplier_phi and payoff_u evaluate
each branch on its slice of the sorted points only; a scalar read of the
posterior bisects its segment ends; the played value is cached on the
market (Equilibrium.played_value) for oracle_gap and payoff_identity_gap;
and each uniform base grid is made once per size (uniform_base).  Right
after a solve, as the benchmark runs it, a certificate of the 440
certify_random markets of bench seeds 1-10 averages about 0.36 ms on a
2-vCPU Xeon VM: check_dm_conditions 0.20 ms, of which the multiplier, the
payoff, DM4's posterior reads and the grids take about 0.05, 0.07, 0.04
and 0.03 ms; oracle_gap 0.16 ms, of which the pooling-vertex test, the
payoff, discretize_prior, the grid and the played value take about 0.05,
0.04, 0.01, 0.01 and 0.01 ms, and HiGHS about 0.05 ms averaged in from
the 26 markets where the closed form declines (each 7 to 8 times the
0.10 ms of the 414 it certifies; making and dropping the solver takes
about 0.06 ms of that, and building the model 0.03 ms);
payoff_identity_gap a microsecond.

The cost-heterogeneity check implements the large-market sufficiency
condition: the multiplier's pooled slope must stay below the steepest
chord of the heterogeneous payoff under the reservation value.

The HiGHS binding is the compiled module scipy.optimize._highspy._core.
Importing it by that name would first run scipy.optimize/__init__, which
loads about 560 modules the oracle never calls (scipy.linalg, scipy.fft,
numpy.f2py, all of linprog).  So the module is loaded at import time from
its file in SciPy's install, registered under its full name, and reused
if scipy.optimize was imported first.  Loaded so, `import
disclose_eq.verify` takes about 0.17 s and loads 234 modules, against
0.8 s and 793 through scipy.optimize, and a cold `disclose-eq verify
--oracle-grid 201` about 0.34 s against 0.97 s, on a 2-vCPU Xeon VM.
A SciPy without the binding fails this import with ImportError.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from .costs import ContinuousCosts, CostDistribution, DiscreteCosts  # noqa: F401 (re-exported)
from .endogenous import _N_CAP, check_convex_by_cap, payoff_u, solve_endog
from .errors import DomainError, IterationCapError, ValidationFailureError
from .posterior import drop_repeats, in_caller_order, insert_points, sorted_points, uniform_base
from .priors import Prior
from .tolerances import DM1_TOL, DM2_TOL, DM3_TOL, DM4_TOL, HIGHS_FEASIBILITY_TOL, HIGHS_SMALL_ENTRY


def _load_highs_core():
    """The HiGHS binding, loaded as the module docstring says; a module of
    that name already in sys.modules (scipy.optimize came first) is the
    one returned, so the process holds one module of that name."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(os.path.dirname(scipy.origin), "optimize", "_highspy")
    found = importlib.machinery.PathFinder.find_spec("_core", [directory])
    if found is None:
        from importlib.metadata import version

        raise ImportError(f"SciPy {version('scipy')} has no HiGHS binding _core in {directory}", name=name)
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_core = _load_highs_core()
HighsModelStatus, HighsOptions, HighsStatus = _core.HighsModelStatus, _core.HighsOptions, _core.HighsStatus
MatrixFormat, ObjSense, _Highs, kHighsInf = _core.MatrixFormat, _core.ObjSense, _core._Highs, _core.kHighsInf
_BASIC, _AT_LOWER, _AT_UPPER = _core.HighsBasisStatus.kBasic, _core.HighsBasisStatus.kLower, _core.HighsBasisStatus.kUpper

# points of the uniform grid on [0, 1] on which check_dm_conditions tests DM2
# (with the market's breakpoints inserted)
_GRID_SIZE = 1001
# 0, 1, ..., k - 1 for the support grid's pieces of k points (_linspace)
_POOL_STEPS = np.arange(_GRID_SIZE // 2, dtype=float)
_TAIL_STEPS = np.arange(_GRID_SIZE // 4 + 2, dtype=float)
# the oracle grid's points: at least ORACLE_GRID_MIN; at most ORACLE_GRID_MAX,
# which keeps its O(m) arrays small.  At m = 100,001 oracle_gap on power(2)
# n=3 takes about 8 ms, where the closed form certifies the pooling vertex.
# Where it declines, HiGHS's run from that vertex's basis grows faster than
# m though it takes 0-2 iterations: on uniform n=2, alpha 0.17589106877949487,
# s 0.1454499384425067, 24-28 ms at m = 4,001, 0.26-0.32 s at 20,001 and
# 0.77-1.14 s at 40,001, while passModel stays under 8 ms and the vertex and
# its basis under 7 ms (two runs on a 2-vCPU Xeon VM)
ORACLE_GRID_MIN = 101
ORACLE_GRID_MAX = 100_001
# oracle LP: the HiGHS settings, quiet: the dual simplex, the ledger's
# feasibility tolerances, no presolve and devex pricing (edge-weight
# strategy 1); no scaling (strategy 0), for every entry is +-1 or a cell
# width: scaled, a warm run took 0.21 ms instead of 0.14 ms at m = 201, and
# the value missed its vertex's payoff by 2.1e-9 on two test grids with
# chains of narrow cells; and the ledger's floor for a kept matrix entry
_LP_OPTIONS = HighsOptions()
_LP_OPTIONS.output_flag = _LP_OPTIONS.log_to_console = False
_LP_OPTIONS.simplex_strategy = 1
_LP_OPTIONS.presolve = "off"
_LP_OPTIONS.simplex_dual_edge_weight_strategy = 1
_LP_OPTIONS.simplex_scale_strategy = 0
_LP_OPTIONS.primal_feasibility_tolerance = _LP_OPTIONS.dual_feasibility_tolerance = HIGHS_FEASIBILITY_TOL
_LP_OPTIONS.small_matrix_value = HIGHS_SMALL_ENTRY


# ---------------------------------------------------------------------------
# payoff and multiplier
# ---------------------------------------------------------------------------

def multiplier_phi(eq, v):
    """The piecewise multiplier supporting the candidate disclosure, each
    branch evaluated on its slice of the sorted points only."""
    b, prior, k = eq.branches, eq.prior, eq.n - 1
    pts, order = sorted_points(v)
    i_l, i_h = pts.searchsorted(eq.v_l_star), pts.searchsorted(eq.v_h_star, side="right")
    out = np.concatenate([
        b.low(prior.cdf(pts[:i_l]) ** k), b.line(pts[i_l:i_h]), b.high(prior.cdf(pts[i_h:]) ** k),
    ])
    return float(out[0]) if np.ndim(v) == 0 else in_caller_order(out, order, v)


@dataclass(frozen=True)
class CertificateReport:
    dm1_convex: bool
    dm1_max_continuity_gap: float
    dm1_min_slope_increment: float
    dm2_min_gap: float
    dm3_max_contact_violation: float
    dm4_integral_gap: float
    passed: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


def _linspace(start: float, stop: float, steps: np.ndarray) -> np.ndarray:
    """np.linspace(start, stop, len(steps)) to the bit, with steps =
    np.arange(len(steps)) made once: its arithmetic without its per-call
    conversions."""
    div = len(steps) - 1
    delta = stop - start
    step = delta / div
    y = steps / div * delta if step == 0.0 else steps * step  # linspace's denormal case
    y += start
    y[-1] = stop
    return y


def _support_grid(eq) -> np.ndarray:
    """Grid over the support of the disclosure (where contact must hold).
    Its pieces [0, v_L], [r, pool_top] and [v_H, 1] are in order, for
    every candidate has 0 <= v_L < r <= min(v_H, v_T) (solve_beta), so
    concatenated they are sorted and only their repeats go."""
    pool_top = min(eq.v_h_star, eq.v_t_star)
    pieces = [_linspace(eq.r_star, pool_top, _POOL_STEPS)]
    if eq.v_l_star > 0.0:
        pieces.insert(0, _linspace(0.0, eq.v_l_star, _TAIL_STEPS))
    if eq.v_h_star < 1.0:
        pieces.append(_linspace(eq.v_h_star, 1.0, _TAIL_STEPS))
    return drop_repeats(np.concatenate(pieces))


def _dm_grid(eq) -> np.ndarray:
    """The grid DM2 is read on: the base grid with the market's thresholds,
    clipped to [0, 1], inserted."""
    return insert_points(*uniform_base(_GRID_SIZE), [min(max(x, 0.0), 1.0) for x in eq.thresholds])


def payoff_identity_gap(eq) -> float:
    """Difference between the expected payoff and its symmetry benchmark."""
    benchmark = (1.0 / eq.n) / (eq.alpha * eq.eta + 1.0 - eq.alpha)
    return eq.played_value - benchmark


def integral_phi_dF(eq) -> float:
    b = eq.branches
    total = b.low_integral(0.0, b.fl)
    total += b.line_integral(b.fh - b.fl, eq.prior.partial_vf(eq.v_l_star, eq.v_h_star))
    total += b.high_integral(b.fh, 1.0)
    return total


def integral_phi_dG(eq) -> float:
    b, g = eq.branches, eq.g
    total = b.low_integral(0.0, b.fl)  # G = F below v_L
    pool_top = min(eq.v_h_star, eq.v_t_star)
    g_top = float(g.cdf(pool_top))
    # integral of v dG over the pooled stretch, by parts
    v_dg = pool_top * g_top - eq.r_star * b.fl - float(
        g.cum_integral(pool_top) - g.cum_integral(eq.r_star)
    )
    total += b.line_integral(g_top - b.fl, v_dg)
    if eq.v_h_star < 1.0:
        total += b.high_integral(b.fh, 1.0)
    return total


def check_dm_conditions(eq) -> CertificateReport:
    """Evaluate the four optimality conditions for the market's multiplier.

    DM1 is the seam gaps and the kink slope increments, from the branch
    formulas (grid differencing would divide solver residuals by arbitrary
    spacings).  Inside each branch the multiplier is c_low F**(n-1), affine,
    or at + (1 - at) F**(n-1), with c_low > 0 and 1 - at > 0, so its
    convexity there is the convexity of F**(n-1): a fact about the input,
    which solve_endog's domain check decides.  The multiplier and
    the payoff are elementwise, so each is evaluated once, on both grids
    at once, sorted once here (each grid is sorted, so a stable sort merges
    two runs); their gap goes back to the grids' order.
    """
    prior, n, b = eq.prior, eq.n, eq.branches
    grid = _dm_grid(eq)
    points = np.concatenate([grid, _support_grid(eq)])
    order = points.argsort(kind="stable")
    points = points[order]

    # DM1 continuity at interior seams
    gaps = [0.0]
    if 0.0 < eq.v_l_star < 1.0:
        gaps.append(abs(b.line(eq.v_l_star) - b.low(b.pooled.base)))
    if 0.0 < eq.v_h_star < 1.0:
        gaps.append(abs(b.high(b.fh ** (n - 1)) - b.line(eq.v_h_star)))
    max_cont_gap = max(gaps)

    # DM1 convexity: the slope increments at the two kinks
    increments = [0.0]
    if eq.v_l_star > 0.0:
        increments.append(b.slope - b.c_low * prior.pow_cdf_deriv(eq.v_l_star, n))
    if eq.v_h_star < 1.0:
        increments.append((1.0 - b.at) * (prior.pow_cdf_deriv(eq.v_h_star, n) - b.pooled.slope))
    min_slope_inc = min(increments)
    dm1 = max_cont_gap <= DM1_TOL and min_slope_inc >= -DM1_TOL

    gap = np.empty_like(points)
    gap[order] = multiplier_phi(eq, points) - payoff_u(eq, points)
    dm2_min_gap = float(gap[: len(grid)].min())
    dm3 = float(np.abs(gap[len(grid) :]).max())

    dm4 = abs(integral_phi_dG(eq) - integral_phi_dF(eq))

    passed = dm1 and dm2_min_gap >= -DM2_TOL and dm3 <= DM3_TOL and dm4 <= DM4_TOL
    return CertificateReport(
        dm1_convex=dm1,
        dm1_max_continuity_gap=max_cont_gap,
        dm1_min_slope_increment=min_slope_inc,
        dm2_min_gap=dm2_min_gap,
        dm3_max_contact_violation=dm3,
        dm4_integral_gap=dm4,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# LP best-response oracle
# ---------------------------------------------------------------------------

def oracle_grid(eq, m: int) -> np.ndarray:
    """m-point grid including the market's thresholds, the payoff breakpoints."""
    if m < ORACLE_GRID_MIN:
        raise DomainError(f"oracle grid needs at least {ORACLE_GRID_MIN} points")
    if m > ORACLE_GRID_MAX:
        raise DomainError(f"oracle grid takes at most {ORACLE_GRID_MAX} points, not {m}")
    return insert_points(*uniform_base(m), eq.thresholds)


def discretize_prior(prior: Prior, grid: np.ndarray) -> np.ndarray:
    """Cell masses of the prior around each grid point (midpoint cells)."""
    mids = np.empty(len(grid) + 1)
    mids[0], mids[-1] = 0.0, 1.0
    np.add(grid[1:], grid[:-1], out=mids[1:-1])
    mids[1:-1] *= 0.5
    cdf_vals = np.asarray(prior.cdf(mids))
    return cdf_vals[1:] - cdf_vals[:-1]


def best_response_oracle(
    u_values: Sequence[float], prior: Prior, grid: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Exact finite LP best response over discrete mean-preserving contractions.

    max sum g_i u_i  s.t.  g >= 0, sum g = 1, sum g v = sum f v, and for
    every grid point t: sum g_i (t - v_i)+ <= sum f_i (t - v_i)+.

    The LP is solved over the cumulative mass moved, C_k = sum_{j<=k}
    (f_j - g_j), and a lower bound D_k on the stop-loss slack at t_k
    (_cumulative_lp).  g_k >= 0 is the row C_k - C_{k-1} <= f_k, and the
    unit mass is C_{m-1} = 0.  The prior's stop-loss less g's rises by
    h_k C_k over cell k, so dominance is D >= 0 from D_0 = 0 under the
    chain D_{k+1} - D_k <= h_k C_k: by induction such a D lies below the
    true slack, so the LP is the one with the chain as equalities (which
    HiGHS left basic at up to 4e-11, so that the vertex missed the mean by
    up to 9.8e-11).  The matched mean is the slack at the top, one row
    sum h_k C_k = 0.  Every entry is +-1 or a cell width, 6m - 5 of them,
    so a narrow cell needs nothing of its own and HiGHS runs unscaled.
    The value is sum f u less the optimum of sum C_k (u_k - u_{k+1}).
    """
    value, masses, _, _ = _solve_oracle(u_values, prior, grid)
    return value, masses


def _solve_oracle(
    u_values: Sequence[float], prior: Prior, grid: Sequence[float], pool: Sequence[float] | None = None,
) -> tuple[float, np.ndarray, int, int]:
    """best_response_oracle, with the nonzeros of the LP's constraint matrix
    and HiGHS's simplex iterations.

    A pool (v_L*, r*, min(v_H*, v_T*), v_H*) of grid points is first
    tested in closed form (_pooling_vertex): where the vertex that pools
    it is optimal, the value is that vertex's payoff, with no HiGHS call
    and 0 iterations.  Over the benchmark's markets it is then within
    1.9e-12 (m = 201) and 1.8e-11 (m = 801) of HiGHS's value from the
    same basis, which carries the error of HiGHS's factors.  Otherwise
    HiGHS gets the model through SciPy's binding: the matrix, bounds and
    settings (_LP_OPTIONS) that linprog(method="highs") with those options
    would pass it for this LP (rows g >= 0, then the chain, then the
    mean).  Without a pool HiGHS starts from the slack basis, as under
    linprog, so the value and the masses are linprog's to the bit; with
    one, from the pooling vertex's basis where _pooling_vertex gives it.
    Every sum of about m terms is NumPy's pairwise one, not a BLAS dot,
    whose bits OpenBLAS's thread count changes above 10,000 terms.  The
    masses are f less the differences of HiGHS's column values C_k, as
    the linprog reference reads them.  Each call that runs HiGHS makes its
    own instance, as linprog does, and gives it the settings and then the
    model, as arrays through passModel's array overload.  A model or a
    basis HiGHS rejects, and any model status but optimal, is a typed
    oracle-lp failure."""
    grid = np.asarray(grid, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if grid.ndim != 1 or grid.shape != u_values.shape or len(grid) < 2:
        raise DomainError("grid and u_values must be 1-d arrays of equal length >= 2")
    h = grid[1:] - grid[:-1]
    if not (h > 0.0).all():
        raise DomainError("grid must be strictly increasing")
    f = discretize_prior(prior, grid)
    masses, basis = (None, None) if pool is None else _pooling_vertex(grid, h, f, u_values, pool)
    if masses is not None:
        return float(np.add.reduce(u_values * masses)), masses, 6 * len(grid) - 5, 0
    model = _cumulative_lp(h, f, u_values)
    highs = _Highs()
    highs.passOptions(_LP_OPTIONS)
    if highs.passModel(*model) == HighsStatus.kError:
        raise ValidationFailureError("oracle-lp", "HiGHS rejected the model")
    if basis is not None and highs.setBasis(basis) == HighsStatus.kError:
        raise ValidationFailureError("oracle-lp", "HiGHS rejected the starting basis")
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise ValidationFailureError("oracle-lp", highs.modelStatusToString(status))
    value = float(np.add.reduce(u_values * f) - highs.getObjectiveValue())
    masses = f - np.diff(highs.getSolution().col_value[: len(f)], prepend=0.0)
    return value, masses, model[2], int(highs.getInfoValue("simplex_iteration_count")[1])


def _pooling_vertex(grid: np.ndarray, h: np.ndarray, f: np.ndarray, u: np.ndarray, pool: Sequence[float]):
    """The oracle LP's vertex that pools the market's stretch [v_L*, v_H*]
    onto the two grid points around its mean: (its masses, None) where it
    is optimal, (None, its basis) where HiGHS should start from it, and
    (None, None) where the market is not a pooling multiplier's on the grid.

    With i_L and i_H the stretch's end points, every C_k but the fixed
    C_{m-1} is basic; the slack D_k is basic at every point strictly
    inside and at the top, and every other D_k sits at its bound 0; the
    chain rows are at their bound, so D is the exact slack, and the mean
    row holds D_{m-1} at 0.  Every row g_k >= 0 of the stretch is at its
    bound g_k = 0 but two, at the adjacent points j, j+1 around the mean
    of f over the stretch, clipped to the contact stretch [r*, min(v_H*,
    v_T*)]: the vertex g is f off the stretch and the stretch's mass and
    mean on j and j+1.  Its duals lay phi over the grid: the payoff off
    the stretch and, on it, the line through the payoff at j and j+1.

    The vertex is optimal where it is primal and dual feasible, each to
    HIGHS_FEASIBILITY_TOL, the test HiGHS applies to this basis: the
    masses at j and j+1 and the running slack D_k = sum h C over the
    stretch are >= 0; the line lies over the payoff on the stretch (the
    duals of its rows g_k >= 0); phi's slope increment is >= 0 at each
    point where D_k is held at 0 (the reduced costs of those D_k); and
    no cell's slope of phi exceeds the last cell's (the chain rows'
    duals).  On the stretch's cells phi's slope is the line's, never a
    difference quotient over a cell, which may be 6e-17 wide.

    Where that test fails, the basis is still a start next to the optimum
    where the line dominates the payoff on the stretch and runs under it
    just outside, each checked at the grid points to DM2_TOL.  On an
    equilibrium the line is the multiplier's.  A market that fails that
    check too (one moved off its equilibrium, where a start of neither
    primal nor dual feasibility made HiGHS stop with "Not Set") and a
    stretch of one point (alpha = 0) get neither, and HiGHS starts from
    the slack basis."""
    m = len(grid)
    i_l, i_a, i_b, i_h = grid.searchsorted(pool).tolist()
    if i_h == i_l:
        return None, None
    stretch = slice(i_l, i_h + 1)
    mass = float(np.add.reduce(f[stretch]))
    j = i_a
    if mass > 0.0:
        mean = float(np.add.reduce(f[stretch] * grid[stretch])) / mass
        j = int(grid.searchsorted(mean, side="right")) - 1
    j = max(min(max(j, i_a), i_b - 1), i_l)
    slope = (u[j + 1] - u[j]) / h[j]
    line = u[j] + slope * (grid[stretch] - grid[j])
    over = line - u[stretch]

    tol = HIGHS_FEASIBILITY_TOL
    g = f.copy()
    g[stretch] = 0.0
    g[j] = np.add.reduce(f[stretch] * (grid[j + 1] - grid[stretch])) / h[j]
    g[j + 1] = np.add.reduce(f[stretch] * (grid[stretch] - grid[j])) / h[j]
    moved = (f[i_l:i_h] - g[i_l:i_h]).cumsum()  # C_k on the stretch's cells
    phi = u.copy()
    phi[stretch] = line
    phi_slope = (phi[1:] - phi[:-1]) / h
    phi_slope[i_l:i_h] = slope
    increment = phi_slope[1:] - phi_slope[:-1]  # at the points 1..m-2
    if (
        min(g[j], g[j + 1]) >= -tol  # the basic values: the two masses
        and ((h[i_l : i_h - 1] * moved[:-1]).cumsum() >= -tol).all()  # and D_k inside
        and (over >= -tol).all()  # the duals of the held rows g_k >= 0
        and (increment[:i_l] >= -tol).all()  # the reduced costs of the D_k at 0
        and (increment[i_h - 1 :] >= -tol).all()
        and (phi_slope <= phi_slope[-1] + tol).all()  # the chain rows' duals
    ):
        return g, None

    # the line dominates the payoff on the stretch, and its kinks at the
    # ends are convex: just outside, it runs under the payoff
    outside = [k for k in (i_l - 1, i_h + 1) if 0 <= k < m]
    if over.min() < -DM2_TOL or any(
        u[j] + slope * (grid[k] - grid[j]) - u[k] > DM2_TOL for k in outside
    ):
        return None, None
    cols = [_BASIC] * (m - 1) + [_AT_LOWER] * (m + 1)
    cols[m + i_l + 1 : m + i_h] = [_BASIC] * (i_h - i_l - 1)
    cols[-1] = _BASIC
    rows = [_BASIC] * m + [_AT_UPPER] * (m - 1) + [_AT_LOWER]
    rows[stretch] = [_AT_UPPER] * (i_h - i_l + 1)
    rows[j] = rows[j + 1] = _BASIC
    basis = _core.HighsBasis()
    basis.col_status, basis.row_status, basis.valid, basis.alien = cols, rows, True, False
    return None, basis


def _cumulative_lp(h: np.ndarray, f: np.ndarray, u: np.ndarray):
    """The oracle LP over the cumulative mass moved, as passModel's
    arguments: columns, rows, nonzeros, format, sense, offset; cost,
    column bounds, row bounds; CSC start, index, value; integrality.
    Column C_k (k < m-1) is +1 and -1 in the rows g_k >= 0 and
    g_{k+1} >= 0, then -h_k in chain row k and h_k in the mean row;
    C_{m-1} is +1 in row g_{m-1} >= 0.  D_k is +1 in chain row k-1 and -1
    in chain row k.  The cost of C_k is u_k - u_{k+1} (u_{m-1} for
    C_{m-1}), started from 0.0 as a sparse product's sum is, so that it
    is never -0.0."""
    m = len(f)
    count = np.full(2 * m, 2)
    count[: m - 1] = 4
    count[[m - 1, m, 2 * m - 1]] = 1
    k = np.arange(m - 1)
    index = np.column_stack([k, k + 1, k + m, np.full(m - 1, 2 * m - 1)])
    value = np.empty(6 * m - 5)
    value[0 : 4 * m - 4 : 4], value[1 : 4 * m - 4 : 4] = 1.0, -1.0
    value[2 : 4 * m - 4 : 4], value[3 : 4 * m - 4 : 4] = -h, h
    value[4 * m - 4], value[4 * m - 3 :: 2], value[4 * m - 2 :: 2] = 1.0, -1.0, 1.0
    col_lower = np.concatenate([np.full(m, -kHighsInf), np.zeros(m)])
    col_upper = np.full(2 * m, kHighsInf)
    col_upper[m - 1] = col_lower[m - 1] = col_upper[m] = 0.0
    row_lower = np.full(2 * m, -kHighsInf)
    row_lower[-1] = 0.0
    cost, row_upper = np.zeros(2 * m), np.zeros(2 * m)
    cost[:m] += u
    cost[: m - 1] -= u[1:]
    row_upper[:m] = f
    return (
        2 * m, 2 * m, 6 * m - 5, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        cost, col_lower, col_upper, row_lower, row_upper,
        np.concatenate([[0], np.cumsum(count)]).astype(np.int32),
        np.concatenate([index.ravel(), [m - 1], np.repeat(np.arange(m, 2 * m - 1), 2)]).astype(np.int32),
        value, np.zeros(2 * m, np.int32),
    )


def oracle_gap(eq, m: int) -> dict[str, float]:
    """LP optimum against the market payoff, and its gap to the played value,
    with the LP's size (nonzeros of its constraint matrix) and its simplex
    iterations."""
    grid = oracle_grid(eq, m)
    u = payoff_u(eq, grid)
    pool = (eq.v_l_star, eq.r_star, min(eq.v_h_star, eq.v_t_star), eq.v_h_star)
    value, _, nonzeros, iterations = _solve_oracle(u, eq.prior, grid, pool)
    played = eq.played_value
    return {
        "m": float(len(grid)),
        "oracle_value": value,
        "played_value": played,
        "gap": value - played,
        "lp_nonzeros": nonzeros,
        "lp_iterations": iterations,
    }


# ---------------------------------------------------------------------------
# cost-heterogeneity sufficiency check
# ---------------------------------------------------------------------------

def chord_slope_infimum(costs: CostDistribution, mu: float, r_1: float) -> float:
    """inf over v in [0, r_1) of K(mu - v) / (r_1 - v).

    For discrete costs the infimum is attained at v = 0 or just past the
    jump points (where K drops); for piecewise-linear costs each piece is
    monotone so knot images plus the lowest-cost density limit suffice.
    """
    candidates = [float(costs.cdf(mu)) / r_1]
    if isinstance(costs, DiscreteCosts):
        cum = 0.0
        for c, p in costs.points:
            if c > costs.s_min and mu - c > 0.0 and c - costs.s_min > 0.0:
                # value just past v = mu - c, where K has dropped to cum
                candidates.append(cum / (c - costs.s_min))
            cum += p
    else:
        candidates.append(costs.density_at_min)
        for x, _ in costs.knots:
            v = mu - x
            if 0.0 < v < r_1:
                candidates.append(float(costs.cdf(mu - v)) / (r_1 - v))
    return min(candidates)


@dataclass(frozen=True)
class HeteroReport:
    holds: bool
    b_star: float
    lhs: float
    rhs: float
    phi_vs_uk_min_gap: float
    n: int
    s_1: float
    r_1: float
    beta_star: float
    alpha_tilde: float

    def to_json_dict(self) -> dict[str, Any]:
        return {"phi_vs_uK_min_gap" if k == "phi_vs_uk_min_gap" else k: v for k, v in asdict(self).items()}


def hetero_check(prior: Prior, n: int, alpha: float, costs: CostDistribution) -> HeteroReport:
    """Sufficiency check that the lowest-cost equilibrium survives cost mixing."""
    if not 0.0 < alpha < 1.0:  # alpha = 0 would fail the precondition as an invariant
        raise DomainError("hetero analysis needs alpha in (0, 1)")
    mu = prior.mean()
    if costs.s_max >= mu:
        raise DomainError(f"cost support must stay below the prior mean {mu}")
    eq = solve_endog(prior, n, alpha, costs.s_min)
    if eq.bottom_disclosure:
        raise ValidationFailureError(
            "hetero-precondition",
            f"n={n} is below the concealment threshold for s_1={costs.s_min}",
        )
    r_1 = eq.r_star
    b_star = chord_slope_infimum(costs, mu, r_1)
    lhs = eq.branches.slope
    rhs = eq.alpha_tilde * b_star
    grid = np.linspace(0.0, r_1, 2001)
    u_k = eq.alpha_tilde * (1.0 - np.asarray(costs.cdf(mu - grid)))
    gap = float(np.min(multiplier_phi(eq, grid) - u_k))
    return HeteroReport(
        holds=lhs < rhs,
        b_star=b_star,
        lhs=lhs,
        rhs=rhs,
        phi_vs_uk_min_gap=gap,
        n=n,
        s_1=costs.s_min,
        r_1=r_1,
        beta_star=eq.beta_star,
        alpha_tilde=eq.alpha_tilde,
    )


def hetero_first_holding_n(
    prior: Prior, alpha: float, costs: CostDistribution
) -> tuple[int, HeteroReport]:
    """First n on a doubling scan from n = 2 at which the sufficiency condition
    holds, skipping sizes outside the domain (F**(n-1) not convex); a prior
    convex at no size up to the cap is n_lower_bar's DomainError."""
    check_convex_by_cap(prior)
    for n in (1 << k for k in range(1, _N_CAP.bit_length())):
        if not prior.check_convexity(n):
            continue
        try:
            report = hetero_check(prior, n, alpha, costs)
            if report.holds:
                return n, report
        except ValidationFailureError as exc:
            if exc.invariant != "hetero-precondition":
                raise  # only "below the concealment threshold" means keep doubling
    raise IterationCapError(f"sufficiency never held up to n = {_N_CAP}")
