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
  dominance at every grid point), posed over the stop-loss slack at the
  grid points: a tridiagonal LP with O(m) nonzeros, run at fixed
  feasibility tolerances of 1e-10.  Its CSC input is, entry for entry, the
  matrix that the sparse products defining it would give.  On a grid
  without a cell narrower than NARROW_CELL (every benchmark market's) it
  is built straight from the reciprocal cell widths; a grid with a narrow
  cell, which needs slope variables, goes to a general builder of index
  arithmetic, which stays for those grids.  With the tridiagonal builder
  the Python around HiGHS's run takes about a quarter of oracle_gap at
  m = 201, where the general one took over a third.  The model is handed
  to HiGHS through the binding SciPy ships (scipy.optimize._highspy)
  under _LP_OPTIONS, set in HiGHS's own terms: dual simplex without
  presolve, under devex pricing.  So the solve is the one
  linprog(method="highs") runs with those options, without its input
  checks and result post-processing.  Each thread keeps one HiGHS
  instance, given those settings once; every call passes it the model as
  arrays in one passModel call (a HighsLp's setters copy each array
  element by element), and a model HiGHS rejects is a typed oracle-lp
  failure, because the instance would keep and solve the previous one.

The cost-heterogeneity check implements the large-market sufficiency
condition: the multiplier's pooled slope must stay below the steepest
chord of the heterogeneous payoff under the reservation value.

The HiGHS binding is the compiled module scipy.optimize._highspy._core.
Importing it by that name would first run scipy.optimize/__init__, which
loads about 560 modules the oracle never calls (scipy.linalg, scipy.fft,
numpy.f2py, all of linprog).  So the module is loaded at import time from
its file in SciPy's install, registered under its full name, and reused
if scipy.optimize was imported first.  That cut `import disclose_eq.verify`
from about 0.8 s to 0.17 s (793 to 234 loaded modules) and a cold
`disclose-eq verify --oracle-grid 201` from 0.97 s to 0.34 s on a 2-vCPU
Xeon VM.  A SciPy without the binding fails this import with ImportError.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from .costs import ContinuousCosts, CostDistribution, DiscreteCosts  # noqa: F401 (re-exported)
from .endogenous import _N_CAP, payoff_u, solve_endog
from .errors import DomainError, IterationCapError, ValidationFailureError
from .posterior import drop_repeats, insert_points
from .priors import Prior
from .tolerances import (
    DM1_TOL, DM2_TOL, DM3_TOL, DM4_TOL, HIGHS_FEASIBILITY_TOL, HIGHS_SMALL_ENTRY, NARROW_CELL,
)


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

# points of the uniform grid on [0, 1] on which check_dm_conditions tests DM2
# (with the market's breakpoints inserted)
_GRID_SIZE = 1001
_DM_BASE = np.linspace(0.0, 1.0, _GRID_SIZE)
_DM_BASE_LIST = _DM_BASE.tolist()
# the oracle grid's points: at least ORACLE_GRID_MIN; at most ORACLE_GRID_MAX,
# which keeps its O(m) arrays small (HiGHS's run, which grows faster than m,
# took 7 s at m = 50,001 on power(2) n=3)
ORACLE_GRID_MIN = 101
ORACLE_GRID_MAX = 100_001
# oracle LP: the HiGHS settings, quiet: the dual simplex, the ledger's
# feasibility tolerances, and no presolve and devex pricing (edge-weight
# strategy 1), which solve this tridiagonal LP about 1.45x faster than
# HiGHS's defaults (presolve on, dual steepest edge)
_LP_OPTIONS = HighsOptions()
_LP_OPTIONS.output_flag = _LP_OPTIONS.log_to_console = False
_LP_OPTIONS.simplex_strategy = 1
_LP_OPTIONS.presolve = "off"
_LP_OPTIONS.simplex_dual_edge_weight_strategy = 1
_LP_OPTIONS.primal_feasibility_tolerance = _LP_OPTIONS.dual_feasibility_tolerance = HIGHS_FEASIBILITY_TOL
# one HiGHS instance per thread, given _LP_OPTIONS once and a new model on
# every oracle call; an instance is not safe to share between threads
_THREAD = threading.local()


# ---------------------------------------------------------------------------
# payoff and multiplier
# ---------------------------------------------------------------------------

def multiplier_phi(eq, v):
    """The piecewise multiplier supporting the candidate disclosure."""
    b = eq.branches
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    f_pow = np.asarray(eq.prior.cdf(arr)) ** (eq.n - 1)
    out = np.where(
        arr < eq.v_l_star,
        b.low(f_pow),
        np.where(arr <= eq.v_h_star, b.line(arr), b.high(f_pow)),
    )
    return float(out[0]) if np.ndim(v) == 0 else out


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


def _support_grid(eq) -> np.ndarray:
    """Grid over the support of the disclosure (where contact must hold).
    Its pieces [0, v_L], [r, pool_top] and [v_H, 1] are in order, for
    every candidate has 0 <= v_L < r <= min(v_H, v_T) (solve_beta), so
    concatenated they are sorted and only their repeats go."""
    pool_top = min(eq.v_h_star, eq.v_t_star)
    pieces = [np.linspace(eq.r_star, pool_top, _GRID_SIZE // 2)]
    if eq.v_l_star > 0.0:
        pieces.insert(0, np.linspace(0.0, eq.v_l_star, _GRID_SIZE // 4 + 2))
    if eq.v_h_star < 1.0:
        pieces.append(np.linspace(eq.v_h_star, 1.0, _GRID_SIZE // 4 + 2))
    return drop_repeats(np.concatenate(pieces))


def _dm_grid(eq) -> np.ndarray:
    """The grid DM2 is read on: the base grid with the market's thresholds,
    clipped to [0, 1], inserted."""
    return insert_points(_DM_BASE, _DM_BASE_LIST, [min(max(x, 0.0), 1.0) for x in eq.thresholds])


def expected_payoff(eq) -> float:
    """Closed-form expected payoff of a firm playing the market disclosure."""
    b = eq.branches
    g_top = float(eq.g.cdf(min(eq.v_h_star, eq.v_t_star)))
    # G = F below v_L; on the pooled stretch u = high(G**(n-1)) against dG
    total = b.low_integral(0.0, b.fl) + b.high_integral(b.fl, g_top)
    if eq.v_h_star < 1.0:
        total += b.high_integral(b.fh, 1.0)
    return total


def payoff_identity_gap(eq) -> float:
    """Difference between the expected payoff and its symmetry benchmark."""
    benchmark = (1.0 / eq.n) / (eq.alpha * eq.eta + 1.0 - eq.alpha)
    return expected_payoff(eq) - benchmark


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
    the payoff are elementwise, so each is evaluated once, on all the grids
    at once.
    """
    prior, n, b = eq.prior, eq.n, eq.branches
    grid = _dm_grid(eq)
    points = np.concatenate([grid, _support_grid(eq)])
    phi, u = multiplier_phi(eq, points), payoff_u(eq, points)

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

    gap = phi - u
    dm2_min_gap = float(np.min(gap[: len(grid)]))
    dm3 = float(np.max(np.abs(gap[len(grid) :])))

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
    base = np.linspace(0.0, 1.0, m)
    return insert_points(base, base.tolist(), eq.thresholds)


def discretize_prior(prior: Prior, grid: np.ndarray) -> np.ndarray:
    """Cell masses of the prior around each grid point (midpoint cells)."""
    mids = np.concatenate([[0.0], 0.5 * (grid[1:] + grid[:-1]), [1.0]])
    cdf_vals = np.asarray(prior.cdf(mids))
    return np.diff(cdf_vals)


def best_response_oracle(
    u_values: Sequence[float], prior: Prior, grid: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Exact finite LP best response over discrete mean-preserving contractions.

    max sum g_i u_i  s.t.  g >= 0, sum g = 1, sum g v = sum f v, and for
    every grid point t: sum g_i (t - v_i)+ <= sum f_i (t - v_i)+.

    The LP is solved over the stop-loss slack D_k = b_k - S_k instead of
    the masses, where S_k = sum g_i (t_k - v_i)+ and b = cumsum(h * cumsum(f))
    is the prior's stop-loss.  Dominance is D >= 0, and D vanishes at the
    bottom point and, for the matched mean, at the top one, so all three
    are bounds.  The slope of D on cell k is the prior's mass at or below
    t_k less g's, so the masses are g = f plus the slope increments and
    g >= 0 is m tridiagonal rows: O(m) nonzeros in all.  A cell narrower
    than NARROW_CELL is too short for D to resolve its slope, so that
    slope is a variable of its own.  The rows carry 1/h, so HiGHS runs at
    fixed feasibility tolerances of 1e-10 instead of its 1e-7 defaults, and
    the entries HiGHS would ignore are dropped here first, so the masses
    come from the model that was solved.

    The grid picks one of two builders of the same LP.  Without a narrow
    cell (every oracle_grid of the benchmark's markets), each point's
    slack is its own variable and the matrix is -lift, tridiagonal, built
    from 1/h directly (_tridiagonal_lp).  A grid with a narrow cell goes to
    _general_lp, which builds the matrix entry by entry with index
    arithmetic, in the float operations and the order of the sparse
    products slack -> slope -> masses that define it.  Where both apply,
    they give HiGHS the same arrays to the byte and the same masses.
    """
    value, masses, _, _ = _solve_oracle(u_values, prior, grid, read_masses=True)
    return value, masses


def _solve_oracle(
    u_values: Sequence[float], prior: Prior, grid: Sequence[float], read_masses: bool
) -> tuple[float, np.ndarray | None, int, int]:
    """best_response_oracle, with the nonzeros of the LP's constraint matrix
    and HiGHS's simplex iterations; the masses are read from HiGHS's
    solution only when read_masses is set (else None).

    HiGHS gets the model through SciPy's binding: the matrix, bounds and
    settings (_LP_OPTIONS) that linprog(method="highs") with those options
    would pass it for this LP (rows g >= 0, then D >= 0 at each narrow
    cell's top, then the two equalities), so the value and masses are linprog's to the
    bit.  The solver is this thread's HiGHS instance, made on its first call
    and given the settings then; the model goes to it as arrays through
    passModel's array overload.  A model HiGHS rejects, and any model status
    but optimal, is a typed oracle-lp failure."""
    grid = np.asarray(grid, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if grid.ndim != 1 or grid.shape != u_values.shape or len(grid) < 2:
        raise DomainError("grid and u_values must be 1-d arrays of equal length >= 2")
    h = np.diff(grid)
    if not np.all(h > 0.0):
        raise DomainError("grid must be strictly increasing")
    f = discretize_prior(prior, grid)
    inv_h = 1.0 / h
    # the general builder gives a narrow cell its own variable, and drops
    # the entries of a cell wider than 1 / HIGHS_SMALL_ENTRY
    if h.min() >= NARROW_CELL and inv_h.min() >= HIGHS_SMALL_ENTRY:
        model, to_masses = _tridiagonal_lp(inv_h, f, u_values)
    else:
        model, to_masses = _general_lp(h, inv_h, f, u_values)
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _Highs()
        highs.passOptions(_LP_OPTIONS)
    # a rejected model leaves the previous one in place, and run() would
    # solve that one again
    if highs.passModel(*model) == HighsStatus.kError:
        raise ValidationFailureError("oracle-lp", "HiGHS rejected the model")
    highs.run()
    # The prior's own masses are feasible, but HiGHS can stop without a
    # status ("Not Set") on grids with chains of narrow cells, e.g. cells
    # of width 1e-15 and 3e-9 among about 230 points under a payoff jump
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise ValidationFailureError("oracle-lp", highs.modelStatusToString(status))
    value = float(u_values @ f - highs.getObjectiveValue())
    masses = to_masses(np.asarray(highs.getSolution().col_value)) if read_masses else None
    return value, masses, model[2], int(highs.getInfoValue("simplex_iteration_count")[1])


# A builder returns passModel's arguments (columns, rows, nonzeros, format,
# sense, offset; cost, column bounds, row bounds; CSC start, index, value;
# integrality, all continuous) and the map from HiGHS's solution x to the
# masses f + lift @ x.

def _tridiagonal_lp(inv_h: np.ndarray, f: np.ndarray, u: np.ndarray):
    """The oracle LP on a grid without a narrow cell, from 1/h alone.

    Column c of lift is -inv_h[c-1], inv_h[c-1] + inv_h[c] and -inv_h[c] at
    rows c-1, c and c+1 (inv_h[0] and inv_h[m-2] alone on the diagonal at
    the end columns); the constraint matrix is -lift, then D_0's and
    D_{m-1}'s unit entries in the two equality rows.  Each sum adds its
    products in _general_lp's order, starting from 0.0 as np.bincount
    does: the cost by ascending row, a mass by column j+1, j-1, j (row 0:
    0 then 1; the last row: m-2 then m-1).  A missing term is a 0.0, which
    changes no sum: one that starts from 0.0 is never -0.0."""
    m = len(f)
    pad = np.concatenate([[0.0], inv_h, [0.0]])
    diag = pad[:-1] + pad[1:]
    above, below = np.zeros(m), np.zeros(m)  # lift[c-1, c] u[c-1] and lift[c+1, c] u[c+1]
    above[1:] = -inv_h * u[:-1]
    below[:-1] = -inv_h * u[1:]
    value = np.empty((m, 3))
    value[1:, 0], value[:, 1], value[:-1, 2] = inv_h, -diag, inv_h
    value[0], value[-1, 2] = (-diag[0], inv_h[0], 1.0), 1.0
    index = np.arange(-1, m - 1, dtype=np.int32)[:, None] + np.arange(3, dtype=np.int32)
    index[0], index[-1, 2] = (0, 1, m), m + 1
    row_lower = np.full(m + 2, -kHighsInf)
    row_lower[m:] = 0.0
    model = (
        m, m + 2, 3 * m, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        -(((0.0 + above) + diag * u) + below),
        np.zeros(m), np.full(m, kHighsInf), row_lower, np.concatenate([f, np.zeros(2)]),
        np.arange(0, 3 * m + 1, 3, dtype=np.int32), index.ravel(), value.ravel(),
        np.zeros(m, np.int32),
    )

    def to_masses(x):
        prev, nxt, own = -inv_h * x[:-1], -inv_h * x[1:], diag * x
        first = np.concatenate([own[:1], nxt[1:], prev[-1:]])
        second = np.concatenate([nxt[:1], prev[:-1], own[-1:]])
        third = np.concatenate([[0.0], own[1:-1], [0.0]])
        return f + (((0.0 + first) + second) + third)

    return model, to_masses


def _general_lp(h: np.ndarray, inv_h: np.ndarray, f: np.ndarray, u: np.ndarray):
    """The oracle LP on any strictly increasing grid, by index arithmetic."""
    m = len(f)
    # m variables: D at each point whose cell below is not narrow (its own
    # point), then the slope on each narrow cell.  D_j is the variable of
    # the own point p at or below j plus h_c times the slope of each narrow
    # cell c from p up to j.
    narrow = h < NARROW_CELL
    wide, cells = np.flatnonzero(~narrow), np.flatnonzero(narrow)
    own = np.concatenate([[True], ~narrow])
    var = np.cumsum(own) - 1
    cell_var = m - len(cells) - 1 + np.cumsum(narrow)
    start = np.flatnonzero(own)[var]

    def slack(points):
        """Row-major (row, column, value) of D at these points."""
        size = 1 + points - start[points]
        row = np.repeat(np.arange(len(points)), size)
        pos = np.arange(len(row)) - np.repeat(np.cumsum(size) - size, size)
        cell = start[points][row] + pos - 1
        col = np.where(pos > 0, cell_var[cell], var[points][row])
        return row, col, np.where(pos > 0, h[cell], 1.0)

    # slope_k = (D_{k+1} - D_k) / h_k on a wide cell, whose top point is
    # its own; on a narrow cell, (1 / h_k) * h_k times the cell's variable.
    # Entries are keyed row * m + column.
    row, col, val = slack(wide)
    row = wide[row]
    key = np.concatenate([row, wide, cells]) * m
    key += np.concatenate([col, var[wide + 1], cell_var[cells]])
    val = np.concatenate([inv_h[row] * -val, inv_h[wide], inv_h[cells] * h[cells]])
    kept = np.flatnonzero(np.abs(val) >= HIGHS_SMALL_ENTRY)
    kept = kept[np.argsort(key[kept])]
    key, val = key[kept], val[kept]
    # the masses are f + lift @ x, lift_j = slope_{j-1} - slope_j, in the
    # entry order of the sparse product: slope_j's other columns, then
    # slope_{j-1}'s.  A shared column pairs entries of opposite sign.
    upper = key + m
    at = np.minimum(np.searchsorted(upper, key), len(key) - 1)
    shared = upper[at] == key
    upper_val = val.copy()
    upper_val[at[shared]] -= val[shared]
    order = np.argsort(np.concatenate([key[~shared] // m * 2, upper // m * 2 + 1]), kind="stable")
    l_row, l_col = np.divmod(np.concatenate([key[~shared], upper])[order], m)
    lift = np.concatenate([-val[~shared], upper_val])[order]

    row, col, val = slack(np.concatenate([cells + 1, [0, m - 1]]))
    # rows: g >= 0, then D >= 0 at the points without a variable of their
    # own, then D = 0 at the bottom and at the top (the mean); the matrix
    # goes to HiGHS column-wise, rows ascending within each column
    rows = np.concatenate([l_row, m + row])
    cols = np.concatenate([l_col, col])
    vals = np.concatenate([-lift, np.where(row < len(cells), -val, val)])
    order = np.lexsort((rows, cols))
    # own slack >= 0; a narrow cell's slope is the prior's mass up to the
    # cell less g's, so it lies in [F_k - 1, F_k]
    cdf = np.cumsum(f)[cells]
    model = (
        m, m + len(cells) + 2, len(rows), MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        -np.bincount(l_col, weights=lift * u[l_row], minlength=m),
        np.concatenate([np.zeros(m - len(cells)), cdf - 1.0]),
        np.concatenate([np.full(m - len(cells), kHighsInf), cdf]),
        np.concatenate([np.full(m + len(cells), -kHighsInf), np.zeros(2)]),
        np.concatenate([f, np.zeros(len(cells) + 2)]),
        np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=m))]).astype(np.int32),
        rows[order].astype(np.int32),
        vals[order],
        np.zeros(m, np.int32),
    )
    return model, lambda x: f + np.bincount(l_row, weights=lift * x[l_col], minlength=m)


def oracle_gap(eq, m: int) -> dict[str, float]:
    """LP optimum against the market payoff, and its gap to the played value,
    with the LP's size (nonzeros of its constraint matrix) and its simplex
    iterations."""
    grid = oracle_grid(eq, m)
    u = payoff_u(eq, grid)
    value, _, nonzeros, iterations = _solve_oracle(u, eq.prior, grid, read_masses=False)
    played = expected_payoff(eq)
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
    holds, skipping sizes outside the domain (F**(n-1) not convex)."""
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
