"""Every numerical tolerance of the package, in one ledger.

Each constant is a bound that a check, a solver or a domain test reads.
Its docstring gives the scale it is stated in and what reads it: the
invariant a ValidationFailureError names, or the function.  Scales:

* v: absolute, in valuation units on [0, 1] (thresholds, reservation
  values, segment ends);
* cdf: absolute, in cdf levels (probabilities);
* relative: a fraction of the named quantity;
* and the units of the residual named (search equation, z, multiplier),
  or bytes for the simulator's memory bound.

The solver xtols, where each bisection stops, are bounds here too, each
read at its bisection.  No other module holds a float literal of at most
1e-6, and every name here has a reader: tests/test_tolerances.py checks
both.
"""

# -- candidate: feasibility, the pooled slope, structure ----------------------

FEAS_MARGIN = 1e-12
"""v.  candidate_exists: a candidate at (v_L, r) needs E[v | v > v_L] >
r + FEAS_MARGIN, so solve_beta raises InfeasibleCandidateError within it."""

CHORD_MIN_WIDTH = 1e-13
"""v.  solve_beta: below this contact width v_H - r the pooled slope is the
derivative of F**(n-1) at r instead of the chord (total collapse toward
full disclosure)."""

SLOPE_REL_TOL = 1e-8
"""Relative to max(1, beta).  validate_candidate: slope-moment-form, the
pooled slope against its moment form."""

TOP_STRUCTURE_TOL = 1e-12
"""v.  validate_candidate: top-structure, v_H < 1 needs v_T = 1 and v_T < 1
needs v_H = 1."""

# -- posterior: structure and the integral-precision order --------------------

CONTINUITY_TOL = 1e-9
"""cdf (v for segment ends).  PosteriorDistribution.validate:
segment-contiguity, cdf-continuity (a step in either direction),
cdf-monotone and cdf-top; validate_candidate: contact-point, |G - F| at
v_H."""

ATOM_MATCH_TOL = 1e-15
"""v.  PosteriorDistribution.validate: an atom this close to a segment's
start or to the last segment's end is the cdf's jump there."""

MPC_TOL = 1e-9
"""Integrated cdf, absolute.  The mean gap and the smallest integrated-cdf
gap: validate_candidate's mean-preservation and integrated-gap, read at
the candidate's segment ends (candidate._integrated_gaps); and
informativeness_compare, so check_deviation_mpc's deviation-not-mpc and
every verdict of the welfare statics."""

POOLED_LEVEL_FLOOR = 1e-290
"""Levels of cdf**(n-1).  AffinePower._scaled: a pooled branch that starts
at base 0 and whose line rises by less than this over its segment is read
in its scaled form, from the cdf at its top end, not from its slope."""

# -- endogenous: the post-solve invariants and the regime ---------------------

SEARCH_PRIOR_TOL = 1e-9
"""Units of s.  validate_equilibrium: search-equation-prior-form,
|int_{v_L*}^1 (v - r*) dF - s|."""

SEARCH_POSTERIOR_TOL = 1e-8
"""Units of s.  validate_equilibrium: search-equation, |int_{r*}^1 (v - r*)
dG - s|."""

RESERVE_TOL = 1e-12
"""v.  validate_equilibrium: below-full-info (r* below the full-information
reserve + RESERVE_TOL) and regime-reserve (r* = mu - s within RESERVE_TOL
when nothing below r* is disclosed)."""

FIXED_POINT_TOL = 1e-9
"""v.  _check_fixed_point: fixed-point, the threshold that z(., r*) pins
down lies within this of v_L*."""

REGIME_BAND = 1e-10
"""v.  _conceals_bottom: a market whose mu - s lies within this above the
regime boundary is taken to conceal everything below r, whatever the
rounding in the sign of z(0, mu - s); validate_equilibrium's regime reads
that decision."""

BRACKET_EDGE = 1e-12
"""v.  solve_endog's bisection in v_L stops this short of the
full-information reserve, and limit_equilibrium's bisection for v_H starts
this far above 0, where its target vanishes."""

# -- endogenous and exogenous: the z brackets ---------------------------------

Z_EDGE = 1e-10
"""v.  The z brackets: endogenous.conceals_below takes r <= Z_EDGE to
conceal; endogenous._v_l_bracket at r is [0, r - Z_EDGE], and its
z-bracket check reads z at its top end; exogenous.r_lower_bar bisects on
[Z_EDGE, mu - Z_EDGE]."""

# -- verify: the optimality conditions and the LP oracle ----------------------

DM1_TOL = 1e-9
"""Multiplier units (its slope for the kinks).  check_dm_conditions: DM1,
the multiplier's seam gaps and its slope increments at v_L and v_H."""

DM2_TOL = 1e-9
"""Payoff units.  check_dm_conditions: DM2, phi - u >= -DM2_TOL on the
grid; verify._pooling_vertex, the same for the line its duals lay over the
pooled stretch of the oracle's grid, and convexity at the stretch's ends,
before it hands HiGHS that vertex's basis."""

DM3_TOL = 1e-8
"""Payoff units.  check_dm_conditions: DM3, |phi - u| on the posterior's
support."""

DM4_TOL = 1e-8
"""Payoff units.  check_dm_conditions: DM4, |int phi dG - int phi dF|."""

HIGHS_FEASIBILITY_TOL = 1e-10
"""HiGHS's primal and dual feasibility, in the LP's rows.
verify._LP_OPTIONS, so every oracle LP; verify._pooling_vertex, the same
test of the pooling vertex in closed form."""

HIGHS_SMALL_ENTRY = 1e-12
"""The LP's matrix entries, cell widths among them.  verify._LP_OPTIONS:
HiGHS's small_matrix_value, under which it drops an entry from its model.
At its default of 1e-9 HiGHS dropped the width of a 9.99e-10 cell, so its
column values missed the prior's mean by 2.9e-10 and its objective missed
their payoff by 8.8e-11.  1e-12 is the smallest value HiGHS accepts; a
cell narrower than that is still dropped."""

# -- montecarlo: the stopping rule in quantile space, and the memory bound -----

STOP_MARGIN = 1e-8
"""Quantile space.  montecarlo._costly: the margin around a grid cell's stop
quantiles within which a reservation value is solved exactly; it covers
the few-ulp error of `**` and a cdf step of CONTINUITY_TOL."""

SUPPORT_BOTTOM_TOL = 1e-9
"""v.  stop_quantile: a reservation value this close above the support
bottom never triggers search."""

SIM_BYTES_MAX = 4 * 2**30
"""Bytes.  montecarlo._Buffers.reserve: the most one worker's arrays may
take; a simulation that needs more is a DomainError, raised before the
allocation.  They take about 27 n bytes per consumer of a group (29 n from
n = 32,767), and a group holds up to 65,536 consumers.  So n = 1,375 needs
1.3 GiB at alpha 0.55 and 2.3 GiB at most at any alpha, where n = 100,000
asked for 98.8 GiB at alpha 0.55 and ended in an untyped MemoryError."""

# -- inputs: the prior domain and cost distributions ---------------------------

CONVEXITY_SLACK = 1e-12
"""Relative to 1.  PowerPrior.check_convexity admits a*(n-1) >= 1 -
CONVEXITY_SLACK, because a = 1/(n-1), the prior on the domain's edge,
gives (1/(n-1))*(n-1) = 1 - 2**-53 for 505 values of n below 4096."""

COST_MASS_TOL = 1e-12
"""cdf.  DiscreteCosts: the probabilities sum to 1 within this;
ContinuousCosts: the cdf's top knot is 1 within this."""

COST_CDF_ZERO = 1e-15
"""cdf.  ContinuousCosts: the cdf's bottom knot is 0 within this."""

# -- welfare: threshold scans --------------------------------------------------

SCAN_TOL = 1e-12
"""v and units of s.  threshold_scan: a market pools its top values when
v_T* < 1 - SCAN_TOL, and a grid cost counts as above s_bar or below
s_lower only by more than this."""

# -- solver xtols: the bracket width at which a bisection stops ----------------

CONTACT_XTOL = 1e-14
"""v.  solve_beta's bisection for the contact point v_H."""

THRESHOLD_XTOL = 1e-12
"""v (r for r_lower_bar).  The bisections of the lower disclosure threshold:
solve_endog's v_L*, exogenous.solve_v_l_eq's v_L at a given r and
exogenous.r_lower_bar's r.  montecarlo.reservation_for_cost runs 40
halvings on [0, 1] instead, in rounds that each read one table of
excess_above: bisect_root's steps at this xtol."""

BISECT_XTOL = 1e-13
"""v (r for r_full_info).  The other bisections: r_full_info and
limit_equilibrium's v_H of the infinite market."""
