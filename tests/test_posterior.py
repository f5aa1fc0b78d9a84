import numpy as np
import pytest
from scipy.integrate import quad

from disclose_eq.endogenous import limit_equilibrium, solve_endog
from disclose_eq.montecarlo import stop_quantile
from disclose_eq.posterior import (
    AffinePower,
    Flat,
    FullDisclosure,
    PosteriorDistribution,
    full_disclosure_distribution,
    informativeness_compare,
    point_mass,
)
from disclose_eq.errors import DiscloseEqError, DomainError, ValidationFailureError
from disclose_eq.verify import check_dm_conditions
from disclose_eq.welfare import sweep
from reference import MaskLoopPosterior, informativeness_by_sorted_union, sample_by_masks
from test_probe_outcomes import SEED, _domain_probe
from test_verify import _seeded_markets


@pytest.fixture(scope="module")
def g_atom(piecewise):
    """Every segment kind and an interior atom: the prior up to 0.3 (cdf
    0.15), a gap, mass 0.15 at 0.6, then a square-root affine-power branch
    from cdf 0.3 up to 1 at 0.9."""
    g = PosteriorDistribution(
        prior=piecewise,
        segments=(
            FullDisclosure(0.0, 0.3),
            Flat(0.3, 0.6, float(piecewise.cdf(0.3))),
            AffinePower(0.6, 0.9, base=0.3**2, slope=(1.0 - 0.3**2) / 0.3, root_power=2),
            Flat(0.9, 1.0, 1.0),
        ),
        atom=(0.6, 0.3 - float(piecewise.cdf(0.3))),
    )
    g.validate()
    return g


@pytest.mark.parametrize(
    "segments, invariant",
    [
        ((FullDisclosure(0.0, 0.4), FullDisclosure(0.5, 1.0)), "segment-contiguity"),
        ((FullDisclosure(0.0, 0.5),), "cdf-top"),
    ],
    ids=["gap", "short"],
)
def test_a_broken_posterior_names_its_invariant(uniform, segments, invariant):
    with pytest.raises(ValidationFailureError) as exc:
        PosteriorDistribution(prior=uniform, segments=segments).validate()
    assert exc.value.invariant == invariant


def _posteriors(request):
    eqs = ("eq_uniform_small", "eq_uniform_large", "eq_power")
    return [request.getfixturevalue("g_atom")] + [request.getfixturevalue(name).g for name in eqs]


def _points(g):
    bps = g.breakpoints()
    mids = [0.5 * (a + b) for a, b in zip(bps, bps[1:])]
    return np.array([-0.1, *bps, *mids, 1.15])


def _quad(f, lo, hi, g):
    pts = [x for x in g.breakpoints() if min(lo, hi) < x < max(lo, hi)]
    return quad(f, lo, hi, points=pts or None, limit=200, epsabs=1e-13, epsrel=1e-13)[0]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_cum_integrals_match_quadrature(request, k):
    for g in _posteriors(request):
        z = _points(g)
        got = g.cum_integral(z, k)
        # the cdf vanishes below 0, so nothing accrues there
        want = [_quad(lambda v: g.cdf(v) ** k, 0.0, zz, g) if zz > 0 else 0.0 for zz in z]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_excess_above_matches_quadrature(request):
    for g in _posteriors(request):
        r = _points(g)[1:]
        want = [_quad(lambda v: 1.0 - g.cdf(v), rr, 1.0, g) for rr in r]
        np.testing.assert_allclose(g.excess_above(r), want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("p", [965, 990])
def test_the_scaled_pooled_branch_agrees_with_its_line(uniform, p):
    # hi**p is 3.2e-291 and 9.6e-299: the line's rise over [a, b] is below
    # POOLED_LEVEL_FLOOR but still a normal float, so the scaled form
    # (from hi) and the line's arithmetic (from the slope) can be compared
    a, b, hi = 0.2, 0.7, 0.5
    scaled = AffinePower(a, b, 0.0, hi**p / (b - a), p, hi)
    line = AffinePower(a, b, 0.0, hi**p / (b - a), p)
    assert scaled._scaled() and not line._scaled()
    v = np.array([a, 0.25, 0.4, 0.6999, b])
    np.testing.assert_allclose(scaled.cdf(uniform, v), line.cdf(uniform, v), rtol=1e-12, atol=0)
    assert scaled.cdf(uniform, b) == hi
    for k in (1, 2, 5):
        np.testing.assert_allclose(
            scaled.integral(uniform, 0.3, v[1:], k), line.integral(uniform, 0.3, v[1:], k), rtol=1e-12, atol=0
        )
    q = scaled.cdf(uniform, v)
    scaled.quantile_in_place(uniform, q)
    np.testing.assert_allclose(q, v, rtol=1e-12, atol=0)


def test_the_json_of_a_scaled_pooled_branch_rebuilds_its_cdf(uniform):
    # the pooled line of this concealing market underflows (beta 0.0), so its
    # cdf is read from hi, which the JSON carries in that form only
    eq = solve_endog(uniform, 1375, 0.5464099987813732, 0.30076378322172764)
    segments = eq.g.to_json_dict()["segments"]
    (pooled,) = [seg for seg in segments if seg["kind"] == "affine_power"]
    assert pooled["base"] == 0.0 and pooled["beta"] == 0.0
    rebuilt = AffinePower(pooled["a"], pooled["b"], pooled["base"], pooled["beta"], pooled["root_power"], pooled["hi"])
    v = np.linspace(pooled["a"], pooled["b"], 7)
    assert rebuilt.cdf(uniform, v).tolist() == eq.g.cdf(v).tolist()
    assert 0.0 < eq.g.cdf(float(v[3])) == rebuilt.cdf(uniform, float(v[3]))
    # an unscaled branch reads no hi, and its JSON names none
    line = AffinePower(0.2, 0.7, 0.0, 0.5**3 / 0.5, 3, 0.5)
    assert not line._scaled() and "hi" not in line.to_json_dict()


def test_stop_quantile_array_equals_scalar_calls(request, g_atom):
    for g in _posteriors(request):
        bottom = g.support_bottom()
        r = np.unique(np.concatenate([g.breakpoints(), np.linspace(0.0, 1.0, 37), [bottom + 5e-10]]))
        q = stop_quantile(g, r)
        assert isinstance(q, np.ndarray) and q.shape == r.shape
        assert q.tolist() == [stop_quantile(g, float(x)) for x in r]
        assert np.all(q[r <= bottom + 1e-9] == 0.0)  # no search from the support bottom
    # at the atom the draw sitting on it passes the test
    assert g_atom.cdf(0.6) == pytest.approx(0.3, abs=1e-15)
    assert stop_quantile(g_atom, 0.6) == pytest.approx(0.15, abs=1e-15)
    assert stop_quantile(g_atom, np.array([0.6]))[0] == stop_quantile(g_atom, 0.6)


@pytest.mark.parametrize("which", ["g_inf", "point_mass"])
def test_cdf_left_drops_the_atom_at_its_location_only(uniform, which):
    g = limit_equilibrium(uniform, 0.5, 0.1).g_inf if which == "g_inf" else point_mass(uniform, 0.5)
    loc, mass = g.atom
    below, above = np.nextafter(loc, -1.0), np.nextafter(loc, 1.0)
    # one ulp away the left limit is the cdf itself: no jump but the atom
    assert g.cdf_left(below) == g.cdf(below) == 0.0
    assert g.cdf_left(above) == g.cdf(above) == pytest.approx(mass, abs=1e-12)
    assert g.cdf_left(loc) == 0.0 and g.cdf(loc) == g.cdf(above)
    assert g.cdf_left(np.array([below, loc, above])).tolist() == [0.0, 0.0, g.cdf(above)]


def _evaluate(g, method, x, *args):
    """The result, or the type and invariant of the error raised."""
    try:
        return getattr(g, method)(x, *args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), getattr(exc, "invariant", None)


def _assert_same_bits(got, want, context):
    assert type(got) is type(want), context
    if isinstance(want, tuple):
        assert got == want, context
        return
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape and got.dtype == want.dtype, context
    assert np.array_equal(got, want, equal_nan=True), context
    assert np.array_equal(np.signbit(got), np.signbit(want)), context


def _bitwise_inputs(g, rng):
    """Scalars, sorted, descending, shuffled and duplicated arrays, every
    breakpoint +-1 ulp, the atom, 0, 1, points above the top, and an empty
    array."""
    bps = np.array(g.breakpoints())
    near = np.concatenate([bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf)])
    marks = [0.0, -0.0, 1.0, g.top, np.nextafter(g.top, 2.0), 1.0 + 1e-12, 1.3, -0.2]
    if g.atom is not None:
        marks.append(g.atom[0])
    points = np.concatenate([near, marks])
    grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 257), points]))
    inputs = [float(x) for x in points] + [grid, grid[::-1], rng.permutation(grid)]
    inputs += [np.repeat(rng.permutation(points), 3), rng.uniform(-0.1, 1.1, 64)]
    inputs += [np.array([]), np.array([0.5]), np.array(0.5), grid.reshape(-1, 1)[:40]]
    return inputs


def _bitwise_posteriors(g_atom, priors):
    """(posterior, market size) of the seeded markets, the large-market limit,
    the no-information signal, full disclosure, and g_atom with and without
    a zero-width segment."""
    posteriors = [(eq.g, eq.n) for eq in _seeded_markets()]
    posteriors += [(limit_equilibrium(p, 0.5, 0.1).g_inf, 50) for p in priors]
    posteriors += [(point_mass(p, p.mean()), 3) for p in priors]
    posteriors += [(full_disclosure_distribution(p), 4) for p in priors]
    zero_width = PosteriorDistribution(
        prior=g_atom.prior,
        segments=(g_atom.segments[0], Flat(0.3, 0.3, g_atom.segments[1].level), *g_atom.segments[1:]),
        atom=g_atom.atom,
    )
    zero_width.validate()
    return posteriors + [(g_atom, 2), (zero_width, 5)]


def test_segment_slices_equal_the_mask_loop_bitwise(g_atom, uniform, power2, piecewise):
    posteriors = _bitwise_posteriors(g_atom, (uniform, power2, piecewise))
    rng = np.random.default_rng(5)
    checked = 0
    for g, n in posteriors:
        ref = MaskLoopPosterior(prior=g.prior, segments=g.segments, atom=g.atom)
        for x in _bitwise_inputs(g, rng):
            for method, args in [("cdf", ()), ("cdf_left", ()), ("cum_integral", ()),
                                 ("cum_integral", (n,)), ("excess_above", ())]:
                want = _evaluate(ref, method, x, *args)
                got = _evaluate(g, method, x, *args)
                _assert_same_bits(got, want, (g, method, x))
                checked += 1
    assert len(posteriors) == 25 and checked > 3000


def _sample_inputs(g, rng):
    """Scalars, 0-d, 1-d, 2-d, strided and reversed variates: each segment's
    and the atom's cdf levels +-1 ulp, 0.0, the largest double below 1, and
    uniform draws."""
    levels = [level for seg in g.segments for level in g._seg_levels(seg)]
    if g.atom is not None:
        levels += [g.cdf_left(g.atom[0]), g.cdf(g.atom[0])]
    levels = np.array(levels, dtype=float)
    near = np.concatenate([levels, np.nextafter(levels, -1.0), np.nextafter(levels, 2.0)])
    points = np.concatenate([near[(near >= 0.0) & (near < 1.0)], [0.0, np.nextafter(1.0, 0.0)]])
    grid = rng.permutation(np.concatenate([points, rng.random(64)]))
    table = rng.permutation(np.resize(grid, (len(grid), 3)))
    inputs = [float(x) for x in points] + [np.array(x) for x in points[:3]]
    return inputs + [grid, grid[::-1], table, table[:, 1], table.T, np.array([])]


def test_sample_equals_the_mask_loop_bitwise(g_atom, uniform, power2, piecewise):
    posteriors = _bitwise_posteriors(g_atom, (uniform, power2, piecewise))
    rng = np.random.default_rng(6)
    checked = 0
    # the in-place kernel writes into arrays a caller reuses: left dirty by
    # the posteriors before, or filled with NaN
    dirty = (np.empty(1024), np.empty(1024), np.empty(1024, dtype=bool))
    for g, _ in posteriors:
        for u in _sample_inputs(g, rng):
            want = sample_by_masks(g, u)
            got = g.sample(u)
            _assert_same_bits(got, want, (g, u))
            assert np.shape(got) == np.shape(want), (g, u)
            checked += 1
            if isinstance(u, np.ndarray) and u.ndim:
                nan = (np.full(u.shape, np.nan), np.full(u.shape, np.nan), np.ones(u.shape, dtype=bool))
                reused = tuple(a[: u.size].reshape(u.shape) for a in dirty)
                for out, scratch, mask in (nan, reused):
                    g.sample_into(u, out, scratch, mask)
                    _assert_same_bits(out, want, (g, u))
                    checked += 1
    assert len(posteriors) == 25 and checked > 900


def test_sample_rejects_variates_outside_the_unit_interval(eq_uniform_small):
    g = eq_uniform_small.g
    bad = [np.array([np.nan, 0.3]), np.array([0.3, np.nan]), np.array([[0.1], [np.nan]]),
           float("nan"), np.array(np.nan), -1e-300, 1.0, np.array([0.2, 1.0])]
    for u in bad:
        with pytest.raises(DomainError, match="variates"):
            g.sample(u)


def _assert_same_verdict(g0, g1):
    want = informativeness_by_sorted_union(g0, g1)
    got = informativeness_compare(g0, g1)
    bits = [(v.verdict, *(x.hex() for x in (v.min_gap_forward, v.min_gap_backward, v.mean_gap))) for v in (got, want)]
    assert got == want and bits[0] == bits[1], (g0, g1)
    return got.verdict


def test_mpc_compare_equals_the_sorted_union_bitwise(g_atom, uniform, power2, piecewise):
    # every ordered pair, priors equal or not, of the bitwise posteriors (atoms
    # among them), one with a gap between its segments and one that starts
    # above 0, both of which clip grid points to a segment
    posteriors = [g for g, _ in _bitwise_posteriors(g_atom, (uniform, power2, piecewise))]
    f_gap = float(power2.cdf(0.3))
    posteriors += [
        PosteriorDistribution(power2, (FullDisclosure(0.0, 0.3 - 1e-12), Flat(0.3, 0.5, f_gap), FullDisclosure(0.5, 1.0))),
        PosteriorDistribution(power2, (Flat(0.0, 0.3 - 5e-13, 0.0), FullDisclosure(0.3 - 5e-13, 1.0))),
        PosteriorDistribution(uniform, (FullDisclosure(1e-12, 1.0),)),
    ]
    verdicts = {_assert_same_verdict(g0, g1) for g0 in posteriors for g1 in posteriors}
    assert verdicts == {"LessInformative", "MoreInformative", "EquallyInformative", "Incomparable"}


def test_mpc_compare_equals_the_sorted_union_on_solved_markets(uniform, power2):
    # the candidate check of the certified markets of a probe draw, both ways
    certified = 0
    for _, prior, n, alpha, s in _domain_probe().draw_markets(SEED, 240):
        try:
            eq = solve_endog(prior, n, alpha, s)
            passed = check_dm_conditions(eq).passed
        except DiscloseEqError:
            continue
        if passed:
            full = full_disclosure_distribution(prior)
            _assert_same_verdict(eq.g, full)
            _assert_same_verdict(full, eq.g)
            certified += 1
    assert certified > 60
    # the welfare statics: neighbouring markets of a sweep, both ways
    pairs = 0
    for prior, axis, grid, base in [
        (uniform, "s", np.linspace(0.02, 0.45, 25), {"n": 3, "alpha": 0.5}),
        (power2, "n", range(2, 40, 2), {"alpha": 0.4, "s": 0.2}),
    ]:
        solved = [eq for _, eq in sweep(prior, axis, grid, base) if eq is not None]
        for prev, eq in zip(solved, solved[1:]):
            _assert_same_verdict(eq.g, prev.g)
            _assert_same_verdict(prev.g, eq.g)
            pairs += 1
    assert pairs > 30


def _scalar_read_posteriors(uniform, power2):
    """(name, posterior) of each posterior shape a scalar read meets."""
    return [
        ("disclosing, v_H < 1", solve_endog(power2, 3, 0.4, 0.15).g),
        ("capped, v_T < 1", solve_endog(uniform, 2, 0.5, 0.1).g),
        ("scaled concealing", solve_endog(uniform, 1375, 0.5464099987813732, 0.30076378322172764).g),
        ("full disclosure", solve_endog(uniform, 2, 0.0, 0.1).g),
        ("limit atom", limit_equilibrium(uniform, 0.5, 0.1).g_inf),
    ]


def test_scalar_reads_equal_the_array_reads_bitwise(uniform, power2):
    # a scalar finds its segment by a bisect of the ends, an array by
    # searchsorted: at 0, 1, every segment end and the points one ulp
    # either side (where cdf's side="left" and the integrals' side="right"
    # part), and inside each segment, the scalar read is the array read's
    # element to the bit, alone or among all the points
    shapes = _scalar_read_posteriors(uniform, power2)
    assert shapes[2][1].segments[1]._scaled() and shapes[4][1].atom is not None
    for name, g in shapes:
        ends = np.array([seg.b for seg in g.segments])
        inside = [0.5 * (seg.a + seg.b) for seg in g.segments] + [seg.a + 0.1 * (seg.b - seg.a) for seg in g.segments]
        points = np.concatenate([[0.0, 1.0], ends, np.nextafter(ends, -1.0), np.nextafter(ends, 2.0), inside])
        points = points[(points >= 0.0) & (points <= 1.0)]
        for method in ("cdf", "cdf_left", "cum_integral", "excess_above"):
            together = getattr(g, method)(points)
            for x, among in zip(points.tolist(), together.tolist()):
                scalar = getattr(g, method)(x)
                alone = getattr(g, method)(np.array([x]))[0]
                assert np.ndim(scalar) == 0 and np.shape(alone) == (), (name, method, x)
                assert float(scalar).hex() == float(alone).hex() == among.hex(), (name, method, x)


def test_a_posterior_read_at_nan_is_a_domain_error(uniform, power2):
    # a NaN point has no segment: the scalar and the array read raise alike
    for name, g in _scalar_read_posteriors(uniform, power2):
        for method in ("cdf", "cdf_left", "cum_integral", "excess_above"):
            for x in (float("nan"), np.float64("nan"), np.array([0.3, np.nan]), np.array([np.nan]), np.array(np.nan)):
                with pytest.raises(DomainError, match="NaN"):
                    getattr(g, method)(x)
