import bisect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from disclose_eq import PiecewiseLinearPrior, PowerPrior, UniformPrior, prior_from_json
from disclose_eq.costs import ContinuousCosts, DiscreteCosts
from disclose_eq.errors import ConfigError, DomainError
from disclose_eq.posterior import full_disclosure_distribution

ALL_PRIORS = [
    UniformPrior(),
    PowerPrior(a=2.0),
    PowerPrior(a=1.5),
    PowerPrior(a=0.5),
    PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))),
    PiecewiseLinearPrior(knots=((0.0, 0.0), (0.2, 0.1), (0.7, 0.4), (1.0, 1.0))),
]


def test_cdf_examples(uniform, power2, piecewise):
    assert uniform.cdf(0.3) == pytest.approx(0.3, abs=1e-15)
    assert power2.cdf(0.5) == pytest.approx(0.25, abs=1e-15)
    assert piecewise.cdf(0.75) == pytest.approx(0.625, abs=1e-12)


def test_quantile_examples(uniform, power2):
    assert uniform.quantile(0.7) == pytest.approx(0.7, abs=1e-15)
    assert power2.quantile(0.25) == pytest.approx(0.5, abs=1e-14)
    for p in ALL_PRIORS:
        assert p.quantile(1.0) == pytest.approx(1.0, abs=1e-12)


def test_mean_examples(uniform, power2, piecewise):
    assert uniform.mean() == pytest.approx(0.5, abs=1e-15)
    assert power2.mean() == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert piecewise.mean() == pytest.approx(0.625, abs=1e-13)


def test_domain_errors(uniform):
    with pytest.raises(DomainError):
        uniform.cdf(1.2)
    with pytest.raises(DomainError):
        uniform.quantile(-0.1)
    with pytest.raises(DomainError):
        uniform.truncated_moments(0.5, 0.5, 2)


def test_truncated_moments_examples(uniform, power2):
    tm = uniform.truncated_moments(0.2, 0.8, 5)
    assert tm.mu_tilde == pytest.approx(0.5, abs=1e-13)  # symmetry
    tm = uniform.truncated_moments(0.0, 1.0, 2)
    assert tm.eta_tilde == pytest.approx(0.5, abs=1e-13)
    tm = power2.truncated_moments(0.0, 1.0, 2)
    assert tm.eta_tilde == pytest.approx(0.5, abs=1e-13)  # E[F] = int v^2 2v dv


def test_convexity_examples(uniform, power2):
    assert uniform.check_convexity(2)
    assert power2.check_convexity(2)
    assert not PowerPrior(a=0.5).check_convexity(2)
    assert PowerPrior(a=0.5).check_convexity(3)  # a(n-1) = 1, affine
    # convex density step: F^(n-1) convex for n = 2
    conv = PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    assert conv.check_convexity(2)
    # concave density step fails for n = 2
    conc = PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)))
    assert not conc.check_convexity(2)


@st.composite
def _dyadic_piecewise(draw):
    """1-4 interior knots on dyadic grids (x in 16ths, q in 64ths), so that
    pieces of equal slope get equal float slopes.  All pieces but the last
    have slope 0.5, 1 or 1.5, so equal and stepped-down slopes are frequent;
    the last piece takes what is left of the mass."""
    k = draw(st.integers(min_value=1, max_value=4))
    xs = sorted(draw(st.sets(st.integers(min_value=1, max_value=15), min_size=k, max_size=k)))
    qs = []
    for x0, x1 in zip([0, *xs], xs):
        qs.append((qs[-1] if qs else 0) + (x1 - x0) * draw(st.sampled_from([2, 4, 6])))
    assume(qs[-1] < 64)
    return PiecewiseLinearPrior(((0.0, 0.0), *((x / 16, q / 64) for x, q in zip(xs, qs)), (1.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(prior=_dyadic_piecewise())
@example(prior=PiecewiseLinearPrior(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))))
def test_piecewise_convexity_is_nondecreasing_slopes_at_every_n(prior):
    # a density that steps down at a knot of cdf q > 0 is a concave kink of
    # (n-1) q^(n-2) (m_right - m_left) in F^(n-1) at every n, however small
    ms = prior._slopes
    nondecreasing = all(m0 <= m1 for m0, m1 in zip(ms, ms[1:]))
    assert [prior.check_convexity(n) for n in (2, 3, 108, 3079, 2**20)] == [nondecreasing] * 5


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: repr(p))
def test_quantile_inverts_cdf_on_grid(prior):
    grid = np.linspace(0.0, 1.0, 1001)
    back = prior.quantile(np.asarray(prior.cdf(grid)))
    assert np.max(np.abs(back - grid)) < 1e-12


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: repr(p))
def test_mean_matches_survival_quadrature(prior):
    # independent oracle: trapezoid rule on 1 - F; the grid is graded toward
    # zero so cdfs with unbounded slope at the origin still converge
    grid = np.linspace(0.0, 1.0, 200_001) ** 2
    oracle = np.trapezoid(1.0 - np.asarray(prior.cdf(grid)), grid)
    assert prior.mean() == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: repr(p))
def test_full_interval_moments_match_mean(prior):
    for n in (2, 3, 7):
        tm = prior.truncated_moments(0.0, 1.0, n)
        assert tm.mass == pytest.approx(1.0, abs=1e-12)
        assert tm.mu_tilde == pytest.approx(prior.mean(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=0.98),
    width=st.floats(min_value=1e-6, max_value=1.0),
    n=st.integers(min_value=2, max_value=9),
    idx=st.integers(min_value=0, max_value=len(ALL_PRIORS) - 1),
)
def test_truncated_moment_bounds(a, width, n, idx):
    prior = ALL_PRIORS[idx]
    b = min(a + width, 1.0)
    if b <= a:
        return
    tm = prior.truncated_moments(a, b, n)
    assert 0.0 <= tm.mass <= 1.0
    assert a - 1e-12 <= tm.mu_tilde <= b + 1e-12
    lo = float(prior.cdf(a)) ** (n - 1)
    hi = float(prior.cdf(b)) ** (n - 1)
    assert lo - 1e-12 <= tm.eta_tilde <= hi + 1e-12


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: repr(p))
def test_cum_pow_cdf_matches_quadrature(prior):
    grid = np.linspace(0.0, 1.0, 100_001) ** 2
    for k in (1, 3):
        oracle = np.trapezoid(np.asarray(prior.cdf(grid)) ** k, grid)
        assert float(prior.cum_pow_cdf(1.0, k)) == pytest.approx(oracle, abs=1e-9)


def test_piecewise_validation():
    with pytest.raises(DomainError):
        PiecewiseLinearPrior(knots=((0.0, 0.0), (1.0, 1.0)))  # too few knots
    with pytest.raises(DomainError):
        PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.5), (0.4, 0.7), (1.0, 1.0)))
    with pytest.raises(DomainError):
        PiecewiseLinearPrior(knots=((0.0, 0.1), (0.5, 0.5), (1.0, 1.0)))
    with pytest.raises(DomainError):
        PowerPrior(a=0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: PiecewiseLinearPrior(knots=((0.0, 0.0), (x, 0.5), (1.0, 1.0))),
        lambda x: DiscreteCosts(points=((0.05, 0.5), (x, 0.25), (0.1, 0.25))),
        lambda x: ContinuousCosts(knots=((0.05, 0.0), (x, 0.5), (0.1, 1.0))),
    ],
    ids=["piecewise-prior", "discrete-costs", "continuous-costs"],
)
@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_constructors_reject_non_finite_numbers(make, x):
    # every ordering check passes a NaN, as every comparison with it is false
    with pytest.raises(DomainError, match="finite"):
        make(x)


def test_piecewise_views_are_cached():
    knots = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))
    prior = PiecewiseLinearPrior(knots=knots)
    assert prior._slopes is prior._slopes
    assert prior._xs is prior._xs and prior._qs is prior._qs
    twin = PiecewiseLinearPrior(knots=knots)
    # the cached views stay out of equality and hashing
    assert twin == prior and hash(twin) == hash(prior)


def test_json_round_trip():
    for prior in ALL_PRIORS:
        again = prior_from_json(prior.to_json_dict())
        assert again == prior
    assert prior_from_json({"family": "uniform"}) == UniformPrior()
    with pytest.raises(ConfigError):
        prior_from_json({"family": "cauchy"})
    with pytest.raises(ConfigError):
        prior_from_json({"family": "power"})


def _bits(pair) -> tuple[str, str]:
    return tuple(float(x).hex() for x in pair)


def _unit_points(knots=()):
    """Any v in [0, 1], with 0, 1, each knot and their float neighbours drawn often."""
    edges = [0.0, 1.0, *knots]
    near = [np.nextafter(x, t) for x in edges for t in (0.0, 1.0)]
    return st.one_of(
        st.sampled_from(edges + [float(x) for x in near]),
        st.floats(min_value=0.0, max_value=1.0),
    )


@st.composite
def _piecewise_and_point(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    xs = sorted(draw(st.sets(st.floats(min_value=0.01, max_value=0.99), min_size=k, max_size=k)))
    qs = sorted(draw(st.sets(st.floats(min_value=0.01, max_value=0.99), min_size=k, max_size=k)))
    prior = PiecewiseLinearPrior(knots=((0.0, 0.0), *zip(xs, qs), (1.0, 1.0)))
    return prior, draw(_unit_points(xs))


@settings(max_examples=200, deadline=None)
@given(v=_unit_points())
def test_cdf_cum_is_cdf_and_cum_cdf_uniform(v):
    prior = UniformPrior()
    assert _bits(prior.cdf_cum(v)) == _bits((prior.cdf(v), prior.cum_pow_cdf(v, 1)))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=0.25, max_value=8.0), v=_unit_points())
def test_cdf_cum_is_cdf_and_cum_cdf_power(a, v):
    prior = PowerPrior(a=a)
    assert _bits(prior.cdf_cum(v)) == _bits((prior.cdf(v), prior.cum_pow_cdf(v, 1)))


@settings(max_examples=200, deadline=None)
@given(case=_piecewise_and_point())
def test_cdf_cum_is_cdf_and_cum_cdf_piecewise(case):
    prior, v = case
    assert _bits(prior.cdf_cum(v)) == _bits((prior.cdf(v), prior.cum_pow_cdf(v, 1)))


def test_uniform_integral_of_f_is_half_v_squared_bitwise():
    # the draws where, as Python floats, libm's pow gives v ** 2 / 2 a last
    # bit other than 0.5 * v * v, the form every pinned output rests on
    draws = [x for x in np.random.default_rng(0).random(20_000).tolist() if x**2 / 2 != 0.5 * x * x]
    assert len(draws) == 14
    prior = UniformPrior()
    full = full_disclosure_distribution(prior)
    for x in draws:
        want = (0.5 * x * x).hex()
        assert float(prior.cum_pow_cdf(x, 1)).hex() == want
        assert float(prior.cdf_cum(x)[1]).hex() == want
        assert float(full.cum_integral(x)).hex() == want


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: repr(p))
@pytest.mark.parametrize("v", [-0.1, -5e-324, 1.0000000000000002, 1.5, float("nan")])
def test_cdf_cum_domain_error_matches_cdf(prior, v):
    with pytest.raises(DomainError) as via_cdf:
        prior.cdf(v)
    with pytest.raises(DomainError) as via_cdf_cum:
        prior.cdf_cum(v)
    assert str(via_cdf_cum.value) == str(via_cdf.value)


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: repr(p))
@pytest.mark.parametrize("method", ["cdf", "quantile"])
def test_array_reads_reject_nan_as_scalar_reads_do(prior, method):
    # NaN fails both x.min() >= 0 and x.max() <= 1, on every family
    read = getattr(prior, method)
    with pytest.raises(DomainError):
        read(float("nan"))
    for x in (np.array([0.2, np.nan]), np.array([np.nan, 0.2]), np.array([[0.1], [np.nan]]), np.array(np.nan)):
        with pytest.raises(DomainError, match="must lie in"):
            read(x)
    assert read(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


def test_power_convexity_admits_the_domain_edge_and_nothing_below():
    # a = 1/(n-1) gives a*(n-1) = 1 - 2**-53 for 505 of these n: the
    # ledger's CONVEXITY_SLACK admits them, and a relative 1e-9 below is out
    rounded = 0
    for n in range(2, 4097):
        rounded += (1.0 / (n - 1)) * (n - 1) < 1.0
        assert PowerPrior(1.0 / (n - 1)).check_convexity(n)
        assert not PowerPrior((1.0 - 1e-9) / (n - 1)).check_convexity(n)
    assert rounded == 505


def test_pow_cdf_deriv_at_a_zero_exponent_is_the_constant_bitwise():
    # where F**(n-1) is linear (uniform at n = 2, power with a (n - 1) = 1)
    # the general formula gives the constant slope to the bit, 0 and 1 included
    points = np.concatenate([[0.0, 5e-324, 1e-300, 0.3, 1.0], np.random.default_rng(0).random(10_000)])
    for v in points.tolist():
        got = UniformPrior().pow_cdf_deriv(v, 2)
        assert type(got) is float and got == 1.0
    linear = [(a, n) for n in range(2, 10_000) for a in (1.0 / (n - 1),) if a * (n - 1) - 1.0 == 0.0]
    assert len(linear) > 8_000
    for a, n in linear + [(0.5, 3), (0.25, 5)]:
        for v in (0.0, 0.3, 1.0):
            assert PowerPrior(a=a).pow_cdf_deriv(v, n) == a * (n - 1)


def test_piecewise_pow_cdf_deriv_at_n_2_is_the_density_bitwise():
    # at n = 2 the general formula is 1 * F**0 * density, the density to the
    # bit, at the knots (right-continuous), 0, 1 and points inside
    rng = np.random.default_rng(48)
    checked = 0
    for _ in range(3_000):
        k = int(rng.integers(1, 6))
        xs = np.sort(rng.uniform(0.0, 1.0, k)).tolist()
        qs = np.sort(rng.uniform(0.0, 1.0, k)).tolist()
        if len(set(xs)) < k or len(set(qs)) < k or 0.0 in xs + qs:
            continue
        prior = PiecewiseLinearPrior(((0.0, 0.0),) + tuple(zip(xs, qs)) + ((1.0, 1.0),))
        for v in [0.0, 1.0] + xs + rng.random(5).tolist():
            i = min(max(bisect.bisect_right(prior._xs, v) - 1, 0), len(prior._xs) - 2)
            density = (prior._qs[i + 1] - prior._qs[i]) / (prior._xs[i + 1] - prior._xs[i])
            got = prior.pow_cdf_deriv(v, 2)
            assert type(got) is float and got == density, (prior, v)
            checked += 1
    assert checked > 20_000
