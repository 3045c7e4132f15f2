import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumtails import transforms
from sumtails.errors import ConfigurationError, DomainError
from sumtails.norming import NormingPair, build_function_pair, power_pair
from sumtails.sources import (
    _BUDGET_ELEMENTS,
    STREAM_GAMMA,
    StreamKey,
    _require_stream,
    draw,
    pareto_one_sided,
    point_mass,
    rademacher,
    shifted,
    stable_symmetric,
    truncated_mean,
    uniform_ball,
)
from sumtails.space import SpaceSpec, norm, norms
from sumtails.transforms import gamma_n, rescale_factors

KEY = StreamKey(555)

SQRT_PAIR = build_function_pair(power_pair(16, 0.5, 1.0))


def event_identity(arr, fp, space, n):
    """Whether 1{||v|| <= b_n} equals 1{||T(v)|| <= a_n} for each vector v of arr.

    Exact arithmetic makes the two indicators identical.  In floats a
    norm within 1e-9 (relative) of its boundary gets one shared
    decision, <=, on both sides at once, so rounding at the boundary
    can never split the indicators.
    """
    a_n, b_n = fp.pair.at(n)
    nv = norms(arr, space)
    nt = nv * rescale_factors(nv, fp)
    near = (np.abs(nv - b_n) <= 1e-9 * b_n) | (np.abs(nt - a_n) <= 1e-9 * a_n)
    return near | ((nv <= b_n) == (nt <= a_n))


def test_rescale_hand_example():
    # b_k = k and a_k = sqrt(k): a vector of norm 4 lands on norm 2
    v = np.array([[4.0], [-4.0], [0.0]])
    assert (v * rescale_factors(norms(v, SpaceSpec(1)), SQRT_PAIR)[:, None]).tolist() == [[2.0], [-2.0], [0.0]]


def test_rescale_knots_exact_dim1():
    # phi(psi_inverse(b_k)) is a_k exactly, so the multiplier is the rounded a_k / b_k
    b = SQRT_PAIR.pair.b
    assert np.array_equal(rescale_factors(norms(b[:, None], SpaceSpec(1)), SQRT_PAIR), SQRT_PAIR.pair.a / b)


def test_rescale_direction_preserved():
    space = SpaceSpec(3, 2)
    v = np.array([3.0, 0.0, 4.0])  # norm 5
    out = v * rescale_factors(norms(v, space), SQRT_PAIR)
    assert norm(out, space) == pytest.approx(SQRT_PAIR.phi(5.0), rel=1e-12)
    assert out / norm(out, space) == pytest.approx(v / 5.0, rel=1e-12)


def test_rescale_factors_basics():
    s = np.array([0.0, 1.0, 4.0, 16.0])
    f = rescale_factors(s, SQRT_PAIR)
    assert f[0] == 0.0
    assert f[1] == 1.0
    assert f[2] == 0.5
    assert f[3] == 0.25
    # past psi(N) the last segment continues linearly
    slope_a = SQRT_PAIR.a_grid[-1] - SQRT_PAIR.a_grid[-2]
    ext = SQRT_PAIR.a_grid[-1] + 4.0 * slope_a
    assert rescale_factors(np.array([20.0]), SQRT_PAIR)[0] == pytest.approx(ext / 20.0, rel=1e-14)


def test_rescale_factors_at_infinity_take_the_limit():
    # an overflowed norm keeps the continuation's limiting ratio s_a / s_b
    a, b = SQRT_PAIR.a_grid, SQRT_PAIR.b_grid
    ratio = (a[-1] - a[-2]) / (b[-1] - b[-2])
    assert SQRT_PAIR.slope_ratio == ratio
    f = rescale_factors(np.array([math.inf, 4.0, 1e300, 0.0]), SQRT_PAIR)
    assert f[0] == ratio and f[1] == 0.5 and f[3] == 0.0
    assert f[2] == pytest.approx(ratio, rel=1e-12)
    space = SpaceSpec(2, 2)
    v = np.array([[math.inf, 1.0]])
    assert np.isposinf(norms(v * rescale_factors(norms(v, space), SQRT_PAIR)[:, None], space)[0])


def test_rescale_batch_matches_scalar():
    # on (0, b_N] the segment maps are np.interp's arithmetic, so the batched
    # multipliers equal np.interp's maps composed point by point, bit for bit
    rng = np.random.default_rng(0)
    a = np.cumsum(rng.uniform(0.1, 1.0, 32))
    fp = build_function_pair(NormingPair(a=a, b=a * (np.cumsum(rng.uniform(0.0, 0.3, 32)) + 1.0)))
    s = np.concatenate((rng.uniform(0.0, fp.b_grid[-1], 4000), fp.b_grid[1:], [5e-324]))
    oracle = np.interp(np.interp(s, fp.b_grid, fp.knots), fp.knots, fp.a_grid) / s
    assert np.array_equal(rescale_factors(s, fp), oracle)


def test_rescale_norm_monotone():
    s = np.linspace(0.0, 16.0, 2000)
    out = s * rescale_factors(s, SQRT_PAIR)
    assert np.all(np.diff(out) >= -1e-12)


def test_event_identity_interior():
    for s in (3.5, 4.5, 0.0):
        assert event_identity(np.array([[s]]), SQRT_PAIR, SpaceSpec(1), 4).all()


def test_event_identity_near_boundary():
    # norms straddling b_n by tiny margins never split the indicators
    b_n = SQRT_PAIR.pair.at(4)[1]
    for eps in (0.0, 1e-15, 1e-12, 1e-10, 1e-8, 1e-4):
        for s in (b_n * (1 + eps), b_n * (1 - eps)):
            assert event_identity(np.array([[s]]), SQRT_PAIR, SpaceSpec(1), 4).all(), (s, eps)


def test_gamma_symmetric_is_zero():
    d = stable_symmetric(1.3)
    assert gamma_n(d, 2.0, 100).tolist() == [0.0]


def test_gamma_point_mass():
    d = point_mass([3.0, 4.0], space=SpaceSpec(2, 2))
    assert gamma_n(d, 5.0, 7).tolist() == [21.0, 28.0]
    assert gamma_n(d, 4.9, 7).tolist() == [0.0, 0.0]
    # a grid gives one row per point, each the scalar value
    assert gamma_n(d, [4.9, 5.0], [7, 8]).tolist() == [[0.0, 0.0], [24.0, 32.0]]


def test_gamma_pareto_linear_growth():
    # alpha = 2, b_n = n: n * E[X 1{X <= n}] = n * 2(1 - 1/n) = 2n - 2
    d = pareto_one_sided(2.0)
    for n in (2, 5, 50, 1000):
        assert gamma_n(d, float(n), n)[0] == pytest.approx(2.0 * n - 2.0, rel=1e-12)


def test_gamma_monte_carlo_matches_analytic():
    d = pareto_one_sided(3.0)
    exact = gamma_n(d, 5.0, 10)[0]
    mc = gamma_n(d, 5.0, 10, mode="monte_carlo", R=200_000, key=KEY)[0]
    # sd of X 1{X <= 5} is about 0.57, so 10x the mean has se ~ 0.013
    assert mc == pytest.approx(exact, abs=0.06)


def test_gamma_errors():
    d = shifted(stable_symmetric(1.5), [1.0])
    with pytest.raises(ConfigurationError, match="monte_carlo"):
        gamma_n(d, 2.0, 5)
    with pytest.raises(ConfigurationError):
        gamma_n(pareto_one_sided(2.0), 2.0, 0)
    with pytest.raises(ConfigurationError):
        gamma_n(d, 2.0, 5, mode="quadrature")
    with pytest.raises(ConfigurationError, match="1-d grids of one length"):
        gamma_n(pareto_one_sided(2.0), [1.0, 2.0], [1, 2, 3])


def test_gamma_monte_carlo_states_the_one_stream_rule():
    # gamma_n raises what every Monte Carlo checker raises, from the one rule in sources
    d = shifted(stable_symmetric(1.5), [1.0])
    for R, key in ((50, KEY), (99, KEY), (None, KEY), (1000, None), (None, None)):
        with pytest.raises(ConfigurationError) as got:
            gamma_n(d, 2.0, 5, mode="monte_carlo", R=R, key=key)
        with pytest.raises(ConfigurationError) as shared:
            _require_stream(R, key)
        assert str(got.value) == str(shared.value)
    with pytest.raises(ConfigurationError, match=r"^Monte Carlo needs R >= 100, got 50$"):
        gamma_n(d, 2.0, 5, mode="monte_carlo", R=50, key=KEY)
    with pytest.raises(ConfigurationError, match=r"^Monte Carlo needs a StreamKey$"):
        gamma_n(d, 2.0, 5, mode="monte_carlo", R=1000, key=None)
    assert gamma_n(d, 2.0, 5, mode="monte_carlo", R=100, key=KEY).shape == (1,)


def test_gamma_grid_counts_a_tie_inside_and_sums_exactly():
    # every norm is 1: outside b = 0.5, inside b = 1.0 (the tie) and b = 2.0;
    # the partial sums of +-1 are exact, so the rows equal n * mean exactly
    d = rademacher()
    R = 1000
    mean = draw(d, KEY.substream(STREAM_GAMMA).generator(), R).mean(axis=0)
    assert mean[0] != 0.0
    ns = np.array([4, 8, 16])
    got = gamma_n(d, [0.5, 1.0, 2.0], ns, mode="monte_carlo", R=R, key=KEY)
    assert got.shape == (3, 1)
    assert got.tolist() == [[0.0], (8 * mean).tolist(), (16 * mean).tolist()]
    # a scalar call is the same kernel on a grid of one
    assert gamma_n(d, 1.0, 8, mode="monte_carlo", R=R, key=KEY).tolist() == (8 * mean).tolist()


@pytest.mark.parametrize(
    "d, b",
    [
        (pareto_one_sided(1.5), [1.5, 2.0, 4.0, 16.0, 64.0, 1024.0]),
        (shifted(uniform_ball(1.0), [0.25]), [0.1, 0.5, 0.75, 1.0, 1.25, 3.0]),
    ],
)
def test_gamma_grid_matches_the_truncated_mean(d, b):
    # one draw serves the whole grid; each row lies within 5 of its own sample's
    # standard errors of the closed form, so a false alarm anywhere on the 6 rows
    # has probability below 6 * 5.8e-7 (Bonferroni)
    R = 200_000
    ns = np.arange(1, len(b) + 1) * 10
    got = gamma_n(d, b, ns, mode="monte_carlo", R=R, key=KEY)
    x = draw(d, KEY.substream(STREAM_GAMMA).generator(), R)[:, 0]
    for i, (t, n) in enumerate(zip(b, ns)):
        kept = np.where(np.abs(x) <= t, x, 0.0)
        se = n * kept.std(ddof=1) / math.sqrt(R)
        exact = n * truncated_mean(d, t)[0]
        assert abs(got[i, 0] - exact) <= 5.0 * se


def _one_draw_gamma(d, b, ns, R):
    """gamma_n's Monte Carlo rows from one draw of all R vectors, binned as gamma_n bins."""
    x = draw(d, KEY.substream(STREAM_GAMMA).generator(), R)
    bins = np.searchsorted(b, norms(x, d.space), side="left")
    partial = np.empty((len(b), d.space.dim))
    for j in range(d.space.dim):
        partial[:, j] = np.bincount(bins, weights=x[:, j], minlength=len(b) + 1)[:-1]
    return np.asarray(ns)[:, None] * np.cumsum(partial, axis=0) / R


def test_gamma_draws_in_budgeted_chunks():
    # pareto_one_sided takes all its vectors from one generator call, so successive
    # draws replay one draw of all R: within one draw the rows equal the one-draw
    # rows bit for bit, and over three draws they differ only in the order of the
    # additions, within 1e-12 of exactly rounded sums
    d = pareto_one_sided(1.5, SpaceSpec(2, 2.0), "iid_coordinates")
    b, ns = [2.0, 8.0, 64.0], np.array([2, 8, 64])
    step = _BUDGET_ELEMENTS // 2
    one = gamma_n(d, b, ns, mode="monte_carlo", R=step, key=KEY)
    assert one.tolist() == _one_draw_gamma(d, b, ns, step).tolist()
    R = 2 * step + 1234
    got = gamma_n(d, b, ns, mode="monte_carlo", R=R, key=KEY)
    x = draw(d, KEY.substream(STREAM_GAMMA).generator(), R)
    nx = norms(x, d.space)
    for i, (t, n) in enumerate(zip(b, ns)):
        for j in range(2):
            assert got[i, j] == pytest.approx(n * math.fsum(x[nx <= t, j]) / R, rel=1e-12, abs=0.0)


def _patched_draw(monkeypatch, values):
    x = np.asarray(values, dtype=float)[:, None]
    monkeypatch.setattr(transforms, "draw", lambda d, rng, R: x.copy())


def test_gamma_refuses_a_nan_draw(monkeypatch):
    _patched_draw(monkeypatch, [0.5] * 99 + [math.nan])
    for b, n in ((2.0, 2), ([1.0, 2.0], [1, 2])):
        with pytest.raises(DomainError, match=r"^gamma_n: 1 of 100 Monte Carlo statistics are NaN"):
            gamma_n(pareto_one_sided(1.5), b, n, mode="monte_carlo", R=100, key=KEY)


def test_gamma_counts_nans_over_every_draw(monkeypatch):
    # a clean first draw, then one NaN in each later draw: the refusal counts
    # the NaNs of all R vectors, not those of the first draw that has one
    step = _BUDGET_ELEMENTS
    calls = []

    def fake_draw(d, rng, size):
        x = np.full((size, 1), 0.5)
        if calls:
            x[-1, 0] = math.nan
        calls.append(size)
        return x

    monkeypatch.setattr(transforms, "draw", fake_draw)
    R = 2 * step + 10
    with pytest.raises(DomainError, match=rf"^gamma_n: 2 of {R} Monte Carlo statistics are NaN"):
        gamma_n(pareto_one_sided(1.5), 2.0, 2, mode="monte_carlo", R=R, key=KEY)
    assert calls == [step, step, 10]


def test_gamma_excludes_an_infinite_draw(monkeypatch):
    # the finite draws are multiples of 1/4, so every partial sum is exact
    finite = [0.25 * (k % 9) for k in range(98)]
    _patched_draw(monkeypatch, finite + [math.inf, -math.inf])
    got = gamma_n(pareto_one_sided(1.5), [1.0, 2.0], [1, 2], mode="monte_carlo", R=100, key=KEY)
    want = [[sum(v for v in finite if v <= t) * n / 100] for t, n in ((1.0, 1), (2.0, 2))]
    assert got.tolist() == want
    assert gamma_n(pareto_one_sided(1.5), 2.0, 2, mode="monte_carlo", R=100, key=KEY).tolist() == want[1]


@pytest.mark.parametrize("b", [[1.0, 1.0], [2.0, 1.0], [1.0, math.nan]])
def test_gamma_refuses_a_grid_that_does_not_increase(b):
    for mode in ("analytic", "monte_carlo"):
        with pytest.raises(ConfigurationError, match=r"^b_n must be strictly increasing$"):
            gamma_n(pareto_one_sided(2.0), b, [1, 2], mode=mode, R=1000, key=KEY)


def test_gamma_monte_carlo_reproducible():
    d = shifted(uniform_ball(1.0), [0.5])
    a = gamma_n(d, 1.2, 3, mode="monte_carlo", R=1000, key=KEY)
    b = gamma_n(d, 1.2, 3, mode="monte_carlo", R=1000, key=KEY)
    assert a.tolist() == b.tolist()


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=16.0),
    st.floats(min_value=0.0, max_value=16.0),
)
def test_rescale_preserves_norm_order(s1, s2):
    lo, hi = sorted((s1, s2))
    out = np.array([lo, hi]) * rescale_factors(np.array([lo, hi]), SQRT_PAIR)
    assert out[0] <= out[1] + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_event_identity_random_batches(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    space = SpaceSpec(int(rng.integers(1, 4)), float(rng.choice([1.0, 2.0])))
    arr = rng.standard_cauchy((256, space.dim)) * rng.uniform(0.1, 4.0)
    assert np.all(event_identity(arr, SQRT_PAIR, space, n))
