import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from sumtails.errors import ConfigurationError, DomainError
from sumtails.norming import (
    FunctionPair,
    NormingPair,
    build_function_pair,
    check_ratio_monotone,
    power_pair,
)
from sumtails.transforms import rescale_factors


def _interp_extend(t, xs, ys):
    # the reference: np.interp, then the last segment continued past the
    # last knot, computed only on the entries out there
    out = np.interp(t, xs, ys)
    last = xs[-1]
    over = t > last
    if np.any(over):
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        if out.ndim == 0:
            return ys[-1] + (t - last) * slope
        out[over] = ys[-1] + (t[over] - last) * slope
    return out


def _warned(f, *args):
    # f's result and the RuntimeWarnings it raised; numpy words an
    # operation on a 0-d array as a "scalar" one, which is the same event
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, {str(w.message).replace("scalar ", "") for w in caught if issubclass(w.category, RuntimeWarning)}


def random_valid_pair(rng, n):
    # a strictly increasing positive; b = a * (nondecreasing positive ratio)
    a = np.cumsum(rng.uniform(0.05, 1.0, n))
    ratio = np.cumsum(rng.uniform(0.0, 0.4, n)) + rng.uniform(0.5, 2.0)
    return NormingPair(a=a, b=a * ratio)


def test_pair_validation():
    NormingPair(a=[1.0, 2.0], b=[1.0, 3.0])
    with pytest.raises(DomainError, match="strictly increasing"):
        NormingPair(a=[1.0, 1.0], b=[1.0, 2.0])
    with pytest.raises(DomainError, match="positive"):
        NormingPair(a=[0.0, 1.0], b=[1.0, 2.0])
    with pytest.raises(DomainError, match="length"):
        NormingPair(a=[1.0, 2.0], b=[1.0])
    with pytest.raises(DomainError):
        NormingPair(a=[1.0, np.inf], b=[1.0, 2.0])


@pytest.mark.parametrize(
    "close, message",
    [
        ([1e-310, 2e-310], r"{0}\[1\] = 1e-310 lies too close to 0:"),
        ([2e-300, 2e-300 + 1e-309], r"{0}\[2\] = .* lies too close to {0}\[1\] = 2e-300:"),
    ],
)
def test_pair_with_an_overflowing_inverse_slope_is_refused(close, message):
    # a gap below 2^-1024 has no finite reciprocal, so the inverse map
    # would compute inf * 0 = NaN at the knots; the check raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message.format("a") + " the inverse slope over that gap overflows"):
            NormingPair(a=close, b=[3.0, 4.0])
        with pytest.raises(DomainError, match=message.format("b")):
            NormingPair(a=[3.0, 4.0], b=close)


def test_violating_index_is_named():
    with pytest.raises(DomainError, match=r"a\[3\]"):
        NormingPair(a=[1.0, 2.0, 1.5], b=[1.0, 2.0, 3.0])


def test_index_rule():
    pair = power_pair(4, 0.5, 1.0)
    assert pair.at(1) == (1.0, 1.0)
    assert pair.at(4) == (2.0, 4.0)
    for n in (0, -1, 5):
        with pytest.raises(ConfigurationError) as info:
            pair.at(n)
        assert str(info.value) == f"n must lie in [1, 4] (N is the norming pair length), got {n}"


def test_ratio_monotone_check():
    assert check_ratio_monotone(NormingPair(a=[1.0, 2.0], b=[1.0, 4.0]))
    assert not check_ratio_monotone(NormingPair(a=[1.0, 4.0], b=[1.0, 2.0]))
    # constant ratio passes despite float jitter
    n = np.arange(1.0, 200.0)
    assert check_ratio_monotone(NormingPair(a=n ** (1 / 3), b=7.0 * n ** (1 / 3)))


def test_power_pair():
    pair = power_pair(4, 0.5, 1.0)
    assert pair.a.tolist() == [1.0, 2**0.5, 3**0.5, 2.0]
    assert pair.b.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ConfigurationError):
        power_pair(0, 1.0)
    with pytest.raises(ConfigurationError):
        power_pair(4, -1.0)


def test_knot_values_exact():
    rng = np.random.default_rng(1)
    pair = random_valid_pair(rng, 40)
    fp = build_function_pair(pair)
    for n in range(1, 41):
        assert fp.phi(float(n)) == pair.a[n - 1]
        assert fp.psi(float(n)) == pair.b[n - 1]
    assert fp.phi(0.0) == 0.0 and fp.psi(0.0) == 0.0


def test_function_pair_grids_come_from_its_pair():
    # grids passed beside the pair could disagree with it, and slope_ratio,
    # the continuation check and rescale_factors each read different data
    pair = power_pair(6, 0.5, 1.0)
    fp = FunctionPair(pair)
    assert np.array_equal(fp.knots, np.arange(7.0))
    assert np.array_equal(fp.a_grid, np.concatenate(([0.0], pair.a)))
    assert np.array_equal(fp.b_grid, np.concatenate(([0.0], pair.b)))
    assert build_function_pair(pair).slope_ratio == fp.slope_ratio
    with pytest.raises(TypeError):
        FunctionPair(pair, knots=np.arange(7.0), a_grid=fp.a_grid, b_grid=2 * fp.b_grid)


def test_interpolation_example():
    # a_n = 2n: phi is t -> 2t on [0, N], so phi(1.25) = 2.5
    n = np.arange(1.0, 9.0)
    fp = build_function_pair(NormingPair(a=2 * n, b=4 * n))
    assert fp.phi(1.25) == 2.5
    assert fp.psi(1.25) == 5.0
    assert fp.phi_inverse(2.5) == 1.25
    assert fp.psi_inverse(5.0) == 1.25


def test_linear_extension_past_last_knot():
    fp = build_function_pair(NormingPair(a=[1.0, 3.0], b=[2.0, 5.0]))
    # final segment slope: a jumps by 2, b by 3 per unit
    assert fp.phi(4.0) == 3.0 + 2.0 * 2.0
    assert fp.psi(3.5) == 5.0 + 1.5 * 3.0
    assert fp.psi_inverse(9.5) == 3.5
    assert fp.phi_inverse(7.0) == 4.0


def test_slope_ratio_is_the_rescale_limit():
    fp = build_function_pair(NormingPair(a=[1.0, 3.0], b=[2.0, 5.0]))
    assert fp.slope_ratio == 2.0 / 3.0
    assert fp.phi(fp.psi_inverse(1e12)) / 1e12 == pytest.approx(2.0 / 3.0, rel=1e-11)
    # one knot: the continuation is the segment from the origin
    assert build_function_pair(NormingPair(a=[1.5], b=[4.0])).slope_ratio == 1.5 / 4.0


def test_interp_extend_matches_the_full_array_continuation():
    # the continuation, written only where t lies past the last knot, equals
    # np.where over the whole array bit for bit at any mix of points
    rng = np.random.default_rng(4)
    xs = np.arange(0.0, 17.0)
    ys = np.concatenate(([0.0], np.sqrt(np.arange(1.0, 17.0))))
    edges = [0.0, 16.0, np.nextafter(16.0, 17.0), np.inf]
    t = np.concatenate((rng.uniform(0, 16, 300), rng.uniform(16, 1e4, 30), edges))
    rng.shuffle(t)
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    want = np.where(t > xs[-1], ys[-1] + (t - xs[-1]) * slope, np.interp(t, xs, ys))
    assert np.array_equal(_interp_extend(t, xs, ys), want)
    assert np.array_equal(_interp_extend(t.reshape(2, 167), xs, ys), want.reshape(2, 167))
    inside = t <= xs[-1]
    assert np.array_equal(_interp_extend(t[inside], xs, ys), want[inside])
    for i in (np.flatnonzero(inside)[0], np.flatnonzero(~inside)[0]):
        assert _interp_extend(np.asarray(t[i]), xs, ys) == want[i]


# power pairs take the integer locator on the knots 0..N and on b_n = n,
# and np.searchsorted on a_n = n^(1/2), n^(1/3), b_n = n^(2/3) and on the
# doubling grid b_n = 2^n
SEGMENT_PAIRS = {
    "sqrt": power_pair(256, 0.5, 1.0),
    "identity": power_pair(256, 1.0, 1.0),
    "cube_root": power_pair(256, 1.0 / 3.0, 2.0 / 3.0),
    "one_knot": power_pair(1, 0.5, 1.0),
    "doubling": NormingPair(a=2.0 ** np.arange(1, 61) / 3.0, b=2.0 ** np.arange(1, 61)),
}


def _maps(fp):
    return {
        "phi": (fp.phi, fp.knots, fp.a_grid),
        "psi": (fp.psi, fp.knots, fp.b_grid),
        "phi_inverse": (fp.phi_inverse, fp.a_grid, fp.knots),
        "psi_inverse": (fp.psi_inverse, fp.b_grid, fp.knots),
    }


def test_locators_cover_every_path():
    maps = {name: build_function_pair(pair)._maps for name, pair in SEGMENT_PAIRS.items()}
    assert all(maps[name][m].integer_knots for name in maps for m in ("phi", "psi"))
    assert maps["sqrt"]["psi_inverse"].integer_knots and maps["identity"]["phi_inverse"].integer_knots
    assert not maps["sqrt"]["phi_inverse"].integer_knots
    assert not maps["cube_root"]["phi_inverse"].integer_knots and not maps["cube_root"]["psi_inverse"].integer_knots
    assert not maps["doubling"]["phi_inverse"].integer_knots and not maps["doubling"]["psi_inverse"].integer_knots


@pytest.mark.parametrize("name", sorted(SEGMENT_PAIRS))
def test_maps_equal_np_interp_bit_for_bit(name):
    rng = np.random.default_rng(11)
    fp = build_function_pair(SEGMENT_PAIRS[name])
    for method, (f, xs, ys) in _maps(fp).items():
        top = xs[-1]
        edges = [0.0, -0.0, top, np.nextafter(top, np.inf), 1e300, np.inf, np.nan]
        t = np.concatenate(
            (xs, (xs[1:] + xs[:-1]) / 2, np.nextafter(xs, np.inf), rng.uniform(0.0, 1.25 * top, 10**4), edges)
        )
        got, got_warned = _warned(f, t)
        want, want_warned = _warned(_interp_extend, t, xs, ys)
        assert np.array_equal(got, want, equal_nan=True), method
        assert got_warned <= want_warned, method
        # a 2-d strided view maps elementwise too
        half = t.size // 2
        grid = t[: 2 * half].reshape(2, half).T
        assert np.array_equal(_warned(f, grid)[0], want[: 2 * half].reshape(2, half).T, equal_nan=True), method
        for x in (0.0, -0.0, top, float(xs[-1] / 3), 1e300, np.inf):
            value, value_warned = _warned(f, x)
            assert isinstance(value, float)
            expect, expect_warned = _warned(_interp_extend, np.asarray(x), xs, ys)
            assert value == expect and value_warned <= expect_warned, (method, x)


@pytest.mark.parametrize("name", sorted(SEGMENT_PAIRS))
def test_rescale_factors_equal_the_np_interp_composition(name):
    # 2 * 10^5 norms run through several slices; 0 maps to 0 and an
    # infinite norm to the continuation's limit
    fp = build_function_pair(SEGMENT_PAIRS[name])
    s = np.abs(np.random.default_rng(12).standard_cauchy(2 * 10**5)) * fp.b_grid[-1] / 8.0
    s[:6] = [0.0, -0.0, fp.b_grid[-1], fp.b_grid[1], 1e300, np.inf]
    mapped = _interp_extend(_interp_extend(s, fp.b_grid, fp.knots), fp.knots, fp.a_grid)
    want = np.zeros(s.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        np.divide(mapped, s, out=want, where=s > 0.0)
    want[s == np.inf] = fp.slope_ratio
    got, got_warned = _warned(rescale_factors, s, fp)
    assert np.array_equal(got, want)
    assert np.array_equal(rescale_factors(s.reshape(400, 500), fp), want.reshape(400, 500))
    assert got_warned <= _warned(_interp_extend, s, fp.b_grid, fp.knots)[1] | _warned(
        _interp_extend, mapped, fp.knots, fp.a_grid
    )[1]


def test_single_entry_pair():
    fp = build_function_pair(NormingPair(a=[2.0], b=[3.0]))
    assert fp.phi(1.0) == 2.0
    assert fp.phi(2.0) == 4.0
    assert fp.psi_inverse(6.0) == 2.0


def test_domain_errors():
    fp = build_function_pair(NormingPair(a=[1.0, 2.0], b=[1.0, 2.0]))
    with pytest.raises(DomainError):
        fp.phi(-0.5)
    with pytest.raises(DomainError):
        fp.psi_inverse(-1.0)


def test_ratio_limit_at_zero():
    fp = build_function_pair(NormingPair(a=[2.0, 3.0], b=[5.0, 9.0]))
    # on [0, 1] both functions are linear through 0, so psi / phi is b1/a1 there
    t = np.array([1e-9, 0.5, 1.0])
    assert fp.psi(t) / fp.phi(t) == pytest.approx(2.5, rel=1e-12)


def test_inverse_against_bisection_oracle():
    rng = np.random.default_rng(7)
    pair = random_valid_pair(rng, 30)
    fp = build_function_pair(pair)
    top = float(pair.b[-1])
    for s in rng.uniform(0.0, top, 50):
        t_oracle = brentq(lambda t: fp.psi(t) - s, 0.0, 30.0, xtol=1e-13)
        assert fp.psi_inverse(s) == pytest.approx(t_oracle, abs=1e-9)


def test_round_trip_relative_error():
    rng = np.random.default_rng(8)
    for _ in range(10):
        pair = random_valid_pair(rng, 64)
        fp = build_function_pair(pair)
        s = rng.uniform(0.0, float(pair.b[-1]), 200)
        back = fp.psi(fp.psi_inverse(s))
        assert np.all(np.abs(back - s) <= 1e-12 * np.maximum(s, 1e-300))
        t = rng.uniform(0.0, 64.0, 200)
        back_t = fp.psi_inverse(fp.psi(t))
        assert np.all(np.abs(back_t - t) <= 1e-12 * np.maximum(t, 1e-300))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**32 - 1))
def test_function_pair_properties(n, seed):
    rng = np.random.default_rng(seed)
    pair = random_valid_pair(rng, n)
    fp = build_function_pair(pair)
    ts = np.sort(rng.uniform(0.0, n + 3.0, 64))
    phis = fp.phi(ts)
    psis = fp.psi(ts)
    # strictly increasing interpolants, nondecreasing ratio
    assert np.all(np.diff(phis) >= 0)
    assert np.all(np.diff(psis) >= 0)
    ratios = psis[ts > 0] / phis[ts > 0]
    assert np.all(np.diff(ratios) >= -1e-9 * np.max(ratios))
