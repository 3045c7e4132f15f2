import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from sumtails.errors import ConfigurationError, DomainError
from sumtails.norming import (
    NormingPair,
    build_function_pair,
    check_ratio_monotone,
    power_pair,
)
from sumtails.norming import _interp_extend


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
    with pytest.raises(DomainError):
        fp.ratio(-2.0)


def test_ratio_limit_at_zero():
    fp = build_function_pair(NormingPair(a=[2.0, 3.0], b=[5.0, 9.0]))
    # near 0 both functions are linear, so the ratio is constant b1/a1
    assert fp.ratio(0.0) == 2.5
    assert fp.ratio(1e-9) == pytest.approx(2.5, rel=1e-12)
    assert fp.ratio(1.0) == 2.5


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
    ratios = fp.ratio(ts)
    assert np.all(np.diff(ratios) >= -1e-9 * np.max(ratios))
