import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from sumtails.errors import ConfigurationError
from sumtails.sources import (
    DistributionSpec,
    StreamKey,
    draw,
    is_symmetric,
    pareto_one_sided,
    pareto_symmetric,
    point_mass,
    rademacher,
    sample,
    shifted,
    stable_symmetric,
    tail_prob,
    truncated_mean,
    uniform_ball,
    uniform_in_ball,
)
from sumtails.sources import _random_signs
from sumtails.space import SpaceSpec, norm, norms

KEY = StreamKey(20260815)


def test_stream_key_validation():
    with pytest.raises(ConfigurationError):
        StreamKey(-1)
    with pytest.raises(ConfigurationError):
        StreamKey(2**64)
    with pytest.raises(ConfigurationError):
        StreamKey(0, replication_index=2**48)
    with pytest.raises(ConfigurationError):
        StreamKey(0, draw_counter=2**16)
    StreamKey(2**64 - 1, 2**48 - 1, 2**16 - 1)


def test_stream_key_determinism():
    a = KEY.generator().random(8)
    b = KEY.generator().random(8)
    assert a.tolist() == b.tolist()


def test_distinct_streams_differ():
    base = KEY.generator().random(8)
    assert KEY.replication(1).generator().random(8).tolist() != base.tolist()
    assert KEY.substream(1).generator().random(8).tolist() != base.tolist()
    # replication index and draw counter occupy disjoint bit ranges
    assert (
        KEY.replication(1).generator().random(8).tolist()
        != KEY.substream(1).generator().random(8).tolist()
    )


def test_key_packing_convention():
    # the second 64-bit key word is (draw_counter << 48) | replication_index
    k = StreamKey(5, replication_index=3, draw_counter=2)
    direct = np.random.Generator(
        np.random.Philox(key=np.array([5, (2 << 48) | 3], dtype=np.uint64))
    )
    assert k.generator().random(4).tolist() == direct.random(4).tolist()


def test_addressing_is_order_independent():
    assert KEY.replication(7).substream(3) == KEY.substream(3).replication(7)


def test_child_of_a_replication_zero_key_is_that_replication():
    assert KEY.child(5) == KEY.replication(5)
    assert KEY.substream(3).child(5) == StreamKey(KEY.master_seed, 5, 3)
    assert KEY.child(0) == KEY


def test_children_of_distinct_parents_are_distinct():
    parents = [KEY, KEY.replication(1), KEY.replication(2), KEY.replication(1).substream(3)]
    children = [p.child(i) for p in parents for i in range(50)]
    assert len(set(children)) == len(children)
    # a nonzero parent's children are fresh replication-0 roots on its counter
    c = KEY.replication(1).substream(3).child(7)
    assert (c.replication_index, c.draw_counter) == (0, 3)
    assert c == KEY.replication(1).substream(3).child(7)
    with pytest.raises(ConfigurationError):
        KEY.replication(1).child(2**48)


@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (9,), (3, 5), (2, 3, 11)])
def test_random_signs_shape_and_values(shape):
    x = _random_signs(KEY.generator(), shape)
    assert x.shape == shape and x.dtype == np.float64
    assert np.all((x == 1.0) | (x == -1.0))


def test_random_signs_are_fair():
    x = _random_signs(KEY.replication(3).generator(), (1000, 1001))
    plus = int(np.count_nonzero(x > 0))
    assert stats.binomtest(plus, x.size).pvalue > 1e-3
    # neighbouring bits of one byte are independent
    agree = int(np.count_nonzero(x[:, 1:] == x[:, :-1]))
    assert stats.binomtest(agree, 1000 * 1000).pvalue > 1e-3


class _FixedUniforms:
    """A stand-in generator whose random() returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        return self.u.reshape(shape).copy()


def test_pareto_symmetric_from_one_uniform():
    # the top bit of u is the sign, the other 52 the magnitude's uniform
    half_ulp = 2.0**-53
    u = [0.0, 0.5, 0.75, 0.25, 0.5 - half_ulp, 1.0 - half_ulp]
    for alpha, expect in (
        (1.0, [-1.0, 1.0, 2.0, -2.0, -(2.0**52), 2.0**52]),
        (2.0, [-1.0, 1.0, 2.0**0.5, -(2.0**0.5), -(2.0**26), 2.0**26]),
    ):
        x = draw(pareto_symmetric(alpha), _FixedUniforms(u), len(u))[:, 0]
        assert x.tolist() == expect


def test_pareto_symmetric_tails_on_each_side():
    # P(X > t) = P(X < -t) = t**-alpha / 2 for t >= 1
    alpha = 1.3
    x = sample(pareto_symmetric(alpha), KEY.replication(50), 200_000)[:, 0]
    assert stats.binomtest(int(np.count_nonzero(x > 0)), x.size).pvalue > 1e-3
    for side in (x[x > 0], -x[x < 0]):
        res = stats.kstest(side, lambda t: np.where(t < 1, 0.0, 1.0 - t**-alpha))
        assert res.pvalue > 1e-3, res


def _directions(dim, q, key, count=100_000):
    # a radial random sign has norm 1, so its draws are the directions themselves
    return sample(rademacher(SpaceSpec(dim, q), lifting="radial"), key, count)


def test_l2_directions_have_uniform_coordinates():
    # Archimedes: each coordinate of a uniform point on the 2-sphere is Uniform[-1, 1]
    x = _directions(3, 2.0, KEY.replication(60))
    assert norms(x, SpaceSpec(3, 2.0)) == pytest.approx(np.ones(len(x)), rel=1e-14)
    for j in range(3):
        res = stats.kstest(x[:, j], stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert res.pvalue > 1e-3, (j, res)


def test_l1_directions_in_dim_2():
    # |x_1| = E_1 / (E_1 + E_2) is Uniform[0, 1], and the sign is fair
    x = _directions(2, 1.0, KEY.replication(61))
    res = stats.kstest(np.abs(x[:, 0]), stats.uniform.cdf)
    assert res.pvalue > 1e-3, res
    assert stats.binomtest(int(np.count_nonzero(x[:, 0] > 0)), len(x)).pvalue > 1e-3


def test_linf_directions_in_dim_2():
    # the smaller coordinate over the larger of two uniforms is Uniform[0, 1]
    x = _directions(2, math.inf, KEY.replication(62))
    res = stats.kstest(np.min(np.abs(x), axis=1), stats.uniform.cdf)
    assert res.pvalue > 1e-3, res


def test_spec_validation():
    with pytest.raises(ConfigurationError, match="kind"):
        DistributionSpec(kind="zeta", space=SpaceSpec(1, 2))
    with pytest.raises(ConfigurationError, match="lifting"):
        DistributionSpec(kind="rademacher", space=SpaceSpec(1, 2), lifting="diag")
    with pytest.raises(ConfigurationError, match="alpha"):
        pareto_symmetric(0.0)
    with pytest.raises(ConfigurationError):
        stable_symmetric(2.5)
    with pytest.raises(ConfigurationError):
        uniform_ball(-1.0)
    with pytest.raises(ConfigurationError, match="dim == 1"):
        rademacher(SpaceSpec(3, 2), lifting="scalar")
    with pytest.raises(ConfigurationError):
        point_mass([1.0], space=SpaceSpec(2, 2))
    with pytest.raises(ConfigurationError):
        shifted(rademacher(), [1.0, 2.0])


def test_sample_shapes():
    d = pareto_symmetric(2.0, SpaceSpec(3, 2), lifting="radial")
    x = sample(d, KEY, 10)
    assert x.shape == (10, 3)
    y = draw(d, KEY.generator(), (4, 5))
    assert y.shape == (4, 5, 3)
    with pytest.raises(ConfigurationError):
        sample(d, KEY, -1)


def test_rademacher_support():
    x = sample(rademacher(), KEY, 1000)[:, 0]
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_pareto_support():
    x = sample(pareto_one_sided(1.5), KEY, 1000)[:, 0]
    assert np.all(x >= 1.0)
    y = sample(pareto_symmetric(1.5), KEY, 1000)[:, 0]
    assert np.all(np.abs(y) >= 1.0)


def test_uniform_ball_support():
    x = sample(uniform_ball(2.5), KEY, 1000)[:, 0]
    assert np.all(np.abs(x) <= 2.5)
    assert np.min(x) < -2.0 and np.max(x) > 2.0


def test_point_mass_and_shifted_draws():
    d = point_mass([1.0, -2.0], space=SpaceSpec(2, 2))
    x = sample(d, KEY, 5)
    assert np.array_equal(x, np.tile([1.0, -2.0], (5, 1)))
    s = shifted(uniform_ball(1.0), [10.0])
    y = sample(s, KEY, 1000)[:, 0]
    assert np.all((y >= 9.0) & (y <= 11.0))


def test_scalar_laws_match_cdf():
    # Kolmogorov-Smirnov against the closed-form CDFs, fixed seeds
    cases = [
        (pareto_one_sided(1.7), lambda t: np.where(t < 1, 0.0, 1.0 - t ** -1.7)),
        (stable_symmetric(1.0), lambda t: 0.5 + np.arctan(t) / np.pi),
        (stable_symmetric(2.0), lambda t: stats.norm.cdf(t, scale=np.sqrt(2.0))),
        (uniform_ball(3.0), lambda t: stats.uniform.cdf(t, loc=-3.0, scale=6.0)),
    ]
    for i, (d, cdf) in enumerate(cases):
        x = sample(d, KEY.replication(i + 1), 100_000)[:, 0]
        res = stats.kstest(x, cdf)
        assert res.pvalue > 1e-3, (d.kind, res)


def test_sign_symmetry():
    for i, d in enumerate([pareto_symmetric(1.2), stable_symmetric(1.5), uniform_ball(1.0)]):
        x = sample(d, KEY.replication(10 + i), 100_000)[:, 0]
        frac = np.mean(x > 0)
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 100_000)


def test_stable_characteristic_function():
    for alpha in (0.7, 1.0, 1.3, 2.0):
        x = sample(stable_symmetric(alpha), KEY.replication(int(alpha * 10)), 100_000)[:, 0]
        for t in (0.5, 1.0, 2.0):
            emp = np.cos(t * x)
            se = np.std(emp) / math.sqrt(emp.size)
            assert abs(np.mean(emp) - math.exp(-(t**alpha))) < 4.5 * se


def test_stable_two_is_variance_two_normal():
    x = sample(stable_symmetric(2.0), KEY.replication(77), 200_000)[:, 0]
    assert abs(np.var(x) - 2.0) < 0.05


def test_radial_lifting_preserves_norm_law():
    # the norm of a radial draw has the law of |scalar draw|
    space = SpaceSpec(4, 1.5)
    d = pareto_symmetric(2.0, space, lifting="radial")
    x = sample(d, KEY.replication(20), 100_000)
    r = norms(x, space)
    res = stats.kstest(r, lambda t: np.where(t < 1, 0.0, 1.0 - t ** -2.0))
    assert res.pvalue > 1e-3


def test_iid_coordinates_scaling():
    # rademacher coordinates scaled by dim**(-1/q) give unit norm exactly
    for q, dim in [(1.0, 4), (2.0, 9)]:
        space = SpaceSpec(dim, q)
        x = sample(rademacher(space, lifting="iid_coordinates"), KEY, 50)
        assert norms(x, space) == pytest.approx(np.ones(50), rel=1e-12)


def test_uniform_in_ball():
    space = SpaceSpec(3, 2)
    pts = uniform_in_ball(space, 2.0, KEY.replication(30), 50_000)
    r = norms(pts, space)
    assert np.all(r <= 2.0)
    # P(||X|| <= s) = (s / radius)**dim for the uniform law on the ball
    res = stats.kstest(r, lambda s: np.clip(s / 2.0, 0.0, 1.0) ** 3)
    assert res.pvalue > 1e-3
    with pytest.raises(ConfigurationError):
        uniform_in_ball(space, 0.0, KEY, 5)


def test_is_symmetric():
    assert is_symmetric(rademacher())
    assert is_symmetric(stable_symmetric(1.3))
    assert not is_symmetric(pareto_one_sided(2.0))
    assert is_symmetric(pareto_one_sided(2.0, SpaceSpec(2, 2), lifting="radial"))
    assert is_symmetric(point_mass([0.0, 0.0], space=SpaceSpec(2, 2)))
    assert not is_symmetric(point_mass([1.0]))
    assert not is_symmetric(shifted(rademacher(), [2.0]))
    assert is_symmetric(shifted(rademacher(), [0.0]))


def test_tail_prob_closed_forms():
    assert tail_prob(rademacher(), 0.5) == 1.0
    assert tail_prob(rademacher(), 1.0) == 0.0
    assert tail_prob(pareto_symmetric(2.0), 4.0) == 0.0625
    assert tail_prob(pareto_one_sided(1.0), 0.5) == 1.0
    assert tail_prob(uniform_ball(2.0), 0.5) == 0.75
    assert tail_prob(stable_symmetric(1.0), 1.0) == pytest.approx(0.5)
    assert tail_prob(stable_symmetric(2.0), 3.0) == pytest.approx(math.erfc(1.5))
    assert tail_prob(stable_symmetric(1.5), 1.0) is None
    d = pareto_symmetric(2.0, SpaceSpec(2, 2), lifting="iid_coordinates")
    assert tail_prob(d, 1.0) is None
    assert tail_prob(point_mass([3.0, 4.0], space=SpaceSpec(2, 2)), 4.9) == 1.0
    assert tail_prob(point_mass([3.0, 4.0], space=SpaceSpec(2, 2)), 5.0) == 0.0


def test_tail_prob_shifted():
    # |U + 1| with U uniform on [-2, 2]: P = 1 - (min(t-1,2) - max(-t-1,-2)) / 4
    d = shifted(uniform_ball(2.0), [1.0])
    for t in (0.0, 0.5, 1.0, 2.5, 3.5):
        expect = 1.0 - (min(t - 1.0, 2.0) - max(-t - 1.0, -2.0)) / 4.0
        expect = min(1.0, max(0.0, expect))
        assert tail_prob(d, t) == pytest.approx(expect, abs=1e-15)


def test_tail_prob_matches_empirical():
    specs = [
        pareto_symmetric(1.5, SpaceSpec(3, 2), lifting="radial"),
        shifted(pareto_one_sided(2.0), [-1.5]),
        uniform_ball(1.0),
    ]
    for i, d in enumerate(specs):
        x = sample(d, KEY.replication(40 + i), 200_000)
        r = norms(x, d.space)
        for t in (0.5, 1.2, 2.0):
            p = tail_prob(d, t)
            emp = float(np.mean(r > t))
            se = math.sqrt(max(p * (1 - p), 1e-9) / r.size)
            assert abs(emp - p) < 5 * se + 1e-6, (d.kind, t, emp, p)


def test_truncated_mean_symmetric_zero():
    assert truncated_mean(stable_symmetric(1.2), 3.0).tolist() == [0.0]
    d = pareto_symmetric(1.1, SpaceSpec(3, 2), lifting="radial")
    assert truncated_mean(d, 2.0).tolist() == [0.0, 0.0, 0.0]


def test_truncated_mean_point_mass():
    d = point_mass([3.0, 4.0], space=SpaceSpec(2, 2))
    assert truncated_mean(d, 5.0).tolist() == [3.0, 4.0]
    assert truncated_mean(d, 4.9).tolist() == [0.0, 0.0]


def test_truncated_mean_pareto_log_case():
    # alpha = 1: E[X 1{X <= b}] = log(b) on support [1, inf)
    d = pareto_one_sided(1.0)
    assert truncated_mean(d, 8.0)[0] == pytest.approx(math.log(8.0), rel=1e-14)
    assert truncated_mean(d, 1.0)[0] == 0.0


def test_truncated_mean_against_quadrature():
    cases = [
        (pareto_one_sided(1.7), lambda x: 1.7 * x**-2.7, (1.0, np.inf)),
        (pareto_one_sided(2.5), lambda x: 2.5 * x**-3.5, (1.0, np.inf)),
    ]
    for d, density, (lo, hi) in cases:
        for b in (1.5, 3.0, 10.0):
            oracle, err = quad(lambda x: x * density(x), lo, min(b, hi))
            assert truncated_mean(d, b)[0] == pytest.approx(oracle, abs=1e-10 + 10 * err)


def test_truncated_mean_shifted_against_quadrature():
    # base uniform on [-2, 2] shifted by 0.5; integrate (u + .5) 1{|u + .5| <= b} / 4
    d = shifted(uniform_ball(2.0), [0.5])
    for b in (0.3, 1.0, 2.6):
        oracle, err = quad(
            lambda u: (u + 0.5) * (abs(u + 0.5) <= b) / 4.0, -2.0, 2.0, points=[b - 0.5, -b - 0.5]
        )
        assert truncated_mean(d, b)[0] == pytest.approx(oracle, abs=1e-9)


def _density(d):
    """The Lebesgue density of a scalar law without atoms."""
    k, a = d.kind, d.alpha
    if k == "pareto_symmetric":
        return lambda y: 0.5 * a * abs(y) ** (-a - 1.0) if abs(y) >= 1.0 else 0.0
    if k == "pareto_one_sided":
        return lambda y: a * y ** (-a - 1.0) if y >= 1.0 else 0.0
    if k == "uniform_ball":
        return lambda y: 0.5 / d.radius if abs(y) <= d.radius else 0.0
    if a == 1.0:
        return lambda y: 1.0 / (math.pi * (1.0 + y * y))
    # alpha 2 is the normal law of variance 2
    return lambda y: math.exp(-y * y / 4.0) / (2.0 * math.sqrt(math.pi))


def _integral(d, g, lo, hi):
    """The integral of g over [lo, hi] under the scalar law d; the Pareto and uniform kinks at +-1 split it."""
    if d.kind == "rademacher":
        return sum(0.5 * g(y) for y in (-1.0, 1.0) if lo <= y <= hi)
    f = _density(d)
    edges = [lo] + [e for e in (-1.0, 1.0) if lo < e < hi] + [hi]
    return sum(
        quad(lambda y: g(y) * f(y), a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


_SHIFTED_BASES = [
    *(pareto_symmetric(a) for a in (0.5, 1.0, 1.5, 3.0)),
    stable_symmetric(1.0),
    stable_symmetric(2.0),
    uniform_ball(1.0),
    rademacher(),
    pareto_one_sided(1.5),
]


@pytest.mark.parametrize("base", _SHIFTED_BASES, ids=lambda d: f"{d.kind}-{d.alpha}")
@pytest.mark.parametrize("c", [0.7, -2.3])
def test_shifted_closed_forms_against_quadrature(base, c):
    # a shift is the only way to reach the scalar CDFs and partial means of these laws
    d = shifted(base, [c])
    for t in (0.0, 0.5, 1.0, 1.7, 3.0, 6.5):
        lo, hi = -t - c, t - c
        assert tail_prob(d, t) == pytest.approx(1.0 - _integral(base, lambda y: 1.0, lo, hi), abs=1e-9)
        mean = truncated_mean(d, t)
        if base.kind == "stable_symmetric":
            assert mean is None
        else:
            assert mean[0] == pytest.approx(_integral(base, lambda y: y + c, lo, hi), abs=1e-9)


@pytest.mark.parametrize("c", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_shifted_random_signs_against_two_point_enumeration(c):
    # Y = X + c takes c - 1 and c + 1 with probability 1/2 each; t and the
    # bound sit on |atoms| too, where an atom on an interval edge lies inside
    d = shifted(rademacher(), [c])
    atoms = (c - 1.0, c + 1.0)
    for t in sorted({0.0, 0.5, abs(c - 1.0), abs(c + 1.0), 2.5}):
        assert tail_prob(d, t) == sum(0.5 for y in atoms if abs(y) > t)
        assert truncated_mean(d, t)[0] == sum(0.5 * y for y in atoms if abs(y) <= t)


def test_truncated_mean_unavailable():
    d = stable_symmetric(1.5, SpaceSpec(2, 2), lifting="iid_coordinates")
    # symmetric, so known to be zero even without a closed form
    assert truncated_mean(d, 1.0).tolist() == [0.0, 0.0]
    assert truncated_mean(shifted(stable_symmetric(1.5), [1.0]), 2.0) is None
