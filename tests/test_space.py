import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sumtails.errors import ConfigurationError, DomainError
from sumtails.space import SpaceSpec, norm, norms, vsum

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_spec_validation():
    SpaceSpec(dim=1, q=1.0)
    SpaceSpec(dim=4, q=math.inf)
    with pytest.raises(ConfigurationError):
        SpaceSpec(dim=0)
    with pytest.raises(ConfigurationError):
        SpaceSpec(dim=2, q=0.5)
    with pytest.raises(ConfigurationError):
        SpaceSpec(dim=2, q=float("nan"))
    with pytest.raises(ConfigurationError):
        SpaceSpec(dim=2.0, q=2.0)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5, math.inf])
def test_norm_matches_reference(q):
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3, 5):
        sp = SpaceSpec(dim=dim, q=q)
        for _ in range(20):
            v = rng.normal(size=dim) * 10.0 ** rng.integers(-2, 3)
            expected = np.linalg.norm(v, ord=q) if q != 3.5 else (np.abs(v) ** q).sum() ** (1 / q)
            assert norm(v, sp) == pytest.approx(expected, rel=1e-12)
            # batch path agrees with the scalar path
            assert norms(v[None, :], sp)[0] == pytest.approx(norm(v, sp), rel=1e-12)


def test_dim_one_is_plain_abs():
    # no power round trip: |v| exact even where v*v would overflow
    for q in (1.0, 2.0, math.inf):
        sp = SpaceSpec(dim=1, q=q)
        assert norm([1e200], sp) == 1e200
        assert norm([-3.7], sp) == 3.7
        assert norms(np.array([[1e200], [-2.5]]), sp).tolist() == [1e200, 2.5]


def test_norm_shape_errors():
    sp = SpaceSpec(dim=3)
    with pytest.raises(DomainError):
        norm([1.0, 2.0], sp)
    with pytest.raises(DomainError):
        norms(np.zeros((4, 2)), sp)


def test_add_scale_vsum():
    sp = SpaceSpec(dim=2)
    # the sum of two vectors is their componentwise sum, and of three
    # copies of one vector its multiple by 3
    assert vsum([[1.0, 2.0], [3.0, -1.0]], sp).tolist() == [4.0, 1.0]
    assert vsum([[1.0, -3.0]] * 3, sp).tolist() == [3.0, -9.0]
    assert vsum([[1.0, 0.0], [0.5, 2.0]], sp).tolist() == [1.5, 2.0]
    assert vsum([], sp).tolist() == [0.0, 0.0]
    with pytest.raises(DomainError):
        vsum([[1.0, 2.0, 3.0]], sp)


def test_vsum_order_independent():
    # fsum accumulation: permuting the summands changes nothing
    sp = SpaceSpec(dim=1)
    vals = [[1e16], [1.0], [-1e16], [1.0]]
    assert vsum(vals, sp)[0] == 2.0
    assert vsum(vals[::-1], sp)[0] == 2.0


@given(
    st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0, math.inf]),
)
def test_triangle_inequality(pairs, q):
    sp = SpaceSpec(dim=2, q=q)
    total = vsum([list(p) for p in pairs], sp)
    assert norm(total, sp) <= sum(norm(list(p), sp) for p in pairs) + 1e-6


@given(st.tuples(FINITE, FINITE, FINITE), st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_homogeneity(v, c):
    sp = SpaceSpec(dim=3, q=2.0)
    assert norm(c * np.asarray(v), sp) == pytest.approx(abs(c) * norm(list(v), sp), rel=1e-9, abs=1e-9)
