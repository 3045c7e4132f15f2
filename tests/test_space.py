import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sumtails.errors import ConfigurationError, DomainError
from sumtails.space import SpaceSpec, _summand_sums, norm, norms

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


@given(
    st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0, math.inf]),
)
def test_triangle_inequality(pairs, q):
    sp = SpaceSpec(dim=2, q=q)
    total = np.sum(pairs, axis=0)
    assert norm(total, sp) <= sum(norm(list(p), sp) for p in pairs) + 1e-6


@given(st.tuples(FINITE, FINITE, FINITE), st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_homogeneity(v, c):
    sp = SpaceSpec(dim=3, q=2.0)
    assert norm(c * np.asarray(v), sp) == pytest.approx(abs(c) * norm(list(v), sp), rel=1e-9, abs=1e-9)


def _reduce_norms(a, q):
    """The norms as one numpy reduce over the last axis: the reference norms must equal bit for bit."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 1:
        return np.abs(np.squeeze(a, axis=-1))
    if math.isinf(q):
        return np.max(np.abs(a), axis=-1)
    if q == 1.0:
        return np.sum(np.abs(a), axis=-1)
    if q == 2.0:
        return np.sqrt(np.sum(a * a, axis=-1))
    return np.sum(np.abs(a) ** q, axis=-1) ** (1.0 / q)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 7, 8, 9])
def test_norms_equal_the_reduce_bit_for_bit(dim, q):
    # dims 8 and 9 cross to numpy's pairwise sum, which norms then keeps
    rng = np.random.default_rng(dim)
    sp = SpaceSpec(dim=dim, q=q)
    for shape in [(dim,), (300, dim), (12, 25, dim)]:
        a = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-3, 4, shape)
        got, want = norms(a, sp), _reduce_norms(a, q)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -5e-324])
)


@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_norms_equal_the_reduce_on_nan_inf_and_signed_zero(dim, q, rows, data):
    a = np.array(data.draw(st.lists(ANY_FLOAT, min_size=rows * dim, max_size=rows * dim)))
    a = a.reshape(rows, dim)
    sp = SpaceSpec(dim=dim, q=q)
    with np.errstate(all="ignore"):
        for arr in (a, a[0]):
            assert np.array_equal(norms(arr, sp), _reduce_norms(arr, q), equal_nan=True)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# the benchmark's blocks, a long sum, and dim 1, where einsum and the pairwise reduce differ
@pytest.mark.parametrize(
    "shape", [(4096, 256, 3), (4096, 256, 2), (4000, 512, 2), (3, 20000, 2), (4096, 256, 1), (3, 20000, 1)]
)
def test_summand_sums_equal_the_reduce_on_cauchy_blocks(shape):
    rng = np.random.default_rng(shape[1])
    v = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-3, 4, shape)
    _assert_same_bits(_summand_sums(v), v.sum(axis=1))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_summand_sums_equal_the_reduce(m, n, dim, data):
    # dim 1 keeps numpy's pairwise reduce; from dim 2 on einsum must add the
    # n terms in the reduce's left-to-right order, signed zeros and NaN included
    v = np.array(data.draw(st.lists(ANY_FLOAT, min_size=m * n * dim, max_size=m * n * dim)))
    v = v.reshape(m, n, dim)
    with np.errstate(all="ignore"):
        _assert_same_bits(_summand_sums(v), v.sum(axis=1))
