import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sumtails.errors import ConfigurationError
from sumtails.estimator import (
    DEFAULT_BLOCK_SIZE,
    ENUMERATION_MAX_N,
    TailEstimate,
    clopper_pearson,
    enumerate_sign_norms,
    mc_counts,
)
from sumtails import estimator
from sumtails.estimator import _worker_count
from sumtails.sources import StreamKey
from sumtails.space import SpaceSpec, norm, norms
from sumtails.suite import _counts_per_threshold

KEY = StreamKey(90210)


def _mc_estimate(event, R, threads=1):
    # Monte Carlo P(event) through mc_counts with a block_fn of its own
    def block_fn(rng, m):
        return (np.count_nonzero(event(rng, m)),)

    (hits,) = mc_counts(block_fn, R, KEY, threads=threads)
    return TailEstimate.from_counts(hits, R)


def _binom_ge(n: int, k: int, p: float) -> float:
    return math.fsum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))


def _binom_le(n: int, k: int, p: float) -> float:
    return math.fsum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(0, k + 1))


def oracle_clopper_pearson(k: int, n: int, confidence: float) -> tuple[float, float]:
    """Independent route: bisect the defining binomial tail equations."""
    half = (1.0 - confidence) / 2.0

    def bisect(f, target):
        # f increasing in p; find p with f(p) = target
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if f(mid) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    low = 0.0 if k == 0 else bisect(lambda p: _binom_ge(n, k, p), half)
    high = 1.0 if k == n else bisect(lambda p: -_binom_le(n, k, p), -half)
    return low, high


def test_clopper_pearson_against_bisection_oracle():
    for n in (10, 37, 200):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            for conf in (0.95, 0.99):
                got = clopper_pearson(k, n, conf)
                want = oracle_clopper_pearson(k, n, conf)
                assert got[0] == pytest.approx(want[0], abs=1e-9)
                assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_clopper_pearson_reference_values():
    low, high = clopper_pearson(5, 10, 0.95)
    assert low == pytest.approx(0.18708602844739855, abs=1e-14)
    assert high == pytest.approx(0.8129139715526015, abs=1e-14)


def test_clopper_pearson_edges():
    low, high = clopper_pearson(0, 50)
    assert low == 0.0 and 0 < high < 0.2
    low, high = clopper_pearson(50, 50)
    assert high == 1.0 and 0.8 < low < 1.0


def test_clopper_pearson_errors():
    with pytest.raises(ConfigurationError):
        clopper_pearson(5, 4)
    with pytest.raises(ConfigurationError):
        clopper_pearson(-1, 4)
    with pytest.raises(ConfigurationError):
        clopper_pearson(2, 4, confidence=1.0)


NOT_COUNTS = "successes must be integers out of an integer n >= 1"


@pytest.mark.parametrize(
    "successes, n",
    [
        (2.5, 10),
        (0, 0),
        (0, -3),
        (3, 10.0),
        (np.array([1.0, 2.0]), 4),
        (True, 3),
        (np.array([1, 2]), np.float64(4)),
    ],
)
def test_clopper_pearson_refuses_what_is_not_a_count(successes, n):
    with pytest.raises(ConfigurationError, match=NOT_COUNTS):
        clopper_pearson(successes, n)


def test_clopper_pearson_accepts_numpy_integers():
    want = clopper_pearson(3, 10)
    assert clopper_pearson(np.int64(3), np.int64(10)) == want
    assert clopper_pearson(np.uint8(3), np.int32(10)) == want
    low, high = clopper_pearson(np.array([3, 7], dtype=np.uint32), 10)
    assert (low[0], high[0]) == want


def test_from_counts_refuses_zero_replications():
    for exact in (False, True):
        with pytest.raises(ConfigurationError, match=NOT_COUNTS):
            TailEstimate.from_counts(3, 0, exact=exact)


@pytest.mark.parametrize("confidence", [0.0, 1.5])
def test_exact_estimates_refuse_a_bad_confidence(confidence):
    # an exact estimate has no interval, yet it once carried any confidence it was given
    with pytest.raises(ConfigurationError, match=rf"confidence must lie in \(0, 1\), got {confidence}"):
        TailEstimate.from_counts(3, 8, confidence=confidence, exact=True)


@pytest.mark.parametrize("n", [100, 4000, 16384, 10**6])
def test_clopper_pearson_array_equals_scalar(n):
    rng = np.random.default_rng(n)
    k = np.concatenate(([0, 1, n - 1, n], rng.integers(0, n + 1, 300), rng.integers(0, 50, 100)))
    low, high = clopper_pearson(k, n)
    assert low.shape == high.shape == k.shape
    for ki, lo, hi in zip(k.tolist(), low.tolist(), high.tolist()):
        scalar = clopper_pearson(ki, n)
        assert type(scalar[0]) is float and type(scalar[1]) is float
        assert (lo, hi) == scalar
    grid_low, grid_high = clopper_pearson(k[:300].reshape(20, 15), n, 0.95)
    assert grid_low.shape == (20, 15)
    assert grid_high[3, 4] == clopper_pearson(int(k[49]), n, 0.95)[1]


def _beta_ppf_bounds(k, n, confidence):
    # the textbook form of the bounds, from scipy.stats, which the library does not import
    from scipy.stats import beta

    tail = (1.0 - confidence) / 2.0
    with np.errstate(invalid="ignore"):
        low = np.where(k == 0, 0.0, beta.ppf(tail, k, n - k + 1))
        high = np.where(k == n, 1.0, beta.ppf(1.0 - tail, k + 1, n - k))
    return low, high


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
def test_clopper_pearson_equals_beta_ppf(confidence):
    # betaincinv and beta.ppf both invert the regularized incomplete beta function,
    # so the bounds must agree to the last bit: every k at small R, a sample at large R
    rng = np.random.default_rng(1934)
    cases = [(n, np.arange(n + 1)) for n in (100, 101, 200, 1000, 2000, 4000, 16384, 32768)]
    for n in (10**5, 10**6):
        k = np.concatenate(([0, 1, 2, n - 2, n - 1, n], rng.integers(0, n + 1, 2000), rng.integers(0, 200, 500)))
        cases.append((n, k))
    for n, k in cases:
        got = clopper_pearson(k, n, confidence)
        want = _beta_ppf_bounds(k, n, confidence)
        assert np.array_equal(got[0], want[0]), n
        assert np.array_equal(got[1], want[1]), n
    for ki in (0, 1, 17, 999, 1000):
        assert clopper_pearson(ki, 1000, confidence) == tuple(map(float, _beta_ppf_bounds(ki, 1000, confidence)))


def test_scipy_loads_only_at_the_first_interval(tmp_path):
    # scipy.special costs more start-up than the rest of the program together, so
    # only a Monte Carlo interval may load it; each step runs in a fresh interpreter
    exact = {
        "schema_version": 1,
        "experiment": "thm11_i",
        "seed": 11,
        "space": {"dim": 1, "q": 2},
        "norming": {"kind": "power", "n_max": 8, "exp_a": 0.5, "exp_b": 1.0},
        "vectors": [[0.5], [-1.0], [1.5]],
        "t_grid": [0.0, 0.4, 0.8, 1.2],
    }
    construct = {
        "schema_version": 1,
        "experiment": "construct",
        "norming": {"kind": "power", "n_max": 10, "exp_a": 0.5, "exp_b": 1.0},
    }
    monte_carlo = {
        "schema_version": 1,
        "experiment": "thm11_ii",
        "seed": 4,
        "space": {"dim": 1, "q": 2},
        "distribution": {"kind": "pareto_symmetric", "alpha": 1.5},
        "norming": {"kind": "power", "n_max": 8, "exp_a": 0.5, "exp_b": 1.0},
        "n": 4,
        "R": 200,
        "t_grid": [0.5, 1.0],
    }
    configs = {
        "exact": exact,
        "construct": construct,
        "monte_carlo": monte_carlo,
        "refused": {**monte_carlo, "R": 5},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))

    def main(command, name, code):
        argv = [command, "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]
        return f"assert cli.main({argv!r}) == {code}"

    steps = [
        ("pass", False),
        (main("validate", "exact", 0), False),
        (main("run", "exact", 0), False),
        (main("run", "construct", 0), False),
        (main("run", "refused", 2), False),
        ("try:\n    estimator.clopper_pearson(2.5, 10)\n"
         "except errors.ConfigurationError:\n    pass", False),
        (main("run", "monte_carlo", 0), True),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for step, loads_special in steps:
        code = (
            f"import sys\nfrom sumtails import cli, errors, estimator\n{step}\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, (step, done.stderr)
        loaded = done.stdout.splitlines()[-1]
        if loads_special:
            assert "'scipy.special'" in loaded, step
        else:
            assert loaded == "[]", (step, loaded)


def test_clopper_pearson_array_errors():
    with pytest.raises(ConfigurationError, match=r"successes must lie in \[0, 4\], got 5"):
        clopper_pearson(np.array([0, 4, 5, 2]), 4)
    with pytest.raises(ConfigurationError, match=r"got -1"):
        clopper_pearson(np.array([[0, 1], [-1, 4]]), 4)
    with pytest.raises(ConfigurationError, match="confidence"):
        clopper_pearson(np.array([0, 1]), 4, confidence=0.0)


def test_tail_estimate_invariants():
    e = TailEstimate.from_counts(30, 100)
    assert e.ci_low <= e.p_hat == 0.3 <= e.ci_high
    assert not e.exact
    assert e.std_error == pytest.approx(math.sqrt(0.3 * 0.7 / 100))
    x = TailEstimate.from_counts(3, 8, exact=True)
    assert x.ci_low == x.p_hat == x.ci_high == 0.375
    assert x.std_error == 0.0
    k = TailEstimate.known(0.25)
    assert k.p_hat == 0.25 and k.exact
    with pytest.raises(ConfigurationError):
        TailEstimate(0.5, 1, 2, 0.6, 0.7)
    with pytest.raises(ConfigurationError):
        TailEstimate(0.5, 1, 2, 0.4, 0.6, exact=True)


def test_enumeration_tiny_cases():
    # the patterns with eps_n = +1, eps_1 = -1 first
    sp = SpaceSpec(1, 2)
    assert enumerate_sign_norms([[1.0]], sp).tolist() == [1.0]
    assert enumerate_sign_norms([[-3.0]], sp).tolist() == [3.0]
    assert enumerate_sign_norms([[1.0], [1.0]], sp).tolist() == [0.0, 2.0]
    # weights (1, 2) times x = (1, 1): |eps_1 + 2|
    assert enumerate_sign_norms([[1.0], [2.0]], sp).tolist() == [1.0, 3.0]
    # eps_1 + eps_2 + 4 in the bit order of (eps_1, eps_2)
    assert enumerate_sign_norms([[1.0], [1.0], [4.0]], sp).tolist() == [2.0, 4.0, 4.0, 6.0]
    nv = enumerate_sign_norms([[3.0, 0.0], [0.0, 4.0]], SpaceSpec(2, 2))
    assert nv.tolist() == [5.0, 5.0]


def test_exact_tail_values():
    # |eps_1 + 1| is 0, 2 over the patterns with eps_2 = +1; a norm equal to t does not exceed it
    nv = enumerate_sign_norms([[1.0], [1.0]], SpaceSpec(1, 2))
    assert _counts_per_threshold(nv, [1.5, -0.5, 2.0, 0.0])[0].tolist() == [1, 2, 0, 1]


def test_exact_tail_zero_beyond_total_mass():
    sp = SpaceSpec(2, 1)
    x = [[1.0, 2.0], [0.5, -0.5], [3.0, 0.0]]
    total = sum(norm(np.array(v), sp) for v in x)
    assert _counts_per_threshold(enumerate_sign_norms(x, sp), [total])[0].tolist() == [0]


def test_enumeration_against_product_oracle():
    rng = np.random.default_rng(42)
    for _ in range(12):
        n = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 4))
        q = float(rng.choice([1.0, 2.0, 3.0, np.inf]))
        sp = SpaceSpec(dim, q)
        x = rng.standard_normal((n, dim))
        w = rng.uniform(-1.5, 1.5, n)
        got = np.sort(enumerate_sign_norms(w[:, None] * x, sp))
        want = []
        for signs in itertools.product((-1.0, 1.0), repeat=n - 1):
            s = np.zeros(dim)
            for eps, wi, xi in zip(signs + (1.0,), w, x):
                s = s + eps * wi * xi
            want.append(norm(s, sp))
        assert got == pytest.approx(np.sort(want), rel=1e-12, abs=1e-12)


def _per_bit_sign_norms(x, space):
    # reference: one pass per summand over all 2^n patterns, adding
    # eps_i * x_i to the accumulator term by term; pattern k sets
    # eps_i = +1 when bit i of k is set
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    n = xa.shape[0]
    patterns = np.arange(1 << n, dtype=np.int64)
    sums = np.zeros((1 << n, space.dim))
    for i in range(n):
        eps = np.where((patterns >> i) & 1 == 1, 1.0, -1.0)
        sums += eps[:, None] * xa[i]
    return norms(sums, space)


def test_enumeration_matches_per_bit_loop_exactly():
    # same pattern order and the same bits, not merely close values: the
    # kernel gives the reference's upper half (eps_n = +1), and the lower
    # half, their sign flips, is the upper half reversed.  dim >= 8 and
    # q = 1.5 or 3 take norms' reduce, which adds a transposed view in
    # another order
    rng = np.random.default_rng(77)
    for n in range(1, 11):
        for dim in range(1, 11):
            for q in (1.0, 1.5, 2.0, 3.0, math.inf):
                sp = SpaceSpec(dim, q)
                x = rng.standard_normal((n, dim))
                x[rng.random((n, dim)) < 0.2] = -0.0
                # unweighted, then pre-multiplied by weights as check_contraction does
                for xw in (x, rng.uniform(-1.5, 1.5, n)[:, None] * x):
                    want = _per_bit_sign_norms(xw, sp)
                    half = 1 << (n - 1)
                    assert np.array_equal(want[:half], want[half:][::-1]), (n, dim, q)
                    assert np.array_equal(enumerate_sign_norms(xw, sp), want[half:]), (n, dim, q)


def test_enumeration_scale_equivariance():
    rng = np.random.default_rng(5)
    sp = SpaceSpec(3, 2)
    x = rng.standard_normal((6, 3))
    for c in (0.25, 7.0):
        t = 1.37  # no pattern lands exactly on the boundary
        a, _ = _counts_per_threshold(enumerate_sign_norms(x, sp), [t])
        b, _ = _counts_per_threshold(enumerate_sign_norms(c * x, sp), [c * t])
        assert a.tolist() == b.tolist()


def test_enumeration_errors():
    sp = SpaceSpec(1, 2)
    with pytest.raises(ConfigurationError, match="enumeration budget"):
        enumerate_sign_norms(np.ones((ENUMERATION_MAX_N + 1, 1)), sp)
    # no summand leaves no sign to fix
    with pytest.raises(ConfigurationError, match="at least one summand"):
        enumerate_sign_norms(np.ones((0, 1)), sp)
    with pytest.raises(ConfigurationError, match="dim"):
        enumerate_sign_norms([[1.0, 2.0]], sp)


def test_mc_tail_trivial_events():
    one = _mc_estimate(lambda rng, m: np.ones(m, dtype=bool), 500)
    assert one.p_hat == 1.0 and one.ci_high == 1.0 and one.ci_low < 1.0
    zero = _mc_estimate(lambda rng, m: np.zeros(m, dtype=bool), 500)
    assert zero.p_hat == 0.0 and zero.ci_low == 0.0 and zero.ci_high > 0.0


def test_mc_tail_known_probability():
    est = _mc_estimate(lambda rng, m: rng.random(m) < 0.3, 100_000)
    assert est.ci_low <= 0.3 <= est.ci_high
    assert abs(est.p_hat - 0.3) < 5 * math.sqrt(0.3 * 0.7 / 100_000)


def test_mc_tail_thread_invariance():
    event = lambda rng, m: rng.random(m) < 0.41
    a = _mc_estimate(event, 30_000, threads=1)
    b = _mc_estimate(event, 30_000, threads=4)
    c = _mc_estimate(event, 30_000, threads=7)
    assert a.successes == b.successes == c.successes


def test_mc_counts_partition_is_by_replication_index():
    # block i must draw from key.replication(i)
    def block_fn(rng, m):
        first = rng.random()
        return (np.array([int(first * 2**30)]),)

    (first_bits,) = mc_counts(block_fn, 2 * DEFAULT_BLOCK_SIZE, KEY)
    expect = 0
    for i in range(2):
        expect += int(KEY.replication(i).generator().random() * 2**30)
    assert int(first_bits[0]) == expect


def test_mc_counts_blocks_of_a_replication_key_draw_from_its_children():
    # under a parent with a nonzero replication index, block i draws from
    # key.child(i), so distinct replications give distinct totals
    def block_fn(rng, m):
        return (int(rng.random() * 2**30),)

    totals = {}
    for r in (1, 2):
        parent = KEY.replication(r)
        (totals[r],) = mc_counts(block_fn, 2 * DEFAULT_BLOCK_SIZE, parent)
        expect = sum(int(parent.child(i).generator().random() * 2**30) for i in range(2))
        assert totals[r] == expect
    assert totals[1] != totals[2]


class _Stop(Exception):
    pass


@pytest.mark.parametrize("R, threads", [(10**6, 1), (2 * 10**4, 2)])
def test_mc_counts_memory_does_not_grow_with_the_block_count(monkeypatch, R, threads):
    # R blocks of one replication each; the fourth block raises, so a run that
    # lists every block or submits one future per block up front shows in the peak
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
    lock = threading.Lock()
    calls = 0

    def block_fn(rng, m):
        nonlocal calls
        with lock:
            calls += 1
            if calls > 3:
                raise _Stop
        return (np.array([m]), m)

    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            mc_counts(block_fn, R, KEY, block_size=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert calls <= 3 + threads  # a raising block stops every worker at its next claim


def test_mc_counts_totals_under_uneven_claiming(monkeypatch):
    # 1000 replications in blocks of 128: seven full blocks and one of 104,
    # claimed by 1, 2 or 3 workers in whatever order the threads reach the
    # counter; a short switch interval makes a lost claim update likely to show
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 8)
    lengths = []

    def block_fn(rng, m):
        lengths.append(m)
        u = rng.random(m)
        return np.array([m, np.count_nonzero(u < 0.3)]), int(u[0] * 2**30)

    expect_first = sum(int(KEY.child(i).generator().random() * 2**30) for i in range(8))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3):
            lengths.clear()
            counts, first = mc_counts(block_fn, 1000, KEY, block_size=128, threads=threads)
            assert sorted(lengths) == [104] + [128] * 7
            assert counts[0] == 1000 and first == expect_first
            results.append(counts.tolist())
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]


def test_mc_counts_claims_each_block_once():
    # 10 replications in blocks of 3 are four blocks; a claim counter that
    # stopped advancing would run block 0 again and again, so the fifth
    # call fails instead of hanging
    lengths = []

    def block_fn(rng, m):
        lengths.append(m)
        if len(lengths) > 4:
            raise AssertionError("more block calls than blocks")
        return (m,)

    assert mc_counts(block_fn, 10, KEY, block_size=3) == (10,)
    assert sorted(lengths) == [1, 3, 3, 3]


def test_worker_count_is_bounded_by_blocks_and_cpus():
    assert _worker_count(1, 10, 8) == 1
    assert _worker_count(4, 10, 8) == 4
    assert _worker_count(16, 10, 8) == 8
    assert _worker_count(16, 3, 8) == 3
    assert _worker_count(10**6, 5, 2) == 2
    assert _worker_count(4, 10, 1) == 1


def test_mc_errors():
    with pytest.raises(ConfigurationError):
        mc_counts(lambda rng, m: (), 0, KEY)
    with pytest.raises(ConfigurationError):
        mc_counts(lambda rng, m: (), 10, KEY, block_size=0)
    for threads in (0, -3):
        with pytest.raises(ConfigurationError, match=f"threads must be >= 1, got {threads}"):
            mc_counts(lambda rng, m: (), 10, KEY, threads=threads)


def test_clopper_pearson_coverage():
    # CP is conservative: 0.99 intervals on Binomial(500, 0.3) should
    # cover the truth in at least 985 of 1000 deterministic trials
    rng = np.random.default_rng(2024)
    ks = rng.binomial(500, 0.3, 1000)
    covered = 0
    for k in ks:
        low, high = clopper_pearson(int(k), 500, 0.99)
        covered += low <= 0.3 <= high
    assert covered >= 985
