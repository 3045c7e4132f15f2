import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumtails.errors import ConfigurationError, DomainError
from sumtails.estimator import ENUMERATION_MAX_N, TailEstimate
from sumtails.norming import NormingPair, build_function_pair, power_pair
from sumtails.sources import (
    _BUDGET_ELEMENTS,
    STREAM_CRITERION,
    STREAM_CRITERION_SYMM,
    StreamKey,
    draw,
    pareto_one_sided,
    pareto_symmetric,
    point_mass,
    rademacher,
    shifted,
    stable_symmetric,
    uniform_ball,
    uniform_in_ball,
)
from sumtails.space import SpaceSpec, norms
from sumtails.suite import (
    DELTA_BOUNDED_AWAY,
    LEVY_EXACT_MAX_N,
    TAU_CONVERGES,
    check_contraction,
    check_levy,
    check_thm11_i,
    check_thm11_ii,
    cross_check_symmetrization,
    run_wlln,
)
from sumtails import suite
from sumtails.suite import _classify, _counts_per_threshold, _criterion_points, _finish_report
from sumtails.transforms import rescale_factors
from test_acceptance import criterion_01_configs, criterion_02_configs
from test_estimator import _per_bit_sign_norms

KEY = StreamKey(31415)

SQRT_PAIR = build_function_pair(power_pair(16, 0.5, 1.0))
IDENTITY_PAIR = build_function_pair(power_pair(16, 1.0, 1.0))


def _est(low, p, high):
    return TailEstimate(p, 0, 1, low, high, False)


# ---------------------------------------------------------------- thm 1.1(i)


def test_thm11_i_exact_all_hold():
    sp = SpaceSpec(2, 2)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.5, 1.5, (6, 2))
    reports = check_thm11_i(x, SQRT_PAIR, sp)
    assert len(reports) == 50
    for r in reports:
        assert r.verdict == "holds"
        assert r.lhs.exact and r.rhs.exact
        assert r.factor == 2.0 and r.tail_term is None
        assert r.rhs_bound == 2.0 * r.rhs.p_hat
        assert math.isinf(r.sigma_margin)


def test_thm11_i_identity_pair_shares_events():
    # a_n = b_n makes the rescaled side identical; slack is then p itself
    sp = SpaceSpec(1, 2)
    x = [[0.7], [-1.3], [2.1], [0.2]]
    for r in check_thm11_i(x, IDENTITY_PAIR, sp, t_grid=[0.0, 0.3, 0.7, 1.1]):
        assert r.rhs.p_hat == r.lhs.p_hat
        assert r.slack == r.lhs.p_hat


def test_thm11_i_hypothesis_rejected():
    sp = SpaceSpec(1, 2)
    # b_3 = 3 but one vector has norm 3.5
    with pytest.raises(ConfigurationError, match=r"i = 2.*3\.5"):
        check_thm11_i([[1.0], [-3.5], [0.5]], SQRT_PAIR, sp)


def test_thm11_i_too_many_vectors():
    sp = SpaceSpec(1, 2)
    with pytest.raises(ConfigurationError, match="norming pair length"):
        check_thm11_i(np.ones((17, 1)) * 0.1, SQRT_PAIR, sp)


def test_thm11_i_rejects_a_decreasing_ratio():
    # b/a falls from 2 to 0.75; the comparison assumes it nondecreasing, yet
    # without the rule half the rows of this input read "violated"
    bad = build_function_pair(NormingPair(a=[1.0, 4.0], b=[2.0, 3.0]))
    with pytest.raises(ConfigurationError, match="b_n / a_n must be nondecreasing"):
        check_thm11_i([[0.5], [1.0]], bad, SpaceSpec(1, 2))
    with pytest.raises(ConfigurationError, match="b_n / a_n must be nondecreasing"):
        check_thm11_i([[0.5], [1.0]], bad, SpaceSpec(1, 2), mode="mc", R=1000, key=KEY)


def test_thm11_i_mode_errors():
    sp = SpaceSpec(1, 2)
    with pytest.raises(ConfigurationError, match="mode"):
        check_thm11_i([[1.0]], SQRT_PAIR, sp, mode="enum")
    with pytest.raises(ConfigurationError, match="StreamKey"):
        check_thm11_i([[1.0]], SQRT_PAIR, sp, mode="mc", R=1000)
    with pytest.raises(ConfigurationError, match="R >= 100"):
        check_thm11_i([[1.0]], SQRT_PAIR, sp, mode="mc", R=50, key=KEY)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"confidence": 0.0}, "confidence must lie in (0, 1), got 0.0"),
        ({"confidence": 1.5}, "confidence must lie in (0, 1), got 1.5"),
        ({"threads": 0}, "threads must be >= 1, got 0"),
        ({"threads": -3}, "threads must be >= 1, got -3"),
    ],
    ids=["0.0", "1.5", "threads=0", "threads=-3"],
)
def test_confidence_refused_before_the_first_draw(monkeypatch, bad, message):
    # check_thm11_ii used to run its whole pass and only then refuse, in clopper_pearson,
    # and threads < 1 ran as one worker
    def no_pass(*args, **kwargs):
        pytest.fail("a pass ran before the input was checked")

    for name in ("mc_counts", "enumerate_sign_norms", "draw", "gamma_n"):
        monkeypatch.setattr(suite, name, no_pass)
    sp = SpaceSpec(1, 2)
    x, w = [[0.5], [1.0]], [0.5, -0.5]
    mc = dict(R=1000, key=KEY, **bad)
    checks = [
        lambda: check_thm11_ii(pareto_symmetric(1.5), SQRT_PAIR, 4, **dict(mc, R=20000)),
        lambda: check_thm11_i(x, SQRT_PAIR, sp, mode="mc", **mc),
        lambda: check_contraction(x, w, sp, mode="mc", **mc),
        lambda: check_levy(rademacher(), 4, **mc),
        lambda: run_wlln(pareto_one_sided(2.0), power_pair(16, 0.5), **mc),
        lambda: cross_check_symmetrization(uniform_ball(1.0), power_pair(16, 0.5), **mc),
    ]
    if "confidence" in bad:
        # exact mode spends no threads
        checks += [
            lambda: check_thm11_i(x, SQRT_PAIR, sp, **bad),
            lambda: check_contraction(x, w, sp, **bad),
            lambda: check_levy(rademacher(), 4, mode="exact", **bad),
        ]
    for check in checks:
        with pytest.raises(ConfigurationError) as info:
            check()
        assert str(info.value) == message


def test_exact_mode_refuses_nan():
    # a NaN input made every statistic NaN, which counted as no event: lhs = rhs = 0, "holds"
    nan = float("nan")
    with pytest.raises(DomainError, match=r"contraction: 8 of 8 exact statistics are NaN"):
        check_contraction([[nan], [1.0]], [1.0, 0.5], SpaceSpec(1), t_grid=[0.0, 0.5])
    with pytest.raises(DomainError, match=r"thm11_i: 8 of 8 exact statistics are NaN"):
        check_thm11_i([[nan], [1.0]], SQRT_PAIR, SpaceSpec(1), t_grid=[0.0, 0.5])
    # inf - inf in a sign pattern is NaN too
    with pytest.raises(DomainError, match=r"contraction: 4 of 8 exact statistics are NaN"):
        check_contraction([[math.inf], [math.inf]], [1.0, 1.0], SpaceSpec(1), t_grid=[0.0])


def test_thm11_i_mc_matches_exact():
    sp = SpaceSpec(2, 1)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, (8, 2))
    tg = [0.2, 0.5, 0.9]
    exact = check_thm11_i(x, SQRT_PAIR, sp, t_grid=tg)
    mc = check_thm11_i(x, SQRT_PAIR, sp, t_grid=tg, mode="mc", R=40_000, key=KEY)
    for e, m in zip(exact, mc):
        assert m.lhs.ci_low <= e.lhs.p_hat <= m.lhs.ci_high
        assert m.rhs.ci_low <= e.rhs.p_hat <= m.rhs.ci_high
        assert m.verdict != "violated"


def _thm11_i_rows(x, fp, space, mode):
    reports = check_thm11_i(x, fp, space, mode=mode, R=2000, key=KEY)
    return [(r.t, r.lhs.successes, r.rhs.successes, r.verdict) for r in reports]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1.0, 2.0, math.inf]),
)
def test_thm11_i_rows_keep_under_negation_and_power_of_two_scaling(seed, n, dim, q):
    # x -> -x and (x, b) -> (4x, 4b) are exact in floating point, so every
    # count and verdict must stay, in both modes, with no tolerance
    rng = np.random.default_rng(seed)
    space = SpaceSpec(dim, q)
    a = np.cumsum(rng.uniform(0.1, 1.0, 16))
    b = a * (np.cumsum(rng.uniform(0.0, 0.3, 16)) + rng.uniform(0.5, 1.5))
    x = rng.uniform(-1.0, 1.0, (n, dim)) * (b[n - 1] / dim)
    pair, pair4 = (build_function_pair(NormingPair(a=a, b=c * b)) for c in (1.0, 4.0))
    for mode in ("exact", "mc"):
        rows = _thm11_i_rows(x, pair, space, mode)
        assert _thm11_i_rows(-x, pair, space, mode) == rows
        assert _thm11_i_rows(4.0 * x, pair4, space, mode) == rows


# -------------------------------------------------------------- contraction


def test_contraction_exact_all_hold():
    sp = SpaceSpec(3, np.inf)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 3))
    w = rng.uniform(-1.0, 1.0, 7)
    for r in check_contraction(x, w, sp):
        assert r.verdict == "holds"
        assert r.name == "contraction"


def test_contraction_unit_weights_share_events():
    sp = SpaceSpec(1, 2)
    x = [[0.4], [1.1], [-0.6]]
    for r in check_contraction(x, [1.0, 1.0, 1.0], sp, t_grid=[0.0, 0.5, 1.5]):
        assert r.lhs.p_hat == r.rhs.p_hat
        assert r.slack == r.lhs.p_hat


def test_contraction_weight_validation():
    sp = SpaceSpec(1, 2)
    with pytest.raises(ConfigurationError, match=r"i = 2"):
        check_contraction([[1.0], [1.0]], [0.5, -1.2], sp)
    with pytest.raises(ConfigurationError, match="length"):
        check_contraction([[1.0], [1.0]], [0.5], sp)
    with pytest.raises(ConfigurationError, match="R >= 100"):
        check_contraction([[1.0], [1.0]], [0.5, -0.5], sp, mode="mc", R=50, key=KEY)


def test_contraction_mc_matches_exact():
    sp = SpaceSpec(1, 2)
    x = [[1.0], [0.8], [-1.2], [0.3], [2.0]]
    w = [0.9, -0.4, 1.0, 0.0, -0.7]
    tg = [0.5, 1.5, 2.5]
    exact = check_contraction(x, w, sp, t_grid=tg)
    mc = check_contraction(x, w, sp, t_grid=tg, mode="mc", R=40_000, key=KEY)
    for e, m in zip(exact, mc):
        assert m.lhs.ci_low <= e.lhs.p_hat <= m.lhs.ci_high
        assert m.verdict != "violated"


# ------------------------------------------------------- exact sign counts


def _assert_every_pattern_counted(reports, u, u_scale, v, v_scale, space):
    # the successes over all 2^n patterns, summed term by term, at each report's t
    t = np.array([r.t for r in reports])
    for side, x, scale in (("lhs", u, u_scale), ("rhs", v, v_scale)):
        want = _counts_per_threshold(_per_bit_sign_norms(x, space), t * scale)[0].tolist()
        assert [getattr(r, side).successes for r in reports] == want, side
        assert {getattr(r, side).replications for r in reports} == {1 << len(x)}


def _check_thm11_i_counts(x, fp, space):
    reports = check_thm11_i(x, fp, space)
    a_n, b_n = reports[0].config["a_n"], reports[0].config["b_n"]
    t_vec = x * rescale_factors(norms(x, space), fp)[:, None]
    _assert_every_pattern_counted(reports, x, b_n, t_vec, a_n, space)


def _check_contraction_counts(x, w, space):
    _assert_every_pattern_counted(check_contraction(x, w, space), w[:, None] * x, 1.0, x, 1.0, space)


def test_exact_successes_count_every_sign_pattern():
    # exact mode enumerates the eps_n = +1 half and doubles its counts;
    # these are the configs of criteria 01 and 02, then n at the cap
    for x, fp, space in criterion_01_configs():
        _check_thm11_i_counts(x, fp, space)
    for x, w, space in criterion_02_configs():
        _check_contraction_counts(x, w, space)
    n = ENUMERATION_MAX_N
    space = SpaceSpec(2, np.inf)
    fp = build_function_pair(power_pair(n, 0.5, 1.0))
    _check_thm11_i_counts(uniform_in_ball(space, fp.pair.at(n)[1], KEY, n), fp, space)
    w = np.random.default_rng(20).uniform(-1.0, 1.0, n)
    _check_contraction_counts(uniform_in_ball(SpaceSpec(1, 2), 1.0, KEY.child(1), n), w, SpaceSpec(1, 2))


# -------------------------------------------------------------- thm 1.1(ii)


def test_thm11_ii_small_run():
    fp = build_function_pair(power_pair(64, 0.5, 1.0))
    reports = check_thm11_ii(rademacher(), fp, n=16, R=2000, key=KEY)
    assert len(reports) == 50
    for r in reports:
        assert r.verdict != "violated"
        assert r.factor == 4.0 and r.tail_weight == 16
        # random signs never exceed b_16 = 16, and the closed form knows it
        assert r.tail_term.exact and r.tail_term.p_hat == 0.0
    assert reports[0].t == 0.0 and reports[-1].t == 3.0


def test_thm11_ii_empirical_tail_term():
    fp = build_function_pair(power_pair(64, 0.75, 1.0))
    reports = check_thm11_ii(stable_symmetric(1.5), fp, n=16, R=1000, key=KEY)
    tt = reports[0].tail_term
    assert not tt.exact
    assert tt.replications == 16 * 1000
    # P(|X| > 16) for the 1.5-stable is tiny but positive
    assert 0.0 <= tt.p_hat < 0.01


PARETO_IID_2 = pareto_symmetric(0.005, SpaceSpec(dim=2), lifting="iid_coordinates")


def test_thm11_ii_refuses_nan_statistics():
    # about 3 % of pareto(0.005) draws overflow to +-inf, so some sums are
    # inf - inf = NaN; counted as non-events they made the t = 0 tails read
    # 0.968 and 0.6275 where both are 1
    with pytest.raises(DomainError, match=r"thm11_ii: \d+ of 4000 Monte Carlo statistics are NaN"):
        check_thm11_ii(pareto_symmetric(0.005), SQRT_PAIR, n=16, R=2000, key=KEY)
    # from dim 2 on the summand sums take einsum, not the reduce
    with pytest.raises(DomainError, match=r"thm11_ii: \d+ of 4000 Monte Carlo statistics are NaN"):
        check_thm11_ii(PARETO_IID_2, SQRT_PAIR, n=16, R=2000, key=KEY)


def test_wlln_refuses_nan_statistics():
    pair = power_pair(16, 1.0, 1.0)
    kw = dict(n_grid=[4, 16], R=500, key=KEY)
    with pytest.raises(DomainError, match=r"run_wlln: \d+ of 1000 Monte Carlo statistics are NaN"):
        run_wlln(pareto_symmetric(0.005), pair, **kw)
    with pytest.raises(DomainError, match=r"cross_check_symmetrization: \d+ of 2000 "):
        cross_check_symmetrization(pareto_symmetric(0.005), pair, criterion_R=1, **kw)
    with pytest.raises(DomainError, match=r"run_wlln: \d+ of 1000 Monte Carlo statistics are NaN"):
        run_wlln(PARETO_IID_2, pair, **kw)
    with pytest.raises(DomainError, match=r"cross_check_symmetrization: \d+ of 2000 "):
        cross_check_symmetrization(PARETO_IID_2, pair, criterion_R=1, **kw)
    # the symmetrized criterion sequence samples ||X - X'||, which overflows too
    with pytest.raises(DomainError, match=r"criterion sequence: \d+ of 1000 Monte Carlo"):
        cross_check_symmetrization(pareto_symmetric(0.005), pair, criterion_R=1000, **kw)


def test_thm11_ii_sides_replay_the_block_streams():
    # block i draws V from KEY.child(i); the left side sums V on the b_n
    # scale and the right side sums the rescaled T_i on the a_n scale, so
    # rescaling V before the left side is taken moves the left counts
    d, n, R, block = pareto_symmetric(1.5), 16, 1000, 512
    reports = check_thm11_ii(d, SQRT_PAIR, n, R=R, key=KEY, block_size=block)
    a_n, b_n = SQRT_PAIR.pair.at(n)
    t = np.array([r.t for r in reports])
    lhs = np.zeros(t.size, dtype=int)
    rhs = np.zeros(t.size, dtype=int)
    for i, m in enumerate((block, R - block)):
        v = draw(d, KEY.child(i).generator(), (m, n))[..., 0]
        scaled = v * rescale_factors(np.abs(v), SQRT_PAIR)
        lhs += (np.abs(v.sum(axis=1))[:, None] / b_n > t).sum(axis=0)
        rhs += (np.abs(scaled.sum(axis=1))[:, None] / a_n > t).sum(axis=0)
    assert [r.lhs.successes for r in reports] == lhs.tolist()
    assert [r.rhs.successes for r in reports] == rhs.tolist()
    assert lhs[5] != rhs[5]  # the rescale does move this law's sums


def test_thm11_ii_block_memory():
    # one block of m = 4096 replications of n = 64 radial draws in R^3: the
    # draw holds m * n * 3 floats, and the magnitudes, the directions' norms
    # and one temporary of those norms are three (m, n) arrays next to it;
    # the rescale then scales the draw in place, so the block peaks at about
    # the draw plus three (m, n) arrays (the previous kernel took 8, with a
    # second (m, n, 3) array for the rescaled vectors)
    m, n = 4096, 64
    d = pareto_symmetric(1.5, SpaceSpec(dim=3), lifting="radial")
    fp = build_function_pair(power_pair(64, 0.5, 1.0))
    check_thm11_ii(d, fp, n, R=m, key=KEY, block_size=m)  # imports and caches out of the count
    tracemalloc.start()
    try:
        check_thm11_ii(d, fp, n, R=m, key=KEY, block_size=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mn = m * n * 8
    assert peak < 3 * mn + 3.5 * mn, peak / mn


def test_thm11_ii_requires_symmetry():
    fp = build_function_pair(power_pair(8, 0.5, 1.0))
    with pytest.raises(ConfigurationError, match="symmetric"):
        check_thm11_ii(pareto_one_sided(2.0), fp, n=4, R=1000, key=KEY)


def test_thm11_ii_validation():
    fp = build_function_pair(power_pair(8, 0.5, 1.0))
    with pytest.raises(ConfigurationError, match="StreamKey"):
        check_thm11_ii(rademacher(), fp, n=4)
    for n in (0, 9):
        with pytest.raises(ConfigurationError, match=rf"n must lie in \[1, 8\] .* got {n}"):
            check_thm11_ii(rademacher(), fp, n=n, R=1000, key=KEY)
    with pytest.raises(ConfigurationError, match="R >= 100"):
        check_thm11_ii(rademacher(), fp, n=4, R=50, key=KEY)
    bad = build_function_pair(NormingPair(a=[1.0, 4.0], b=[2.0, 3.0]))
    with pytest.raises(ConfigurationError, match="nondecreasing"):
        check_thm11_ii(rademacher(), bad, n=2, R=1000, key=KEY)
    # b/a dips by 5e-13 at the knots, inside the monotone check's slack,
    # but the continuation's limit 1 / slope_ratio lies 5e-7 below b_2/a_2
    dips = build_function_pair(NormingPair(a=[1.0, 1.0 + 1e-6], b=[2.0, 2.0 + 2e-6 - 1e-12]))
    with pytest.raises(ConfigurationError, match="continuation"):
        check_thm11_ii(rademacher(), dips, n=2, R=1000, key=KEY)


# --------------------------------------------------------------------- levy


def test_levy_exact_single_summand():
    # with one summand the max and the sum coincide
    for r in check_levy(rademacher(), n=1, t_grid=[0.0, 0.5, 1.0, 1.9, 2.0, 3.0], mode="exact"):
        assert r.lhs.p_hat == r.rhs.p_hat
        assert r.verdict == "holds"


def _levy_oracle(n, thresholds):
    # enumerate all 4^n sign pairs directly; successes per threshold
    hits_max = [0] * len(thresholds)
    hits_sum = [0] * len(thresholds)
    for eps in itertools.product((-1, 1), repeat=n):
        for eps_p in itertools.product((-1, 1), repeat=n):
            diff = [a - b for a, b in zip(eps, eps_p)]
            biggest = max(abs(v) for v in diff)
            total = abs(sum(diff))
            for j, thr in enumerate(thresholds):
                hits_max[j] += biggest > thr
                hits_sum[j] += total > thr
    return hits_max, hits_sum


def test_levy_exact_against_product_oracle():
    # t * b_n lands exactly on 0, 2 and 4, where strict > decides
    for n in range(1, 7):
        for b_n in (1.0, 0.5, 2.0):
            tg = [0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 8.0, 2.0 * n, 3.3]
            reports = check_levy(rademacher(), n=n, t_grid=tg, b_n=b_n, mode="exact")
            want_l, want_r = _levy_oracle(n, [t * b_n for t in tg])
            assert [r.lhs.successes for r in reports] == want_l, (n, b_n)
            assert [r.rhs.successes for r in reports] == want_r, (n, b_n)
            for r in reports:
                assert r.lhs.replications == r.rhs.replications == 4**n
                assert r.verdict == "holds"


def test_levy_exact_mode_limits():
    with pytest.raises(ConfigurationError, match="random-sign"):
        check_levy(uniform_ball(1.0), n=2, mode="exact")
    with pytest.raises(ConfigurationError, match="random-sign"):
        check_levy(rademacher(SpaceSpec(2, 2), lifting="iid_coordinates"), n=2, mode="exact")
    with pytest.raises(ConfigurationError, match="exact budget"):
        check_levy(rademacher(), n=LEVY_EXACT_MAX_N + 1, mode="exact")


def test_levy_exact_at_the_int64_cap():
    # n = 31: 4^n = 2^62 sign pairs, still an int64 count; closed forms
    # at t * b_n = 0, 1, 2, 61 and 62
    n = LEVY_EXACT_MAX_N
    assert n == 31
    total = 4**n
    reports = check_levy(rademacher(), n=n, t_grid=[0.0, 1.0, 2.0, 61.0, 62.0], mode="exact")
    # the maximal difference is 2 unless every difference is 0
    assert [r.lhs.successes for r in reports] == [total - 2**n] * 2 + [0] * 3
    no_sum = math.comb(2 * n, n)
    assert [r.rhs.successes for r in reports] == [
        total - no_sum,
        total - no_sum,
        total - no_sum - 2 * math.comb(2 * n, n - 1),
        2,  # S_n - S_n' = +-62 only when every difference agrees
        0,
    ]
    assert reports[2].rhs.successes == 3244490230740058458
    for r in reports:
        assert r.lhs.replications == r.rhs.replications == total
        assert r.verdict == "holds"


def test_levy_mc_matches_exact():
    tg = [0.5, 1.5, 2.5, 3.5]
    exact = check_levy(rademacher(), n=6, t_grid=tg, mode="exact")
    mc = check_levy(rademacher(), n=6, t_grid=tg, R=40_000, key=KEY)
    for e, m in zip(exact, mc):
        assert m.lhs.ci_low <= e.lhs.p_hat <= m.lhs.ci_high
        assert m.rhs.ci_low <= e.rhs.p_hat <= m.rhs.ci_high
        assert m.verdict != "violated"


def test_levy_keys_differing_only_in_replication_differ():
    # each block's key mixes in the caller's replication index
    totals = []
    for i in (1, 2):
        reports = check_levy(stable_symmetric(1.0), 4, R=1000, key=KEY.replication(i))
        totals.append(sum(r.lhs.successes + r.rhs.successes for r in reports))
    assert totals[0] != totals[1]


def test_levy_point_mass_degenerate():
    # X - X' is identically zero; both sides vanish and nothing fires
    d = point_mass([2.0, 1.0], space=SpaceSpec(2, 2))
    for r in check_levy(d, n=3, t_grid=[0.5, 1.0], R=1000, key=KEY):
        assert r.lhs.p_hat == 0.0 and r.rhs.p_hat == 0.0
        assert r.slack == 0.0
        assert r.verdict != "violated"


def test_levy_mc_refuses_nan_statistics():
    # inf - inf in X - X' is NaN on both sides, through the dim-2 summand sums
    with pytest.raises(DomainError, match=r"levy: \d+ of 4000 Monte Carlo statistics are NaN"):
        check_levy(PARETO_IID_2, 16, R=2000, key=KEY)


def test_levy_validation():
    with pytest.raises(ConfigurationError):
        check_levy(rademacher(), n=0)
    # b_n = NaN raised a misleading overflow error and b_n = inf zeroed every statistic
    for b_n in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="b_n must be positive and finite"):
            check_levy(rademacher(), n=2, b_n=b_n, R=1000, key=KEY)
    with pytest.raises(ConfigurationError, match="StreamKey"):
        check_levy(rademacher(), n=2)
    with pytest.raises(ConfigurationError, match="R >= 100"):
        check_levy(rademacher(), n=2, R=50, key=KEY)


# ------------------------------------------------------------ verdict layer


def test_contraction_is_sharp_at_a_known_answer():
    # x = (1, 1) in dim 1 with alpha = (1, 0): lhs P(|e_1| > t) = 1 and rhs
    # P(|e_1 + e_2| > t) = 1/2 for t < 1, so the bound 2 * 1/2 is met exactly
    reports = check_contraction([[1.0], [1.0]], [1.0, 0.0], SpaceSpec(1, 2), t_grid=[0.0, 0.5, 0.99])
    for r in reports:
        assert (r.lhs.p_hat, r.rhs.p_hat, r.rhs_bound) == (1.0, 0.5, 1.0)
        assert r.slack == 0.0
        assert r.verdict == "holds"
        assert r.sigma_margin == math.inf


def _lower_factor(monkeypatch, factor):
    """Every comparison from here on claims factor in place of its constant."""
    compare = suite._compare

    def lowered(name, tg, constant, *args, **kwargs):
        return compare(name, tg, factor, *args, **kwargs)

    monkeypatch.setattr(suite, "_compare", lowered)


def test_thm11_i_with_factor_below_two_is_violated(monkeypatch):
    # n = 2 with a_n = 2^0.25 and b_n = 2: at t = 0.98 lhs is 1 and rhs 1/2, so the
    # factor 2 is attained with slack 0, and both paths must catch a lower one
    fp = build_function_pair(power_pair(2, 0.25, 1.0))
    x, sp = [[0.024], [2.0]], SpaceSpec(1, 2)
    (r,) = check_thm11_i(x, fp, sp, t_grid=[0.98])
    assert (r.lhs.p_hat, r.rhs.p_hat, r.slack, r.verdict) == (1.0, 0.5, 0.0, "holds")
    _lower_factor(monkeypatch, 1.9)
    exact = check_thm11_i(x, fp, sp, t_grid=[0.98])
    mc = check_thm11_i(x, fp, sp, t_grid=[0.98], mode="mc", R=10**4, key=StreamKey(5))
    for r in exact + mc:
        assert (r.factor, r.verdict) == (1.9, "violated")
        assert r.sigma_margin < 0


def test_contraction_with_factor_below_two_is_violated(monkeypatch):
    # the instance of test_contraction_is_sharp_at_a_known_answer, where the factor 2 is attained
    x, w, sp = [[1.0], [1.0]], [1.0, 0.0], SpaceSpec(1, 2)
    _lower_factor(monkeypatch, 1.9)
    exact = check_contraction(x, w, sp, t_grid=[0.5])
    mc = check_contraction(x, w, sp, t_grid=[0.5], mode="mc", R=10**4, key=StreamKey(5))
    for r in exact + mc:
        assert (r.factor, r.verdict) == (1.9, "violated")
        assert r.sigma_margin < 0


def test_levy_with_factor_one_is_violated(monkeypatch):
    # at n = 2, for t * b_n < 2, lhs is 3/4 and rhs 5/8: the bound fails without its factor 2
    _lower_factor(monkeypatch, 1.0)
    exact = check_levy(rademacher(), n=2, t_grid=[0.5, 1.5], mode="exact")
    assert [(r.lhs.p_hat, r.rhs.p_hat) for r in exact] == [(0.75, 0.625)] * 2
    mc = check_levy(rademacher(), n=2, t_grid=[0.5, 1.5], R=10**4, key=KEY)
    for r in exact + mc:
        assert r.factor == 1.0
        assert r.verdict == "violated"
        assert r.sigma_margin < 0


def test_finish_report_verdict_boundaries():
    # every number is a binary fraction, so each boundary is met exactly
    rhs = _est(0.0625, 0.125, 0.25)
    tail = _est(0.03125, 0.0625, 0.125)
    cases = [
        # (tail term, bound, upper limit of the bound), factor 2, tail weight 2
        (None, 2 * 0.125, 2 * 0.25),
        (tail, 2 * 0.125 + 2 * 0.0625, 2 * 0.25 + 2 * 0.125),
    ]
    for tail_term, bound, bound_hi in cases:
        def verdict(low, p, high):
            return _finish_report("x", 0.5, _est(low, p, high), rhs, 2.0, tail_term, 2, {}).verdict

        r = _finish_report("x", 0.5, _est(bound_hi, bound_hi, 1.0), rhs, 2.0, tail_term, 2, {})
        assert (r.rhs_bound, r.rhs_bound_ci_high) == (bound, bound_hi)
        assert r.verdict == "inconclusive"
        assert verdict(np.nextafter(bound_hi, 1.0), 0.9, 1.0) == "violated"
        assert verdict(0.0, 0.0, bound) == "holds"
        assert verdict(0.0, 0.0, np.nextafter(bound, 1.0)) == "inconclusive"


def test_finish_report_sigma_margin():
    # _est has one replication, so each std_error is sqrt(p (1 - p))
    lhs = _est(0.125, 0.25, 0.375)
    rhs = _est(0.375, 0.5, 0.625)
    se2_lhs, se2_rhs = 0.25 * 0.75, 0.5 * 0.5
    r = _finish_report("x", 0.5, lhs, rhs, 2.0, None, 0, {})
    assert r.slack == 0.75
    assert r.sigma_margin == pytest.approx(0.75 / math.sqrt(se2_lhs + 4 * se2_rhs), rel=1e-12)
    tail = _est(0.0625, 0.125, 0.25)
    r = _finish_report("x", 0.5, lhs, rhs, 2.0, tail, 3, {})
    assert (r.rhs_bound, r.rhs_bound_ci_high) == (1.0 + 3 * 0.125, 2 * 0.625 + 3 * 0.25)
    se2_tail = 0.125 * 0.875
    assert r.sigma_margin == pytest.approx(
        1.125 / math.sqrt(se2_lhs + 4 * se2_rhs + 9 * se2_tail), rel=1e-12
    )
    # no standard error at all: the margin is infinite, signed by the slack
    known = TailEstimate.known
    assert _finish_report("x", 0.5, known(0.25), known(0.5), 1.0, None, 0, {}).sigma_margin == math.inf
    r = _finish_report("x", 0.5, known(0.75), known(0.5), 1.0, known(0.125), 1, {})
    assert (r.slack, r.sigma_margin, r.verdict) == (-0.125, -math.inf, "violated")


# ------------------------------------------------------- threshold counting

_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0]
_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIAL))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_counts_per_threshold_matches_boolean_matrix(data):
    stat = np.array(data.draw(st.lists(_VALUES, max_size=40)), dtype=float)
    # thresholds are unsorted, may repeat, and may tie with entries of stat
    ties = st.sampled_from(stat.tolist()) if stat.size else _VALUES
    thr = np.array(data.draw(st.lists(st.one_of(_VALUES, ties), min_size=1, max_size=12)), dtype=float)
    hits = stat[:, None] > thr[None, :]
    nan = int(np.isnan(stat).sum())
    counts, got_nan = _counts_per_threshold(stat, thr)
    assert np.array_equal(counts, hits.sum(axis=0)) and got_nan == nan


# ------------------------------------------------------- randomized soundness


def _random_vectors(rng, n, space, cap):
    key = StreamKey(int(rng.integers(0, 2**63)))
    return uniform_in_ball(space, cap, key, n)


@pytest.mark.parametrize("seed", range(4))
def test_mc_sweep_never_reports_violated(seed):
    # 200 random Monte Carlo configs across all four comparisons; with
    # true inequalities and 0.99 bounds a single 'violated' is evidence
    # of a coupling or counting bug, not of bad luck
    rng = np.random.default_rng(1000 + seed)
    laws = [
        rademacher(),
        pareto_symmetric(1.5),
        stable_symmetric(1.0),
        stable_symmetric(2.0),
        uniform_ball(2.0),
    ]
    for rep in range(50):
        kind = rep % 4
        key = KEY.replication(seed * 64 + rep + 1)
        dim = int(rng.integers(1, 4))
        q = float(rng.choice([1.0, 2.0, np.inf]))
        space = SpaceSpec(dim, q)
        n = int(rng.integers(2, 11))
        pair = build_function_pair(
            power_pair(16, float(rng.uniform(0.3, 1.0)), 1.0)
        )
        if kind == 0:
            x = _random_vectors(rng, n, space, float(pair.pair.b[n - 1]))
            reports = check_thm11_i(x, pair, space, mode="mc", R=2000, key=key)
        elif kind == 1:
            x = _random_vectors(rng, n, space, 2.0)
            w = rng.uniform(-1.0, 1.0, n)
            reports = check_contraction(x, w, space, mode="mc", R=2000, key=key)
        elif kind == 2:
            d = laws[rep % 5]
            if d.space.dim != 1:
                d = rademacher()
            reports = check_levy(d, n=n, R=2000, key=key)
        else:
            d = laws[rep % 5]
            reports = check_thm11_ii(d, pair, n=n, R=2000, key=key)
        for r in reports:
            assert r.verdict != "violated", (kind, rep, r.t, r.lhs, r.rhs_bound_ci_high)


# --------------------------------------------------------------------- wlln


def test_classify_rules():
    conv = _est(0.0, 0.001, 0.01)
    big = _est(0.2, 0.3, 0.4)
    mid = _est(0.01, 0.05, 0.12)
    assert _classify([[big, big], [conv, conv]], TAU_CONVERGES, DELTA_BOUNDED_AWAY) == "converges"
    assert _classify([[big, big], [big, big]], TAU_CONVERGES, DELTA_BOUNDED_AWAY) == "bounded_away"
    # the second-to-last row also has to stay large for bounded_away
    assert _classify([[mid, mid], [big, big]], TAU_CONVERGES, DELTA_BOUNDED_AWAY) == "undecided"
    assert _classify([[big, big], [mid, mid]], TAU_CONVERGES, DELTA_BOUNDED_AWAY) == "undecided"
    # a single-row history can still be bounded away
    assert _classify([[big, big]], TAU_CONVERGES, DELTA_BOUNDED_AWAY) == "bounded_away"


def test_branches_are_exclusive():
    # ci_high <= tau < delta <= ci_low cannot hold at once
    assert TAU_CONVERGES < DELTA_BOUNDED_AWAY


def test_wlln_validation():
    pair = power_pair(16, 0.5, 1.0)
    d = uniform_ball(1.0)
    with pytest.raises(ConfigurationError, match="StreamKey"):
        run_wlln(d, pair)
    with pytest.raises(ConfigurationError, match="R >= 100"):
        run_wlln(d, pair, R=10, key=KEY)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        run_wlln(d, pair, n_grid=[4, 4], R=1000, key=KEY)
    with pytest.raises(ConfigurationError, match="pair length"):
        run_wlln(d, pair, n_grid=[4, 32], R=1000, key=KEY)
    with pytest.raises(ConfigurationError, match=r"n must lie in \[1, 16\] .* got 0"):
        run_wlln(d, pair, n_grid=[0, 4], R=1000, key=KEY)
    # criterion_R = 0 divided by zero and a negative one reached numpy
    for criterion_R in (0, -5):
        with pytest.raises(ConfigurationError, match=f"criterion_R must be >= 1, got {criterion_R}"):
            cross_check_symmetrization(pareto_one_sided(2.0), pair, R=200, key=KEY, criterion_R=criterion_R)
    with pytest.raises(ConfigurationError, match="lambda_grid"):
        run_wlln(d, pair, lambda_grid=[0.5, 0.5], R=1000, key=KEY)
    with pytest.raises(ConfigurationError, match="lambda_grid must be strictly increasing"):
        cross_check_symmetrization(d, pair, lambda_grid=[1.0, 0.5], R=1000, key=KEY)
    bad = NormingPair(a=[1.0, 4.0], b=[2.0, 3.0])
    with pytest.raises(ConfigurationError, match="nondecreasing"):
        run_wlln(d, bad, R=1000, key=KEY)


def test_wlln_uniform_converges():
    diag = run_wlln(uniform_ball(1.0), power_pair(64, 0.5, 1.0), R=4000, key=KEY)
    assert diag.classification == "converges"
    assert diag.n_grid == (2, 4, 8, 16, 32, 64)
    # bounded law, b_n = n >= 1: the criterion sequence is exactly zero
    for c in diag.criterion:
        assert c.analytic and c.value == 0.0
    for g in diag.gammas:
        assert g.tolist() == [0.0]


def test_wlln_cauchy_bounded_away_with_flat_estimates():
    diag = run_wlln(stable_symmetric(1.0), power_pair(64, 1.0, 1.0), R=4000, key=KEY)
    assert diag.classification == "bounded_away"
    # S_n / n is again standard Cauchy at every n, so every row should
    # sit on the same curve 1 - 2 arctan(lambda) / pi
    for row in diag.estimates:
        for est, lam in zip(row, diag.lambda_grid):
            want = 1.0 - 2.0 * math.atan(lam) / math.pi
            assert abs(est.p_hat - want) < 5.0 * max(est.std_error, 1e-4), (lam, est.p_hat, want)
    # n P(|X| > n) -> 2 / pi
    last = diag.criterion[-1]
    assert last.analytic
    assert last.value == pytest.approx(2.0 / math.pi, rel=0.01)


def test_wlln_undecided_when_underpowered():
    # impossible events keep every count at zero, but 150 replications
    # cannot push the upper bound below tau, and zero is below delta
    diag = run_wlln(
        uniform_ball(1.0), power_pair(8, 0.5, 1.0), n_grid=[4, 8], lambda_grid=[2.0], R=150, key=KEY
    )
    assert diag.estimates[-1][0].p_hat == 0.0
    assert diag.classification == "undecided"


def test_wlln_deterministic_and_thread_invariant():
    d = pareto_symmetric(1.5)
    pair = power_pair(32, 1.0, 1.0)
    a = run_wlln(d, pair, R=2000, key=KEY)
    b = run_wlln(d, pair, R=2000, key=KEY)
    c = run_wlln(d, pair, R=2000, key=KEY, threads=3)
    for ra, rb, rc in zip(a.estimates, b.estimates, c.estimates):
        for ea, eb, ec in zip(ra, rb, rc):
            assert ea.successes == eb.successes == ec.successes


def test_wlln_block_boundaries_do_not_change_marginals():
    # same draws per replication regardless of how R splits into blocks
    d = uniform_ball(1.0)
    pair = power_pair(16, 1.0, 1.0)
    a = run_wlln(d, pair, R=1000, key=KEY, block_size=1000)
    b = run_wlln(d, pair, R=1000, key=KEY, block_size=1000, threads=2)
    for ra, rb in zip(a.estimates, b.estimates):
        for ea, eb in zip(ra, rb):
            assert ea.successes == eb.successes


def test_wlln_gamma_pareto_closed_form():
    diag = run_wlln(pareto_one_sided(2.0), power_pair(32, 1.0, 1.0), R=1000, key=KEY)
    for n, g in zip(diag.n_grid, diag.gammas):
        assert g[0] == pytest.approx(2.0 * n - 2.0, rel=1e-12)


def test_wlln_estimates_monotone_in_lambda():
    diag = run_wlln(stable_symmetric(1.3), power_pair(32, 1.0, 1.0), R=2000, key=KEY)
    for row in diag.estimates:
        ps = [e.p_hat for e in row]
        assert all(x >= y for x, y in zip(ps, ps[1:]))


def test_wlln_monte_carlo_gamma_mode():
    d = shifted(uniform_ball(1.0), [0.25])
    diag = run_wlln(
        d, power_pair(16, 1.0, 1.0), n_grid=[4, 16], R=1000, key=KEY,
        gamma_mode="monte_carlo", gamma_R=5000,
    )
    # gamma_n tracks n E[X 1{|X| <= n}] = 0.25 n here
    for n, g in zip(diag.n_grid, diag.gammas):
        assert g[0] == pytest.approx(0.25 * n, abs=0.05 * n)


# -------------------------------------------------------------- cross-check


def test_cross_check_converging_case():
    d = shifted(pareto_one_sided(3.0), [-1.5])
    pair = power_pair(256, 0.5, 1.0)
    out = cross_check_symmetrization(d, pair, n_grid=[16, 64, 256], R=3000, key=KEY)
    assert out.plain.classification == "converges"
    assert out.symmetrized.classification == "converges"
    assert out.classifications_agree
    for g in out.symmetrized.gammas:
        assert g.tolist() == [0.0]
    assert out.plain.config["variant"] == "centered"
    assert out.symmetrized.config["variant"] == "symmetrized"


def test_cross_check_diverging_case():
    d = stable_symmetric(1.0)
    pair = power_pair(256, 1.0, 1.0)
    out = cross_check_symmetrization(d, pair, n_grid=[16, 64, 256], R=3000, key=KEY)
    assert out.plain.classification == "bounded_away"
    assert out.symmetrized.classification == "bounded_away"
    assert out.classifications_agree
    # symmetrized criterion estimates the tail of X - X' by sampling
    assert all(not c.analytic for c in out.symmetrized.criterion)
    assert all(c.analytic for c in out.plain.criterion)


def _successes(diag):
    return [[e.successes for e in row] for row in diag.estimates]


def test_criterion_counts_add_up_over_budgeted_draws():
    # pareto_one_sided takes all its vectors from one generator call, so three
    # budgeted draws count what one draw of all criterion_R vectors counts;
    # the symmetrized sequence draws X and then X' per draw
    d = pareto_one_sided(1.5, SpaceSpec(2, 2.0), "iid_coordinates")
    pair = power_pair(64, 0.5, 1.0)
    step = _BUDGET_ELEMENTS // 2
    R = 2 * step + 1234
    out = cross_check_symmetrization(
        d, pair, n_grid=[2, 8, 64], R=100, key=KEY, gamma_R=100, criterion_R=R
    )
    b_at = [2.0, 8.0, 64.0]
    x = draw(d, KEY.substream(STREAM_CRITERION).generator(), R)
    want = [int(np.count_nonzero(norms(x, d.space) > b)) for b in b_at]
    assert [c.p.successes for c in out.plain.criterion] == want
    rng = KEY.substream(STREAM_CRITERION_SYMM).generator()
    diffs = [draw(d, rng, size) - draw(d, rng, size) for size in (step, step, 1234)]
    want = [int(np.count_nonzero(norms(np.concatenate(diffs), d.space) > b)) for b in b_at]
    assert [c.p.successes for c in out.symmetrized.criterion] == want


def test_criterion_nan_count_covers_every_draw():
    # ||X - X'|| of pareto_symmetric(0.005) overflows to inf - inf in each of the
    # three draws; the refusal counts the NaNs of all criterion_R differences
    d = pareto_symmetric(0.005)
    step = _BUDGET_ELEMENTS
    R = 2 * step + 1234
    rng = KEY.substream(STREAM_CRITERION_SYMM).generator()
    with np.errstate(invalid="ignore"):
        per_draw = [int(np.isnan(draw(d, rng, size) - draw(d, rng, size)).sum()) for size in (step, step, 1234)]
    assert per_draw[1] > 0
    with pytest.raises(DomainError, match=rf"criterion sequence: {sum(per_draw)} of {R} Monte Carlo"):
        _criterion_points(d, [4, 16], [4.0, 16.0], KEY, R, 0.95, symmetrized=True)


def test_weak_law_memory_is_bounded():
    # every weak-law array holds at most _BUDGET_ELEMENTS floats: m * n * dim =
    # 256 * 4096 * 2 is 8 budgets, and gamma_R = criterion_R = 2e6 vectors in R^2
    # are 15 budgets each, yet the whole run stays within a few budgets
    d = pareto_one_sided(1.5, SpaceSpec(2, 2.0), "iid_coordinates")
    pair = power_pair(4096, 0.5, 1.0)
    budget = 8 * _BUDGET_ELEMENTS
    run_wlln(d, pair, n_grid=[2], R=100, key=KEY, gamma_R=100, criterion_R=100)  # imports out of the count
    for run in (run_wlln, cross_check_symmetrization):
        tracemalloc.start()
        try:
            run(d, pair, n_grid=[4096], R=256, key=KEY, gamma_R=2 * 10**6, criterion_R=2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget, (run.__name__, peak / budget)


def test_weak_law_stream_layout_is_pinned():
    # recorded integer successes: they move if a runner reorders the X and
    # X' draws of a chunk or lands a draw in another replication.  Three
    # blocks of at most 128; gamma_n and the criterion are sampled.
    d = pareto_one_sided(1.5, SpaceSpec(2, 2.0), "iid_coordinates")
    pair = power_pair(16, 1.0, 1.0)
    kw = dict(
        n_grid=[4, 16], R=300, key=StreamKey(2718), block_size=128, gamma_R=1000, criterion_R=1000
    )
    for threads in (1, 2):
        diag = run_wlln(d, pair, threads=threads, **kw)
        both = cross_check_symmetrization(d, pair, threads=threads, **kw)
        assert not diag.criterion[0].analytic
        assert diag.gammas[0].tolist() == both.plain.gammas[0].tolist()
        assert diag.gammas[0].tolist() != [0.0, 0.0]
        # the centered counts follow gamma_n, one draw from the key's gamma substream;
        # the symmetrized counts and the criterion do not depend on it
        assert _successes(diag) == [[255, 203, 135, 63], [264, 166, 80, 40]]
        assert _successes(both.plain) == [[255, 203, 135, 63], [267, 166, 81, 32]]
        assert _successes(both.symmetrized) == [[288, 260, 182, 110], [283, 250, 173, 68]]
        assert [c.p.successes for c in both.symmetrized.criterion] == [199, 34]


def test_cross_check_deterministic():
    d = uniform_ball(1.0)
    pair = power_pair(32, 1.0, 1.0)
    a = cross_check_symmetrization(d, pair, R=1000, key=KEY)
    b = cross_check_symmetrization(d, pair, R=1000, key=KEY, threads=2)
    for ra, rb in zip(a.symmetrized.estimates, b.symmetrized.estimates):
        for ea, eb in zip(ra, rb):
            assert ea.successes == eb.successes
