"""Mutation check: does the fast test subset fail when the program is wrong?

    python3 tools/mutants.py

Each mutant is one exact-match text replacement in one file under src/.
For each, the runner copies src/, tests/, bench/, tools/ and
pyproject.toml into a temporary directory (the golden-digest test runs
the benchmark workloads through tools/csv_digests.py), applies the
replacement there, runs the fast test subset (the guard tests, then
every test file but the acceptance gate, without the console-script
test, stopping at the first failure) and prints "killed" when a test
fails or "survived" when all pass.  A mutant that makes the subset run
longer than four times the unmutated run plus 30 s (a loop that never
ends, say) counts as killed; its whole process group is killed with it.
An unmutated run goes first and must pass, and a replacement whose text
does not occur exactly once is an error, so a stale mutant can never
count as killed.  Every mutant runs each time, so the printed score
always means the same thing; the exit code is 0 when every one was
killed.

The technique is DeMillo, Lipton & Sayward, "Hints on test data
selection" (IEEE Computer, 1978).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAST_TESTS = sorted(
    p.name for p in (ROOT / "tests").glob("test_*.py") if p.name != "test_acceptance.py"
)
DESELECT = ["tests/test_cli.py::test_console_script_installed"]
# run first as well as in their files: a mutant that makes every Monte Carlo
# pass loop forever fails one of these at once instead of running into the timeout
GUARDS = ["tests/test_estimator.py::test_mc_counts_claims_each_block_once"]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/sumtails
    old: str
    new: str


MUTANTS = (
    # the verdict arithmetic
    Mutant("never_violated", "suite.py", "    if lhs.ci_low > bound_hi:", "    if False:"),
    Mutant(
        "sigma_without_rhs",
        "suite.py",
        "se2 = lhs.std_error**2 + (factor * rhs.std_error) ** 2",
        "se2 = lhs.std_error**2",
    ),
    Mutant(
        "tail_limit_from_p_hat",
        "suite.py",
        "th = tail_term.ci_high if tail_term",
        "th = tail_term.p_hat if tail_term",
    ),
    # column-wise norms, the bounds and the exact weights
    Mutant(
        "columns_past_pairwise",
        "space.py",
        "elif q in (1.0, 2.0) and dim < _PAIRWISE_TERMS:",
        "elif q in (1.0, 2.0):",
    ),
    Mutant("no_scalar_unwrap", "space.py", "return out[..., 0][()]", "return out[..., 0]"),
    Mutant("reduce_follows_layout", "space.py", 'np.multiply(a, a, order="C")', "np.multiply(a, a)"),
    Mutant(
        "summand_sums_scalar_einsum",
        "space.py",
        "    if v.shape[-1] == 1:\n        return v.sum(axis=1)\n    return np.einsum",
        "    return np.einsum",
    ),
    Mutant(
        "zero_success_mask", "estimator.py", "low = np.where(k == 0, 0.0,", "low = np.where(k < 0, 0.0,"
    ),
    Mutant("scalar_bounds_as_arrays", "estimator.py", "return float(low), float(high)", "return low, high"),
    Mutant(
        "upper_bound_at_lower_tail",
        "estimator.py",
        "betaincinv(k + 1, n - k, 1.0 - tail)",
        "betaincinv(k + 1, n - k, tail)",
    ),
    Mutant(
        "lower_bound_shape_off_by_one",
        "estimator.py",
        "betaincinv(k, n - k + 1, tail)",
        "betaincinv(k, n - k, tail)",
    ),
    Mutant(
        "fractional_successes_accepted",
        "estimator.py",
        'counts = k.dtype.kind in "iu" and np.asarray(n).dtype.kind in "iu" and n >= 1',
        "counts = True",
    ),
    # start-up: only a Monte Carlo interval may load scipy
    Mutant(
        "eager_scipy_import",
        "estimator.py",
        "import numpy as np\n",
        "import numpy as np\nfrom scipy.special import betaincinv\n",
    ),
    Mutant("levy_comb_index", "suite.py", "math.comb(2 * n, j)", "math.comb(2 * n + 1, j)"),
    Mutant("shifted_lifting_accepted", "cli.py", '        if "lifting" in dc:', "        if False:"),
    Mutant("rescale_at_zero", "transforms.py", "positive = part > 0.0", "positive = part >= 0.0"),
    Mutant(
        "contraction_weights_dropped", "suite.py", '"contraction", w[:, None] * xa, 1.0,', '"contraction", xa, 1.0,'
    ),
    # the one signed-sum pass and the one count-to-estimate builder
    Mutant("v_scale_ignored_in_sides", "suite.py", "norms(signs @ v, space) / v_scale", "norms(signs @ v, space)"),
    Mutant(
        "exact_estimates_get_intervals",
        "estimator.py",
        "    if exact:\n        k = _require_counts(counts, reps)",
        "    if False:\n        k = _require_counts(counts, reps)",
    ),
    Mutant(
        "confidence_checked_after_pass",
        "suite.py",
        "    _require_confidence(confidence)\n    if mode == \"mc\":\n",
        "    if mode == \"mc\":\n",
    ),
    Mutant(
        "thm11_i_ratio_unchecked",
        "suite.py",
        "    a_n, b_n = fp.pair.at(n)\n    _require_ratio_monotone(fp.pair)\n",
        "    a_n, b_n = fp.pair.at(n)\n",
    ),
    Mutant(
        "continuation_unchecked",
        "suite.py",
        "    if fp.slope_ratio * pair.b[-1] > (1.0 + 1e-12) * pair.a[-1]:",
        "    if False:",
    ),
    # the piecewise-linear maps: segment location and the continuation
    Mutant("steep_gap_accepted", "norming.py", "    if np.any(steep):", "    if False:"),
    Mutant(
        "integer_segment_clamped_low",
        "norming.py",
        "return np.fmin(x, self.xs.size - 1).astype(np.intp)",
        "return np.fmin(x, self.xs.size - 2).astype(np.intp)",
    ),
    Mutant("searchsorted_left", "norming.py", 'side="right") - 1', 'side="left") - 1'),
    Mutant("continuation_dropped", "norming.py", "np.append(slopes, slopes[-1])", "np.append(slopes, 0.0)"),
    Mutant(
        "scaled_before_lhs",
        "suite.py",
        "        s_l = norms(_summand_sums(v), space) / b_n\n        v *= rescale_factors(nv, fp)[..., None]",
        "        v *= rescale_factors(nv, fp)[..., None]\n        s_l = norms(_summand_sums(v), space) / b_n",
    ),
    # the Monte Carlo gamma_n grid: bins, their accumulation and the NaN refusal
    Mutant(
        "gamma_tie_outside",
        "transforms.py",
        'np.searchsorted(b, nx, side="left")',
        'np.searchsorted(b, nx, side="right")',
    ),
    Mutant("gamma_bin_off_by_one", "transforms.py", "b.size + 1)[:, :-1].T", "b.size + 1)[:, 1:].T"),
    Mutant(
        "gamma_nan_dropped",
        "transforms.py",
        '        _refuse_nan(nan, R, "gamma_n", "Monte Carlo")\n',
        "",
    ),
    # the byte budget: gamma_n and the criterion add up their budgeted draws
    Mutant("gamma_chunk_overwrites", "transforms.py", "partial += sums.reshape(", "partial = sums.reshape("),
    Mutant(
        "budget_ignored_in_gamma",
        "transforms.py",
        "for size in _budget_draws(R, dim):",
        "for size in [R]:",
    ),
    Mutant("criterion_last_chunk_only", "suite.py", "            counts += part\n", "            counts = part\n"),
    Mutant("gamma_nan_last_draw_only", "transforms.py", "nan += int(np.count_nonzero(", "nan = int(np.count_nonzero("),
    Mutant("criterion_nan_last_draw_only", "suite.py", "nan += part_nan", "nan = part_nan"),
    Mutant(
        "budget_ignored_in_criterion",
        "suite.py",
        "for size in _budget_draws(criterion_R, d.space.dim):",
        "for size in [criterion_R]:",
    ),
    Mutant(
        "budget_ignored_in_chunks",
        "suite.py",
        "chunk = max(1, _BUDGET_ELEMENTS // (k * m * dim))",
        "chunk = max(1, (1 << 22) // (k * m * dim))",
    ),
    # the samplers
    Mutant("sign_bit_strict", "sources.py", "upper = u >= 0.5", "upper = u > 0.5"),
    Mutant(
        "uniform_l2_directions",
        "sources.py",
        "g = rng.standard_normal(full)",
        "g = rng.uniform(-1.0, 1.0, full)",
    ),
    Mutant(
        "unsigned_l1_directions",
        "sources.py",
        "g = rng.standard_exponential(full) * _random_signs(rng, full)",
        "g = rng.standard_exponential(full)",
    ),
    Mutant("signs_without_count", "sources.py", "dtype=np.uint8), count=n)", "dtype=np.uint8))"),
    Mutant("pareto_magnitude_unscaled", "sources.py", "        u *= 2.0\n", ""),
    # one random vector's radius one ulp larger: only the golden digests see it, through the
    # default t grid of exact_enumeration at seed 401 (most one-ulp moves there change no byte)
    Mutant(
        "one_draw_one_ulp",
        "sources.py",
        "    return dirs * radii[:, None]\n",
        "    radii[6 % count] = np.nextafter(radii[6 % count], np.inf)\n    return dirs * radii[:, None]\n",
    ),
    # stream keys
    Mutant("child_ignores_replication", "sources.py", "if self.replication_index == 0:", "if True:"),
    Mutant(
        "blocks_overwrite_replication",
        "estimator.py",
        "rng = key.child(i).generator()",
        "rng = key.replication(i).generator()",
    ),
    Mutant(
        "sweep_seed_plus_index",
        "cli.py",
        'StreamKey(cfg["seed"], index).child(0)',
        'StreamKey(cfg["seed"] + index)',
    ),
    # one compile before any pass: validate applies every checker rule, run compiles every config first
    Mutant("validate_skips_checker_rules", "cli.py", "    _build(parent, prepare, *args, **kwargs)\n", ""),
    Mutant(
        "sweep_passes_before_compiling",
        "cli.py",
        "calls = [_ready_call(cfg, sub, i, threads_v, conf_v) for i, sub in enumerate(subs)]",
        "calls = (_ready_call(cfg, sub, i, threads_v, conf_v) for i, sub in enumerate(subs))",
    ),
    # the block claims
    Mutant(
        "last_block_full_length",
        "estimator.py",
        "block_fn(rng, min(block_size, R - i * block_size))",
        "block_fn(rng, min(block_size, block_size))",
    ),
    Mutant(
        "claim_never_advances",
        "estimator.py",
        "i, claimed = claimed, claimed + 1",
        "i, claimed = claimed, claimed",
    ),
    # exact mode: the eps_n = +1 half of the sign patterns, counted twice
    Mutant(
        "half_counts_not_doubled", "suite.py", "        return 2 * counts, 2 * nan\n", "        return counts, nan\n"
    ),
    Mutant("last_summand_dropped", "estimator.py", "    sums += cols[n - 1]\n", ""),
    # the single input rules
    Mutant("index_from_zero", "norming.py", "if not 1 <= n <= len(self):", "if not n <= len(self):"),
    Mutant("stream_rule_r_floor", "sources.py", "if R is None or R < 100:", "if R is None or R < 10:"),
    Mutant(
        "memory_error_unprefixed",
        "cli.py",
        "        return make(*args, **kwargs)\n    except (ConfigurationError, DomainError, MemoryError) as e:",
        "        return make(*args, **kwargs)\n    except (ConfigurationError, DomainError) as e:",
    ),
    Mutant(
        "memory_error_traceback",
        "cli.py",
        "        return run(cfg, **flags)\n    except (ConfigurationError, DomainError, MemoryError) as e:",
        "        return run(cfg, **flags)\n    except (ConfigurationError, DomainError) as e:",
    ),
    Mutant(
        "huge_integer_overflows",
        "cli.py",
        "    except OverflowError:  # a JSON integer past the float64 range",
        "    except ZeroDivisionError:",
    ),
    Mutant(
        "exact_nan_counted",
        "suite.py",
        '        _refuse_nan(nan_l + nan_r, 2 * reps, name, "exact")\n',
        "",
    ),
    # overflow
    Mutant("nan_counted_as_no_event", "errors.py", "    if nan_total:", "    if False:"),
    Mutant("nan_count_zero", "suite.py", "nan = stat.size - valid", "nan = 0"),
    Mutant(
        "infinite_norm_rescaled_to_nan",
        "transforms.py",
        "        into[part == np.inf] = fp.slope_ratio\n",
        "",
    ),
    # the Monte Carlo rules and the exact estimates' confidence
    Mutant("threads_rule_dropped", "estimator.py", "    if threads < 1:\n", "    if False:\n"),
    Mutant(
        "exact_estimates_skip_confidence",
        "estimator.py",
        "    _require_confidence(confidence)\n    if exact:\n",
        "    if exact:\n",
    ),
    # the closed forms reached only through shifted laws
    Mutant(
        "pareto_symmetric_mean_sign",
        "sources.py",
        "neg = -(0.5 * _pareto_partial_mean(",
        "neg = (0.5 * _pareto_partial_mean(",
    ),
    # the default t grid over max(a_n, b_n): the same grid wherever b_n >= a_n, so only
    # the relation (x, b) -> (4x, 4b) of thm11_i sees it
    Mutant(
        "t_stop_over_larger_norming",
        "suite.py",
        "tg = _t_grid(t_grid, 1.2 * float(np.sum(xnorms)) / b_n)",
        "tg = _t_grid(t_grid, 1.2 * float(np.sum(xnorms)) / max(a_n, b_n))",
    ),
    # power: an rhs that counts every replication whose lhs exceeds can never be violated
    Mutant(
        "rhs_from_lhs_event",
        "suite.py",
        "norms(signs @ u, space) / u_scale, norms(signs @ v, space) / v_scale",
        "norms(signs @ u, space) / u_scale,"
        " np.maximum(norms(signs @ u, space) / u_scale, norms(signs @ v, space) / v_scale)",
    ),
)


def run_tests(tree: Path, timeout: float | None = None) -> str:
    """'passed', 'failed' or 'timed out': the fast subset's outcome in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--keep-duplicates"]
    cmd += GUARDS + [f"tests/{name}" for name in FAST_TESTS]
    cmd += [arg for test in DESELECT for arg in ("--deselect", test)]
    # a session of its own, so a timeout also stops the subprocesses the tests start
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for tree in ("src", "tests", "bench", "tools"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def mutated_text(mutant: Mutant) -> str:
    """The mutant's file with its one replacement made; exits if the text is not there once."""
    text = (ROOT / "src" / "sumtails" / mutant.path).read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {found} times in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def main() -> int:
    texts = [mutated_text(m) for m in MUTANTS]  # every replacement must match before any test runs
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        started = time.perf_counter()
        if run_tests(base) != "passed":
            print("the unmutated tree fails the fast subset; no mutant can be judged")
            return 2
        timeout = 4 * (time.perf_counter() - started) + 30
        survivors = []
        for m, text in zip(MUTANTS, texts):
            tree = Path(tmp) / m.name
            copy_tree(tree)
            (tree / "src" / "sumtails" / m.path).write_text(text)
            started = time.perf_counter()
            outcome = run_tests(tree, timeout)
            seconds = time.perf_counter() - started
            verdict = {"passed": "SURVIVED", "failed": "killed", "timed out": "killed (timed out)"}[outcome]
            print(f"{verdict}  {m.name}  ({seconds:.0f} s)", flush=True)
            if outcome == "passed":
                survivors.append(m.name)
            shutil.rmtree(tree)
    print(f"mutation score: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
