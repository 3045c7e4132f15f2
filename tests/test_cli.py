import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from sumtails import cli, suite
from sumtails.errors import ConfigurationError
from sumtails.sources import StreamKey
from sumtails.estimator import TailEstimate
from sumtails.suite import InequalityReport


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


THM11_I_CFG = {
    "schema_version": 1,
    "experiment": "thm11_i",
    "seed": 11,
    "space": {"dim": 1, "q": 2},
    "norming": {"kind": "power", "n_max": 8, "exp_a": 0.5, "exp_b": 1.0},
    "vectors": [[0.5], [-1.0], [1.5]],
    "t_grid": [0.0, 0.4, 0.8, 1.2],
}

LEVY_CFG = {
    "schema_version": 1,
    "experiment": "levy",
    "seed": 3,
    "space": {"dim": 1, "q": 2},
    "distribution": {"kind": "stable_symmetric", "alpha": 1.0},
    "n": 16,
    "R": 4000,
    "t_grid": [0.5, 1.0, 2.0],
}

WLLN_CFG = {
    "schema_version": 1,
    "experiment": "wlln",
    "seed": 5,
    "space": {"dim": 1, "q": 2},
    "distribution": {"kind": "uniform_ball", "radius": 1.0},
    "norming": {"kind": "power", "n_max": 16, "exp_a": 0.5, "exp_b": 1.0},
    "n_grid": [4, 16],
    "lambda_grid": [0.5, 1.0],
    "R": 500,
}


CONSTRUCT_CFG = {
    "schema_version": 1,
    "experiment": "construct",
    "norming": {"kind": "power", "n_max": 10, "exp_a": 0.5, "exp_b": 1.0},
}


def test_validate_config_accepts_each_experiment():
    assert cli.validate_config(THM11_I_CFG) == "thm11_i"
    assert cli.validate_config(LEVY_CFG) == "levy"
    assert cli.validate_config(WLLN_CFG) == "wlln"
    assert cli.validate_config(CONSTRUCT_CFG) == "construct"
    assert cli.validate_config(dict(CONSTRUCT_CFG, seed=3)) == "construct"
    # run refuses an empty norming, so validate does too
    with pytest.raises(ConfigurationError, match="missing required key norming.kind"):
        cli.validate_config(dict(CONSTRUCT_CFG, norming={}))


def test_validate_config_errors():
    with pytest.raises(ConfigurationError, match="schema_version"):
        cli.validate_config({"experiment": "levy", "seed": 1})
    with pytest.raises(ConfigurationError, match="schema_version"):
        cli.validate_config({"schema_version": 2, "experiment": "levy", "seed": 1})
    with pytest.raises(ConfigurationError, match="experiment"):
        cli.validate_config({"schema_version": 1, "experiment": "bootstrap", "seed": 1})
    with pytest.raises(ConfigurationError, match="no wall-clock default"):
        cli.validate_config({"schema_version": 1, "experiment": "levy"})
    with pytest.raises(ConfigurationError, match=r"configs\[0\]"):
        cli.validate_config(
            {
                "schema_version": 1,
                "experiment": "sweep",
                "seed": 1,
                "configs": [{"experiment": "wlln"}],
            }
        )


def test_run_thm11_i_exact(tmp_path):
    out = tmp_path / "o"
    code = cli.run(THM11_I_CFG, out=str(out))
    assert code == 0
    rows = _read_csv(out / "results.csv")
    # the header the README documents
    assert rows[0] == [
        "config_index", "experiment", "t", "n", "lhs_p", "lhs_ci_low", "lhs_ci_high",
        "rhs_p", "rhs_ci_low", "rhs_ci_high", "factor", "tail_p", "tail_ci_high",
        "tail_weight", "rhs_bound", "rhs_bound_ci_high", "slack", "sigma_margin",
        "verdict", "exact",
    ]
    assert len(rows) == 1 + 4  # header + one row per t
    verdicts = {r[rows[0].index("verdict")] for r in rows[1:]}
    assert verdicts == {"holds"}
    assert {r[rows[0].index("exact")] for r in rows[1:]} == {"true"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 0
    assert summary["configs"][0]["verdicts"] == {"holds": 4}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "sumtails"
    assert manifest["config"]["experiment"] == "thm11_i"


def test_csv_floats_are_full_precision(tmp_path):
    out = tmp_path / "o"
    cli.run(THM11_I_CFG, out=str(out))
    rows = _read_csv(out / "results.csv")
    t_col = rows[0].index("t")
    assert [r[t_col] for r in rows[1:]] == ["0", "0.40000000000000002", "0.80000000000000004", "1.2"]


def test_threads_do_not_change_results(tmp_path):
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert cli.run(LEVY_CFG, threads=1, out=str(out1)) == 0
    assert cli.run(LEVY_CFG, threads=4, out=str(out4)) == 0
    assert (out1 / "results.csv").read_bytes() == (out4 / "results.csv").read_bytes()


def test_seed_changes_results(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cli.run(LEVY_CFG, out=str(out1))
    cli.run(LEVY_CFG, seed=99, out=str(out2))
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_manifest_round_trip(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cli.run(LEVY_CFG, out=str(out1))
    code = cli.main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)])
    assert code == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_construct(tmp_path):
    out = tmp_path / "c"
    cfg = {
        "schema_version": 1,
        "experiment": "construct",
        "norming": {"kind": "power", "n_max": 10, "exp_a": 0.5, "exp_b": 1.0},
    }
    assert cli.run(cfg, out=str(out)) == 0
    rows = _read_csv(out / "results.csv")
    assert rows[0] == ["n", "a_n", "b_n", "ratio"]
    assert len(rows) == 11
    ratios = [float(r[3]) for r in rows[1:]]
    assert all(x <= y for x, y in zip(ratios, ratios[1:]))
    assert rows[1] == ["1", "1", "1", "1"]


def test_construct_explicit_norming(tmp_path):
    out = tmp_path / "ce"
    cfg = {
        "schema_version": 1,
        "experiment": "construct",
        "norming": {"kind": "explicit", "a": [1.0, 1.5], "b": [2.0, 4.0]},
    }
    assert cli.run(cfg, out=str(out)) == 0
    rows = _read_csv(out / "results.csv")
    assert [r[1] for r in rows[1:]] == ["1", "1.5"]


def test_explicit_norming_too_close_exits_2(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiment": "construct",
        "norming": {"kind": "explicit", "a": [1e-310, 2e-310], "b": [3e-310, 4e-310]},
    }
    p = _write_json(tmp_path / "close.json", cfg)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "a[1] = 1e-310 lies too close to 0: the inverse slope over that gap overflows" in err


def test_thm11_i_decreasing_ratio_exits_2(tmp_path, capsys):
    cfg = dict(THM11_I_CFG, norming={"kind": "explicit", "a": [1.0, 4.0, 5.0], "b": [2.0, 3.0, 4.0]})
    p = _write_json(tmp_path / "thm11_i.json", cfg)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == "error: b_n / a_n must be nondecreasing"


def test_wlln_rows(tmp_path):
    out = tmp_path / "w"
    assert cli.run(WLLN_CFG, out=str(out)) == 0
    rows = _read_csv(out / "results.csv")
    assert rows[0] == [
        "config_index", "experiment", "n", "lambda", "p_hat", "ci_low", "ci_high",
        "criterion_value", "criterion_ci_low", "criterion_ci_high", "criterion_analytic",
        "classification",
    ]
    assert len(rows) == 1 + 2 * 2  # (n grid) x (lambda grid)
    cls = {r[rows[0].index("classification")] for r in rows[1:]}
    assert len(cls) == 1 and cls <= {"converges", "bounded_away", "undecided"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["configs"][0]["classification"] in ("converges", "bounded_away", "undecided")


def test_sweep(tmp_path):
    out = tmp_path / "sw"
    cfg = {
        "schema_version": 1,
        "experiment": "sweep",
        "seed": 21,
        "configs": [
            {
                "experiment": "contraction",
                "space": {"dim": 2, "q": 1},
                "vectors": {"random": {"count": 5}},
                "weights": {"random": True},
                "t_grid": [0.5, 1.0],
            },
            {
                "experiment": "levy",
                "space": {"dim": 1, "q": 2},
                "distribution": {"kind": "rademacher"},
                "n": 4,
                "mode": "exact",
                "t_grid": [0.5, 1.5],
            },
        ],
    }
    assert cli.run(cfg, out=str(out)) == 0
    rows = _read_csv(out / "results.csv")
    idx = rows[0].index("config_index")
    assert [r[idx] for r in rows[1:]] == ["0", "0", "1", "1"]
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["configs"]) == 2


def test_sweep_config_keys(tmp_path):
    # config 0 replays a single run at the sweep's seed; config i >= 1 has
    # its own key, not the single run's at seed + i
    single = {k: v for k, v in LEVY_CFG.items() if k not in ("schema_version", "seed")}
    sweep = {"schema_version": 1, "experiment": "sweep", "seed": 3, "configs": [single, single]}
    assert cli.run(sweep, out=str(tmp_path / "sw")) == 0
    rows = _read_csv(tmp_path / "sw" / "results.csv")
    idx = rows[0].index("config_index")

    def without_index(rs):
        return [r[:idx] + r[idx + 1 :] for r in rs]

    by_config = [without_index(r for r in rows[1:] if r[idx] == str(i)) for i in (0, 1)]
    alone = []
    for seed in (3, 4):
        cli.run(LEVY_CFG, seed=seed, out=str(tmp_path / f"s{seed}"))
        alone.append(without_index(_read_csv(tmp_path / f"s{seed}" / "results.csv")[1:]))
    assert by_config[0] == alone[0]
    assert by_config[1] != alone[1] and by_config[1] != by_config[0]


def test_random_vectors_respect_cap(tmp_path):
    out = tmp_path / "rv"
    cfg = dict(THM11_I_CFG)
    cfg["vectors"] = {"random": {"count": 6, "scale": 0.9}}
    assert cli.run(cfg, out=str(out)) == 0
    rows = _read_csv(out / "results.csv")
    assert len(rows) == 5


def test_q_inf_accepted(tmp_path):
    out = tmp_path / "qi"
    cfg = dict(LEVY_CFG)
    cfg["space"] = {"dim": 1, "q": "inf"}
    assert cli.run(cfg, out=str(out)) == 0
    # the max norm is the one infinite number a config may hold
    cfg["space"] = {"dim": 1, "q": math.inf}
    assert cli.run(cfg, out=str(tmp_path / "qn")) == 0


def test_missing_key_paths():
    with pytest.raises(ConfigurationError, match=r"missing required key R"):
        cli.run(
            {
                "schema_version": 1,
                "experiment": "thm11_ii",
                "seed": 1,
                "space": {"dim": 1, "q": 2},
                "distribution": {"kind": "rademacher"},
                "norming": {"kind": "power", "n_max": 8, "exp_a": 0.5},
                "n": 4,
            }
        )
    with pytest.raises(ConfigurationError, match=r"distribution\.alpha"):
        cli.run(
            {
                "schema_version": 1,
                "experiment": "levy",
                "seed": 1,
                "space": {"dim": 1, "q": 2},
                "distribution": {"kind": "pareto_symmetric"},
                "n": 4,
                "R": 200,
            }
        )
    with pytest.raises(ConfigurationError, match=r"space\.dim"):
        cli.run(
            {
                "schema_version": 1,
                "experiment": "levy",
                "seed": 1,
                "space": {"q": 2},
                "distribution": {"kind": "rademacher"},
                "n": 4,
                "R": 200,
            }
        )


def test_shifted_distribution_from_config(tmp_path):
    out = tmp_path / "sh"
    cfg = dict(WLLN_CFG)
    cfg["distribution"] = {
        "kind": "shifted",
        "base": {"kind": "pareto_one_sided", "alpha": 3.0},
        "shift": [-1.5],
    }
    assert cli.run(cfg, out=str(out)) == 0


def test_lifting_on_a_shifted_law_is_rejected(tmp_path, capsys):
    # the lifting belongs to the base law, so one on the shifted law has no meaning
    base = {"kind": "pareto_one_sided", "alpha": 3.0, "lifting": "iid_coordinates"}
    cfg = dict(WLLN_CFG, space={"dim": 2, "q": 2})
    cfg["distribution"] = {"kind": "shifted", "base": base, "shift": [1.0, 0.0]}
    assert cli.run(cfg, out=str(tmp_path / "ok")) == 0
    cfg["distribution"] = dict(cfg["distribution"], lifting="radial")
    p = _write_json(tmp_path / "cfg.json", cfg)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: distribution.lifting: a shifted law takes the lifting of its base;"
        " set distribution.base.lifting instead"
    )


@pytest.mark.parametrize(
    "mode, space, distribution, message",
    [
        ("bogus", None, None, "unknown gamma_n mode 'bogus'"),
        (
            "analytic",
            {"dim": 2, "q": 2},
            {"kind": "pareto_one_sided", "alpha": 1.5, "lifting": "iid_coordinates"},
            "no closed-form truncated mean for kind 'pareto_one_sided' with lifting"
            " 'iid_coordinates'; use monte_carlo mode",
        ),
    ],
)
def test_gamma_mode_errors_name_the_key_before_any_sampling(
    tmp_path, capsys, monkeypatch, mode, space, distribution, message
):
    cfg = dict(WLLN_CFG, gamma_mode=mode)
    if space is not None:
        cfg.update(space=space, distribution=distribution)
    p = _write_json(tmp_path / "cfg.json", cfg)
    monkeypatch.setattr(StreamKey, "generator", lambda self: pytest.fail("sampled before the refusal"))
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err.strip() == f"error: gamma_mode: {message}"


def test_main_validate(tmp_path, capsys):
    p = _write_json(tmp_path / "cfg.json", THM11_I_CFG)
    assert cli.main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "ok: thm11_i"


def test_main_error_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["validate", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    p = _write_json(tmp_path / "noseed.json", {"schema_version": 1, "experiment": "levy"})
    assert cli.main(["run", "--config", str(p)]) == 2
    assert "seed" in capsys.readouterr().err


def test_main_subcommand_experiment_mismatch(tmp_path, capsys):
    p = _write_json(tmp_path / "cfg.json", THM11_I_CFG)
    assert cli.main(["sweep", "--config", str(p)]) == 2
    assert "sweep" in capsys.readouterr().err


def test_violation_sets_exit_code_1(tmp_path, monkeypatch):
    fake = InequalityReport(
        name="levy",
        t=1.0,
        lhs=TailEstimate.from_counts(990, 1000),
        rhs=TailEstimate.from_counts(0, 1000),
        factor=2.0,
        tail_term=None,
        tail_weight=0,
        rhs_bound=0.0,
        rhs_bound_ci_high=0.01,
        slack=-0.99,
        verdict="violated",
        sigma_margin=-50.0,
        config={"n": 16},
    )
    monkeypatch.setattr(cli, "check_levy", lambda *a, **k: [fake])
    out = tmp_path / "v"
    assert cli.run(LEVY_CFG, out=str(out)) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 1
    assert summary["configs"][0]["verdicts"] == {"violated": 1}


def test_console_script_installed(tmp_path):
    exe = shutil.which("sumtails")
    assert exe is not None
    p = _write_json(tmp_path / "cfg.json", THM11_I_CFG)
    res = subprocess.run(
        [exe, "validate", "--config", str(p)], capture_output=True, text=True
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "ok: thm11_i"


def test_module_entry_matches_script(tmp_path):
    p = _write_json(tmp_path / "cfg.json", LEVY_CFG)
    out = tmp_path / "m"
    res = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from sumtails.cli import main; sys.exit(main(sys.argv[1:]))",
            "run",
            "--config",
            str(p),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert (out / "results.csv").exists()


KEY_PATH_SWEEP = {
    "schema_version": 1,
    "experiment": "sweep",
    "seed": 7,
    "configs": [
        {
            "experiment": "thm11_i",
            "space": {"dim": 1, "q": 2},
            "norming": {"kind": "power", "n_max": 8, "exp_a": 0.5, "exp_b": 1.0},
            "vectors": [[0.5], [-1.0], [1.5]],
            "t_grid": [0.0, 0.5, 1.0],
        },
        {
            "experiment": "contraction",
            "space": {"dim": 2, "q": 1},
            "vectors": {"random": {"count": 3}},
            "weights": {"random": True},
            "t_grid": {"stop": 1.0, "points": 3},
        },
        {
            "experiment": "thm11_ii",
            "space": {"dim": 1, "q": 2},
            "distribution": {"kind": "pareto_symmetric", "alpha": 1.5},
            "norming": {"kind": "power", "n_max": 8, "exp_a": 0.5, "exp_b": 1.0},
            "n": 4,
            "R": 200,
            "block_size": 128,
            "t_grid": [0.5, 1.0],
        },
        {
            "experiment": "levy",
            "space": {"dim": 1, "q": 2},
            "distribution": {"kind": "rademacher"},
            "n": 4,
            "mode": "exact",
            "b_n": 2.0,
            "t_grid": [0.5, 1.0],
        },
    ],
}

_DELETE = object()


def _broken_sweep(index, dotted, value):
    """KEY_PATH_SWEEP with one key of configs[index] replaced or deleted."""
    cfg = json.loads(json.dumps(KEY_PATH_SWEEP))
    node = cfg["configs"][index]
    *head, last = dotted.split(".")
    for k in head:
        node = node[k]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


def test_key_path_sweep_runs(tmp_path):
    assert cli.run(KEY_PATH_SWEEP, out=str(tmp_path / "o")) == 0


KEY_PATH_CASES = [
    (0, "space.dim", "x", "configs[0].space.dim: expected an integer, got 'x'"),
    (0, "space.q", "huge", "configs[0].space.q: expected a number >= 1 or 'inf', got 'huge'"),
    (0, "vectors", [[0.5], "a"], "configs[0].vectors[1]: expected an array, got 'a'"),
    (0, "vectors", [[0.5], [True]], "configs[0].vectors[1][0]: expected a number, got True"),
    (
        0, "vectors", [[0.5, 1.0], [0.2, 0.1]],
        "configs[0].vectors: vectors must all have 1 coordinates",
    ),
    (0, "vectors", [], "configs[0].vectors: must be nonempty"),
    (0, "vectors", {"random": {"count": 0}}, "configs[0].vectors.random.count: must be >= 1"),
    (
        0, "vectors", {"random": {"count": 9}},
        "configs[0].vectors: n must lie in [1, 8] (N is the norming pair length), got 9",
    ),
    (0, "vectors", {"count": 2}, "missing required key configs[0].vectors.random"),
    (
        0, "vectors", {"random": {"count": 2, "scale": 2}},
        "configs[0].vectors.random.scale: must lie in (0, 1]",
    ),
    (0, "norming", [], "configs[0].norming: expected an object, got []"),
    (
        0, "norming.kind", "log",
        "configs[0].norming.kind: expected 'power' or 'explicit', got 'log'",
    ),
    (0, "norming.exp_a", True, "configs[0].norming.exp_a: expected a number, got True"),
    (0, "norming.n_max", 0, "configs[0].norming: n_max must be >= 1, got 0"),
    (0, "t_grid", {"stop": 1, "points": 0}, "configs[0].t_grid.points: must be >= 1"),
    (0, "t_grid", [0, "1"], "configs[0].t_grid[1]: expected a number, got '1'"),
    (0, "mode", 3, "configs[0].mode: expected a string, got 3"),
    (1, "weights", [0.5], "configs[1].weights: expected 3 weights, got 1"),
    (1, "weights", {"random": 1}, 'configs[1].weights: expected an array or {"random": true}'),
    (1, "weights", _DELETE, "missing required key configs[1].weights"),
    (1, "vectors.random.scale", 2, "configs[1].vectors.random.scale: must lie in (0, 1]"),
    (1, "vector_scale", "1", "configs[1].vector_scale: expected a number, got '1'"),
    (1, "mode", "mc", "missing required key configs[1].R"),
    (
        2, "distribution.kind", "gauss",
        "configs[2].distribution.kind: unknown distribution kind 'gauss'",
    ),
    (
        2, "distribution",
        {"kind": "shifted", "base": {"kind": "pareto_symmetric"}, "shift": [1.0]},
        "missing required key configs[2].distribution.base.alpha",
    ),
    (
        2, "distribution", {"kind": "point_mass", "v": [1.0, None]},
        "configs[2].distribution.v[1]: expected a number, got None",
    ),
    (2, "distribution.lifting", 1, "configs[2].distribution.lifting: expected a string, got 1"),
    (2, "n", 4.0, "configs[2].n: expected an integer, got 4.0"),
    (2, "block_size", "big", "configs[2].block_size: expected an integer, got 'big'"),
    (2, "R", _DELETE, "missing required key configs[2].R"),
    (2, "norming", _DELETE, "missing required key configs[2].norming"),
    (3, "b_n", "1", "configs[3].b_n: expected a number, got '1'"),
    (3, "space", _DELETE, "missing required key configs[3].space"),
    (1, "vector_scale", 0, "configs[1].vector_scale: must be positive, got 0.0"),
    (1, "vector_scale", -0.5, "configs[1].vector_scale: must be positive, got -0.5"),
    (
        0, "vectors", [[0.5], [float("nan")]],
        "configs[0].vectors[1][0]: expected a finite number, got nan",
    ),
    (3, "b_n", float("inf"), "configs[3].b_n: expected a finite number, got inf"),
    (0, "t_grid", [0.0, -math.inf], "configs[0].t_grid[1]: expected a finite number, got -inf"),
]


@pytest.mark.parametrize("index, dotted, value, message", KEY_PATH_CASES)
def test_sweep_key_path_messages(tmp_path, index, dotted, value, message):
    with pytest.raises(ConfigurationError) as info:
        cli.run(_broken_sweep(index, dotted, value), out=str(tmp_path / "o"))
    assert str(info.value) == message


def test_checker_errors_exit_2_and_name_the_config(tmp_path, capsys):
    # the checker's own message, prefixed with the config it came from in a sweep
    sweep = _broken_sweep(1, "t_grid", [-1.0])
    p = _write_json(tmp_path / "sweep.json", sweep)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
    assert "configs[1]: t_grid must be finite" in capsys.readouterr().err
    sweep["configs"][1] = dict(sweep["configs"][3], n=0)
    p = _write_json(tmp_path / "sweep.json", sweep)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.strip() == "error: configs[1]: n must be >= 1, got 0"
    # every Monte Carlo checker needs R >= 100; a single config keeps the bare message
    single = dict(KEY_PATH_SWEEP["configs"][2], schema_version=1, seed=7, R=5)
    p = _write_json(tmp_path / "thm11_ii.json", single)
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.strip() == "error: Monte Carlo needs R >= 100, got 5"


def test_nan_literal_is_rejected(tmp_path, capsys):
    # json writes and reads the NaN literal; an exact run counted it as no event and exited 0
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(dict(THM11_I_CFG, vectors=[[float("nan")], [1.0]])))
    assert "NaN" in p.read_text()
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err.strip() == "error: vectors[0][0]: expected a finite number, got nan"


def test_integer_past_float64_is_rejected(tmp_path, capsys):
    # float() of a 401-digit JSON integer overflows; that traceback used to exit 1, "violated"
    single = dict(KEY_PATH_SWEEP["configs"][3], schema_version=1, seed=7, b_n=10**400)
    p = _write_json(tmp_path / "huge.json", single)
    assert '"b_n": 1' + "0" * 400 + "," in p.read_text()
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "h")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: b_n: expected a finite number, got an integer of 401 digits"
    # past 4300 digits json itself refuses to convert the integer
    p.write_text(p.read_text().replace('"b_n": 1', '"b_n": 1' + "0" * 4000))
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "h")]) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: Exceeds the limit")


_HUGE = 10**15  # elements: numpy refuses this many at once and allocates nothing


@pytest.mark.parametrize(
    "command, cfg, path",
    [
        ("validate", dict(KEY_PATH_SWEEP["configs"][1], t_grid={"stop": 3, "points": _HUGE}), "t_grid"),
        ("validate", dict(WLLN_CFG, lambda_grid={"stop": 1, "points": _HUGE}), "lambda_grid"),
        ("validate", dict(CONSTRUCT_CFG, norming=dict(CONSTRUCT_CFG["norming"], n_max=_HUGE)), "norming"),
        (
            "validate",
            dict(KEY_PATH_SWEEP["configs"][1], mode="mc", R=200, vectors={"random": {"count": _HUGE}}),
            "vectors",
        ),
        # allocated only once the pass runs, in a single config, whose errors name no key path
        ("run", dict(KEY_PATH_SWEEP["configs"][2], R=_HUGE, block_size=_HUGE), ""),
    ],
)
def test_size_too_large_to_allocate_is_rejected(tmp_path, capsys, command, cfg, path):
    # numpy's MemoryError used to end in a traceback and exit 1, "violated"
    p = _write_json(tmp_path / "big.json", dict(cfg, schema_version=1, seed=7))
    assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    prefix = f"{path}: " if path else ""
    assert capsys.readouterr().err.startswith(f"error: {prefix}Unable to allocate")


def test_seed_outside_64_bits_is_rejected(tmp_path, capsys):
    # seed % 2**64 used to run seed 2**64 as seed 0 and seed -1 as 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ConfigurationError) as info:
            cli.validate_config(dict(LEVY_CFG, seed=seed))
        assert str(info.value) == f"seed: must lie in [0, 2^64), got {seed}"
    p = _write_json(tmp_path / "cfg.json", LEVY_CFG)
    assert cli.main(["run", "--config", str(p), "--seed", "-1", "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.strip() == "error: seed: must lie in [0, 2^64), got -1"
    assert cli.validate_config(dict(LEVY_CFG, seed=2**64 - 1)) == "levy"


def test_ragged_and_non_numeric_arrays_are_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match=r"configs\[0\]\.vectors: vectors must all have 1"):
        cli.run(_broken_sweep(0, "vectors", [[0.5], [0.2, 0.1]]), out=str(tmp_path / "o"))
    explicit = {"kind": "explicit", "a": [1.0, "2"], "b": [1.0, 2.0]}
    with pytest.raises(ConfigurationError, match=r"configs\[2\]\.norming\.a\[1\]: expected a number"):
        cli.run(_broken_sweep(2, "norming", explicit), out=str(tmp_path / "o"))


def _single(sweep_index, **changes):
    """Config sweep_index of KEY_PATH_SWEEP as a config of its own, with changes."""
    return dict(KEY_PATH_SWEEP["configs"][sweep_index], schema_version=1, seed=7, **changes)


def _radial_levy():
    cfg = _broken_sweep(3, "space", {"dim": 3, "q": 2})
    cfg["configs"][3]["distribution"] = {"kind": "pareto_symmetric", "alpha": 1.5, "lifting": "radial"}
    return cfg


# (config, flags, the message run and validate both refuse it with)
REFUSAL_CASES = [(_broken_sweep(i, dotted, value), {}, message) for i, dotted, value, message in KEY_PATH_CASES]
REFUSAL_CASES += [
    (_single(2, R=5), {}, "Monte Carlo needs R >= 100, got 5"),
    (
        _broken_sweep(2, "distribution", {"kind": "pareto_one_sided", "alpha": 1.5}),
        {},
        "configs[2]: the comparison requires a symmetric law; got a non-symmetric spec",
    ),
    (_broken_sweep(2, "n", 9), {}, "configs[2]: n must lie in [1, 8] (N is the norming pair length), got 9"),
    (_broken_sweep(2, "block_size", 0), {}, "configs[2]: block_size must be >= 1, got 0"),
    (_radial_levy(), {}, "configs[3]: exact mode covers the scalar random-sign law only"),
    (
        _broken_sweep(3, "n", 32),
        {},
        "configs[3]: n = 32 exceeds the exact budget n <= 31, where the 4^n sign pairs still fit an"
        " int64 count; use Monte Carlo",
    ),
    (
        _single(0, norming={"kind": "power", "n_max": 32, "exp_a": 0.5}, vectors={"random": {"count": 21}}),
        {},
        "n = 21 exceeds the 2^20 enumeration budget; use Monte Carlo",
    ),
    # refused before the 10^8 vectors are drawn
    (
        _broken_sweep(1, "vectors", {"random": {"count": 10**8}}),
        {},
        "configs[1]: n = 100000000 exceeds the 2^20 enumeration budget; use Monte Carlo",
    ),
    (_broken_sweep(0, "mode", "bogus"), {}, "configs[0]: mode must be 'exact' or 'mc', got 'bogus'"),
    (_broken_sweep(1, "t_grid", [-1.0]), {}, "configs[1]: t_grid must be finite and nonnegative"),
    (dict(WLLN_CFG, n_grid=[16, 4]), {}, "n_grid must be strictly increasing"),
    (KEY_PATH_SWEEP, {"threads": 0}, "threads: must be >= 1, got 0"),
    (KEY_PATH_SWEEP, {"confidence": 1.5}, "confidence: must lie in (0, 1), got 1.5"),
    (
        {k: v for k, v in THM11_I_CFG.items() if k != "seed"},
        {},
        "missing required key seed (pass --seed or set it in the config; there is no wall-clock default)",
    ),
    # construct draws nothing and needs no seed, but one it carries is checked
    (dict(CONSTRUCT_CFG, seed="x"), {}, "seed: expected an integer, got 'x'"),
    (dict(CONSTRUCT_CFG, seed=-1), {}, "seed: must lie in [0, 2^64), got -1"),
]


@pytest.mark.parametrize("cfg, flags, message", REFUSAL_CASES)
def test_validate_refuses_what_run_refuses(tmp_path, capsys, cfg, flags, message):
    out = tmp_path / "o"
    with pytest.raises(ConfigurationError) as ran:
        cli.run(cfg, out=str(out), **flags)
    assert str(ran.value) == message
    assert not out.exists()
    # the flags override the config's keys, in validate as in run
    with pytest.raises(ConfigurationError) as validated:
        cli.validate_config(dict(cfg, **flags))
    assert str(validated.value) == message
    p = _write_json(tmp_path / "cfg.json", cfg)
    argv = ["validate", "--config", str(p)] + [a for k, v in flags.items() for a in (f"--{k}", str(v))]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_validate_takes_the_flags(tmp_path, capsys):
    # --seed supplies the seed a config leaves out, in validate as in run
    p = _write_json(tmp_path / "cfg.json", {k: v for k, v in THM11_I_CFG.items() if k != "seed"})
    assert cli.main(["validate", "--config", str(p)]) == 2
    assert "pass --seed" in capsys.readouterr().err
    assert cli.main(["validate", "--config", str(p), "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "ok: thm11_i"
    assert cli.main(["run", "--config", str(p), "--seed", "3", "--out", str(tmp_path / "o")]) == 0


def test_sweep_compiles_every_config_before_any_pass(tmp_path, monkeypatch):
    # configs 0-2 are good and would enumerate or sample; config 3 breaks a rule
    # that used to fire only inside its own pass
    def no_pass(*args, **kwargs):
        pytest.fail("a pass ran before every config was compiled")

    monkeypatch.setattr(suite, "mc_counts", no_pass)
    monkeypatch.setattr(suite, "enumerate_sign_norms", no_pass)
    out = tmp_path / "o"
    with pytest.raises(ConfigurationError) as info:
        cli.run(_radial_levy(), out=str(out))
    assert str(info.value) == "configs[3]: exact mode covers the scalar random-sign law only"
    assert not out.exists()
