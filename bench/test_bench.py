"""Tests of the benchmark's own code.  Run: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads
from spans import Span, Tracer, TracingError, covered, self_times

cli = run.import_sumtails()


def _span(sid, name, start, end, parent=None, thread=1):
    return Span(sid, name, start, end, parent, thread, "r")


# -- self-time arithmetic ------------------------------------------------------


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "cli.run", 0.0, 10.0),
        _span(2, "suite.checker", 1.0, 4.0, parent=1),
        _span(3, "space.norms", 2.0, 3.0, parent=2),
        _span(4, "suite.checker", 5.0, 6.0, parent=1),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.0)


def test_self_time_with_children_on_two_threads():
    # blocks overlap in time on two workers; only their union is subtracted,
    # and a child running past its parent's end is clipped
    spans = [
        Span(1, "estimator.mc_counts", 0.0, 10.0, None, 1, "r", {"threads": 2}),
        _span(2, "estimator.block", 1.0, 5.0, parent=1, thread=2),
        _span(3, "estimator.block", 3.0, 8.0, parent=1, thread=3),
        _span(4, "estimator.block", 9.0, 12.0, parent=1, thread=2),
        _span(5, "sources.draw", 3.5, 4.5, parent=3, thread=3),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert st[3] == pytest.approx(5.0 - 1.0)
    blocks = [s for s in spans if s.name == "estimator.block"]
    metrics = layers.metrics(
        [s for s in spans if s.name != "sources.draw"]
        + [Span(5, "sources.draw", 3.5, 4.5, 3, 3, "r", {"kind": "x", "lifting": "y", "elements": 10, "vectors": 10})]
    )
    assert metrics["estimator.block.busy_s"] == pytest.approx(sum(s.duration for s in blocks))
    assert metrics["suite.block.self_s"] == pytest.approx(4.0 + 4.0 + 3.0)


def test_tracer_parents_spans_across_threads():
    tracer = Tracer()
    both_running = threading.Barrier(2, timeout=10)  # keeps the two thread ids distinct
    with tracer.span("estimator.mc_counts") as outer:

        def work():
            with tracer.span("estimator.block", parent=outer.sid):
                both_running.wait()
                with tracer.span("sources.draw"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    by_id = {s.sid: s for s in tracer.spans}
    blocks = [s for s in tracer.spans if s.name == "estimator.block"]
    assert len(blocks) == 2 and {b.parent for b in blocks} == {outer.sid}
    assert len({b.thread for b in blocks}) == 2
    for d in (s for s in tracer.spans if s.name == "sources.draw"):
        assert by_id[d.parent].name == "estimator.block" and by_id[d.parent].thread == d.thread


# -- wrappers ------------------------------------------------------------------


def test_install_restores_every_patched_name():
    from sumtails import cli as cli_mod, sources, suite

    originals = (sources.draw, suite.draw, suite.check_thm11_ii, cli_mod.check_thm11_ii, cli_mod.run)
    with layers.installed(Tracer()):
        assert suite.draw is not originals[1] and cli_mod.run is not originals[4]
    assert (sources.draw, suite.draw, suite.check_thm11_ii, cli_mod.check_thm11_ii, cli_mod.run) == originals


def test_missing_public_name_fails_loudly(monkeypatch):
    from sumtails import transforms

    monkeypatch.delattr(transforms, "rescale_factors")
    with pytest.raises(TracingError, match="rescale_factors"):
        with layers.installed(Tracer()):
            pass


def test_zero_calls_where_calls_were_predicted_is_a_problem():
    spans = [_span(1, "cli.run", 0.0, 1.0)]
    problems = layers.check_predictions(spans, frozenset({"cli.run", "sources.draw"}))
    assert problems == ["layer sources.draw has zero calls where calls were predicted"]
    problems = layers.check_predictions(spans, frozenset())
    assert problems == ["layer cli.run has calls where zero were predicted"]


# -- output checks ---------------------------------------------------------------


def _tiny_results(tmp_path: Path, name: str, seed: int = 5):
    w = workloads.WORKLOADS[name](seed, workloads.TINY)
    paths = []
    for i, cfg in enumerate(w.configs):
        out = tmp_path / f"config{i}"
        assert cli.run(cfg, threads=1, out=str(out)) == 0
        paths.append(out / "results.csv")
    return w, paths


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _problems(cfg, path, code=0):
    return [m for probs in checks.check_run(cfg, code, path) for m in probs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_accepts_real_results(tmp_path, name):
    w, paths = _tiny_results(tmp_path, name)
    for cfg, path in zip(w.configs, paths):
        assert _problems(cfg, path) == []


def test_checker_rejects_nan_cell(tmp_path):
    w, (path,) = _tiny_results(tmp_path, "mc_symmetric_sweep")
    header = path.read_text().splitlines()[0].split(",")
    col = header.index("rhs_p")

    def edit(lines):
        cells = lines[3].rstrip("\n").split(",")
        cells[col] = "nan"
        lines[3] = ",".join(cells) + "\n"
        return lines

    _rewrite(path, edit)
    assert any("rhs_p = nan" in m for m in _problems(w.configs[0], path))


def test_checker_rejects_violated_row(tmp_path):
    w, (path,) = _tiny_results(tmp_path, "exact_enumeration")
    _rewrite(path, lambda lines: [lines[0], lines[1].replace(",holds,", ",violated,")] + lines[2:])
    msgs = _problems(w.configs[0], path)
    assert any("verdict violated" in m for m in msgs)
    assert any("is violated" in m for m in msgs)


def test_checker_rejects_wrong_row_count_and_exit_code(tmp_path):
    w, paths = _tiny_results(tmp_path, "wlln_dichotomy")
    _rewrite(paths[1], lambda lines: lines[:-1])
    msgs = _problems(w.configs[1], paths[1], code=1)
    assert any("rows, expected" in m for m in msgs)
    assert "exit code 1" in msgs


def test_checker_rejects_cauchy_estimate_far_from_truth(tmp_path):
    w, paths = _tiny_results(tmp_path, "wlln_dichotomy")
    header = paths[0].read_text().splitlines()[0].split(",")
    col = header.index("p_hat")

    def edit(lines):
        cells = lines[1].rstrip("\n").split(",")
        cells[col] = "0.2"
        lines[1] = ",".join(cells) + "\n"
        return lines

    _rewrite(paths[0], edit)
    assert any("sigma from" in m for m in _problems(w.configs[0], paths[0]))


def test_checker_allows_infinite_sigma_only_on_degenerate_rows():
    row = {c: "0.5" for c in checks.INEQ_NUMERIC}
    row.update(exact="false", verdict="holds", sigma_margin="inf", slack="0.5")
    problems: list[str] = []
    checks._check_ineq_row(row, "r", problems)
    assert problems and "sigma_margin" in problems[0]
    row.update(lhs_p="1", rhs_p="1")
    problems = []
    checks._check_ineq_row(row, "r", problems)
    assert problems == []


def test_digest_mismatch_fails_every_config_of_that_pass():
    a = run.Pass(1.0, "aa", [[], [], []], 10, 100, "x-0")
    b = run.Pass(1.0, "bb", [[], [], []], 10, 100, "x-1")
    assert run.check_digests([a, b]) == ["aa", "bb"]
    assert (a.failed, b.failed) == (0, 3)


# -- smoke runs at tiny sizes ------------------------------------------------------


def _tiny(name):
    return workloads.WORKLOADS[name](11, workloads.TINY)


def _bench_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_plain_run(tmp_path, name):
    passes, metrics = run.plain_run(cli, _tiny(name), tmp_path, seconds=0.01)
    assert len(passes) >= 2 and all(p.failed == 0 for p in passes)
    assert len(run.check_digests(passes)) == 1
    expected = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"] if m["name"] != "setup_s"}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert all(v > 0 and math.isfinite(v) for v, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    from sumtails import sources

    original_draw = sources.draw
    w = _tiny(name)
    passes, metrics = run.traced_run(cli, w, tmp_path, seconds=0.01)
    assert sources.draw is original_draw
    assert all(not p.pass_problems and p.failed == 0 for p in passes)
    assert len(run.check_digests(passes)) == 1
    assert {k: unit for k, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    calls = {
        "sources.draw": metrics["sources.draw.calls"][0],
        "transforms.rescale_factors": metrics["transforms.rescale_factors.elements"][0],
        "estimator.enumerate_sign_norms": metrics["estimator.enumerate_sign_norms.states"][0],
    }
    for layer, count in calls.items():
        assert (count > 0) == (layer in w.layers_called), layer
    assert metrics["space.norms.nonfinite"][0] == 0
    assert (tmp_path / f"spans-{name}-s11.jsonl").stat().st_size > 0


def test_traced_pass_with_nonfinite_norms_fails(tmp_path, monkeypatch):
    # an overflowing draw is miscounted, not reported, in results.csv;
    # only the traced norms see it
    from sumtails import sources, suite

    original = sources.draw

    def overflowing_draw(d, rng, shape):
        out = original(d, rng, shape)
        out.flat[0] = math.inf
        return out

    for module in (sources, suite):
        monkeypatch.setattr(module, "draw", overflowing_draw)
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    passes, metrics = run.traced_run(cli, _tiny("mc_symmetric_sweep"), tmp_path, seconds=0.01)
    traced = [p for p in passes if "-traced-" in p.run_id]
    assert traced and all(any("not finite" in m for m in p.pass_problems) for p in traced)
    assert all(p.failed == p.configs for p in traced)
    assert metrics["space.norms.nonfinite"][0] > 0


def test_setup_probes_are_spread_over_the_run(tmp_path):
    probes = run.SetupProbes(_tiny("exact_enumeration"), tmp_path)
    assert probes.times == []  # the warm-up probe is not kept
    probes.when_due(0.05)
    assert probes.times == []
    probes.when_due(0.15)
    assert len(probes.times) == 1
    times = probes.finish()
    assert len(times) == run.SETUP_PROBES and all(0 < t < run.PROBE_TIMEOUT_S for t in times)
    setup = next(m for m in _bench_json()["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in _bench_json()["end_to_end"])
