"""Per-layer metrics of sumtails, from spans around each module's public calls.

Layers are named after modules: sources, space, norming, transforms,
estimator, suite, cli.  install() wraps one entry point per layer (the
checkers for suite, run for cli); metrics() turns one pass's spans into
the per-layer numbers that BENCHMARK.json lists.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from spans import Span, Tracer, self_times

# (kind, lifting) pairs the workloads draw from
DRAW_SPLITS = (
    ("pareto_symmetric", "scalar"),
    ("pareto_symmetric", "radial"),
    ("pareto_symmetric", "iid_coordinates"),
    ("stable_symmetric", "scalar"),
    ("stable_symmetric", "radial"),
    ("stable_symmetric", "iid_coordinates"),
    ("pareto_one_sided", "iid_coordinates"),
)
# one-dimensional spaces take the abs() path whatever q says
NORM_SPLITS = ("dim1", "q1", "q2", "qinf")

TRACED_LAYERS = (
    "sources.draw",
    "space.norms",
    "norming.interp",
    "transforms.rescale_factors",
    "transforms.gamma_n",
    "estimator.mc_counts",
    "estimator.block",
    "estimator.enumerate_sign_norms",
    "estimator.clopper_pearson",
    "suite.checker",
    "cli.run",
)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _draw_counts(args, kwargs, result):
    d = _arg(args, kwargs, 0, "d")
    return {
        "kind": d.kind,
        "lifting": d.lifting,
        "elements": int(result.size),
        "vectors": int(result.size // d.space.dim),
    }


def _norms_label(space) -> str:
    if space.dim == 1:
        return "dim1"
    return "qinf" if math.isinf(space.q) else f"q{space.q:g}"


def _norms_counts(args, kwargs, result):
    out = np.asarray(result)
    return {
        "label": _norms_label(_arg(args, kwargs, 1, "space")),
        "elements": int(out.size),
        "nonfinite": int(out.size - np.count_nonzero(np.isfinite(out))),
    }


def _rescale_counts(args, kwargs, result):
    return {"elements": int(np.asarray(result).size)}


def _enumerate_counts(args, kwargs, result):
    x = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "x"), dtype=float))
    n, dim = x.shape
    states = 1 << n
    # computed, not measured: per summand the (2^n, dim) accumulator is read
    # and written and a 2^n sign vector is formed; one norm pass reads it
    return {"states": states, "bytes": 8 * states * (n * (2 * dim + 1) + dim)}


def _wrap_mc_counts(tracer: Tracer, estimator) -> None:
    """mc_counts, plus one estimator.block span per block, parented across threads."""

    def make(original):
        def wrapper(block_fn, *args, **kwargs):
            threads = int(kwargs.get("threads", 1))
            with tracer.span("estimator.mc_counts", attrs={"threads": threads}) as rec:

                def traced_block(rng, m):
                    with tracer.span("estimator.block", parent=rec.sid):
                        return block_fn(rng, m)

                return original(traced_block, *args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    tracer.patch_everywhere(estimator, "mc_counts", make)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of each layer; raise TracingError if one is gone."""
    from sumtails import cli, estimator, norming, sources, space, suite, transforms

    tracer.wrap(sources, "draw", "sources.draw", _draw_counts)
    tracer.wrap(space, "norms", "space.norms", _norms_counts)
    for method in ("phi", "psi", "phi_inverse", "psi_inverse"):
        tracer.wrap_method(norming.FunctionPair, method, "norming.interp")
    tracer.wrap(transforms, "rescale_factors", "transforms.rescale_factors", _rescale_counts)
    tracer.wrap(transforms, "gamma_n", "transforms.gamma_n")
    _wrap_mc_counts(tracer, estimator)
    tracer.wrap(estimator, "enumerate_sign_norms", "estimator.enumerate_sign_norms", _enumerate_counts)
    tracer.wrap(estimator, "clopper_pearson", "estimator.clopper_pearson")
    for checker in ("check_thm11_i", "check_thm11_ii", "check_contraction", "check_levy", "run_wlln"):
        tracer.wrap(suite, checker, "suite.checker")
    tracer.wrap(cli, "run", "cli.run")


@contextmanager
def installed(tracer: Tracer):
    """The wrappers of install(), removed again on exit, whatever happened."""
    try:
        install(tracer)
        yield tracer
    finally:
        tracer.uninstall()


def check_predictions(spans: list[Span], layers_called: frozenset) -> list[str]:
    """Problems where a layer has calls that were predicted absent, or none where predicted."""
    called = {s.name for s in spans}
    problems = []
    for layer in TRACED_LAYERS:
        if layer in layers_called and layer not in called:
            problems.append(f"layer {layer} has zero calls where calls were predicted")
        if layer not in layers_called and layer in called:
            problems.append(f"layer {layer} has calls where zero were predicted")
    return problems


def metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy and self times and counts for the spans of one pass."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def outer(name):
        # a span nested in one of the same name (draw recurses for shifted laws) is not counted twice
        return [
            s for s in spans
            if s.name == name and (s.parent is None or by_id[s.parent].name != name)
        ]

    def busy(ss):
        return float(sum(s.duration for s in ss))

    def total(ss, key):
        return sum(s.attrs[key] for s in ss)

    out: dict[str, float] = {}
    draws = outer("sources.draw")
    out["sources.draw.busy_s"] = busy(draws)
    out["sources.draw.calls"] = len(draws)
    out["sources.draw.elements"] = total(draws, "elements")
    elements = out["sources.draw.elements"]
    out["sources.draw.ns_per_element"] = out["sources.draw.busy_s"] * 1e9 / elements if elements else 0.0
    for kind, lifting in DRAW_SPLITS:
        out[f"sources.draw.busy_s.{kind}.{lifting}"] = busy(
            s for s in draws if s.attrs["kind"] == kind and s.attrs["lifting"] == lifting
        )

    norm_spans = outer("space.norms")
    out["space.norms.busy_s"] = busy(norm_spans)
    for label in NORM_SPLITS:
        out[f"space.norms.busy_s.{label}"] = busy(s for s in norm_spans if s.attrs["label"] == label)
    out["space.norms.elements"] = total(norm_spans, "elements")
    out["space.norms.nonfinite"] = total(norm_spans, "nonfinite")

    interp = outer("norming.interp")
    out["norming.interp.busy_s"] = busy(interp)
    out["norming.interp.calls"] = len(interp)

    rescale = outer("transforms.rescale_factors")
    out["transforms.rescale_factors.busy_s"] = busy(rescale)
    out["transforms.rescale_factors.self_s"] = float(sum(selfs[s.sid] for s in rescale))
    out["transforms.rescale_factors.elements"] = total(rescale, "elements")

    gammas = outer("transforms.gamma_n")
    gamma_ids = {s.sid for s in gammas}
    out["transforms.gamma_n.busy_s"] = busy(gammas)
    out["transforms.gamma_n.draws"] = total([s for s in draws if s.parent in gamma_ids], "vectors")

    mc = outer("estimator.mc_counts")
    blocks = [s for s in spans if s.name == "estimator.block"]
    out["estimator.mc_counts.wall_s"] = busy(mc)
    out["estimator.mc_counts.blocks"] = len(blocks)
    out["estimator.block.busy_s"] = busy(blocks)
    capacity = sum(s.duration * s.attrs["threads"] for s in mc)
    out["estimator.fanout_efficiency"] = out["estimator.block.busy_s"] / capacity if capacity else 0.0

    enum = outer("estimator.enumerate_sign_norms")
    out["estimator.enumerate_sign_norms.busy_s"] = busy(enum)
    out["estimator.enumerate_sign_norms.states"] = total(enum, "states")
    out["estimator.enumerate_sign_norms.bytes_computed"] = total(enum, "bytes")

    cp = outer("estimator.clopper_pearson")
    out["estimator.clopper_pearson.busy_s"] = busy(cp)
    out["estimator.clopper_pearson.calls"] = len(cp)

    out["suite.block.self_s"] = float(sum(selfs[s.sid] for s in blocks))
    out["suite.checker.self_s"] = float(sum(selfs[s.sid] for s in outer("suite.checker")))
    out["cli.self_s"] = float(sum(selfs[s.sid] for s in outer("cli.run")))
    return out

