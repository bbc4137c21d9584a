"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from quivhom import algebra as alg  # noqa: E402
from quivhom import derived as dv  # noqa: E402
from quivhom import quiver as qv  # noqa: E402
from quivhom import repcat as rc  # noqa: E402
from quivhom import scmodule as scm  # noqa: E402
from quivhom import trimat as tm  # noqa: E402
from quivhom.exactlin import Mat  # noqa: E402
from workloads import WORKLOADS, RepdimPipeline  # noqa: E402


class SmallRepdim(RepdimPipeline):
    """The repdim pipeline on its two fastest quivers, to keep the tests short."""

    templates = ("a2", "kronecker")


def describe(obj):
    """Deterministic nested-tuple rendering of generated inputs."""
    if isinstance(obj, Mat):
        return "mat", obj.rows, obj.cols, tuple(str(e) for e in obj.entries)
    if isinstance(obj, (list, tuple)):
        return tuple(describe(o) for o in obj)
    if isinstance(obj, dict):
        return tuple((str(k), describe(v)) for k, v in obj.items())
    if isinstance(obj, qv.Quiver):
        return "quiver", obj.vertices, tuple((a.name, a.source, a.target) for a in obj.arrows)
    if isinstance(obj, alg.AlgMod):
        return "mod", obj.algebra.name, describe(obj.dims), describe(obj.mats)
    if isinstance(obj, (alg.ModMap, rc.RepMap)):
        return "map", describe(obj.mats)
    if isinstance(obj, rc.Rep):
        return "rep", describe(obj.quiver), describe(obj.mods), describe(obj.maps)
    if isinstance(obj, scm.SCModule):
        return "scmod", obj.dim, describe(obj.action)
    if isinstance(obj, tm.TripleModule):
        return "triple", describe(obj.x), describe(obj.y), describe(obj.phi)
    if isinstance(obj, tm.TripleMap):
        return "triplemap", describe(obj.u), describe(obj.w)
    if isinstance(obj, dv.Complex):
        return "complex", obj.lo, obj.hi, describe(obj.objs), describe(obj.diffs)
    return repr(obj)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = WORKLOADS[name]()

    def inputs(seed):
        _, rounds = wl.setup(random.Random(seed), 2)
        wl.validate(rounds)
        return describe(rounds)

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def _traced(workload, seed):
    attempted, failures, metrics, _ = run.measure_traced(workload, seed)
    assert not failures and attempted > 0
    return metrics


@pytest.mark.parametrize("workload", [WORKLOADS["derived_witness"](),
                                      WORKLOADS["resolutions_fp"](), SmallRepdim()],
                         ids=lambda w: w.name)
def test_traced_work_counts_repeat(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    counts = [{name: m[name]["value"] for name in tracing.WORK_COUNTS} for m in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_repdim_self_time_is_mostly_radical_sc():
    metrics = _traced(RepdimPipeline(), 1)
    self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS}
    assert max(self_s, key=self_s.get) == "algebra"
    assert metrics["algebra.radical_sc_s"]["value"] > 0.5 * sum(self_s.values())
    assert (metrics["algebra.radical_sc_distinct"]["value"]
            < metrics["algebra.radical_sc_calls"]["value"])


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {name: (unit, better)
                         for name, (unit, better, _) in tracing.METRICS.items()}
    _, failures, metrics, _ = run.measure(SmallRepdim(), 1, 0.1)
    assert not failures
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in metrics.items()}
