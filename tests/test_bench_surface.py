"""The library surface that the benchmark reads, exercised once per workload.

``bench/workloads.py`` is loaded from its file, as it is, and one seeded
round of each workload runs through the workload's own ``setup``,
``validate``, ``run`` and ``check``: a name the benchmark reads that the
library no longer has, or an output the benchmark would count as wrong,
fails here.
"""

import pathlib
import random
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    """The workloads, compiled from the file's text: nothing is written."""
    module = types.ModuleType("bench_workloads")
    exec(compile(BENCH.read_text(encoding="utf-8"), str(BENCH), "exec"), module.__dict__)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["repdim_pipeline", "derived_witness", "resolutions_fp"])
def test_one_round_of_each_workload_is_correct(name):
    workload = _workloads()[name]()
    ctx, rounds = workload.setup(random.Random(1), 1)
    workload.validate(rounds)
    (jobs,) = rounds
    assert len(jobs) == len(workload.templates)
    for template, inp in jobs:
        out = workload.run(ctx, template, inp)
        assert workload.check(ctx, template, inp, out) is None, template
