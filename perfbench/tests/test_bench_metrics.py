"""Metric names, units and BENCHMARK.json stay in step with the code."""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
import metrics  # noqa: E402
import run      # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)
    assert len(metrics.PER_LAYER) <= 128


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == metrics.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(NAME.match(w["name"]) and len(w["why"]) <= 200
               for w in bench["workloads"])


def test_every_default_seed_output_has_a_stored_digest(tmp_path):
    with open(run.DIGESTS) as fh:
        stored = json.load(fh)
    for name, work in run.WORKLOADS.items():
        plan = run.run_plan(work, work.default_seed, work.units,
                            str(tmp_path / name))
        for _, steps in plan:
            for step in steps:
                assert step.key in stored, step.key
