import json
import re

from perfbench import run, spec

DOC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_tables_match_what_the_benchmark_reports():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DOC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in DOC["workloads"]] == list(spec.WORKLOADS)


def test_document_shape_and_limits():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert 1 <= DOC["run_seconds"] <= 60
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    names += [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in DOC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DOC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DOC["end_to_end"] + DOC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in DOC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
