"""Tests of the benchmark itself: inputs, correctness gate, tracing.

    python3 -m pytest benchmark -q
"""

import copy
import itertools
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from rbdesign import catalog_entry, write_design

import run
from inputs import WORKLOADS, concurrence_bytes, generate
from tracing import NullTracer, Tracer, layer_metrics, self_times
from worker import run_pass
from workloads import load_references


def _texts(workload, seed, n):
    out = []
    for inp in itertools.islice(generate(workload, seed), n):
        out.append(write_design(inp.design) if inp.design is not None else f"{inp.r}:{inp.search_seed}")
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _texts(workload, 7, 12) == _texts(workload, 7, 12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    a, b = _texts(workload, 7, 12), _texts(workload, 8, 12)
    assert all(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("workload", ["exact", "iso"])
def test_relabelled_inputs_share_no_concurrence_bytes(workload):
    seen = set()
    for inp in itertools.islice(generate(workload, 3), 60):
        key = concurrence_bytes(inp.design)
        assert key not in seen
        seen.add(key)
        if inp.source != "random":
            assert key != concurrence_bytes(catalog_entry(inp.source).design)


def test_correct_references_pass_and_a_wrong_one_fails():
    refs = load_references()
    # the first exact input is a relabelled gamma-2 (one cheap charpoly)
    assert next(generate("exact", 1)).source == "gamma-2"
    ok = run_pass("exact", 1, None, 1, NullTracer(), refs)
    assert ok["failures"] == []
    wrong = copy.deepcopy(refs)
    wrong["catalog"]["gamma-2"]["a"] = "7/9"
    bad = run_pass("exact", 1, None, 1, NullTracer(), wrong)
    assert len(bad["failures"]) == 1
    assert "source's 7/9" in bad["failures"][0]["problems"][0]


def test_a_wrong_automorphism_order_fails_the_iso_operation():
    refs = load_references()
    # the first iso input is a relabelled gamma-rc-8, a Sylvester design
    assert next(generate("iso", 1)).source == "gamma-rc-8"
    assert run_pass("iso", 1, None, 1, NullTracer(), refs)["failures"] == []
    wrong = copy.deepcopy(refs)
    wrong["iso"]["gamma-rc-8"]["automorphism_order"] = 1441
    result = run_pass("iso", 1, None, 1, NullTracer(), wrong)
    assert len(result["failures"]) == 1


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 5.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("b", 6.0, 8.0, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs["op"] == [4.0]
    assert selfs["a"] == [3.0]
    assert selfs["b"] == [1.0, 2.0]


def test_missing_boundary_is_reported_and_its_metrics_left_out(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = Tracer()
    tracer.install((
        ("efficiency.a_value_float", "fake_layer", "present"),
        ("search.SearchState.propose", "fake_layer", "Gone.propose"),
    ))
    assert tracer.missing == ["fake_layer.Gone.propose"]
    with tracer.op(0):
        assert fake.present(1) == 2
    metrics = layer_metrics(tracer, {"evaluations": 0, "a_mean": 0.0, "verdicts": 0, "canon_free": 0})
    assert metrics["efficiency.float.calls"] == 1
    assert "search.proposals" not in metrics
    assert "efficiency.charpoly.calls" not in metrics


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 10) is None
    t = run.tail([float(i) for i in range(1, 21)])
    assert t["percentile"] == 50 and t["samples"] == 20 and t["value_s"] == 10.0


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
