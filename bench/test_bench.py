"""Tests of the benchmark itself (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import compare, harness, spec, trace
from bench.__main__ import list_contract
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
RUN_PY = spec.ROOT / "bench" / "run.py"


# ------------------------------------------------------------- the contract
def test_benchmark_json_meets_the_contract():
    doc = spec.load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(spec.BENCHMARK_JSON.read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 8) <= 3420      # ~8 s of set-up and checks per run


def test_file_and_code_agree():
    names = spec.workload_names()
    assert set(names) == set(WORKLOADS) == set(spec.SIZES)
    universal = {m["name"] for m in spec.load()["end_to_end"]}
    for m in spec.LOCAL_END_TO_END:
        assert m["name"] not in universal and set(m["workloads"]) <= set(names)
    listing = io.StringIO()
    list_contract(listing)
    text = listing.getvalue()
    for name in names + [m["name"] for m in spec.per_layer()] + [
        m["name"] for w in names for m in spec.end_to_end(w)
    ]:
        assert name in text
    golden = json.loads(spec.GOLDEN.read_text())
    assert set(golden) == set(names)
    assert all(len(digests) >= spec.MIN_REPS for digests in golden.values())
    # the N-shard byte-identity oracle, frozen: same digests, rep for rep
    shared = min(len(golden["montage_cell"]), len(golden["montage_sharded4"]))
    assert golden["montage_cell"][:shared] == golden["montage_sharded4"][:shared]


# ---------------------------------------------------------------- workloads
@pytest.mark.parametrize("name", spec.workload_names())
def test_quick_workload_emits_every_declared_metric(name):
    result = harness.run_workload(name, seed=3, quick=True)
    assert result["problems"] == [] and result["failed"] == 0
    assert result["reps"] == spec.MIN_REPS and result["attempted"] >= 1
    declared = {m["name"] for m in spec.end_to_end(name)}
    assert set(result["end_to_end"]) == declared
    for m in spec.load()["end_to_end"]:
        assert result["end_to_end"][m["name"]]["value"] > 0
    assert result["end_to_end"]["fail_ratio"]["value"] == 0


def test_same_seed_same_result_and_other_seed_differs():
    a = harness.run_workload("svc_smallbatch", seed=5, quick=True)
    b = harness.run_workload("svc_smallbatch", seed=5, quick=True)
    c = harness.run_workload("svc_smallbatch", seed=6, quick=True)
    assert a["result_sha256"] == b["result_sha256"] != c["result_sha256"]
    assert a["attempted"] == c["attempted"]     # every seed does the same amount of work


def test_a_failed_check_fails_the_run(monkeypatch):
    monkeypatch.setattr(
        WORKLOADS["svc_bigbatch"], "verify",
        lambda self, i, rep: rep.problems.append("injected") or setattr(rep, "digest", i),
    )
    result = harness.run_workload("svc_bigbatch", seed=3, quick=True)
    assert result["failed"] == spec.MIN_REPS
    assert result["end_to_end"]["fail_ratio"]["value"] > 0


# ------------------------------------------------------------------ tracing
def test_traced_run_emits_every_per_layer_metric_and_attributes_the_wall():
    result = harness.run_workload("montage_cell", seed=3, quick=True, traced=True)
    assert result["problems"] == []
    layers = result["per_layer"]
    assert list(layers) == [m["name"] for m in spec.per_layer()]
    wall = sum(result["end_to_end"]["wall_s"]["samples"])
    assert layers["trace.unattributed_s"] <= 0.10 * wall
    assert layers["trace.overhead_ratio"] > 0.5
    assert layers["service.calls.submit_transfers"] > 0 and layers["des.events"] > 0
    assert layers["rules.match_s"] > 0 and layers["engine.jobs"] > 0
    assert layers["journal.commits"] == 0 and layers["rest.requests"] == 0


def test_span_tree_nests_and_wrappers_are_removed():
    from repro import ExperimentConfig, PolicyService, run_cell
    from repro.des.core import Environment

    originals = (PolicyService.submit_transfers, PolicyService.__init__, Environment.process,
                 PolicyService.__dict__["recover"])
    tracer = trace.install()
    try:
        assert PolicyService.submit_transfers is not originals[0]
        t0 = time.perf_counter()
        metrics = run_cell(ExperimentConfig(n_images=6, extra_file_mb=10.0, seed=3))
        wall = time.perf_counter() - t0
    finally:
        trace.uninstall(tracer)
    assert metrics.success
    assert (PolicyService.submit_transfers, PolicyService.__init__, Environment.process,
            PolicyService.__dict__["recover"]) == originals

    spans = tracer.dump()["spans"]
    assert len(spans) > 100
    child_time = [0.0] * len(spans)
    for name, start, end, parent, request, thread, extra in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[trace.START] <= start and end <= p[trace.END], (name, p[trace.NAME])
            assert p[trace.THREAD] == thread
            child_time[parent] += end - start
    self_times = [s[trace.END] - s[trace.START] - child_time[n] for n, s in enumerate(spans)]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= wall
    # spans of one policy request share its id; the service span sits under the client's
    service = [s for s in spans if s[trace.NAME] == "service.submit_transfers"]
    assert service and all(s[trace.REQUEST] > 0 for s in service)
    assert all(spans[s[trace.PARENT]][trace.NAME] == "client.submit_transfers" for s in service)


# ------------------------------------------------------------------ compare
def _doc(wall, samples=None, sha="x", fail=0.0):
    samples = samples or [wall] * 4
    def metric(value, xs):
        return {"value": value, "q1": harness.quantile(xs, 0.25),
                "q3": harness.quantile(xs, 0.75), "n": len(xs), "samples": xs, "unit": "s"}
    return {"workloads": {"dag10k_nopolicy": {
        "result_sha256": sha,
        "end_to_end": {"wall_s": metric(wall, samples), "fail_ratio": metric(fail, [fail])},
    }}}


def test_compare_verdicts_and_exit_codes(tmp_path, capsys):
    def verdicts(a, b):
        return {r["metric"]: r["verdict"] for r in compare.rows(a, b)}

    assert verdicts(_doc(1.0), _doc(1.2))["wall_s"] == "ok"
    assert verdicts(_doc(1.0), _doc(1.3))["wall_s"] == "regressed"
    noisy = _doc(1.0, [0.7, 0.8, 1.2, 1.5])
    assert verdicts(noisy, _doc(1.05))["wall_s"] == "unresolved"
    assert verdicts(noisy, _doc(0.5))["wall_s"] == "ok"      # every B run beats every A run
    assert verdicts(_doc(1.0), _doc(1.0, sha="y"))["result_sha256"] == "changed"

    paths = {}
    for key, doc in {"a": _doc(1.0), "slow": _doc(1.3), "bad": _doc(1.0, fail=0.01)}.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    assert compare.main(paths["a"], paths["a"]) == 0
    assert compare.main(paths["a"], paths["slow"]) == 1
    assert compare.main(paths["a"], paths["bad"]) == 1
    assert "1.3000 of 1 s" in capsys.readouterr().out       # the ratio names its base


# ------------------------------------------------------- the driver command
@pytest.mark.parametrize("traced", [0, 1])
def test_driver_command_prints_one_json_result(traced):
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "rest_loopback", "--seed", "4",
         "--seconds", "1", "--trace", str(traced), "--quick"],
        capture_output=True, text=True, cwd=spec.ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.load()["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if traced:
        assert result["metrics"]["rest.requests"]["value"] == result["attempted"]
        assert result["metrics"]["rest.bytes_in"]["value"] > 0
    assert not list((spec.ROOT / ".bench_tmp").iterdir())


def test_driver_command_fails_without_the_program(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path)
    shutil.copytree(spec.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "montage_cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
