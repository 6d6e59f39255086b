"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run ``run.py`` for a second or two per call, so the whole file takes
about a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import compare
import repeat
from catalogue import END_TO_END, EXACT, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _suite():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import suite

    return suite


def test_benchmark_json_lists_the_catalogue():
    bench = compare.benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in bench["workloads"]) == _suite().WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [row[:3] for row in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_has_ten_samples_beyond_it():
    from run import tail

    values = [float(v) for v in range(1, 41)]
    value, pct, n = tail(values)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(v > value for v in values) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tracer_tiles_a_pass_and_restores_the_program():
    _suite()
    import layers
    import repro.apps as apps
    from repro.mpi import MPIConfig
    from repro.mpi.comm import Comm

    original = Comm.__dict__["isend"]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert Comm.__dict__["isend"] is not original
        tracer.reset(record_spans=10_000)
        root = tracer.open_root()
        t0 = layers.clock()
        r = apps.allgatherv_benchmark(8, 64, MPIConfig.optimized(), seed=1)
        wall = layers.clock() - t0
        tracer.close_root(root)
    finally:
        tracer.uninstall()
    assert Comm.__dict__["isend"] is original
    assert r.correct
    selfs = tracer.layer_self()
    assert min(selfs.values()) >= 0
    assert sum(selfs.values()) == pytest.approx(wall, rel=1e-3)
    assert tracer.calls("collectives:Comm.allgatherv") == 8
    assert tracer.calls("apps:allgatherv_benchmark") == 1
    ids = {span[0] for span in tracer.spans}
    assert all(span[2] in ids or span[2] == root[1] for span in tracer.spans)


@pytest.fixture(scope="module")
def traced_twice():
    return [repeat.run("multigrid", 3, 1, 1) for _ in range(2)]


def test_traced_runs_with_one_seed_repeat_their_counts(traced_twice):
    a, b = traced_twice
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == {row[0] for row in PER_LAYER}
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["simtime.events"]["value"] > 0
    assert a["digest"] == b["digest"]


def test_prof_metrics_are_nonzero_only_on_profiled(traced_twice):
    prof = [row[0] for row in PER_LAYER if row[0].startswith("prof.")]
    assert all(traced_twice[0]["metrics"][m]["value"] == 0 for m in prof)
    profiled = repeat.run("profiled", 3, 1, 1)
    assert profiled["correct"]
    assert all(profiled["metrics"][m]["value"] > 0 for m in prof)


def test_untraced_run_reports_every_end_to_end_metric():
    a = repeat.run("scatter", 4, 1, 0)
    assert a["correct"] and a["failed"] == 0 and a["attempted"] > 0
    assert set(a["metrics"]) == {row[0] for row in END_TO_END}
    assert all(m["value"] > 0 for m in a["metrics"].values())
    b = repeat.run("scatter", 4, 1, 1)
    assert b["digest"] == a["digest"]


def test_selftest_flags_deliberate_slowdowns():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_regressions_use_the_bounds():
    base = [{"workload": "w", "metrics": {"pass_s": {"value": 1.0}}}]
    slower = [{"workload": "w", "metrics": {"pass_s": {"value": 1.5}}}]
    assert [m for _, m, _ in compare.regressions(base, slower)] == ["pass_s"]
    assert compare.regressions(slower, base) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collectives",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
