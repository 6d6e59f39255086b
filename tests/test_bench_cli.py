"""Tests for the `python -m repro.bench` command-line entry point."""

import json

from repro.bench.__main__ import main


def test_unknown_figure_rejected(capsys):
    assert main(["fig99"]) == 2
    out = capsys.readouterr().out
    assert "unknown figure" in out


def test_single_figure_runs(capsys):
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "Fig12" in out
    assert "1024x1024" in out
    assert "wall time" in out


def test_trace_out_requires_profile(capsys):
    assert main(["fig12", "--trace-out", "t.json"]) == 2
    assert "--trace-out requires --profile" in capsys.readouterr().out


def test_profile_emit_json_and_trace(tmp_path, capsys):
    report = tmp_path / "bench.json"
    trace = tmp_path / "trace.json"
    assert main(["fig12", "--profile",
                 "--emit-json", str(report),
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "pack/compute/wire/wait breakdown" in out
    assert "breakdown consistency (sums to elapsed): ok" in out

    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro-bench/1"
    assert "Fig12" in doc["figures"]
    prof = doc["profile"]
    assert prof["clusters"] > 0
    assert prof["breakdown_valid"] is True
    assert prof["breakdown_rows"] > 0
    assert prof["metrics"]["repro_send_messages_total"] > 0
    assert "prometheus" not in prof           # bulky text form is stripped
    assert prof["row_metrics"]["Fig12"]       # per-row metric deltas
    assert any(a["op"] == "isend" for a in prof["breakdown"])

    tr = json.loads(trace.read_text())
    assert tr["traceEvents"]
    assert any(e["ph"] == "X" for e in tr["traceEvents"])


def test_transpose_column_type_structure():
    from repro.apps.transpose import column_major_type

    dt = column_major_type(16)
    assert dt.size == 16 * 16 * 8
    assert dt.num_blocks == 16 * 16  # every element its own block
    blocks = dt.flatten()
    # first column's elements stride by one row (16 doubles)
    assert blocks.offsets[1] - blocks.offsets[0] == 16 * 8
