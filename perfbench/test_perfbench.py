"""Tests of the benchmark's own code: output checks, percentiles, self time."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

run.import_program()

from ghzqss import attacks, cli, protocol  # noqa: E402

MESSAGE = "0110100111010010"


def _ghzqss(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture
def session(tmp_path):
    cmd = Command("run", 3, "none", "t", rounds=40, seed=5, message=MESSAGE)
    (tmp_path / "msg.txt").write_text(MESSAGE)
    rc, stdout = _ghzqss(cmd.argv(str(tmp_path), str(tmp_path / "msg.txt")))
    files = {
        name: (tmp_path / name).read_bytes()
        for name in (checks.TRANSCRIPT_NAME, checks.REPORT_NAME)
    }
    reference = {
        "transcript": checks.sha256(files[checks.TRANSCRIPT_NAME]),
        "report": checks.sha256(files[checks.REPORT_NAME]),
    }
    return cmd, rc, stdout, tmp_path, reference


def _rewrite_first(path: Path, old: str, new: str, role: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if f'"role":"{role}"' in line and old in line:
            lines[i] = line.replace(old, new, 1)
            path.write_text("".join(lines))
            return
    raise AssertionError(f"no {role} record holds {old!r}")


def test_clean_session_passes(session):
    cmd, rc, stdout, out_dir, reference = session
    assert checks.check_run(cmd, rc, stdout, "", str(out_dir), reference) == []


def test_corrupted_sign_fails_without_reference(session):
    cmd, rc, stdout, out_dir, _reference = session
    path = out_dir / checks.TRANSCRIPT_NAME
    record = json.loads(next(
        line for line in path.read_text().splitlines() if '"role":"message"' in line
    ))
    signs = record["receiver_signs"]
    flipped = ("-" if signs[0] == "+" else "+") + signs[1:]
    _rewrite_first(path, f'"receiver_signs":"{signs}"', f'"receiver_signs":"{flipped}"', "message")
    problems = checks.check_run(cmd, rc, stdout, "", str(out_dir), None)
    assert any("recovery disagrees" in p for p in problems)


def test_corrupted_byte_fails_against_reference(session):
    # the announcement order is invisible to the closed-form checks, so
    # only the digest catches this byte
    cmd, rc, stdout, out_dir, reference = session
    path = out_dir / checks.TRANSCRIPT_NAME
    old, new = ("[2,3]", "[3,2]") if "[2,3]" in path.read_text() else ("[3,2]", "[2,3]")
    _rewrite_first(path, f'"announcement_order":{old}', f'"announcement_order":{new}', "check")
    assert checks.check_run(cmd, rc, stdout, "", str(out_dir), None) == []
    problems = checks.check_run(cmd, rc, stdout, "", str(out_dir), reference)
    assert problems == ["transcript digest differs from the reference"]


def test_wrong_detection_rate_fails():
    cmd = Command("analyze", 3, "intercept-resend", "t", variant=2)
    rc, stdout = _ghzqss(cmd.argv("", ""))
    assert checks.check_analyze(cmd, rc, stdout, "", None) == []
    wrong = stdout.replace("detection_rate = 0.50000000", "detection_rate = 0.25000000")
    assert wrong != stdout
    assert any("detection_rate" in p for p in checks.check_analyze(cmd, rc, wrong, "", None))


def test_table_that_does_not_sum_to_one_fails():
    cmd = Command("analyze", 3, "none", "t", variant=1)
    rc, stdout = _ghzqss(cmd.argv("", ""))
    wrong = stdout.replace("p=0.12500000", "p=0.12500100", 1)
    assert wrong != stdout
    assert any("sums to" in p for p in checks.check_analyze(cmd, rc, wrong, "", None))


def test_nonzero_exit_counts_as_failure(tmp_path):
    runner = run.Runner(WORKLOADS["analyze-n10"], 0, tmp_path, {})
    runner.execute(Command("analyze", 2, "none", "t", variant=1))  # two parties: exit 2
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "exit code 2" in runner.failures[0]
    cmd = Command("run", 3, "none", "t", rounds=40)
    problems = checks.check_run(cmd, 3, "", "error: x", str(tmp_path), None)
    assert problems == ["exit code 3: error: x"]


def test_binomial_interval_separates_attack_rates():
    lo, hi = checks.binomial_interval(1000, 0.25, checks.CHECK_ALPHA)
    assert 0 < lo < 250 < hi < 500
    assert checks.binomial_interval(1000, 0.0, checks.CHECK_ALPHA) == (0, 0)


@pytest.mark.parametrize("count, has_p90", [(9, False), (99, False), (100, True), (250, True)])
def test_p90_needs_ten_samples_beyond_it(count, has_p90):
    summary = run.latency_summary([float(i) for i in range(count, 0, -1)])
    assert summary["samples"] == count
    assert summary["p50"] == (count + 1) / 2
    if has_p90:
        beyond = sum(1 for i in range(1, count + 1) if i > summary["p90"])
        assert beyond >= 10
    else:
        assert summary["p90"] is None


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (with a1 [2, 3]), b [5, 9] and c [8, 12],
    # which overlaps b and runs past the root's end
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [2.0, 2.0, 1.0, 4.0, 4.0]


def test_tracer_sees_calls_through_every_namespace_and_unwinds():
    original = protocol.encode_round
    tracer = tracing.Tracer()
    plan = protocol.RoundPlan(0, protocol.StateVariant.from_index(3, 2), "check", 1)
    with tracer.installed():
        assert protocol.encode_round is not original
        attacks.run_round(plan, attacks.AttackModel("collective_cnot"), np.random.default_rng(1))
    assert protocol.encode_round is original and attacks.encode_round is original
    names = [tracer.names[i] for i in tracer.name_id]
    parent_names = {names[i]: names[p] for i, p in enumerate(tracer.parent) if p >= 0}
    assert names[0] == "attacks.run_round"
    assert parent_names["protocol.encode_round"] == "attacks.run_round"
    assert "statevec.apply_hadamard.q4" in names
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.1)
    assert metrics["attacks.run_round.calls"] == 1
    assert metrics["statevec.append_ancilla.calls.q1-5"] == 2
    assert metrics["protocol.encode_round.s"] > 0


def test_benchmark_file_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert all(m["unit"] == tracing.layer_unit(m["name"]) for m in spec["per_layer"])
    assert len(spec["per_layer"]) <= 128


def test_missing_output_counts_as_failure(tmp_path):
    cmd = Command("run", 3, "none", "t", rounds=40)
    problems = checks.check_run(cmd, 0, "", "", str(tmp_path), None)
    assert len(problems) == 1 and problems[0].startswith("missing output")
