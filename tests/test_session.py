"""Session orchestration: configs, the check, outputs, determinism."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ghzqss.attacks import ATTACK_KINDS, AttackModel, run_round
from ghzqss.protocol import Transcript
from ghzqss.session import (
    REPORT_NAME,
    TRANSCRIPT_NAME,
    SessionConfig,
    _stream,
    default_output_dir,
    eavesdrop_check,
    run_session,
    transcript_lines,
    write_outputs,
)
from ghzqss.statevec import RegisterCapacityError
from records import row_records


def small_config(**overrides):
    base = dict(n=3, rounds=12, check_fraction=0.5, seed=99, message="101")
    base.update(overrides)
    return SessionConfig(**base)


# ---------------------------------------------------------------- validation


def test_config_validation_errors():
    with pytest.raises(ValueError):
        small_config(n=2).validate()
    with pytest.raises(ValueError):
        small_config(rounds=0).validate()
    with pytest.raises(ValueError):
        small_config(message="10x").validate()
    with pytest.raises(ValueError):
        small_config(rounds=4, message="101").validate()  # 2 message slots
    with pytest.raises(ValueError):
        small_config(seed=-1).validate()
    with pytest.raises(ValueError):
        small_config(seed=1 << 64).validate()
    with pytest.raises(ValueError):
        small_config(mode="fast").validate()
    with pytest.raises(ValueError):
        small_config(abort_threshold=1.5).validate()
    with pytest.raises(ValueError):
        small_config(check_fraction=0.0).validate()
    with pytest.raises(ValueError):
        small_config(attack=AttackModel("intercept_resend_bell", 2)).validate()


def test_config_capacity_limits():
    with pytest.raises(RegisterCapacityError):
        small_config(n=24, message="").validate()  # 25 qubits once encoded
    with pytest.raises(RegisterCapacityError):
        small_config(n=23, message="", attack=AttackModel("collective_cnot")).validate()
    small_config(n=23, message="").validate()  # 24 qubits exactly, allowed


# ------------------------------------------------------------------ sessions


def test_clean_session_recovers_message_exactly():
    result = run_session(small_config())
    report = result.report
    assert report.detected is False
    assert report.check_error_rate == 0.0
    assert report.recovered_message == "101"
    assert report.message_bit_error_rate == 0.0
    assert report.eve_mutual_information is None  # sample mode
    roles = [p.role for p in result.transcript.plans]
    assert roles.count("check") == 6 and roles.count("message") == 6


def test_round_and_check_counts_per_variant():
    result = run_session(small_config(rounds=40, message=""))
    stats = result.report.per_variant_stats
    assert set(stats) == {"psi1", "psi2", "psi3", "psi4"}
    assert sum(s["rounds"] for s in stats.values()) == 40
    assert sum(s["check_rounds"] for s in stats.values()) == 20
    assert all(s["check_errors"] == 0 for s in stats.values())


def test_exact_mode_attaches_mutual_information():
    report = run_session(small_config(mode="exact")).report
    assert report.eve_mutual_information == pytest.approx(0.0, abs=1e-12)


def test_detected_session_withholds_message_results():
    config = small_config(
        rounds=60,
        message="1011",
        attack=AttackModel("intercept_resend_bell"),
        abort_threshold=0.05,
        seed=5,
    )
    result = run_session(config)
    assert result.report.detected is True
    assert result.report.recovered_message is None
    assert result.report.message_bit_error_rate is None
    events = [e["event"] for e in result.transcript.announcement_log]
    assert "message_results" not in events
    assert events[-1] == "check_verdict"


def test_announcement_log_event_order():
    result = run_session(small_config())
    events = [e["event"] for e in result.transcript.announcement_log]
    assert events[0] == "receipt_confirmed"
    assert events[1] == "variants_announced"
    assert events[2] == "check_indices"
    assert events.count("check_announcements") == 6
    assert events.index("check_verdict") == len(events) - 2
    assert events[-1] == "message_results"


def test_eavesdrop_check_reads_announced_signs():
    result = run_session(small_config(rounds=20, message=""))
    rate, detected = eavesdrop_check(result.transcript, 0.0)
    assert rate == 0.0 and detected is False
    # corrupt one announced sign: the audit must now see exactly one error
    for entry in result.transcript.announcement_log:
        if entry["event"] == "check_announcements":
            entry["signs"][0] ^= 1
            break
    rate, detected = eavesdrop_check(result.transcript, 0.0)
    assert rate == pytest.approx(0.1)
    assert detected is True


def test_eavesdrop_check_threshold_is_strict():
    result = run_session(small_config(rounds=20, message=""))
    for entry in result.transcript.announcement_log:
        if entry["event"] == "check_announcements":
            entry["signs"][0] ^= 1
            break
    rate, detected = eavesdrop_check(result.transcript, 0.1)
    assert rate == pytest.approx(0.1)
    assert detected is False  # rate must exceed, not reach, the threshold


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_announced_signs_belong_to_the_announcing_receivers(kind):
    # the k-th announced sign is receiver order[k]'s own sign from that round,
    # which parity alone cannot tell apart from any other arrangement
    result = run_session(small_config(n=5, rounds=60, attack=AttackModel(kind)))
    lines = [json.loads(t) for t in transcript_lines(result.transcript)]
    entries = [e for e in result.transcript.announcement_log if e["event"] == "check_announcements"]
    assert len(entries) == 30
    for entry in entries:
        line = lines[entry["round"]]
        assert line["announcement_order"] == entry["order"]
        signs = line["receiver_signs"]  # receivers 2..5 in party order
        assert entry["signs"] == ["+-".index(signs[r - 2]) for r in entry["order"]]


def test_eavesdrop_check_requires_check_rounds():
    with pytest.raises(ValueError):
        eavesdrop_check(Transcript([], np.zeros((0, 4), int), np.zeros(0, int), []), 0.0)


REPLAY_CASES = [
    (n, kind, None, all_subsets)
    for n in (3, 4, 5)
    for kind in ATTACK_KINDS
    for all_subsets in (False, True)
] + [(4, "intercept_resend_bell", 3, False), (5, "intercept_resend_bell", 3, True)]


@pytest.mark.parametrize("n,kind,target,all_subsets", REPLAY_CASES)
def test_session_replays_run_round_exactly(n, kind, target, all_subsets):
    # the batched session must give every round exactly what simulating it
    # alone from its own (seed, round index) stream gives
    attack = AttackModel(kind, target)
    config = small_config(n=n, rounds=80, attack=attack, all_subsets=all_subsets, seed=n)
    transcript = run_session(config).transcript
    assert [p.round_index for p in transcript.plans] == list(range(80))
    alone = [run_round(p, attack, _stream(config.seed, p.round_index)) for p in transcript.plans]
    assert row_records(transcript.bits, transcript.eves) == row_records(*zip(*alone))


def test_intercept_error_rate_matches_quarter():
    # 2000 intercepted rounds: the empirical check error rate sits within
    # 3 standard errors of the oracle's 0.25 variant average
    config = small_config(
        rounds=2000, message="", attack=AttackModel("intercept_resend_bell"), seed=17
    )
    report = run_session(config).report
    se = (0.25 * 0.75 / 1000) ** 0.5
    assert abs(report.check_error_rate - 0.25) < 3 * se
    assert report.detected is True


# -------------------------------------------------------------------- outputs


def test_write_outputs_and_report_shape(tmp_path):
    result = run_session(small_config())
    t_path, r_path = write_outputs(result, str(tmp_path / "out"))
    report = json.loads(Path(r_path).read_text())
    assert report["config"]["seed"] == 99
    assert report["config"]["attack"]["kind"] == "none"
    assert report["detected"] is False
    assert report["recovered_message"] == "101"
    assert report["transcript_path"] == TRANSCRIPT_NAME
    lines = Path(t_path).read_text().splitlines()
    assert len(lines) == 12


def test_transcript_line_format():
    result = run_session(small_config(attack=AttackModel("collective_cnot"), seed=3))
    lines = transcript_lines(result.transcript)
    assert len(lines) == 12
    for raw in lines:
        record = json.loads(raw)
        assert set(record) == {
            "round_index",
            "variant",
            "role",
            "payload_bit",
            "alice_a",
            "alice_A",
            "receiver_signs",
            "eve_record",
            "announcement_order",
        }
        assert record["role"] in ("check", "message")
        assert len(record["receiver_signs"]) == 2
        assert set(record["receiver_signs"]) <= {"+", "-"}
        assert record["eve_record"] in (0, 1, 2, 3)
        if record["role"] == "check":
            assert sorted(record["announcement_order"]) == [2, 3]
        else:
            assert record["announcement_order"] is None


def test_transcript_eve_record_is_null_without_attack():
    result = run_session(small_config())
    assert all(json.loads(t)["eve_record"] is None for t in transcript_lines(result.transcript))


def test_byte_identical_reruns(tmp_path):
    config_a = small_config(rounds=30, message="11001", seed=2718)
    config_b = small_config(rounds=30, message="11001", seed=2718)
    pa = write_outputs(run_session(config_a), str(tmp_path / "a"))
    pb = write_outputs(run_session(config_b), str(tmp_path / "b"))
    assert Path(pa[0]).read_bytes() == Path(pb[0]).read_bytes()
    assert Path(pa[1]).read_bytes() == Path(pb[1]).read_bytes()


def test_different_seeds_differ():
    ta = transcript_lines(run_session(small_config(seed=1)).transcript)
    tb = transcript_lines(run_session(small_config(seed=2)).transcript)
    assert ta != tb


def test_report_dict_is_json_ready():
    result = run_session(small_config(mode="exact"))
    text = json.dumps(asdict(result.report))
    assert "per_variant_stats" in text


def test_default_output_dir_env(monkeypatch):
    monkeypatch.delenv("GHZQSS_OUT", raising=False)
    assert default_output_dir() == "ghzqss_out"
    monkeypatch.setenv("GHZQSS_OUT", "/tmp/elsewhere")
    assert default_output_dir() == "/tmp/elsewhere"


def test_check_rate_agrees_with_per_variant_stats():
    config = small_config(rounds=400, message="", attack=AttackModel("collective_h_cnot"), seed=8)
    report = run_session(config).report
    errors = sum(s["check_errors"] for s in report.per_variant_stats.values())
    checks = sum(s["check_rounds"] for s in report.per_variant_stats.values())
    assert checks == 200
    assert report.check_error_rate == pytest.approx(errors / checks)
