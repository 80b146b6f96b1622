"""Session orchestration: configs, the check, outputs, determinism."""

import copy
import json
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqss import session
from ghzqss.attacks import ATTACK_KINDS, AttackModel, draws_per_round, run_round
from ghzqss.protocol import (
    StateVariant,
    Transcript,
    mask_positions,
    recover_secret,
    standard_variants,
)
from ghzqss.session import (
    REPORT_NAME,
    TRANSCRIPT_NAME,
    SessionConfig,
    _round_uniforms,
    _stream,
    eavesdrop_check,
    run_session,
    transcript_chunks,
    write_outputs,
)
from ghzqss.statevec import RegisterCapacityError
from planner import round_plans
from records import row_records


def empty_transcript():
    no_rounds = np.zeros(0, int)
    return Transcript(no_rounds, no_rounds > 0, no_rounds, np.zeros((0, 4), int), no_rounds, [])


def rendered_lines(transcript):
    """The transcript's lines as ``transcript_chunks`` renders them."""
    return b"".join(transcript_chunks(transcript)).decode().splitlines()


def check_announcements(transcript):
    """The log's one check_announcements entry."""
    (entry,) = [e for e in transcript.announcement_log if e["event"] == "check_announcements"]
    return entry


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
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        small_config(seed=True).validate()  # a bool would run as seed 1
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


@pytest.mark.parametrize(
    ("n", "kind"),
    [(3, "none"), (3, "intercept_resend_bell"), (22, "none"), (22, "collective_cnot")],
)
def test_config_draw_bound(n, kind):
    # the largest session within the bound passes, allocating nothing, and one
    # round more is refused; at n=3 without an attack, 4 draws a round, it is
    # the bound exactly
    attack = AttackModel(kind)
    rounds = session.MAX_DRAWS // draws_per_round(attack, n)
    tracemalloc.start()
    try:
        small_config(n=n, rounds=rounds, attack=attack).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    with pytest.raises(RegisterCapacityError, match=f"^{rounds + 1} rounds need "):
        small_config(n=n, rounds=rounds + 1, attack=attack).validate()


# ------------------------------------------------------------------ sessions


def test_clean_session_recovers_message_exactly():
    result = run_session(small_config())
    report = result.report
    assert report.detected is False
    assert report.check_error_rate == 0.0
    assert report.recovered_message == "101"
    assert report.message_bit_error_rate == 0.0
    assert report.eve_mutual_information is None  # sample mode
    assert result.transcript.check.sum() == 6 and (~result.transcript.check).sum() == 6


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
    transcript = result.transcript
    log = transcript.announcement_log
    assert [e["event"] for e in log] == [
        "receipt_confirmed",
        "variants_announced",
        "check_indices",
        "check_announcements",
        "check_verdict",
        "message_results",
    ]
    # every event is logged once, its values as columns rather than per-round entries
    values = [v for e in log if e["event"] != "check_verdict" for k, v in e.items() if k != "event"]
    assert len(values) == 7 and all(isinstance(v, np.ndarray) for v in values)
    assert (log[1]["masks"] == transcript.masks).all()
    check_rounds = np.flatnonzero(transcript.check)
    assert log[2]["rounds"].tolist() == log[3]["rounds"].tolist() == check_rounds.tolist()
    assert log[3]["orders"].shape == log[3]["signs"].shape == (6, 2)
    message_rounds = np.flatnonzero(~transcript.check)
    assert log[5]["rounds"].tolist() == message_rounds.tolist()
    assert log[5]["alice_bits"].tolist() == transcript.bits[message_rounds, 0].tolist()


def test_eavesdrop_check_reads_announced_signs():
    result = run_session(small_config(rounds=20, message=""))
    rate, detected = eavesdrop_check(result.transcript, 0.0)
    assert rate == 0.0 and detected is False
    # corrupt one announced sign: the audit must now see exactly one error
    check_announcements(result.transcript)["signs"][0, 0] ^= 1
    rate, detected = eavesdrop_check(result.transcript, 0.0)
    assert rate == pytest.approx(0.1)
    assert detected is True


def test_eavesdrop_check_threshold_is_strict():
    result = run_session(small_config(rounds=20, message=""))
    check_announcements(result.transcript)["signs"][0, 0] ^= 1
    rate, detected = eavesdrop_check(result.transcript, 0.1)
    assert rate == pytest.approx(0.1)
    assert detected is False  # rate must exceed, not reach, the threshold


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_announced_signs_belong_to_the_announcing_receivers(kind):
    # the k-th announced sign is receiver order[k]'s own sign from that round,
    # which parity alone cannot tell apart from any other arrangement
    result = run_session(small_config(n=5, rounds=60, attack=AttackModel(kind)))
    lines = [json.loads(t) for t in rendered_lines(result.transcript)]
    entry = check_announcements(result.transcript)
    assert len(entry["rounds"]) == 30
    for i, order, announced in zip(*(entry[k].tolist() for k in ("rounds", "orders", "signs"))):
        line = lines[i]
        assert line["announcement_order"] == order
        signs = line["receiver_signs"]  # receivers 2..5 in party order
        assert announced == ["+-".index(signs[r - 2]) for r in order]


def test_eavesdrop_check_requires_check_rounds():
    with pytest.raises(ValueError, match="no check rounds"):
        eavesdrop_check(empty_transcript(), 0.0)  # a log without the announcements


def test_eavesdrop_check_refuses_announcements_without_check_rounds():
    # four message rounds: the announcements entry is logged, with no rows
    masks, payloads, no_rows = np.zeros(4, int), np.array([1, 0, 1, 1]), np.zeros((0, 2), int)
    entry = dict(event="check_announcements", rounds=no_rows[:, 0], orders=no_rows, signs=no_rows)
    bits, eves = np.zeros((4, 4), int), np.full(4, -1)
    transcript = Transcript(masks, masks > 0, payloads, bits, eves, [entry])
    with pytest.raises(ValueError, match="no check rounds"):
        eavesdrop_check(transcript, 0.0)
    lines = rendered_lines(transcript)
    assert [json.loads(line)["announcement_order"] for line in lines] == [None] * 4


REPLAY_CASES = [
    (n, kind, None, all_subsets, "sample", 80)
    for n in (3, 4, 5)
    for kind in ATTACK_KINDS
    for all_subsets in (False, True)
] + [
    (4, "intercept_resend_bell", 3, False, "sample", 80),
    (5, "intercept_resend_bell", 3, True, "sample", 80),
    (8, "collective_h_cnot", None, False, "sample", 80),
    (8, "collective_h_cnot", None, True, "sample", 80),
] + [
    # exact mode samples the folded standard pairs' tables
    (n, kind, None, False, "exact", 80)
    for n in (3, 4, 5)
    for kind in ATTACK_KINDS
] + [
    (4, "collective_cnot", None, True, "exact", 80),
    # a plan that misses most standard keys: their tables are built only to be folded
    (5, "intercept_resend_bell", None, False, "exact", 6),
]


@pytest.mark.parametrize("n,kind,target,all_subsets,mode,rounds", REPLAY_CASES)
def test_session_replays_run_round_exactly(n, kind, target, all_subsets, mode, rounds):
    # the batched session must give every round exactly what simulating it
    # alone from its own (seed, round index) stream gives
    attack = AttackModel(kind, target)
    config = small_config(
        n=n, rounds=rounds, attack=attack, all_subsets=all_subsets, seed=n, mode=mode
    )
    transcript = run_session(config).transcript
    plans = round_plans(n, transcript.masks, transcript.check, transcript.payloads)
    assert len(plans) == rounds
    alone = [run_round(p, attack, _stream(config.seed, p.round_index)) for p in plans]
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


# -------------------------------------------------------------- round streams

STREAM_SEEDS = [0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, (1 << 64) - 1]
# index + 1 takes a second entropy word from 2^32 on
WORD_BOUNDARY = [0, 1, (1 << 32) - 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 40) + 3, 1 << 62]


def stream_rows(seed, indices, width):
    return np.array([_stream(seed, i).random(width) for i in indices]).reshape(-1, width)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_round_uniforms_match_their_streams(seed):
    # every row is bit for bit the draws of the round's own numpy stream
    indices = list(range(24)) + WORD_BOUNDARY + [99, 5, 1 << 32, 0]
    for width in range(1, 14):
        rows = _round_uniforms(seed, np.array(indices), width)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert (rows == stream_rows(seed, indices, width)).all()


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, (1 << 64) - 1),
    st.lists(
        st.integers(0, 1 << 20) | st.integers((1 << 32) - 3, (1 << 32) + 3) | st.integers(0, 1 << 62),
        max_size=6,
    ),
    st.integers(1, 13),
)
def test_round_uniforms_sweep_matches_streams(seed, indices, width):
    rows = _round_uniforms(seed, indices, width)
    assert rows.shape == (len(indices), width)
    assert (rows == stream_rows(seed, indices, width)).all()


# -------------------------------------------------------------------- outputs


def test_write_outputs_and_report_shape(tmp_path):
    result = run_session(small_config())
    t_path, r_path = write_outputs(result, str(tmp_path / "out"))
    report = json.loads(Path(r_path).read_text(encoding="utf-8"))
    assert report["config"]["seed"] == 99
    assert report["config"]["attack"]["kind"] == "none"
    assert report["detected"] is False
    assert report["recovered_message"] == "101"
    assert report["transcript_path"] == TRANSCRIPT_NAME
    lines = Path(t_path).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12


def test_transcript_line_format():
    result = run_session(small_config(attack=AttackModel("collective_cnot"), seed=3))
    lines = rendered_lines(result.transcript)
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


def reference_lines(transcript):
    """The transcript lines as one ``json.dumps`` per round's record."""
    orders = {
        i: order
        for e in transcript.announcement_log
        if e["event"] == "check_announcements"
        for i, order in zip(e["rounds"].tolist(), e["orders"].tolist())
    }
    lines = []
    n = transcript.bits.shape[1] - 1
    plans = round_plans(n, transcript.masks, transcript.check, transcript.payloads)
    for plan, (alice_a, alice_A, *signs), eve in zip(
        plans, transcript.bits.tolist(), transcript.eves.tolist()
    ):
        record = {
            "round_index": plan.round_index,
            "variant": sorted(plan.variant.hadamard_positions),
            "role": plan.role,
            "payload_bit": plan.payload_bit,
            "alice_a": alice_a,
            "alice_A": alice_A,
            "receiver_signs": "".join("-" if s else "+" for s in signs),
            "eve_record": None if eve < 0 else eve,
            "announcement_order": orders.get(plan.round_index),
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    return lines


@pytest.mark.parametrize("all_subsets", [False, True])
@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_transcript_lines_render_as_json_dumps(kind, n, all_subsets, tmp_path):
    config = small_config(n=n, rounds=40, attack=AttackModel(kind), all_subsets=all_subsets)
    result = run_session(config)
    expected = reference_lines(result.transcript)
    assert rendered_lines(result.transcript) == expected
    t_path, _ = write_outputs(result, str(tmp_path))
    assert Path(t_path).read_text(encoding="utf-8") == "".join(line + "\n" for line in expected)
    records = [json.loads(line) for line in expected]
    assert {r["role"] for r in records} == {"check", "message"}
    assert {r["announcement_order"] is None for r in records} == {True, False}
    assert {len(r["receiver_signs"]) for r in records} == {n - 1}
    eves = {r["eve_record"] for r in records}
    if kind == "none":
        assert eves == {None}
    else:
        assert eves <= {0, 1, 2, 3}


def test_empty_transcript_renders_no_lines():
    empty = empty_transcript()
    assert rendered_lines(empty) == reference_lines(empty) == []


# block edges (4096 rows a block), and the round index's width grows inside a block at
# rounds 10, 100, 1000 and 10000; n=11 orders hold the two-digit receivers 10 and 11
BLOCK_EDGE_CASES = [
    (n, rounds, kind, all_subsets)
    for n in (3, 11)
    for rounds, kind, all_subsets in [
        (4095, "none", False),
        (4096, "collective_cnot", True),
        (4097, "intercept_resend_bell", False),
        (8193, "none", True),
        (10001, "collective_h_cnot", n == 11),
    ]
]


@pytest.mark.parametrize("n,rounds,kind,all_subsets", BLOCK_EDGE_CASES)
def test_transcript_blocks_render_as_json_dumps(n, rounds, kind, all_subsets, tmp_path):
    config = small_config(n=n, rounds=rounds, attack=AttackModel(kind), all_subsets=all_subsets)
    result = run_session(config)
    expected = reference_lines(result.transcript)
    chunks = list(transcript_chunks(result.transcript))
    assert [chunk.count(b"\n") for chunk in chunks[:-1]] == [4096] * (len(chunks) - 1)
    assert b"".join(chunks).decode().splitlines() == expected
    t_path, _ = write_outputs(result, str(tmp_path))
    assert Path(t_path).read_bytes() == "".join(line + "\n" for line in expected).encode()


def test_each_variant_text_is_built_once_per_transcript(monkeypatch):
    # 10,000 rounds are three blocks, each holding all 32 masks of n=6
    transcript = run_session(small_config(n=6, rounds=10_000, message="", all_subsets=True)).transcript
    calls = []

    def counted(mask):
        calls.append(mask)
        return mask_positions(mask)

    monkeypatch.setattr(session, "mask_positions", counted)
    lines = rendered_lines(transcript)
    assert len(lines) == 10_000
    assert sorted(calls) == list(range(32)) == np.unique(transcript.masks).tolist()


def test_write_outputs_peak_memory_stays_below_a_fifth_of_the_transcript(tmp_path):
    # the transcript is written a block at a time, each block's variant texts
    # taken from its own masks: nothing passes over a whole column or file
    config = small_config(rounds=100_000, message="", attack=AttackModel("collective_cnot"))
    result = run_session(config)
    tracemalloc.start()
    try:
        t_path, _ = write_outputs(result, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = Path(t_path).stat().st_size
    assert size > 14 << 20
    assert peak <= 0.2 * size


def test_transcript_eve_record_is_null_without_attack():
    result = run_session(small_config())
    assert all(json.loads(t)["eve_record"] is None for t in rendered_lines(result.transcript))


def test_byte_identical_reruns(tmp_path):
    config_a = small_config(rounds=30, message="11001", seed=2718)
    config_b = small_config(rounds=30, message="11001", seed=2718)
    pa = write_outputs(run_session(config_a), str(tmp_path / "a"))
    pb = write_outputs(run_session(config_b), str(tmp_path / "b"))
    assert Path(pa[0]).read_bytes() == Path(pb[0]).read_bytes()
    assert Path(pa[1]).read_bytes() == Path(pb[1]).read_bytes()


def test_different_seeds_differ():
    ta = rendered_lines(run_session(small_config(seed=1)).transcript)
    tb = rendered_lines(run_session(small_config(seed=2)).transcript)
    assert ta != tb


def test_report_dict_is_json_ready():
    result = run_session(small_config(mode="exact"))
    text = json.dumps(result.report, default=vars)  # as write_outputs serializes it
    assert "per_variant_stats" in text


def reference_report_bytes(report) -> bytes:
    # a deep copy by dataclasses.asdict, then the transcript's name added as the last key
    text = json.dumps({**asdict(report), "transcript_path": TRANSCRIPT_NAME}, indent=2) + "\n"
    return text.encode("utf-8")


def reference_bit_error_rate(report):
    # the sent message and the recovered text compared character by character
    if report.recovered_message is None:
        return None
    message = report.config.message
    wrong = sum(got != sent for got, sent in zip(report.recovered_message, message))
    return wrong / len(message) if message else 0.0


@pytest.mark.parametrize("message", ("", "0110100111010"))
@pytest.mark.parametrize("abort_threshold", (0.0, 1.0))
@pytest.mark.parametrize("all_subsets", (False, True))
@pytest.mark.parametrize("mode", ("sample", "exact"))
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_report_writer_matches_its_reference(
    kind, mode, all_subsets, abort_threshold, message, tmp_path
):
    config = small_config(
        n=4, rounds=60, seed=5, message=message, attack=AttackModel(kind), mode=mode,
        abort_threshold=abort_threshold, all_subsets=all_subsets,
    )
    result = run_session(config)
    report = result.report
    assert report.detected is (kind != "none" and abort_threshold == 0.0)
    assert report.message_bit_error_rate == reference_bit_error_rate(report)
    expected, before = reference_report_bytes(report), copy.deepcopy(vars(report))
    written = [Path(write_outputs(result, str(tmp_path / d))[1]).read_bytes() for d in "ab"]
    assert vars(report) == before  # the writer neither sets nor changes a field
    assert written == [expected, expected]


def test_check_rate_agrees_with_per_variant_stats():
    config = small_config(rounds=400, message="", attack=AttackModel("collective_h_cnot"), seed=8)
    report = run_session(config).report
    errors = sum(s["check_errors"] for s in report.per_variant_stats.values())
    checks = sum(s["check_rounds"] for s in report.per_variant_stats.values())
    assert checks == 200
    assert report.check_error_rate == pytest.approx(errors / checks)


def reference_audit(transcript):
    """The check's error rate, one announced row and one dict of signs at a time."""
    alice_a = transcript.bits[:, 0].tolist()
    total = errors = 0
    for entry in transcript.announcement_log:
        if entry.get("event") != "check_announcements":
            continue
        for i, order, row in zip(*(entry[k].tolist() for k in ("rounds", "orders", "signs"))):
            announced = dict(zip(order, row))
            signs = [announced[r] for r in sorted(announced)]
            total += 1
            errors += recover_secret(alice_a[i], signs) != transcript.payloads[i]
    return errors / total


def reference_stats(n, transcript):
    """Per-variant counts from a loop over the rounds, names in first-seen order."""
    counts = {"rounds": 0, "check_rounds": 0, "check_errors": 0}
    stats = {v.name: dict(counts) for v in standard_variants(n)}
    bits = transcript.bits
    secrets = recover_secret(bits[:, 0], bits[:, 2:].T).tolist()
    for mask, check, payload, secret in zip(
        transcript.masks.tolist(), transcript.check.tolist(), transcript.payloads.tolist(), secrets
    ):
        entry = stats.setdefault(StateVariant.from_mask(n, mask).name, dict(counts))
        entry["rounds"] += 1
        if check:
            entry["check_rounds"] += 1
            entry["check_errors"] += int(secret != payload)
    return stats


@pytest.mark.parametrize("all_subsets", (False, True))
@pytest.mark.parametrize("n", (3, 4, 6))
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_check_and_stats_match_per_round_loops(kind, n, all_subsets):
    config = small_config(n=n, rounds=150, attack=AttackModel(kind), all_subsets=all_subsets)
    result = run_session(config)
    rate, detected = eavesdrop_check(result.transcript, config.abort_threshold)
    assert rate == result.report.check_error_rate == reference_audit(result.transcript)
    if kind in ("none", "intercept_resend_bell"):
        assert (rate > 0) == (kind != "none")
    assert isinstance(rate, float) and isinstance(detected, bool)
    # the same counts, under the same names in the same order
    stats = result.report.per_variant_stats
    assert list(stats.items()) == list(reference_stats(n, result.transcript).items())
    assert all(type(v) is int for counts in stats.values() for v in counts.values())
    # a corrupted announcement is seen by both audits
    check_announcements(result.transcript)["signs"][:, -1] ^= 1
    assert eavesdrop_check(result.transcript, 0.0)[0] == reference_audit(result.transcript)
