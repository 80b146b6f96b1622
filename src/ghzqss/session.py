"""End-to-end sessions: planning, round execution, the check, recovery.

A session runs N rounds from one root seed.  Planning (roles, payloads,
variants, announcement order) draws from a dedicated stream, and every round
draws from its own stream derived from (seed, round index), so transcripts
are reproducible bit for bit and independent of execution order.

Rounds are simulated together: the session draws each round's row of
uniforms from its own stream, in plan order, and routes every round
through one level-by-level walk of their outcome trees
(``attacks.route_rounds``).  The walk returns each round's record as one
row of two arrays, its readout bits and Bell record.  The transcript keeps
the arrays as they are, and the announcements, the check and the
transcript lines read their rows.  Every round's bit is recovered once,
from the bit columns.  Each row is exactly the pair ``attacks.run_round``
gives the round simulated alone.

The public log kept on the transcript mirrors what actually goes over the
classical channel, in order: receipt confirmation, the variant announcement,
disclosure of the check subset, each check round's receiver announcements in
their scheduled order, the sender's verdict, and, only when no eavesdropping
was detected, the sender's message-round results.  Aborted sessions never
announce message results, so a detected transcript contains nothing that
would let an attacker finish decoding.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .attacks import (
    AttackModel,
    draws_per_round,
    eve_mutual_information,
    exact_tables,
    route_rounds,
    validate_round,
)
from .protocol import (
    RoundPlan,
    Transcript,
    announcement_schedule,
    check_message,
    check_parties,
    plan_sequences,
    recover_secret,
    standard_variants,
)
TRANSCRIPT_NAME = "transcript.jsonl"
REPORT_NAME = "report.json"
OUTPUT_DIR_ENV = "GHZQSS_OUT"


def _stream(seed: int, round_index: int) -> np.random.Generator:
    # numpy seed material must be non-negative, so the planning stream
    # (index -1) maps to entropy word 0 and round i maps to i + 1
    return np.random.default_rng(np.random.SeedSequence((seed, round_index + 1)))


def check_abort_threshold(abort_threshold: float) -> None:
    """A session aborts when its check error rate exceeds this threshold in [0, 1]."""
    if not 0.0 <= abort_threshold <= 1.0:
        raise ValueError("abort threshold must lie in [0, 1]")


def check_seed(seed: int) -> None:
    """A session's root seed is numpy seed material: an integer in [0, 2^64)."""
    if not isinstance(seed, int) or not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an integer in [0, 2^64)")


@dataclass
class SessionConfig:
    """Everything a session needs; two runs with equal configs match bit for bit."""

    n: int = 3
    rounds: int = 200
    check_fraction: float = 0.5
    attack: AttackModel = field(default_factory=AttackModel)
    seed: int = 0
    mode: str = "sample"
    abort_threshold: float = 0.0
    message: str = ""
    all_subsets: bool = False

    def validate(self) -> None:
        check_parties(self.n)
        validate_round(self.n, self.attack)
        check_message(self.message, self.rounds, self.check_fraction)
        check_seed(self.seed)
        if self.mode not in ("sample", "exact"):
            raise ValueError(f"mode must be 'sample' or 'exact', got {self.mode!r}")
        check_abort_threshold(self.abort_threshold)


@dataclass
class SessionReport:
    config: SessionConfig
    check_error_rate: float
    detected: bool
    recovered_message: str | None
    message_bit_error_rate: float | None
    eve_mutual_information: float | None
    per_variant_stats: dict[str, dict[str, int]]
    transcript_path: str | None = None


@dataclass
class SessionResult:
    report: SessionReport
    transcript: Transcript


def eavesdrop_check(transcript: Transcript, abort_threshold: float) -> tuple[float, bool]:
    """Audit the announced check rounds; detected iff rate > threshold.

    Works from the announcement log, i.e. from the values the receivers
    actually published in their scheduled order, not from private state.
    """
    check_abort_threshold(abort_threshold)
    alice_a = transcript.bits[:, 0].tolist()
    total = 0
    errors = 0
    for entry in transcript.announcement_log:
        if entry.get("event") != "check_announcements":
            continue
        i = entry["round"]
        announced = dict(zip(entry["order"], entry["signs"]))
        signs = [announced[r] for r in sorted(announced)]
        total += 1
        if recover_secret(alice_a[i], signs) != transcript.plans[i].payload_bit:
            errors += 1
    if total == 0:
        raise ValueError("transcript has no check rounds to audit")
    rate = errors / total
    return rate, rate > abort_threshold


def _run_rounds(plans: list[RoundPlan], config: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every round's readout bits and Bell record, from one level-by-level walk of the session."""
    width = draws_per_round(config.attack, config.n)
    uniforms = np.array([_stream(config.seed, p.round_index).random(width) for p in plans])
    variants = [p.variant for p in plans]
    return route_rounds(variants, [p.payload_bit for p in plans], config.attack, uniforms)


def run_session(config: SessionConfig) -> SessionResult:
    """Run one full session and return its report plus transcript."""
    config.validate()
    plan_rng = _stream(config.seed, -1)
    plans = plan_sequences(
        config.rounds,
        config.check_fraction,
        config.message,
        config.n,
        plan_rng,
        config.all_subsets,
    )
    check_indices = [p.round_index for p in plans if p.role == "check"]
    schedule = announcement_schedule(check_indices, config.n, plan_rng)

    bits, eves = _run_rounds(plans, config)
    secrets = recover_secret(bits[:, 0], bits[:, 2:].T).tolist()  # each round's recovered bit

    log: list[dict] = [{"event": "receipt_confirmed"}]
    log.append(
        {
            "event": "variants_announced",
            "variants": [sorted(p.variant.hadamard_positions) for p in plans],
        }
    )
    log.append({"event": "check_indices", "rounds": check_indices})
    orders = [list(schedule[i]) for i in check_indices]
    # column r of the bits is receiver r's sign
    announced = bits[np.array(check_indices)[:, None], orders].tolist()
    for i, order, signs in zip(check_indices, orders, announced):
        log.append({"event": "check_announcements", "round": i, "order": order, "signs": signs})
    transcript = Transcript(plans, bits, eves, log)

    error_rate, detected = eavesdrop_check(transcript, config.abort_threshold)
    log.append({"event": "check_verdict", "check_error_rate": error_rate, "detected": detected})

    recovered: str | None = None
    ber: float | None = None
    if not detected:
        rounds = [p.round_index for p in plans if p.role == "message"]
        log.append(
            {
                "event": "message_results",
                "rounds": rounds,
                "alice_bits": bits[rounds, 0].tolist(),
            }
        )
        recovered = "".join(str(secrets[i]) for i in rounds[: len(config.message)])
        wrong = sum(got != sent for got, sent in zip(recovered, config.message))
        ber = wrong / len(config.message) if config.message else 0.0

    counts = {"rounds": 0, "check_rounds": 0, "check_errors": 0}
    stats = {v.name: dict(counts) for v in standard_variants(config.n)}
    for plan, secret in zip(plans, secrets):
        entry = stats.setdefault(plan.variant.name, dict(counts))
        entry["rounds"] += 1
        if plan.role == "check":
            entry["check_rounds"] += 1
            entry["check_errors"] += int(secret != plan.payload_bit)

    mi: float | None = None
    if config.mode == "exact":
        mi = 0.0  # an unattacked round leaves no record, so no oracle run is needed
        if config.attack.active:
            variants = standard_variants(config.n)
            values = [eve_mutual_information(exact_tables(config.attack, v)) for v in variants]
            mi = sum(values) / len(values)

    report = SessionReport(
        config=config,
        check_error_rate=error_rate,
        detected=detected,
        recovered_message=recovered,
        message_bit_error_rate=ber,
        eve_mutual_information=mi,
        per_variant_stats=stats,
    )
    return SessionResult(report, transcript)


def transcript_lines(transcript: Transcript) -> list[str]:
    """One JSON object per round, with signs rendered as +/- characters."""
    order_by_round: dict[int, list[int]] = {}
    for entry in transcript.announcement_log:
        if entry.get("event") == "check_announcements":
            order_by_round[entry["round"]] = list(entry["order"])
    lines = []
    for plan, (alice_a, alice_A, *signs), eve in zip(
        transcript.plans, transcript.bits.tolist(), transcript.eves.tolist()
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
            "announcement_order": order_by_round.get(plan.round_index),
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    return lines


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "ghzqss_out")


def write_outputs(result: SessionResult, out_dir: str) -> tuple[str, str]:
    """Write transcript and report files; returns their paths.

    The report stores the transcript's file name rather than an absolute
    path, so identical sessions written to different directories still
    produce byte-identical reports.
    """
    os.makedirs(out_dir, exist_ok=True)
    transcript_path = os.path.join(out_dir, TRANSCRIPT_NAME)
    with open(transcript_path, "w", encoding="utf-8") as fh:
        for line in transcript_lines(result.transcript):
            fh.write(line + "\n")
    result.report.transcript_path = TRANSCRIPT_NAME
    report_path = os.path.join(out_dir, REPORT_NAME)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(asdict(result.report), fh, indent=2)
        fh.write("\n")
    return transcript_path, report_path
