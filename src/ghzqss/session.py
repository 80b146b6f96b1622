"""End-to-end sessions: planning, round execution, the check, recovery.

A session runs N rounds from one root seed.  Planning (roles, payloads,
variants, announcement order) draws from a dedicated stream, and every round
draws from its own stream derived from (seed, round index), so transcripts
are reproducible bit for bit and independent of execution order.

Rounds are simulated in batches: the session groups them by (variant,
payload), draws each round's row of uniforms from its own stream, and walks
each group's outcome tree once (``attacks.route_rounds``).  The walk
returns each round's readout bits and Bell record as arrays, and the
session turns each row into the round's ``RoundOutcome``.  Every round gets
exactly the outcome that simulating it alone with ``attacks.run_round``
would give.

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
    RoundOutcome,
    RoundPlan,
    StateVariant,
    Transcript,
    announcement_schedule,
    check_message,
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
        if self.n < 3:
            raise ValueError("protocol needs at least three parties")
        validate_round(self.n, self.attack)
        check_message(self.message, self.rounds, self.check_fraction)
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be an integer in [0, 2^64)")
        if self.mode not in ("sample", "exact"):
            raise ValueError(f"mode must be 'sample' or 'exact', got {self.mode!r}")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ValueError("abort threshold must lie in [0, 1]")


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
    if not 0.0 <= abort_threshold <= 1.0:
        raise ValueError("abort threshold must lie in [0, 1]")
    by_index = {o.plan.round_index: o for o in transcript.rounds}
    total = 0
    errors = 0
    for entry in transcript.announcement_log:
        if entry.get("event") != "check_announcements":
            continue
        outcome = by_index[entry["round"]]
        announced = dict(zip(entry["order"], entry["signs"]))
        signs = [announced[r] for r in sorted(announced)]
        total += 1
        if recover_secret(outcome.alice_a, signs) != outcome.plan.payload_bit:
            errors += 1
    if total == 0:
        raise ValueError("transcript has no check rounds to audit")
    rate = errors / total
    return rate, rate > abort_threshold


def _run_rounds(plans: list[RoundPlan], config: SessionConfig) -> list[RoundOutcome]:
    """Outcomes of all rounds, one outcome-tree walk per (variant, payload)."""
    attack = config.attack
    width = draws_per_round(attack, config.n)
    groups: dict[tuple[StateVariant, int], list[RoundPlan]] = {}
    for plan in plans:
        groups.setdefault((plan.variant, plan.payload_bit), []).append(plan)
    by_index: dict[int, RoundOutcome] = {}
    for (variant, payload_bit), members in groups.items():
        uniforms = np.array([_stream(config.seed, p.round_index).random(width) for p in members])
        bits, eves = route_rounds(variant, payload_bit, attack, uniforms)
        columns = zip(
            members,
            bits[:, 0].tolist(),
            bits[:, 1].tolist(),
            map(tuple, bits[:, 2:].tolist()),
            eves.tolist(),
        )
        for plan, alice_a, alice_A, signs, eve in columns:
            record = None if eve < 0 else eve  # -1: no attack, no record
            by_index[plan.round_index] = RoundOutcome(plan, alice_a, alice_A, signs, record)
    return [by_index[plan.round_index] for plan in plans]


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

    outcomes = _run_rounds(plans, config)

    log: list[dict] = [{"event": "receipt_confirmed"}]
    log.append(
        {
            "event": "variants_announced",
            "variants": [sorted(p.variant.hadamard_positions) for p in plans],
        }
    )
    log.append({"event": "check_indices", "rounds": check_indices})
    for i in check_indices:
        order = schedule[i]
        outcome = outcomes[i]
        log.append(
            {
                "event": "check_announcements",
                "round": i,
                "order": list(order),
                "signs": [outcome.receiver_signs[r - 2] for r in order],
            }
        )
    transcript = Transcript(rounds=outcomes, announcement_log=log)

    error_rate, detected = eavesdrop_check(transcript, config.abort_threshold)
    log.append({"event": "check_verdict", "check_error_rate": error_rate, "detected": detected})

    recovered: str | None = None
    ber: float | None = None
    if not detected:
        message_rounds = [o for o in outcomes if o.plan.role == "message"]
        log.append(
            {
                "event": "message_results",
                "rounds": [o.plan.round_index for o in message_rounds],
                "alice_bits": [o.alice_a for o in message_rounds],
            }
        )
        bits = [recover_secret(o.alice_a, o.receiver_signs) for o in message_rounds]
        recovered = "".join(str(b) for b in bits[: len(config.message)])
        if config.message:
            ber = sum(1 for got, sent in zip(recovered, config.message) if got != sent) / len(
                config.message
            )
        else:
            ber = 0.0

    stats: dict[str, dict[str, int]] = {}
    for v in standard_variants(config.n):
        stats[v.name] = {"rounds": 0, "check_rounds": 0, "check_errors": 0}
    for o in outcomes:
        entry = stats.setdefault(
            o.plan.variant.name, {"rounds": 0, "check_rounds": 0, "check_errors": 0}
        )
        entry["rounds"] += 1
        if o.plan.role == "check":
            entry["check_rounds"] += 1
            if recover_secret(o.alice_a, o.receiver_signs) != o.plan.payload_bit:
                entry["check_errors"] += 1

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
    for o in transcript.rounds:
        record = {
            "round_index": o.plan.round_index,
            "variant": sorted(o.plan.variant.hadamard_positions),
            "role": o.plan.role,
            "payload_bit": o.plan.payload_bit,
            "alice_a": o.alice_a,
            "alice_A": o.alice_A,
            "receiver_signs": "".join("-" if s else "+" for s in o.receiver_signs),
            "eve_record": o.eve_record,
            "announcement_order": order_by_round.get(o.plan.round_index),
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
    with open(transcript_path, "w") as fh:
        for line in transcript_lines(result.transcript):
            fh.write(line + "\n")
    result.report.transcript_path = TRANSCRIPT_NAME
    report_path = os.path.join(out_dir, REPORT_NAME)
    with open(report_path, "w") as fh:
        json.dump(asdict(result.report), fh, indent=2)
        fh.write("\n")
    return transcript_path, report_path
