"""End-to-end sessions: planning, round execution, the check, recovery.

A session runs N rounds from one root seed.  Planning (roles, payloads,
variants, announcement order) draws from a dedicated stream, and every round
draws from its own stream derived from (seed, round index), so transcripts
are reproducible bit for bit and independent of execution order.

A session's plan is three columns, one entry per round: variant mask,
check role and payload bit (``protocol.plan_sequences``, whose one
broadcast draw over the planning stream gives exactly the draws of a
round-by-round loop).  Round i's row of uniforms is defined as the first draws of its own
stream, ``_stream(seed, i)``, but the session computes every round's row
in one vectorized pass (``_round_uniforms``: integer arithmetic for
numpy's SeedSequence and PCG64, pinned ``==`` to ``_stream`` by the
tests).  A table depends on its variant only through the tapped
positions (``attacks.tapped_positions``), so a session reads one oracle
table per class of the standard variants (``attacks.class_tables``): 1,
4, 2 or 2, whatever the mode or planner.  Each class's table, whose
frame holds the payload, samples all the class's rounds in one call
(``attacks.route_rounds``), giving each round's record as one row of
two arrays, its readout bits and Bell record, and is folded into the
information of each standard variant of its class, which an exact
session reports.  The transcript keeps the
columns and the arrays as they are.  The announcements, the check, the
per-variant counts and the transcript lines are array operations over
them, and every round's bit is recovered once, from the bit columns.  Each row is
exactly the pair ``attacks.run_round`` gives the round simulated alone.

The public log kept on the transcript mirrors what actually goes over the
classical channel, in order, one entry per event with its values as columns:
receipt confirmation, the variant masks, the check subset, the receivers'
check announcements (every check round's order and the signs announced in
it), the sender's verdict, and, only when no eavesdropping was detected, the
sender's message-round results.  Aborted sessions never announce message
results, so a detected transcript contains nothing that would let an
attacker finish decoding.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .attacks import (
    AttackModel,
    class_tables,
    draws_per_round,
    eve_mutual_information,
    route_rounds,
    tapped_positions,
    validate_round,
)
from .protocol import (
    StateVariant,
    Transcript,
    announcement_schedule,
    check_message,
    mask_positions,
    plan_sequences,
    readout,
    recover_secret,
    standard_variants,
)
from .statevec import RegisterCapacityError

TRANSCRIPT_NAME = "transcript.jsonl"
REPORT_NAME = "report.json"
OUTPUT_DIR_ENV = "GHZQSS_OUT"
# the most uniforms one session draws: a whole session traces 37-88 B per draw (n=22 to n=3)
MAX_DRAWS = 1 << 26


_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _stream(seed: int, round_index: int) -> np.random.Generator:
    # numpy seed material must be non-negative, so the planning stream
    # (index -1) maps to entropy word 0 and round i maps to i + 1
    return np.random.default_rng(np.random.SeedSequence((seed, round_index + 1)))


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its hash constant steps on every call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _mul_add(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * PCG64's multiplier + (inc_hi, inc_lo) mod 2^128, on 32-bit limbs."""
    l0, l1, m0, m1 = lo & _MASK32, lo >> 32, _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    low = p00 & _MASK32 | mid << 32
    high = l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    out = low + inc_lo
    return high + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (out < low), out


def _round_uniforms(seed: int, indices, width: int) -> np.ndarray:
    """Row k is ``_stream(seed, indices[k]).random(width)``, for every row in one pass.

    numpy's SeedSequence runs on uint32 arrays: the hashmix/mix pool of four
    words over the entropy words (the seed's, then index + 1's, low word
    first), then ``generate_state(4, uint64)``.  PCG64 runs on pairs of
    uint64 arrays: setseq seeding, one step per draw, the XSL-RR output and
    ``(x >> 11) * 2^-53``.  SeedSequence hashes an entropy list shorter than
    the pool as if padded with zero words, so an index + 1 below 2^32 (one
    word) is the pair (word, 0), and rows of one and two index words share
    the pass.  Tests pin every row ``==`` to ``_stream``.
    """
    words = np.asarray(indices, dtype=np.uint64) + np.uint64(1)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    k = len(seed_words)
    entropy = np.zeros((4, words.size), np.uint32)
    entropy[:k] = np.array(seed_words, np.uint32)[:, None]
    entropy[k], entropy[k + 1] = words & _MASK32, words >> 32

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
                pool[dst] = mixed ^ mixed >> 16
    emit = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [emit(pool[j % 4]).astype(np.uint64) for j in range(8)]
    s0, s1, s2, s3 = (state[j] | state[j + 1] << 32 for j in (0, 2, 4, 6))

    # state = inc + (s0, s1), stepped once; inc = (s2, s3) << 1 | 1
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _mul_add(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    out = np.empty((words.size, width), np.uint64)
    for j in range(width):
        hi, lo = _mul_add(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = x >> rot | x << (64 - rot & 63)
    return (out >> 11) * 2.0**-53


def check_abort_threshold(abort_threshold: float) -> None:
    """A session aborts when its check error rate exceeds this threshold in [0, 1]."""
    if not 0.0 <= abort_threshold <= 1.0:
        raise ValueError("abort threshold must lie in [0, 1]")


def check_seed(seed: int) -> None:
    """A session's root seed is numpy seed material: an integer (not a bool) in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < (1 << 64):
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
        """Refuse a bad round, session size, message, seed, mode or threshold, in that order.

        Each check takes constant time but the message's, which is linear in its length.
        """
        validate_round(self.n, self.attack)
        if (draws := self.rounds * draws_per_round(self.attack, self.n)) > MAX_DRAWS:
            raise RegisterCapacityError(f"{self.rounds} rounds need {draws} draws, above {MAX_DRAWS}")
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
    entries = [e for e in transcript.announcement_log if e["event"] == "check_announcements"]
    if not entries or not len(entries[0]["rounds"]):
        raise ValueError("transcript has no check rounds to audit")
    rounds, signs = entries[0]["rounds"], entries[0]["signs"]
    recovered = recover_secret(transcript.bits[rounds, 0], signs.T)  # parity needs no order
    rate = int(np.count_nonzero(recovered != transcript.payloads[rounds])) / len(rounds)
    return rate, rate > abort_threshold


def _run_rounds(
    masks, payloads, config: SessionConfig
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Every round's readout bits and Bell record, and each standard variant's information.

    A table depends on its variant only through the tapped positions,
    and every mask's class is a standard variant's, so the tables are
    ``attacks.class_tables``: 1 without an attack, 4 under
    intercept-resend, 2 under each collective attack.  Each samples its
    class's rounds of both payloads in one call (``route_rounds``) and is
    folded with ``eve_mutual_information`` for each standard variant of
    its class.  The values come in standard index order.
    """
    n, attack = config.n, config.attack
    uniforms = _round_uniforms(config.seed, np.arange(len(masks)), draws_per_round(attack, n))
    tapped, tables = tapped_positions(attack, n), class_tables(attack, n)
    classes = np.asarray(masks, dtype=np.int64) & tapped
    bits, eves = np.zeros((classes.size, len(readout(n))), dtype=np.int64), np.full(classes.size, -1)
    for key, table in tables.items():
        rows = np.flatnonzero(classes == key)
        bits[rows], eves[rows] = route_rounds(table, payloads[rows], uniforms[rows])
    return bits, eves, [eve_mutual_information(tables[v.mask & tapped]) for v in standard_variants(n)]


_STATS = ("rounds", "check_rounds", "check_errors")  # per variant, in report order


def run_session(config: SessionConfig) -> SessionResult:
    """Run one full session and return its report plus transcript."""
    config.validate()
    plan_rng = _stream(config.seed, -1)
    masks, check, payloads = plan_sequences(
        config.rounds, config.check_fraction, config.message, config.n, plan_rng, config.all_subsets
    )
    check_rounds = np.flatnonzero(check)
    orders = announcement_schedule(check_rounds.size, config.n, plan_rng)

    bits, eves, infos = _run_rounds(masks, payloads, config)
    secrets = recover_secret(bits[:, 0], bits[:, 2:].T)  # each round's recovered bit
    signs = bits[check_rounds[:, None], orders]  # column r of the bits is receiver r's sign
    log = [
        {"event": "receipt_confirmed"},
        {"event": "variants_announced", "masks": masks},
        {"event": "check_indices", "rounds": check_rounds},
        {"event": "check_announcements", "rounds": check_rounds, "orders": orders, "signs": signs},
    ]
    transcript = Transcript(masks, check, payloads, bits, eves, log)

    error_rate, detected = eavesdrop_check(transcript, config.abort_threshold)
    log.append({"event": "check_verdict", "check_error_rate": error_rate, "detected": detected})

    recovered: str | None = None
    ber: float | None = None
    if not detected:
        rounds = np.flatnonzero(~check)
        log.append({"event": "message_results", "rounds": rounds, "alice_bits": bits[rounds, 0]})
        carried = rounds[: len(config.message)]
        recovered = "".join(map(str, secrets[carried].tolist()))
        ber = np.count_nonzero(secrets[carried] != payloads[carried]) / max(carried.size, 1)

    distinct, first, inverse = np.unique(masks, return_index=True, return_inverse=True)
    counted = inverse, inverse[check], inverse[check & (secrets != payloads)]  # as in _STATS
    counts = np.stack([np.bincount(c, minlength=distinct.size) for c in counted], 1).tolist()
    # the standard names first, in index order, then the other masks as they first appear
    stats = {v.name: dict.fromkeys(_STATS, 0) for v in standard_variants(config.n)}
    for k in np.argsort(first).tolist():
        name = StateVariant.from_mask(config.n, int(distinct[k])).name
        stats[name] = dict(zip(_STATS, counts[k]))

    mi = sum(infos) / len(infos) if config.mode == "exact" else None

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


_BLOCK_ROWS = 4096  # transcript lines rendered, and written, at a time


def transcript_chunks(transcript: Transcript) -> Iterator[bytes]:
    """``transcript.jsonl``'s bytes, ``_BLOCK_ROWS`` lines at a time.

    Line i is round i's record as ``json.dumps(record, separators=(",", ":"))``, then a newline.
    A block is a uint8 matrix tiled from a line template, with bits added into their columns and
    variable-width texts NUL-padded in theirs; JSON holds no NUL, so the other bytes are the lines.
    """
    rows, receivers = transcript.bits.shape[0], transcript.bits.shape[1] - 2
    wide = len(str([*range(2, receivers + 2)]).replace(" ", ""))  # the widest variant list
    roles, eves = (np.array(texts, bytes)[:, None].view(np.uint8)  # NUL-padded, a row each
                   for texts in (["message", "check"], ["0", "1", "2", "3", "null"]))  # -1: null
    rounds, orders = np.zeros(0, dtype=np.int64), np.zeros((0, receivers), dtype=np.int64)
    for entry in (e for e in transcript.announcement_log if e["event"] == "check_announcements"):
        rounds, orders = entry["rounds"], entry["orders"]  # the check rounds ascend
    # check round k's order: NUL, numeral and "," per receiver, its ends then made "[" and "]"
    numerals = [str(r).rjust(len(str(receivers + 1)), "\0") for r in range(receivers + 2)]
    listed = np.array(["\0" + r + "," for r in numerals], bytes)[orders].view(np.uint8)
    listed[:, 0], listed[:, -1] = ord("["), ord("]")
    powers = 10 ** np.arange(len(str(rows - 1)) - 1, -1, -1)  # the round index's digit places
    parts = (  # key texts, each followed by its field's template text
        '{"round_index":', "\0" * powers.size, ',"variant":', "\0" * wide,
        ',"role":"', "\0" * roles.shape[1], '","payload_bit":', "0", ',"alice_a":', "0",
        ',"alice_A":', "0", ',"receiver_signs":"', "+" * receivers, '","eve_record":',
        "\0" * eves.shape[1], ',"announcement_order":', "null".ljust(listed.shape[1], "\0"), "}\n",
    )
    template = np.frombuffer("".join(parts).encode("ascii"), dtype=np.uint8)
    ends = np.cumsum([len(part) for part in parts]).tolist()  # a field spans its part's columns
    index, variant, role, payload, a, big_a, sign, eve, order = map(slice, ends[::2], ends[1::2])
    texts: dict[int, str] = {}  # each mask's variant text, built in the block it first appears
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        bits = np.c_[transcript.payloads[block], transcript.bits[block]].astype(np.uint8)
        mat = np.tile(template, (len(bits), 1))
        numbers = np.arange(start, start + len(bits))[:, None]  # leading zeros stay NUL:
        mat[:, index] = (numbers // powers % 10 + 48) * (np.maximum(numbers, 1) >= powers)
        distinct, variant_of = np.unique(transcript.masks[block], return_inverse=True)
        for mask in set(distinct.tolist()) - texts.keys():
            texts[mask] = str(mask_positions(mask)).replace(" ", "")
        distinct_texts = [texts[mask] for mask in distinct.tolist()]
        mat[:, variant] = np.array(distinct_texts, f"S{wide}")[:, None].view(np.uint8)[variant_of]
        mat[:, role] = roles[transcript.check[block].astype(np.intp)]
        mat[:, eve] = eves[transcript.eves[block]]
        mat[:, np.r_[payload, a, big_a]] += bits[:, :3]
        mat[:, sign] += 2 * bits[:, 3:]
        checked = slice(*np.searchsorted(rounds, (start, start + len(bits))))
        mat[rounds[checked] - start, order] = listed[checked]
        yield mat[mat != 0].tobytes()


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "ghzqss_out")


def write_outputs(result: SessionResult, out_dir: str) -> tuple[str, str]:
    """Write transcript and report files; returns their paths.

    The writer records the transcript's file name, not its path, as the
    report's last key, so identical sessions written to different
    directories give byte-identical reports.  The report is left unchanged.
    """
    os.makedirs(out_dir, exist_ok=True)
    transcript_path = os.path.join(out_dir, TRANSCRIPT_NAME)
    with open(transcript_path, "wb") as fh:  # bytes, a block at a time: no newline translation
        fh.writelines(transcript_chunks(result.transcript))
    report = {**vars(result.report), "transcript_path": TRANSCRIPT_NAME}
    report_path = os.path.join(out_dir, REPORT_NAME)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, default=vars, indent=2) + "\n")
    return transcript_path, report_path
