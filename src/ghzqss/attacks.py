"""Eavesdropping models against the GHZ secret-sharing rounds.

The dishonest party is always receiver 2 (the first receiver), acting alone.
Two families are modeled, both tapping a particle while it is in flight to
another receiver, i.e. strictly before the round's variant is announced:

- intercept_resend_bell: receiver 2 pulls the targeted particle out of the
  channel, measures it together with his own particle in the Bell basis,
  and forwards the collapsed particle.  His record is the Bell index.
- collective_cnot / collective_h_cnot: receiver 2 entangles a fresh probe
  qubit with the in-flight particle via CNOT (optionally conjugated by
  Hadamards on the flying particle) and forwards it undisturbed in the
  computational basis.  He holds the probe until the round is encoded, then
  measures his own particle together with the probe in the Bell basis.
  That deferred measurement happens before his X-basis readout, so the
  sign he later announces comes from a particle already collapsed into a
  Bell pair with the probe.

Every path builds a round from one prefix, ``_round_prefix`` (prepare,
tap, correct, encode, deferred Bell measurement), so the exact oracle and
the one-round reference model the identical circuit.
``exact_round_analysis`` enumerates the exact joint distribution of one
round's classical record and backs every security number in this package:
``exact_tables`` runs it once per payload bit, and the detection rate, the
attacker's record distribution and information are pure folds over that
pair of tables, so ``ghzqss analyze`` makes one oracle pass per payload.
A record is always held as arrays: a table is a ``RecordTable``, three
read-only arrays (packed readout bits, Bell record or -1 without an
attack, probability), and each branch of the oracle is read by
``statevec.outcome_distribution``.  The folds are array operations, and
every float equals the one a loop over the records in table order gives:
sums run left to right (``np.cumsum`` or ``np.add.at``, never the
pairwise ``np.sum``), and ``math.log2`` runs on each of the at most 16
cells of the information sum, since ``np.log2`` may differ in the last
bit.
``route_rounds`` samples rounds from one such table, and a session builds
each table it needs once (``session._run_rounds``).  ``statevec`` reports
every probability of these Clifford rounds as its exact dyadic, so the
oracle's records and their running totals are exact, and so is every
conditional probability of a readout given the ones before it.  A row
moves down its table one measurement per step, under the threshold rule
``run_round`` applies to a collapsed state's (equal) probabilities, so
each row is exactly the (bits, Bell record) pair that ``run_round``, the
reference the sampler is tested against, returns from that row's draws.
The oracle collapses each live Bell branch only when it reads it, so one
branch state is alive at a time.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .protocol import (
    RoundPlan,
    StateVariant,
    encode_round,
    measure_round,
    prepare_variant,
    readout,
    receiver_correction,
    recover_secret,
    standard_variants,
)
from .statevec import (
    MAX_QUBITS,
    RegisterCapacityError,
    StateVector,
    _branches,
    append_ancilla,
    apply_cnot,
    apply_hadamard,
    basis_state,
    measure_bell,
    outcome_distribution,
)

ATTACK_KINDS = ("none", "intercept_resend_bell", "collective_cnot", "collective_h_cnot")


@dataclass(frozen=True)
class AttackModel:
    """Which eavesdropping strategy runs, and whose particle is tapped.

    ``target_receiver`` defaults to the last receiver (party n).  The
    intercept-resend tap cannot target party 2's own particle.
    """

    kind: str = "none"
    target_receiver: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")

    @property
    def active(self) -> bool:
        return self.kind != "none"

    @property
    def collective(self) -> bool:
        return self.kind in ("collective_cnot", "collective_h_cnot")

    def resolve_target(self, n: int) -> int:
        target = self.target_receiver if self.target_receiver is not None else n
        if not 2 <= target <= n:
            raise ValueError(f"target receiver {target} outside [2, {n}]")
        if self.kind == "intercept_resend_bell" and target == 2:
            raise ValueError("intercept-resend cannot target the attacker's own particle")
        return target


def _register_qubits(n: int, attack: AttackModel) -> int:
    """A round's n carriers and the sender's work qubit, plus the collective probe."""
    return n + 1 + (1 if attack.collective else 0)


def validate_round(n: int, attack: AttackModel) -> None:
    """Refuse a round whose attack targets no receiver or whose register is too large.

    The target must be a receiver, whether or not an attack runs.  The
    dense register has a qubit cap.
    """
    attack.resolve_target(n)
    needed = _register_qubits(n, attack)
    if needed > MAX_QUBITS:
        raise RegisterCapacityError(
            f"{n} parties need {needed} qubits, above the {MAX_QUBITS}-qubit cap"
        )


def tap_collective(state: StateVector, target_qubit: int, with_hadamard: bool) -> StateVector:
    """Entangle a fresh probe (appended at the back) with the flying qubit.

    Plain mode copies the computational value onto the probe via CNOT;
    ``with_hadamard`` conjugates the CNOT with Hadamards on the flying
    qubit, copying its X-basis value instead and leaving the resent
    particle's basis unchanged.
    """
    state = append_ancilla(state, basis_state(1, 0), "back")
    probe = state.num_qubits - 1
    if with_hadamard:
        state = apply_hadamard(state, target_qubit)
    state = apply_cnot(state, target_qubit, probe)
    if with_hadamard:
        state = apply_hadamard(state, target_qubit)
    return state


def draws_per_round(attack: AttackModel, n: int) -> int:
    """Uniform samples one round consumes: the readout's, plus the attacker's Bell tap."""
    return len(readout(n)) + attack.active


def run_round(
    plan: RoundPlan, attack: AttackModel, rng: np.random.Generator
) -> tuple[tuple[int, ...], int]:
    """Sample one full round, one draw at a time: (readout bits, Bell record).

    The bits run in ``protocol.readout`` order and the Bell record is -1
    without an attack: the row that ``route_rounds``, which replays this
    reference row by row, gives the round.  The circuit comes from
    ``_round_prefix``.  Draw order: the attacker's Bell measurement (if
    any), then the sender's two Z readouts, then each receiver's X readout.
    """
    state, tap = _round_prefix(plan.variant, plan.payload_bit, attack)
    eve = -1
    if tap is not None:
        qubits, finish = tap
        outcome, post = measure_bell(state, *qubits, rng.random())
        state, eve = finish(post), outcome.value
    return measure_round(state, plan.variant.n, rng), eve


# the attacker's Bell measurement: its qubit pair, and the step that takes
# each collapsed branch on to the state the next measurement sees
_Tap = tuple[tuple[int, int], Callable[[StateVector], StateVector]]


def _round_prefix(
    variant: StateVariant, payload_bit: int, attack: AttackModel
) -> tuple[StateVector, _Tap | None]:
    """One round up to its first measurement, plus the attacker's tap if any.

    The intercept tap measures while the particles fly, so correction and
    encoding follow on each of its branches.  The collective probe is
    entangled in flight and read after encoding.  Without an attack the
    returned state is already encoded and ready for the readout.
    """
    n = variant.n

    def finish(state: StateVector) -> StateVector:
        return encode_round(receiver_correction(state, variant), payload_bit)

    state = prepare_variant(variant)
    if attack.kind == "intercept_resend_bell":
        return state, ((1, attack.resolve_target(n) - 1), finish)
    if attack.collective:
        target = attack.resolve_target(n)
        state = finish(tap_collective(state, target - 1, attack.kind == "collective_h_cnot"))
        return state, ((2, state.num_qubits - 1), lambda post: post)
    return finish(state), None


@dataclass(frozen=True, eq=False)
class RecordTable:
    """One payload's exact record distribution: three parallel read-only arrays.

    Record i has its readout bits packed in ``index[i]`` (alice_a most
    significant, then alice_A, then each receiver's sign in party order,
    ``width`` bits in all), the attacker's Bell outcome ``eve[i]`` (-1 when
    no attack leaves a record) and its probability ``p[i]``.  Records run
    eve-major, then by ascending index, i.e. C order of the bits, and only
    live records are listed.
    """

    width: int
    index: np.ndarray
    eve: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.index, self.eve, self.p):
            array.flags.writeable = False


def _unpack(index: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bits of each packed index, one row each, most significant first."""
    return (index[:, None] >> np.arange(width - 1, -1, -1)) & 1


def exact_round_analysis(
    variant: StateVariant, payload_bit: int, attack: AttackModel
) -> RecordTable:
    """Exact joint distribution of one round's classical record, as a ``RecordTable``.

    A record is the readout bits (alice_a, alice_A, then each receiver's
    sign) and the attacker's Bell outcome, -1 without an attack.  Only
    live outcomes appear, and their exact dyadic probabilities sum to 1.
    This enumeration is the oracle the session samples from
    (``route_rounds``), and it never draws randomness.  Each live Bell
    branch's readout comes from ``statevec.outcome_distribution``, and its
    probabilities are scaled by the branch's.
    """
    n = variant.n
    validate_round(n, attack)
    state, tap = _round_prefix(variant, payload_bit, attack)
    weights = {-1: 1.0}  # each live branch's Bell record and probability
    if tap is not None:
        qubits, finish = tap
        bell, collapse = _branches(state, "Bell", qubits)
        weights = {eve: p for eve, p in enumerate(bell) if p > 0.0}
    plan = readout(n)
    parts = []
    for eve, weight in weights.items():
        # a Bell branch is collapsed only when it is read, so one is alive at a time
        index, probs = outcome_distribution(state if tap is None else finish(collapse(eve)), plan)
        parts.append((index, np.full(index.size, eve), weight * probs))
    index, eve, p = (np.concatenate(column) for column in zip(*parts))
    return RecordTable(len(plan), index, eve, p)


ExactTables = dict[int, RecordTable]


def exact_tables(attack: AttackModel, variant: StateVariant) -> ExactTables:
    """The oracle's table for each payload bit, as ``{0: table, 1: table}``.

    The security figures below are pure folds over this pair, so a caller
    that needs several of them runs the oracle once per payload.
    """
    return {payload: exact_round_analysis(variant, payload, attack) for payload in (0, 1)}


def _ordered_sum(values: np.ndarray) -> float:
    """values[0] + values[1] + ..., added left to right; 0.0 when empty.

    This is the float a loop over the records gives.  ``np.sum`` adds
    pairwise (and ``math.fsum``, or ``sum`` from Python 3.12 on, is
    compensated), so the last bit could differ.
    """
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def conditional_detection_rate(tables: ExactTables, condition: int | None = None) -> float:
    """Probability a single check round flags an error, from ``exact_tables``.

    The payload bit is uniform.  ``condition`` restricts to rounds where the
    attacker's Bell record equals that outcome index; conditioning on an
    impossible outcome is an error.  Both sums run over payload 0's records
    and then payload 1's, in table order.
    """
    weights, errors = [], []
    for payload in (0, 1):
        table = tables[payload]
        index, width = table.index, table.width
        # recover_secret keeps the low bit of its XOR, so each shift only has to
        # bring alice_a or one receiver's sign down to bit 0
        signs = [index >> bit for bit in range(width - 3, -1, -1)]
        flagged = recover_secret(index >> width - 1, signs) != payload
        kept = np.full(table.p.size, True)
        if condition is not None:
            kept = (table.eve == condition) & (table.eve >= 0)
        weights.append(0.5 * table.p[kept])
        errors.append(weights[-1][flagged[kept]])
    total = _ordered_sum(np.concatenate(weights))
    if total == 0.0:
        raise ValueError("conditioning event has zero probability")
    return _ordered_sum(np.concatenate(errors)) / total


def eve_record_distribution(table: RecordTable) -> dict[int | None, float]:
    """Marginal distribution of the attacker's Bell record in one payload's table."""
    # records run eve-major, so each record's block is contiguous and in order
    eves, starts = np.unique(table.eve, return_index=True)
    return {
        None if eve < 0 else eve: _ordered_sum(block)
        for eve, block in zip(eves.tolist(), np.split(table.p, starts[1:]))
    }


def eve_mutual_information(tables: ExactTables) -> float:
    """Bits the attacker's view carries about a uniform payload bit.

    The view is the Bell record together with the attacker's own announced
    X sign (receiver 2's readout), i.e. everything he holds before any
    sender announcement.  Tables without an attacker record (no attack)
    carry exactly zero information.  Each of the at most 16 (view,
    payload) cells sums its records in table order (``np.add.at``), and
    the cells' terms are added in the order their first records appear,
    payload 0 first, with ``math.log2`` on each.
    """
    if all((tables[payload].eve < 0).all() for payload in (0, 1)):
        return 0.0
    joint = np.zeros((2, 8))  # [payload, 2 * Bell record + own sign]
    cells: list[tuple[int, int]] = []
    for payload in (0, 1):
        table = tables[payload]
        view = 2 * table.eve + (table.index >> table.width - 3 & 1)  # receiver 2's sign
        np.add.at(joint[payload], view, 0.5 * table.p)
        seen, first = np.unique(view, return_index=True)
        cells += [(payload, cell) for cell in seen[np.argsort(first)].tolist()]
    view_marginal = joint[0] + joint[1]
    info = 0.0
    for payload, cell in cells:
        p = float(joint[payload, cell])
        if p > 0.0:
            info += p * math.log2(p / (float(view_marginal[cell]) * 0.5))
    return max(info, 0.0)


def averaged_detection_rate(attack: AttackModel, n: int) -> float:
    """Check-round error rate averaged over the uniform variant draw."""
    rates = [conditional_detection_rate(exact_tables(attack, v)) for v in standard_variants(n)]
    return sum(rates) / len(rates)


def route_rounds(table: RecordTable, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample one round per row of ``uniforms`` from ``table``, as ``run_round`` draws.

    Each row holds a round's draws in ``run_round``'s order, the Bell draw
    first when the table has an attacker record; returns each row's readout
    bits (one row per round, alice_a first) and Bell record (-1: no
    attack).  The records' codes ``(eve + 1) << width | index`` ascend in
    table order, so every node of the round's outcome tree is the run of
    records whose codes share its prefix, and the exact running sums of
    ``p`` give the probability of each run.  The Bell draw picks the first
    outcome whose running total exceeds it; each readout finds the first
    record of the node's 1-child with one search and takes outcome 0 iff
    its draw lies below p(0).
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    width, tapped = table.width, bool(table.eve[0] >= 0)
    if uniforms.ndim != 2 or uniforms.shape[1] != width + tapped:
        raise ValueError(f"need a row of {width + tapped} uniforms per round")
    codes = (table.eve + 1) << width | table.index
    totals = np.concatenate(([0.0], table.p.cumsum()))
    # each row's node: its code prefix, the running total below it, its probability
    prefix, below, mass = np.zeros(len(uniforms), dtype=np.int64), 0.0, totals[-1]
    if tapped:  # the attacker's Bell tap, drawn first
        # the first record whose running total exceeds the draw, else the last
        # record, lies in the first Bell outcome whose running total does
        first = np.minimum(totals[1:].searchsorted(uniforms[:, 0], "right"), codes.size - 1)
        prefix = (table.eve[first] + 1) << width
        below = totals[codes.searchsorted(prefix)]
        mass = totals[codes.searchsorted(prefix + (1 << width))] - below
    for bit in range(width - 1, -1, -1):
        key = prefix | 1 << bit  # the code the node's 1-child starts at
        split = totals[codes.searchsorted(key)]
        zero = split - below
        one = uniforms[:, -1 - bit] >= zero / mass
        prefix, below = np.where(one, key, prefix), np.where(one, split, below)
        mass = np.where(one, mass - zero, zero)
    record = codes.searchsorted(prefix)
    return _unpack(table.index[record], width), table.eve[record]
