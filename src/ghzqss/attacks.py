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
tap, correct, encode, deferred Bell measurement), so the exact oracle, the
batched walk and the one-round reference model the identical circuit.
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
``route_rounds`` walks all the rounds of a session through their outcome
trees in one level-by-level walk.  Every measurement in it has one call
pattern: a kernel returns the outcome probabilities and a ``collapse``,
and ``statevec._choose`` picks each row's outcome by the threshold rule
``run_round`` applies one draw at a time.  Each (variant, payload) builds
its round once, the attacker's Bell tap is read on its full states by
``statevec._branches``, and the branches some row picks are the walk's
roots.  The readout after it is fixed by the protocol (the sender reads Z
on qubits 0 and 1, each receiver X on its own qubit, in index order), so
each readout is of the leading unmeasured qubit, and the walk keeps each
branch as a compact block that only holds the unmeasured qubits'
amplitudes.  At each depth it stacks the blocks of every tree and reads
them in one ``statevec._leading_readout`` pass.  A branch's collapsed
state is computed once, only when some row reaches it and a later
measurement reads it, so the last readout collapses nothing.  The roots
are walked in batches of bounded bytes.  It returns one record per row,
as the row's readout bits (laid out as ``RecordTable.bits()`` lays them
out) and its Bell record, and each is exactly the one ``run_round``, the
reference the walk is tested against, produces from that row's draws.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .protocol import (
    RoundOutcome,
    RoundPlan,
    StateVariant,
    encode_round,
    measure_round,
    prepare_variant,
    receiver_correction,
    recover_secret,
    standard_variants,
)
from .statevec import (
    MAX_QUBITS,
    RegisterCapacityError,
    StateVector,
    _CHUNK_BYTES,
    _branches,
    _choose,
    _leading_readout,
    append_ancilla,
    apply_cnot,
    apply_hadamard,
    basis_state,
    bell_projections,
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
    return len(_readout(n)) + attack.active


def run_round(plan: RoundPlan, attack: AttackModel, rng: np.random.Generator) -> RoundOutcome:
    """Sample one full round, one draw at a time.

    The circuit comes from ``_round_prefix``; this is the reference that
    ``route_rounds`` replays row by row.  Draw order: the attacker's Bell
    measurement (if any), then the sender's two Z readouts, then each
    receiver's X readout.
    """
    state, tap = _round_prefix(plan.variant, plan.payload_bit, attack)
    eve_record: int | None = None
    if tap is not None:
        qubits, finish = tap
        outcome, post = measure_bell(state, *qubits, rng.random())
        state, eve_record = finish(post), outcome.value
    measured = measure_round(state, plan.variant.n, rng)
    return RoundOutcome(
        plan=plan,
        alice_a=measured.alice_a,
        alice_A=measured.alice_A,
        receiver_signs=measured.receiver_signs,
        eve_record=eve_record,
    )


# the attacker's Bell measurement: its qubit pair, and the step that takes
# each collapsed branch on to the state the next measurement sees
_Tap = tuple[tuple[int, int], Callable[[StateVector], StateVector]]


def _readout(n: int) -> list[tuple[int, str]]:
    """The legitimate readout in draw order: sender Z on 0 and 1, receivers X."""
    return [(0, "Z"), (1, "Z")] + [(q, "X") for q in range(2, n + 1)]


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

    def bits(self) -> np.ndarray:
        """Each record's readout bits, one row per record, alice_a first."""
        return _unpack(self.index, self.width)


def _unpack(index: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bits of each packed index, one row each, most significant first."""
    return (index[:, None] >> np.arange(width - 1, -1, -1)) & 1


def exact_round_analysis(
    variant: StateVariant, payload_bit: int, attack: AttackModel
) -> RecordTable:
    """Exact joint distribution of one round's classical record, as a ``RecordTable``.

    A record is the readout bits (alice_a, alice_A, then each receiver's
    sign) and the attacker's Bell outcome, -1 without an attack.  Only
    outcomes with p > DEAD_EPS appear, and the kept probabilities sum to 1.
    This enumeration is the oracle the sampled path is checked against, so
    it never draws randomness.  Each live Bell branch's readout comes from
    ``statevec.outcome_distribution``, and its probabilities are scaled by
    the branch's.
    """
    n = variant.n
    validate_round(n, attack)
    state, tap = _round_prefix(variant, payload_bit, attack)
    branches: list[tuple[int, float, StateVector]] = [(-1, 1.0, state)]
    if tap is not None:
        qubits, finish = tap
        branches = [
            (eve, p, finish(post))
            for eve, p, post in bell_projections(state, *qubits)
            if post is not None
        ]
    readout = _readout(n)
    parts = []
    for eve, weight, branch in branches:
        index, probs = outcome_distribution(branch, readout)
        parts.append((index, np.full(index.size, eve), weight * probs))
    index, eve, p = (np.concatenate(column) for column in zip(*parts))
    return RecordTable(len(readout), index, eve, p)


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
        bits = table.bits()
        # the recovery rule XORs whole columns: alice_a, then each receiver's signs
        flagged = recover_secret(bits[:, 0], bits[:, 2:].T) != payload
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
        view = 2 * table.eve + table.bits()[:, 2]
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


def route_rounds(
    variants, payloads, attack: AttackModel, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Route many rounds through their outcome trees in one level-by-level walk.

    Row i of ``uniforms`` holds the draws, in ``run_round``'s order, of a
    round of ``variants[i]`` carrying ``payloads[i]``; returns the readout
    bits (as ``RecordTable.bits()``) and Bell record (-1: no attack) that
    ``run_round`` gives each row.  Every readout, the Bell tap's included,
    picks each row's outcome with ``_choose``.  The roots, the branches each
    (variant, payload)'s Bell tap reaches, in ascending Bell index, are
    walked in batches of at most ``_CHUNK_BYTES``.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    n = variants[0].n
    width = draws_per_round(attack, n)
    if uniforms.shape != (len(variants), width) or len(payloads) != len(variants):
        raise ValueError(f"need a variant, a payload and a row of {width} uniforms per round")
    groups: dict[tuple[StateVariant, int], list[int]] = {}
    for row, key in enumerate(zip(variants, payloads)):
        groups.setdefault(key, []).append(row)
    eves = np.full(len(uniforms), -1)

    def roots() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for (variant, payload_bit), members in groups.items():
            members = np.array(members)
            state, tap = _round_prefix(variant, payload_bit, attack)
            if tap is None:
                yield state.amps, members
                continue
            qubits, finish = tap
            probs, collapse = _branches(state, "Bell", qubits)
            picked = _choose(probs, uniforms[members, 0])
            for eve in range(len(probs)):
                rows = members[picked == eve]
                if rows.size:  # only the outcomes some row picked are collapsed
                    eves[rows] = eve
                    yield finish(collapse(eve)).amps, rows

    bases = [basis for _q, basis in _readout(n)]  # each reads every block's leading qubit
    index = np.zeros(len(uniforms), dtype=int)  # the readout bits, packed as RecordTable.index
    branches, per_batch = roots(), max(1, _CHUNK_BYTES // (16 << _register_qubits(n, attack)))
    while batch := list(islice(branches, per_batch)):
        walked = np.concatenate([members for _amps, members in batch])
        node = np.repeat(np.arange(len(batch)), [members.size for _amps, members in batch])
        stack = np.array([amps for amps, _members in batch]), np.zeros((len(batch), 0), int), 0
        batch.clear()  # the stack holds the roots now
        for depth, basis in enumerate(bases):  # the readouts' draws are the last columns
            probs, collapse = _leading_readout(*stack, basis)
            values = _choose(probs[node], uniforms[walked, depth - len(bases)])
            index[walked] = 2 * index[walked] + values
            if depth + 1 < len(bases):  # nothing reads the last readout's children
                keys, reached = 2 * node + values, np.zeros(probs.size, dtype=bool)
                reached[keys] = True  # each reached child once, in (block, value) order
                children, node = np.flatnonzero(reached), np.cumsum(reached)[keys] - 1
                stack = collapse(children)
                del collapse  # so the parent stack it holds is freed before the next readout
    return _unpack(index, len(bases)), eves
