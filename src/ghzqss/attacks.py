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

``exact_table`` gives the exact joint distribution of one round's
classical record for both payload bits, and backs every security number
in this package: the detection rate, the attacker's record distribution
and information are pure folds over that one table, so ``ghzqss
analyze`` makes one oracle pass.  The oracle writes the round on a
symbolic stabilizer tableau (``stabilizer.Tableau``): each random outcome
is a free bit and every record bit an affine form in them, with the
payload's X as a parameter slot, so payload 1's records are payload 0's
with that slot's vector, the table's Pauli ``frame``, XORed in.  A table
is that form, a ``RecordTable``: the least record of each live Bell
record, one vector per random readout and the frame, found in time
polynomial in n, and the folds read it in closed form: the detection
rate is a count of bases, and the information is one bit when the
frame alone flips the attacker's own sign, else zero.  In every standard
table a vector holds that sign, a fresh random readout, so the
attacker learns nothing.  ``run_round``, the one-round reference,
simulates the same round on the dense engine from one prefix,
``_round_prefix`` (prepare, tap, correct, encode, deferred Bell
measurement), and the tests pin the oracle ``==`` to the dense
enumeration of that prefix (``tests/reference.py``).
A table depends on its variant only through the tapped positions
(``tapped_positions``), so every variant's class is a standard
variant's: 1 class without an attack, 4 under intercept-resend and 2
under each collective attack, at any n.  ``class_tables`` is the one
place that builds them, and sessions, ``averaged_detection_rate`` and
``scripts/attack_analysis.py`` read every table from it.
``route_rounds`` samples rounds of either payload from one table by
XORing vectors, and a session samples each class's rounds from its
class table (``session._run_rounds``).  A random readout has
p(0) = 1/2 exactly, and the dense engine reports the same exact dyadics,
so the threshold rule ``run_round`` applies to a collapsed state takes a
fresh outcome's vector iff its draw is at least 1/2, and each row is
exactly the (bits, Bell record) pair that ``run_round``, the reference
the sampler is tested against, returns from that row's draws.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .protocol import (
    RoundPlan,
    StateVariant,
    check_parties,
    check_payload,
    encode_round,
    measure_round,
    prepare_variant,
    readout,
    receiver_correction,
    standard_variants,
)
from .statevec import (
    MAX_QUBITS,
    RegisterCapacityError,
    StateVector,
    append_ancilla,
    apply_cnot,
    apply_hadamard,
    basis_state,
    measure_bell,
)
from .stabilizer import Tableau

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
    """Refuse a round with too few parties, an attack on no receiver, or too many qubits.

    The checks run in that order.  The target must be a receiver, whether
    or not an attack runs.  The dense register has a qubit cap, and the
    oracle keeps it too: ``analyze`` prints a table's 2^V records and has
    no bound of its own.  Each check takes constant time in n, so a
    command checks its round before it builds any of its variants.
    """
    check_parties(n)
    attack.resolve_target(n)
    needed = _register_qubits(n, attack)
    if needed > MAX_QUBITS:
        raise RegisterCapacityError(
            f"{n} parties need {needed} qubits, above the {MAX_QUBITS}-qubit cap"
        )


def tapped_positions(attack: AttackModel, n: int) -> int:
    """The mask bits of the receivers whose particles ``attack`` touches.

    None without an attack, the target's for a collective attack, and the
    target's and receiver 2's for intercept-resend.  An arm on an untouched
    receiver meets its own correction with no gate between them, so mask
    m's table ``==`` mask ``m & tapped_positions(attack, n)``'s, which is a
    standard variant's class: at most two bits are tapped.
    """
    if not attack.active:
        return 0
    target = 1 << attack.resolve_target(n) - 2
    return target | 1 if attack.kind == "intercept_resend_bell" else target


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
    ``exact_table`` writes the same round on its tableau.
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


@dataclass(frozen=True)
class RecordTable:
    """One round's exact record distribution, as an affine form over GF(2).

    A record's code holds its ``width`` readout bits (alice_a most
    significant, then alice_A, then each receiver's sign in party order)
    and, when the attacker is ``tapped``, his Bell record (phase + 2 *
    parity) in the two bits above them.  ``bases`` are the least codes of
    the 1, 2 or 4 live Bell records, ascending (one base untapped), and
    ``vectors`` the record bits each random readout outcome flips: the
    live records are every base XOR every subset of the vectors, each with
    probability ``p``.  A readout outcome is read into its vector's highest
    bit, which no other vector and no base holds, so the draw that picks
    it is a round's column ``width + tapped - vector.bit_length()``.  The
    bases are payload 0's; payload 1 flips the bits of the ``frame``, which
    holds neither a Bell bit nor a vector's highest bit, so its bases
    (``bases_of(1)``) are again the least codes, in the same order.  The
    sampler, the folds and ``analyze``'s printout all read these fields;
    nothing in the package lists the records.
    """

    width: int
    tapped: bool
    bases: tuple[int, ...]
    vectors: tuple[int, ...]
    frame: int

    @property
    def p(self) -> float:
        return 2.0 ** -len(self.vectors) / len(self.bases)

    def bases_of(self, payload: int) -> tuple[int, ...]:
        """The payload's bases: each base XOR ``payload * frame``."""
        return tuple(base ^ self.frame for base in self.bases) if payload else self.bases


def _unpack(index: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` low bits of each packed index, one row each, most significant first."""
    return (index[:, None] >> np.arange(width - 1, -1, -1)) & 1


def _bell_tap(tableau: Tableau, q1: int, q2: int) -> list[int]:
    """Bell-measure (q1, q2) and re-synthesize the pair, as ``statevec._branches`` does.

    Returns the forms of the record's parity and phase bits, in that
    order, so the record reads phase + 2 * parity.
    """
    tableau.cx(q1, q2)
    tableau.h(q1)
    phase, parity = tableau.measure(q1), tableau.measure(q2)
    tableau.h(q1)
    tableau.cx(q1, q2)
    return [parity, phase]


def exact_table(attack: AttackModel, variant: StateVariant) -> RecordTable:
    """Exact joint distribution of one round's classical record, for both payloads.

    A record is the readout bits (alice_a, alice_A, then each receiver's
    sign) and the attacker's Bell outcome.  This is the oracle the session
    samples from (``route_rounds``), and it never draws randomness.  The
    round runs once on a ``stabilizer.Tableau`` in the post-encoding
    layout (qubit 0 the sender's work qubit, qubit i party i, qubit n+1
    the collective probe), with the payload's X on a parameter slot, so
    each record bit comes out as an affine form in the V random outcomes
    and the payload, whose slot's vector is the table's frame.
    """
    n = variant.n
    validate_round(n, attack)
    tableau = Tableau(_register_qubits(n, attack))
    payload = tableau.parameter()  # slot 1
    tableau.h(1)
    for party in range(2, n + 1):
        tableau.cx(1, party)
    positions = sorted(variant.hadamard_positions)
    for party in positions:
        tableau.h(party)
    eve = []  # the Bell record's forms, most significant bit first
    target, hadamard = attack.resolve_target(n), attack.kind == "collective_h_cnot"
    if attack.kind == "intercept_resend_bell":
        eve = _bell_tap(tableau, 2, target)
    elif attack.collective:  # the probe copies the flying qubit, as ``tap_collective``
        if hadamard:
            tableau.h(target)
        tableau.cx(target, n + 1)
        if hadamard:
            tableau.h(target)
    for party in positions:
        tableau.h(party)
    tableau.x(0, payload)
    tableau.h(0)
    tableau.cx(0, 1)
    tableau.h(0)
    if attack.collective:
        eve = _bell_tap(tableau, 2, n + 1)
    forms = []
    for qubit, basis in readout(n):
        if basis == "X":
            tableau.h(qubit)
        forms.append(tableau.measure(qubit))
    width, tapped = len(forms), bool(eve)
    offset, frame, *vectors = tableau.vectors(eve + forms)
    bases = [offset]
    for vector in vectors:  # a Bell outcome's vector flips the Bell record
        if vector >> width:
            bases += [base ^ vector for base in bases]
    vectors = tuple(vector for vector in vectors if not vector >> width)
    return RecordTable(width, tapped, tuple(sorted(bases)), vectors, frame)


def exact_round_analysis(variant: StateVariant, payload_bit: int, attack: AttackModel) -> RecordTable:
    """The oracle's table for one payload bit: ``exact_table``'s, with frame 0."""
    check_payload(payload_bit)
    table = exact_table(attack, variant)
    return replace(table, bases=table.bases_of(payload_bit), frame=0)


def conditional_detection_rate(table: RecordTable, condition: int | None = None) -> float:
    """Probability a single check round flags an error, from ``exact_table``.

    The payload bit is uniform.  ``condition`` restricts to rounds where the
    attacker's Bell record equals that outcome index; conditioning on an
    impossible outcome is an error.  Every live Bell record holds an equal
    share of its table.  Payload 0 is flagged at a base whose recovered
    parity is odd, payload 1 at one whose parity XOR the frame's is even,
    so the rate is a count of bases: one half when a vector flips the
    parity or the frame does not, else the odd bases' share.
    """
    bases = [
        base for base in table.bases
        if condition is None or table.tapped and base >> table.width == condition
    ]
    if not bases:
        raise ValueError("conditioning event has zero probability")

    read = 1 << table.width - 1 | (1 << table.width - 2) - 1  # alice_a and every receiver's sign

    def odd(code: int) -> int:  # recover_secret's parity
        return (code & read).bit_count() & 1

    if not odd(table.frame) or any(map(odd, table.vectors)):
        return 0.5
    return sum(map(odd, bases)) / len(bases)


def eve_record_distribution(table: RecordTable) -> dict[int | None, float]:
    """Marginal distribution of the attacker's Bell record, the same for both payloads."""
    bases = table.bases
    return {base >> table.width if table.tapped else None: 1.0 / len(bases) for base in bases}


def eve_mutual_information(table: RecordTable) -> float:
    """Bits the attacker's view carries about a uniform payload bit: 0.0 or 1.0.

    The view is the Bell record together with the attacker's own announced
    X sign (receiver 2's readout), i.e. everything he holds before any
    sender announcement.  Payload 1 moves no Bell record, so the view tells
    the payloads apart only by that sign, and only when it is fixed by the
    Bell record: one bit when no vector holds it and the frame flips it,
    else none.  In every standard table a vector holds it, so the
    attacker's sign is a fresh random readout.  No attack: no information.
    """
    own = 1 << table.width - 3  # receiver 2's sign
    fixed = not any(vector & own for vector in table.vectors)
    return 1.0 if table.tapped and fixed and table.frame & own else 0.0


def class_tables(attack: AttackModel, n: int) -> dict[int, RecordTable]:
    """One oracle table per class of the standard variants, keyed by its tapped bits.

    Mask m's table is its class's, ``tables[m & tapped_positions(attack,
    n)]``, for every mask, standard or not.  Each table is built from its
    class's first standard variant, and the keys come in that order: 1
    table without an attack, 4 under intercept-resend and 2 under each
    collective attack, at any n.
    """
    tapped, tables = tapped_positions(attack, n), {}
    for variant in standard_variants(n):
        if (key := variant.mask & tapped) not in tables:
            tables[key] = exact_table(attack, variant)
    return tables


def averaged_detection_rate(attack: AttackModel, n: int) -> float:
    """Check-round error rate averaged over the uniform variant draw, from ``class_tables``.

    Intercept-resend flags 1/2 exactly when one of receiver 2 and the
    target has an X arm, so it averages 1/(n+1) (1/4 over all 2^(n-1)
    masks); the collective attacks flag 1/2 on every variant; no attack
    flags nothing.
    """
    tapped, tables = tapped_positions(attack, n), class_tables(attack, n)
    rates = [conditional_detection_rate(tables[v.mask & tapped]) for v in standard_variants(n)]
    return sum(rates) / (n + 1)


def route_rounds(
    table: RecordTable, payloads: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one round per row of ``uniforms`` from ``table``, as ``run_round`` draws.

    Each row holds a round's draws in ``run_round``'s order, the Bell draw
    first when the table is tapped, and ``payloads`` the round's payload
    bit; returns each row's readout bits (one row per round, alice_a
    first) and Bell record (-1: no attack).  The first draw u picks the
    floor(u * k)-th of the k bases of the row's payload, ascending (the
    Bell draw; an untapped table has one base), and each random readout
    takes its vector iff its draw is at least 1/2.
    """
    uniforms, payloads = np.asarray(uniforms, dtype=np.float64), np.asarray(payloads)
    width, tapped = table.width, table.tapped
    if payloads.ndim != 1 or uniforms.shape != (payloads.size, width + tapped):
        raise ValueError(f"need a payload bit and a row of {width + tapped} uniforms per round")
    bases = table.bases
    pick = np.minimum(uniforms[:, 0] * len(bases), len(bases) - 1).astype(np.intp)
    codes = np.array(bases)[pick] ^ (payloads != 0) * table.frame
    for vector in table.vectors:
        codes ^= (uniforms[:, width + tapped - vector.bit_length()] >= 0.5) * vector
    return _unpack(codes, width), codes >> width if tapped else np.full(codes.size, -1)
