"""Round mechanics for GHZ-carried (n,n)-threshold secret sharing.

Party numbering: party 1 is the sender, parties 2..n are receivers who must
all cooperate to recover a bit.  Before encoding, a round's register holds
the carrier particles a1..an with party i at qubit i-1.  Encoding
front-appends the sender's work particle a at qubit 0, shifting party i to
qubit i.

A carrier variant is the n-qubit state

    (|0...> + |1...>) / sqrt2

where each receiver position listed in ``hadamard_positions`` holds |+> on
the 0 branch and |-> on the 1 branch instead of |0>/|1>.  The sender draws
the variant per round; receivers undo it with local Hadamards once the
variant is announced, recovering the canonical GHZ carrier.  Encoding a
payload bit b prepends |+> (b=0) or |-> (b=1), entangles it with a1 via
CNOT, and rotates it back with a Hadamard.  The dense states here are
built from basis states with the gates the stabilizer oracle applies,
with no amplitude written by hand: the carrier is H on a1 and a CNOT
from a1 to every receiver, then the variant's local Hadamards, and the
work particle is H on |b>.  Everyone then measures: the sender reads a
and a1 in Z, each receiver reads its particle in X, and the payload is
the sender's a bit XORed with the parity of the receivers' X signs
(sign + is bit 0, - is bit 1).  ``readout`` is that plan for every
path.  A round's record is one row: its bits in ``readout`` order (column
r is receiver r's sign) and the attacker's Bell record, -1 for none.  A
session is planned as columns (``plan_sequences``: each round's variant
mask, check role and payload bit), and a ``Transcript`` holds them with
the session's rows as two arrays, row i for round i.  ``RoundPlan`` is one
round's plan for the one-round reference ``attacks.run_round``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .statevec import (
    StateVector,
    append_ancilla,
    apply_cnot,
    apply_hadamard,
    basis_state,
    measure_x,
    measure_z,
)

@dataclass(frozen=True)
class StateVariant:
    """Carrier choice for one round: which receivers get X-basis arms.

    The protocol proper uses n+1 variants: no Hadamard positions, exactly
    one receiver position, or all receiver positions.  Arbitrary subsets are
    structurally valid (an opt-in planning mode uses them) but are not part
    of the standard variant set.
    """

    n: int
    hadamard_positions: frozenset[int]

    def __post_init__(self) -> None:
        check_parties(self.n)
        # operator.index takes Python's and numpy's ints, where int() would round 2.9 and read "3"
        if bad := [p for p in self.hadamard_positions if not hasattr(type(p), "__index__")]:
            raise ValueError(f"hadamard positions {sorted(bad, key=repr)} are not integers")
        positions = frozenset(map(operator.index, self.hadamard_positions))
        object.__setattr__(self, "hadamard_positions", positions)
        bad = [p for p in positions if not 2 <= p <= self.n]
        if bad:
            raise ValueError(
                f"hadamard positions {sorted(bad)} outside receiver range [2, {self.n}]"
            )

    @property
    def index(self) -> int | None:
        """1-based label: 1 = no positions, i = {i}, n+1 = all; None if nonstandard."""
        if not self.hadamard_positions:
            return 1
        if len(self.hadamard_positions) == 1:
            return next(iter(self.hadamard_positions))
        if len(self.hadamard_positions) == self.n - 1:
            return self.n + 1
        return None

    @property
    def name(self) -> str:
        idx = self.index
        if idx is None:
            return "h" + ",".join(str(p) for p in sorted(self.hadamard_positions))
        return f"psi{idx}" if self.n == 3 else f"Psi{idx}"

    @property
    def mask(self) -> int:
        """The positions as one integer: bit p-2 is set for each Hadamard position p."""
        return sum(1 << (p - 2) for p in self.hadamard_positions)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "StateVariant":
        return cls(n, frozenset(mask_positions(mask)))

    @classmethod
    def from_index(cls, n: int, index: int) -> "StateVariant":
        if index == 1:
            return cls(n, frozenset())
        if 2 <= index <= n:
            return cls(n, frozenset({index}))
        if index == n + 1:
            return cls(n, frozenset(range(2, n + 1)))
        raise ValueError(f"variant index {index} out of range 1..{n + 1}")


def mask_positions(mask: int) -> list[int]:
    """The Hadamard positions a ``StateVariant.mask`` stands for, ascending."""
    return [p + 2 for p in range(mask.bit_length()) if mask >> p & 1]


def check_parties(n: int) -> None:
    """The protocol needs a sender and at least two receivers."""
    if n < 3:
        raise ValueError("protocol needs at least three parties")


@cache
def standard_variants(n: int) -> tuple[StateVariant, ...]:
    """The n+1 variants of the protocol, in index order, built once per n."""
    return tuple(StateVariant.from_index(n, k) for k in range(1, n + 2))


def prepare_variant(variant: StateVariant) -> StateVector:
    """Build the n-qubit carrier for ``variant`` (party i at qubit i-1).

    H then a CNOT fan-out make the canonical GHZ carrier, and the
    variant's local Hadamards, which ``receiver_correction`` applies since
    each is its own inverse, put in its X-basis arms.
    """
    state = apply_hadamard(basis_state(variant.n, 0), 0)
    for q in range(1, variant.n):
        state = apply_cnot(state, 0, q)
    return receiver_correction(state, variant)


def receiver_correction(state: StateVector, variant: StateVariant) -> StateVector:
    """Local Hadamards undoing the variant's X-basis arms.

    Expects the pre-encoding layout (party i at qubit i-1); the result is
    the canonical GHZ carrier whichever variant was prepared.
    """
    if state.num_qubits < variant.n:
        raise ValueError("state has fewer qubits than the variant's party count")
    for party in sorted(variant.hadamard_positions):
        state = apply_hadamard(state, party - 1)
    return state


def encode_round(state: StateVector, payload_bit: int) -> StateVector:
    """Entangle one payload bit into the carrier.

    Front-appends the sender's work qubit as H|b>, |+> (payload 0) or |->
    (payload 1), applies CNOT from it onto a1, then a Hadamard on it.
    After this the sender's two qubits are 0 and 1 and party i sits at
    qubit i.
    """
    check_payload(payload_bit)
    work = apply_hadamard(basis_state(1, payload_bit), 0)
    state = append_ancilla(state, work, "front")
    state = apply_cnot(state, 0, 1)
    return apply_hadamard(state, 0)


def check_payload(payload_bit: int) -> None:
    """A round carries one bit."""
    if payload_bit not in (0, 1):
        raise ValueError(f"payload bit must be 0 or 1, got {payload_bit!r}")


def readout(n: int) -> list[tuple[int, str]]:
    """(qubit, basis) in draw and bit order: sender Z on qubits 0 and 1, receivers X."""
    return [(0, "Z"), (1, "Z")] + [(q, "X") for q in range(2, n + 1)]


def measure_round(state: StateVector, num_parties: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Read an encoded round by ``readout``, one uniform draw per measurement.

    Returns the bits in readout order; any qubits beyond position
    ``num_parties`` are left untouched.
    """
    bits = []
    for qubit, basis in readout(num_parties):
        outcome, state = (measure_z if basis == "Z" else measure_x)(state, qubit, rng.random())
        bits.append(outcome.value)
    return tuple(bits)


def recover_secret(alice_a, receiver_signs):
    """Payload bit from the sender's a bit and all receivers' X signs.

    On arrays (``alice_a``, one per receiver) it gives each row's bit, modifying no input.
    """
    return reduce(operator.xor, receiver_signs, alice_a) & 1


@dataclass(frozen=True)
class RoundPlan:
    round_index: int
    variant: StateVariant
    role: str  # "check" or "message"
    payload_bit: int


@dataclass
class Transcript:
    """Everything a session produced: its plan, each round's record and the public log.

    The plan is three columns as ``plan_sequences`` returns them: each
    round's variant ``masks``, its ``check`` role and its ``payloads`` bit.
    Row i of ``bits`` (readout bits in ``readout`` order) and of ``eves``
    (Bell record, -1 for none) is round i's record, as ``route_rounds`` gives it.
    ``announcement_log`` is the public log, one dict per event with its
    values as columns; its one ``check_announcements`` entry holds the check
    ``rounds``, their receiver ``orders`` (``announcement_schedule``'s
    rows) and the ``signs`` announced in that order.
    """

    masks: np.ndarray
    check: np.ndarray
    payloads: np.ndarray
    bits: np.ndarray
    eves: np.ndarray
    announcement_log: list[dict]


def check_round_count(num_rounds: int, check_fraction: float) -> int:
    """How many of ``num_rounds`` rounds are spent on eavesdropping checks."""
    if num_rounds < 1:
        raise ValueError("need at least one round")
    if not 0.0 < check_fraction < 1.0:
        raise ValueError("check fraction must be strictly between 0 and 1")
    # the epsilon guards against float noise like 10 * 0.2 = 2.0000000000000004
    return max(1, math.ceil(num_rounds * check_fraction - 1e-9))


def check_message(message: str, num_rounds: int, check_fraction: float) -> int:
    """Check that ``message`` is 0/1 text that fits the message rounds.

    Returns the check-round count, validating the round count and check
    fraction on the way.
    """
    if message.translate({48: None, 49: None}):  # what is left is neither "0" nor "1"
        raise ValueError("message must be a string of 0s and 1s")
    num_check = check_round_count(num_rounds, check_fraction)
    if len(message) > (room := num_rounds - num_check):
        raise ValueError(f"message of {len(message)} bits does not fit in {room} message rounds")
    return num_check


def plan_sequences(
    num_rounds: int,
    check_fraction: float,
    message: str,
    n: int,
    rng: np.random.Generator,
    all_subsets: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plan ``num_rounds`` rounds as columns: variant mask, check role, payload bit.

    Round i's variant is ``masks[i]``, its ``StateVariant.mask``.
    ceil(num_rounds * check_fraction) rounds become a uniformly random check
    subset carrying fresh random bits; message bits fill the remaining
    rounds in round order.  Message rounds beyond the message length carry
    random filler bits.  The draws are a loop's: after the check subset's
    ``permutation``, round i draws its variant (``integers(1, n + 2)``, the
    standard index, or with ``all_subsets`` the mask ``integers(2^(n-1))``),
    then its payload (``integers(2)``) unless a message bit fills it.
    One broadcast ``integers`` call makes them all, word for word as the loop.
    """
    num_check = check_message(message, num_rounds, check_fraction)
    check = np.zeros(num_rounds, dtype=bool)
    check[rng.permutation(num_rounds)[:num_check]] = True
    carried = np.flatnonzero(~check)[: len(message)]
    drawn = np.ones(num_rounds, dtype=bool)
    drawn[carried] = False
    first = np.arange(num_rounds) + np.cumsum(drawn) - drawn  # round i's variant draw
    bounds = np.full(num_rounds + np.count_nonzero(drawn), 2)
    bounds[first] = 1 << (n - 1) if all_subsets else n + 1
    draws = rng.integers(bounds)
    payloads = np.zeros(num_rounds, dtype=np.int64)
    payloads[carried] = np.frombuffer(message.encode(), dtype=np.uint8) - ord("0")
    payloads[drawn] = draws[first[drawn] + 1]
    masks = draws[first]
    if not all_subsets:  # the standard index less one
        masks = np.array([v.mask for v in standard_variants(n)])[masks]
    return masks, check, payloads


def announcement_schedule(num_check: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Receiver announcement orders: row k is the k-th check round's order of parties 2..n.

    Three parties: a random half of the rows (floor of the count) hears
    party 2 first, the rest party 3 first.  More parties: an independent
    uniform permutation of the receivers per row, one ``permutation(n - 1)``'s
    draws each.
    """
    if n == 3:
        orders = np.full((num_check, 2), (3, 2))
        orders[rng.permutation(num_check)[: num_check // 2]] = (2, 3)
        return orders
    return rng.permuted(np.tile(np.arange(2, n + 1), (num_check, 1)), axis=1)

