"""Dense state-vector engine for small qubit registers.

Conventions used by every caller in this package:

- Qubit 0 is the leftmost ket symbol, i.e. the most significant bit of the
  amplitude index.  ``basis_state(2, 2)`` is |10>: qubit 0 reads 1, qubit 1
  reads 0.
- Operations are functional.  They return new ``StateVector`` values and never
  mutate their input, so states can be shared freely between callers.
- Measurements take an explicit uniform sample in [0, 1) instead of an RNG
  object, which makes every collapse replayable from a recorded stream of
  draws.  The threshold rule is: outcome 0 is selected iff the sample is
  strictly below p(0); a Bell measurement walks the four outcome
  probabilities cumulatively in index order.
- Bell outcome indices: 0 = (|00>+|11>)/sqrt2, 1 = (|00>-|11>)/sqrt2,
  2 = (|01>+|10>)/sqrt2, 3 = (|01>-|10>)/sqrt2.  The index packs the phase
  bit (from the first measured qubit) plus twice the parity bit.

Registers are dense complex128 arrays and are refused above 24 qubits.
Amplitudes whose magnitude falls below 1e-12 after a Hadamard are truncated
to exact zero so that impossible outcomes stay impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24
NORM_ATOL = 1e-10
TRUNCATE_EPS = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


class RegisterCapacityError(ValueError):
    """An operation would exceed the dense-register qubit cap."""


class NormalizationError(RuntimeError):
    """A state's norm is too degenerate to measure or renormalize."""


@dataclass(frozen=True)
class MeasOutcome:
    """One measurement result: basis is "Z", "X" or "Bell"."""

    basis: str
    value: int
    probability: float


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on ``num_qubits`` qubits, qubit 0 = MSB."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.num_qubits > MAX_QUBITS:
            raise RegisterCapacityError(
                f"{self.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap"
            )
        amps = np.asarray(self.amps, dtype=np.complex128)
        object.__setattr__(self, "amps", amps)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({1 << self.num_qubits},)"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(amps.real * amps.real + amps.imag * amps.imag))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on num_qubits qubits."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    if num_qubits > MAX_QUBITS:
        raise RegisterCapacityError(
            f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap"
        )
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def state_from_amplitudes(amps) -> StateVector:
    """Wrap an amplitude sequence whose length is a power of two."""
    arr = np.asarray(amps, dtype=np.complex128)
    n = int(arr.shape[0]).bit_length() - 1
    if arr.ndim != 1 or (1 << n) != arr.shape[0]:
        raise ValueError("amplitude vector length must be a power of two")
    return StateVector(n, arr.copy())


def append_ancilla(state: StateVector, ancilla: StateVector, position: str = "front") -> StateVector:
    """Tensor a fresh ancilla register onto the front or back of ``state``.

    "front" makes the ancilla the new qubit 0 and shifts existing qubits up;
    "back" appends after the last qubit, leaving existing indices unchanged.
    """
    if position not in ("front", "back"):
        raise ValueError(f"position must be 'front' or 'back', got {position!r}")
    k = state.num_qubits + ancilla.num_qubits
    if k > MAX_QUBITS:
        raise RegisterCapacityError(f"{k} qubits exceeds the {MAX_QUBITS}-qubit cap")
    if position == "front":
        amps = np.kron(ancilla.amps, state.amps)
    else:
        amps = np.kron(state.amps, ancilla.amps)
    return StateVector(k, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def _truncate(amps: np.ndarray) -> np.ndarray:
    # Exact cancellations can leave ~1e-17 residue; zero it so enumeration
    # reports genuinely impossible outcomes as probability 0.
    mask = np.abs(amps) < TRUNCATE_EPS
    if mask.any():
        amps = amps.copy()
        amps[mask] = 0.0
        # restore unit norm lost to truncation (change is < 2^24 * eps^2)
        amps = amps / np.linalg.norm(amps)
    return amps


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    """Hadamard on one qubit: |0> -> |+>, |1> -> |->."""
    _check_qubit(state, qubit)
    arr = state.amps.reshape(1 << qubit, 2, -1)
    a0 = arr[:, 0, :]
    a1 = arr[:, 1, :]
    out = np.empty_like(arr)
    out[:, 0, :] = (a0 + a1) * _INV_SQRT2
    out[:, 1, :] = (a0 - a1) * _INV_SQRT2
    return StateVector(state.num_qubits, _truncate(out.reshape(-1)))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """CNOT flipping ``target`` where ``control`` reads 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be distinct")
    k = state.num_qubits
    idx = np.arange(1 << k)
    on = (idx >> (k - 1 - control)) & 1 == 1
    out = state.amps.copy()
    out[idx[on]] = state.amps[idx[on] ^ (1 << (k - 1 - target))]
    return StateVector(k, out)


def _z_probs(state: StateVector, qubit: int) -> tuple[float, float]:
    arr = state.amps.reshape(1 << qubit, 2, -1)
    p0 = float(np.sum(np.abs(arr[:, 0, :]) ** 2))
    p1 = float(np.sum(np.abs(arr[:, 1, :]) ** 2))
    if p0 + p1 <= NORM_ATOL:
        raise NormalizationError("both Z projections are numerically zero")
    return p0, p1


def _project_z(state: StateVector, qubit: int, value: int) -> StateVector:
    arr = state.amps.reshape(1 << qubit, 2, -1).copy()
    arr[:, 1 - value, :] = 0.0
    flat = arr.reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm <= 1e-7:
        raise NormalizationError(f"projection onto qubit {qubit} = {value} has zero weight")
    return StateVector(state.num_qubits, flat / norm)


def z_projections(state: StateVector, qubit: int) -> list[tuple[int, float, StateVector | None]]:
    """Both Z branches as (value, probability, collapsed state or None)."""
    _check_qubit(state, qubit)
    p0, p1 = _z_probs(state, qubit)
    out: list[tuple[int, float, StateVector | None]] = []
    for value, p in ((0, p0), (1, p1)):
        post = _project_z(state, qubit, value) if p > 1e-15 else None
        out.append((value, p, post))
    return out


def measure_z(state: StateVector, qubit: int, randomness: float) -> tuple[MeasOutcome, StateVector]:
    """Projective Z measurement; outcome 0 iff ``randomness`` < p(0)."""
    _check_qubit(state, qubit)
    p0, p1 = _z_probs(state, qubit)
    value = 0 if randomness < p0 else 1
    prob = p0 if value == 0 else p1
    return MeasOutcome("Z", value, prob), _project_z(state, qubit, value)


def x_projections(state: StateVector, qubit: int) -> list[tuple[int, float, StateVector | None]]:
    """Both X branches; value 0 means |+>, 1 means |->."""
    rotated = apply_hadamard(state, qubit)
    out: list[tuple[int, float, StateVector | None]] = []
    for value, p, post in z_projections(rotated, qubit):
        back = apply_hadamard(post, qubit) if post is not None else None
        out.append((value, p, back))
    return out


def measure_x(state: StateVector, qubit: int, randomness: float) -> tuple[MeasOutcome, StateVector]:
    """Projective X measurement; the post-state keeps |+> or |-> at ``qubit``."""
    rotated = apply_hadamard(state, qubit)
    outcome, collapsed = measure_z(rotated, qubit, randomness)
    return MeasOutcome("X", outcome.value, outcome.probability), apply_hadamard(collapsed, qubit)


def _bell_rotate(state: StateVector, q1: int, q2: int) -> StateVector:
    return apply_hadamard(apply_cnot(state, q1, q2), q1)


def _bell_unrotate(state: StateVector, q1: int, q2: int) -> StateVector:
    return apply_cnot(apply_hadamard(state, q1), q1, q2)


def _bell_joint_probs(rotated: StateVector, q1: int, q2: int) -> list[float]:
    """Probabilities of the four Bell outcomes, index order 0..3."""
    probs = rotated.probabilities().reshape([2] * rotated.num_qubits)
    axes = tuple(q for q in range(rotated.num_qubits) if q not in (q1, q2))
    joint = probs.sum(axis=axes) if axes else probs
    if q1 > q2:  # remaining axes come out in increasing qubit order
        joint = joint.T
    # joint[f, p]: f = phase bit (q1 after rotation), p = parity bit (q2)
    return [float(joint[0, 0]), float(joint[1, 0]), float(joint[0, 1]), float(joint[1, 1])]


def _bell_setup(state: StateVector, q1: int, q2: int) -> tuple[StateVector, list[float]]:
    """Check the pair; return the rotated state and the four outcome probabilities."""
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qubits")
    rotated = _bell_rotate(state, q1, q2)
    return rotated, _bell_joint_probs(rotated, q1, q2)


def _bell_live(probs: list[float]) -> list[int]:
    live = [i for i, p in enumerate(probs) if p > 1e-15]
    if not live:
        raise NormalizationError("no Bell outcome has positive probability")
    return live


def _bell_collapse(rotated: StateVector, q1: int, q2: int, index: int) -> StateVector:
    """The state after Bell outcome ``index``, with the pair re-synthesized."""
    collapsed = _project_z(_project_z(rotated, q1, index & 1), q2, index >> 1)
    return _bell_unrotate(collapsed, q1, q2)


def bell_projections(state: StateVector, q1: int, q2: int) -> list[tuple[int, float, StateVector | None]]:
    """All four Bell branches on (q1, q2) as (index, probability, state or None)."""
    rotated, probs = _bell_setup(state, q1, q2)
    return [
        (index, p, _bell_collapse(rotated, q1, q2, index) if p > 1e-15 else None)
        for index, p in enumerate(probs)
    ]


def measure_bell(state: StateVector, q1: int, q2: int, randomness: float) -> tuple[MeasOutcome, StateVector]:
    """Bell-basis measurement of (q1, q2).

    The circuit is CNOT(q1 -> q2) then H(q1) then two Z readouts, collapsed
    with a single uniform sample walked over the four outcome probabilities
    in index order.  The post-state re-synthesizes the measured Bell state on
    (q1, q2) so the pair can be forwarded as physical particles.
    """
    rotated, probs = _bell_setup(state, q1, q2)
    live = _bell_live(probs)
    # cumulative walk in index order; the last live index absorbs any float
    # rounding that leaves the total a hair under the sample
    index = live[-1]
    acc = 0.0
    for i in live:
        acc += probs[i]
        if randomness < acc:
            index = i
            break
    return MeasOutcome("Bell", index, probs[index]), _bell_collapse(rotated, q1, q2, index)


def measure_batch(
    state: StateVector, basis: str, qubits: tuple[int, ...], samples
) -> list[tuple[int, np.ndarray, StateVector]]:
    """One measurement applied to many copies of ``state``, one sample each.

    ``basis`` is "Z" or "X" on one qubit or "Bell" on two.  Each copy gets
    the outcome that ``measure_z``, ``measure_x`` or ``measure_bell`` gives
    for its sample, from the same probabilities.  Returns (outcome, indices
    of the copies that got it, collapsed state) in outcome order, for the
    outcomes at least one copy got; each of those is collapsed once, to the
    state the scalar measurement returns.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if basis == "Bell":
        q1, q2 = qubits
        rotated, probs = _bell_setup(state, q1, q2)
        candidates = _bell_live(probs)
        # measure_bell's walk: the first live index whose running total
        # exceeds the sample, else the last live index
        cum = np.cumsum([probs[i] for i in candidates])
        pos = np.searchsorted(cum, samples, side="right")
        outcomes = np.asarray(candidates)[np.minimum(pos, len(candidates) - 1)]

        def collapse(index: int) -> StateVector:
            return _bell_collapse(rotated, q1, q2, index)

    elif basis in ("Z", "X"):
        (qubit,) = qubits
        _check_qubit(state, qubit)
        rotated = apply_hadamard(state, qubit) if basis == "X" else state
        p0, _p1 = _z_probs(rotated, qubit)
        candidates = [0, 1]
        outcomes = np.where(samples < p0, 0, 1)  # measure_z's rule

        def collapse(value: int) -> StateVector:
            collapsed = _project_z(rotated, qubit, value)
            return apply_hadamard(collapsed, qubit) if basis == "X" else collapsed

    else:
        raise ValueError(f"basis must be 'Z', 'X' or 'Bell', got {basis!r}")
    out = []
    for value in candidates:
        picked = np.flatnonzero(outcomes == value)
        if picked.size:
            out.append((value, picked, collapse(value)))
    return out


def outcome_distribution(state: StateVector, plan) -> dict[tuple[int, ...], float]:
    """Exact Born distribution for measuring ``plan`` = [(qubit, basis), ...].

    Basis entries are "Z" or "X".  The returned dict enumerates every
    2^len(plan) outcome tuple (including zero-probability ones), keyed in
    plan order; for X entries the bit means 0 = |+>, 1 = |->.
    """
    qubits = [q for q, _ in plan]
    if len(set(qubits)) != len(qubits):
        raise ValueError("plan lists a qubit more than once")
    rotated = state
    for q, basis in plan:
        _check_qubit(state, q)
        if basis == "X":
            rotated = apply_hadamard(rotated, q)
        elif basis != "Z":
            raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    probs = rotated.probabilities().reshape([2] * state.num_qubits)
    keep = sorted(qubits)
    axes = tuple(q for q in range(state.num_qubits) if q not in set(qubits))
    marg = probs.sum(axis=axes) if axes else probs
    marg = marg.transpose([keep.index(q) for q in qubits])
    return {tuple(int(b) for b in idx): float(p) for idx, p in np.ndenumerate(marg)}
