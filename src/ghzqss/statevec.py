"""Dense state-vector engine for small qubit registers.

Conventions used by every caller in this package:

- Qubit 0 is the leftmost ket symbol, i.e. the most significant bit of the
  amplitude index.  ``basis_state(2, 2)`` is |10>: qubit 0 reads 1, qubit 1
  reads 0.
- Operations are functional.  They return new ``StateVector`` values and never
  mutate their input, so states can be shared freely between callers.
- Gate arithmetic runs on raw amplitude arrays in private helpers (``_h``,
  ``_cx``, ``_project_z``); a measurement rotates, projects and rotates
  back on arrays.  Only the state a public function returns is wrapped in
  a ``StateVector``, so each returned state is validated exactly once, by
  the one norm and finiteness check (``_check_norm``, which
  ``__post_init__`` runs after the shape check).
- The package's states start from ``basis_state`` and are built by gates:
  a round's carrier is H and a CNOT fan-out plus the variant's local
  Hadamards (``protocol.prepare_variant``), and the sender's work qubit
  is H on |b> (``protocol.encode_round``), the gates the stabilizer
  oracle applies.  No amplitude is written by hand;
  ``state_from_amplitudes`` wraps arbitrary amplitudes for the tests.
- Every probability this module reports (``_branches``, for Z, X and
  Bell readouts, and ``outcome_distribution``) comes from one helper,
  ``_z_probabilities``: its outcome's weight (squared magnitude) over the
  total weight of all outcomes, rounded by ``_on_grid`` to the nearest
  multiple of 2^-48.  Every round of this package is Clifford, so its
  probabilities are dyadic (a single readout's are 0, 1/2 or 1) and the
  reported value is the exact one.  Dividing by the total cancels
  the drift of a state's float norm, which gates leave uncorrected: on
  its own it puts a readout's p = 1/2 more than 2^-49 off from n = 10
  parties on.  For any other state a probability moves by at most 2^-49
  plus its state's norm error.  An outcome whose probability rounds to 0
  is dead: it is never drawn, never collapsed onto (a projection whose
  norm^2 rounds to 0 is refused) and never listed by
  ``outcome_distribution``.  This module is the only one that decides it.
- Measurements take an explicit uniform sample in [0, 1) instead of an RNG
  object, which makes every collapse replayable from a recorded stream of
  draws.  One threshold rule serves Z, X and Bell readouts alike: dead
  outcomes are skipped; the sample gets the first live outcome, in
  outcome order, whose running total of live probabilities exceeds it,
  else the last live outcome.  With both Z (or X) outcomes live this is
  "outcome 0 iff the sample is strictly below p(0)".
- Bell outcome indices: 0 = (|00>+|11>)/sqrt2, 1 = (|00>-|11>)/sqrt2,
  2 = (|01>+|10>)/sqrt2, 3 = (|01>-|10>)/sqrt2.  The index packs the phase
  bit (from the first measured qubit) plus twice the parity bit.
- Exact enumeration (``outcome_distribution``) returns two arrays: the
  packed index of each live outcome (its bits in plan order, the first
  most significant) and its probability.  ``attacks.RecordTable`` packs
  a round's readout bits the same way.

Registers are dense complex128 arrays and are refused above 24 qubits.
Gates return amplitudes as computed, so an exact cancellation can leave a
residue of order 1e-17; its probability rounds to 0.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24
NORM_ATOL = 1e-10
# the spacing of reported probabilities; one that rounds to 0 is dead
_GRID = 2.0**-48

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class RegisterCapacityError(ValueError):
    """An operation would exceed the dense-register qubit cap, or a session its draw bound."""


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
        _check_capacity(self.num_qubits)
        amps = np.asarray(self.amps, dtype=np.complex128)
        object.__setattr__(self, "amps", amps)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({1 << self.num_qubits},)"
            )
        _check_norm(amps)


def _check_capacity(num_qubits: int) -> None:
    """The one register cap check, run before a register is allocated."""
    if num_qubits > MAX_QUBITS:
        raise RegisterCapacityError(f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap")


def _check_norm(amps: np.ndarray) -> None:
    """The one norm and finiteness check."""
    norm_sq = float(np.vdot(amps, amps).real)
    # a non-finite amplitude makes norm_sq inf or NaN, so the finiteness
    # scan is needed only when the norm check fails
    if not abs(norm_sq - 1.0) <= NORM_ATOL:
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        raise ValueError(f"state norm^2 = {norm_sq!r} is not 1")


def _on_grid(probs: np.ndarray | float) -> np.ndarray:
    """``probs`` rounded to the nearest multiple of 2^-48: exact for a dyadic, 0 when dead."""
    return np.rint(probs / _GRID) * _GRID  # rint rounds half to even


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on num_qubits qubits."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    _check_capacity(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def state_from_amplitudes(amps) -> StateVector:
    """Wrap an amplitude sequence whose length is a power of two."""
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError("amplitude vector length must be a power of two")
    n = arr.size.bit_length() - 1
    return StateVector(n, arr.copy())


def append_ancilla(state: StateVector, ancilla: StateVector, position: str = "front") -> StateVector:
    """Tensor a fresh ancilla register onto the front or back of ``state``.

    "front" makes the ancilla the new qubit 0 and shifts existing qubits up;
    "back" appends after the last qubit, leaving existing indices unchanged.
    """
    if position not in ("front", "back"):
        raise ValueError(f"position must be 'front' or 'back', got {position!r}")
    k = state.num_qubits + ancilla.num_qubits
    _check_capacity(k)
    if position == "front":
        amps = np.kron(ancilla.amps, state.amps)
    else:
        amps = np.kron(state.amps, ancilla.amps)
    return StateVector(k, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def _h(amps: np.ndarray, qubit: int) -> np.ndarray:
    """Hadamard on one qubit of a raw amplitude array, into a new array."""
    arr = amps.reshape(1 << qubit, 2, -1)
    out = np.empty_like(arr)
    np.add(arr[:, 0, :], arr[:, 1, :], out=out[:, 0, :])
    np.subtract(arr[:, 0, :], arr[:, 1, :], out=out[:, 1, :])
    out *= _INV_SQRT2
    return out.reshape(amps.shape)


def _cx(amps: np.ndarray, k: int, control: int, target: int) -> np.ndarray:
    """CNOT on a raw k-qubit amplitude array, into a new array.

    Inside the control-is-1 slice the target's two halves swap places.
    """
    out = amps.copy()
    on = tuple(1 if q == control else slice(None) for q in range(k))
    # the target's axis within the slice, once the control axis is gone
    axis = target - (target > control)
    out.reshape([2] * k)[on] = np.flip(amps.reshape([2] * k)[on], axis=axis)
    return out


def _norm(flat: np.ndarray, qubit: int, value: int) -> float:
    """The norm of an array projected onto ``qubit`` = ``value``.

    Raises NormalizationError if the norm^2 rounds to 0.
    """
    norm = float(np.linalg.norm(flat))
    if _on_grid(norm * norm) == 0.0:
        raise NormalizationError(f"projection onto qubit {qubit} = {value} has zero weight")
    return norm


def _project_z(amps: np.ndarray, qubit: int, value: int) -> np.ndarray:
    """Project a raw amplitude array onto ``qubit`` = ``value`` and renormalize.

    Raises NormalizationError, through ``_norm``, for a dead projection.
    """
    arr = amps.reshape(1 << qubit, 2, -1).copy()
    arr[:, 1 - value, :] = 0.0
    flat = arr.reshape(-1)
    return flat / _norm(flat, qubit, value)


def _z_probabilities(amps: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """The Z readout of ``qubits`` on a raw array: every outcome's probability, on the grid.

    Outcome i packs the bits in ``qubits`` order, the first most
    significant; its probability is its weight over the total weight.
    """
    k = amps.size.bit_length() - 1
    weights = (np.abs(amps) ** 2).reshape([2] * k)
    axes = tuple(q for q in range(k) if q not in qubits)
    marginal = weights.sum(axis=axes) if axes else weights  # its axes in increasing qubit order
    keep = sorted(qubits)
    flat = marginal.transpose([keep.index(q) for q in qubits]).reshape(-1)
    return _on_grid(flat / flat.sum())


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    """Hadamard on one qubit: |0> -> |+>, |1> -> |->."""
    _check_qubit(state, qubit)
    return StateVector(state.num_qubits, _h(state.amps, qubit))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """CNOT flipping ``target`` where ``control`` reads 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be distinct")
    return StateVector(state.num_qubits, _cx(state.amps, state.num_qubits, control, target))


def _branches(
    state: StateVector, basis: str, qubits: tuple[int, ...]
) -> tuple[list[float], Callable[[int], StateVector]]:
    """One measurement's outcome probabilities, in outcome order, and its collapse.

    This is the only code that knows a basis.  "Z" and "X" read one qubit,
    X after a Hadamard; "Bell" reads two distinct qubits after CNOT(q1 ->
    q2) then H(q1), as index = phase bit (q1) + 2 * parity bit (q2).
    ``collapse(value)`` projects onto that outcome and rotates back, so a
    Bell collapse re-synthesizes the measured pair.  The rotations and
    projections run on raw arrays; only the collapsed state is wrapped.
    The probabilities are on the grid.
    """
    for q in qubits:
        _check_qubit(state, q)
    k = state.num_qubits
    if basis == "Bell":
        q1, q2 = qubits
        if q1 == q2:
            raise ValueError("Bell measurement needs two distinct qubits")
        rotated = _h(_cx(state.amps, k, q1, q2), q1)
        # index = phase (q1) + 2 * parity (q2): the readout of (q2, q1)
        probs = _z_probabilities(rotated, (q2, q1))

        def collapse(index: int) -> StateVector:
            post = _project_z(_project_z(rotated, q1, index & 1), q2, index >> 1)
            return StateVector(k, _cx(_h(post, q1), k, q1, q2))

    elif basis in ("Z", "X"):
        (qubit,) = qubits
        rotated = _h(state.amps, qubit) if basis == "X" else state.amps
        probs = _z_probabilities(rotated, qubits)

        def collapse(value: int) -> StateVector:
            post = _project_z(rotated, qubit, value)
            return StateVector(k, _h(post, qubit) if basis == "X" else post)

    else:
        raise ValueError(f"basis must be 'Z', 'X' or 'Bell', got {basis!r}")
    return probs.tolist(), collapse


def _choose(probs: np.ndarray | list[float], samples: np.ndarray) -> np.ndarray:
    """The threshold rule: the outcome each uniform sample selects.

    ``probs`` is one row of outcome probabilities for all samples, or one
    row per sample.  Dead outcomes, p = 0, are skipped.  Walking the
    live outcomes in outcome order, a sample gets the first whose running
    total exceeds it, or the last live outcome if float rounding leaves the
    total at or below the sample.
    """
    probs = np.broadcast_to(probs, (samples.size, np.shape(probs)[-1]))
    live = probs > 0.0
    if not live.any(axis=1).all():
        raise NormalizationError("no outcome has positive probability")
    # a dead outcome is exactly 0.0, so these are the running totals of the live ones
    picked = live & (samples[:, None] < np.cumsum(probs, axis=1))
    last_live = live.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    picked[np.arange(samples.size), last_live] = True
    return np.argmax(picked, axis=1)


def _measure(
    state: StateVector, basis: str, qubits: tuple[int, ...], randomness: float
) -> tuple[MeasOutcome, StateVector]:
    probs, collapse = _branches(state, basis, qubits)
    value = int(_choose(probs, np.array([randomness], dtype=np.float64))[0])
    return MeasOutcome(basis, value, probs[value]), collapse(value)


def _projections(
    state: StateVector, basis: str, qubits: tuple[int, ...]
) -> list[tuple[int, float, StateVector | None]]:
    probs, collapse = _branches(state, basis, qubits)
    return [(value, p, collapse(value) if p > 0.0 else None) for value, p in enumerate(probs)]


def z_projections(state: StateVector, qubit: int) -> list[tuple[int, float, StateVector | None]]:
    """Both Z branches as (value, probability, collapsed state or None)."""
    return _projections(state, "Z", (qubit,))


def measure_z(state: StateVector, qubit: int, randomness: float) -> tuple[MeasOutcome, StateVector]:
    """Projective Z measurement under the shared threshold rule.

    With both outcomes live, outcome 0 iff ``randomness`` < p(0).
    """
    return _measure(state, "Z", (qubit,), randomness)


def x_projections(state: StateVector, qubit: int) -> list[tuple[int, float, StateVector | None]]:
    """Both X branches; value 0 means |+>, 1 means |->."""
    return _projections(state, "X", (qubit,))


def measure_x(state: StateVector, qubit: int, randomness: float) -> tuple[MeasOutcome, StateVector]:
    """Projective X measurement; the post-state keeps |+> or |-> at ``qubit``."""
    return _measure(state, "X", (qubit,), randomness)


def bell_projections(state: StateVector, q1: int, q2: int) -> list[tuple[int, float, StateVector | None]]:
    """All four Bell branches on (q1, q2) as (index, probability, state or None)."""
    return _projections(state, "Bell", (q1, q2))


def measure_bell(state: StateVector, q1: int, q2: int, randomness: float) -> tuple[MeasOutcome, StateVector]:
    """Bell-basis measurement of (q1, q2).

    The circuit is CNOT(q1 -> q2) then H(q1) then two Z readouts, collapsed
    with a single uniform sample walked over the four outcome probabilities
    in index order.  The post-state re-synthesizes the measured Bell state on
    (q1, q2) so the pair can be forwarded as physical particles.
    """
    return _measure(state, "Bell", (q1, q2), randomness)


def outcome_distribution(state: StateVector, plan) -> tuple[np.ndarray, np.ndarray]:
    """Exact Born distribution for measuring ``plan`` = [(qubit, basis), ...].

    Returns two arrays: the packed index of each live outcome (its bits in
    plan order, the first most significant), in ascending order, and its
    probability, on the grid.  Basis entries are "Z" or "X"; for X entries
    the bit means 0 = |+>, 1 = |->.
    """
    qubits = tuple(q for q, _ in plan)
    if len(set(qubits)) != len(qubits):
        raise ValueError("plan lists a qubit more than once")
    rotated = state.amps
    for q, basis in plan:
        _check_qubit(state, q)
        if basis == "X":
            rotated = _h(rotated, q)
        elif basis != "Z":
            raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    probs = _z_probabilities(rotated, qubits)
    (index,) = np.nonzero(probs)
    return index, probs[index]
