"""The symbolic stabilizer tableau against the dense engine on random circuits.

A circuit of H, X and CNOT gates runs on 2..8 qubits, with an attacker-style
Bell tap in the middle (CNOT, H, two Z readouts, then H and CNOT back, the
collapse ``statevec._branches`` re-synthesizes), then reads every qubit in
Z.  The tableau's records, expanded from its affine forms, must be exactly
the dense engine's live records with exactly their probabilities.  Row
products meet Y terms here (the Bell pair's YY stabilizer is the product
of XX and ZZ), which the protocol's own circuits may not reach.
"""

import numpy as np
import pytest

from ghzqss.stabilizer import Tableau
from ghzqss.statevec import (
    StateVector,
    _branches,
    apply_cnot,
    apply_hadamard,
    basis_state,
    outcome_distribution,
)
from records import distribution_dict


def random_gates(rng, k, count):
    """``count`` random gates as ("h", q), ("x", q) or ("cx", control, target)."""
    gates = []
    for kind in rng.choice(["h", "x", "cx"], size=count).tolist():
        if kind == "cx":
            control, target = rng.choice(k, size=2, replace=False).tolist()
            gates.append((kind, control, target))
        else:
            gates.append((kind, int(rng.integers(k))))
    return gates


def dense_gate(state, gate):
    kind, *qubits = gate
    if kind == "h":
        return apply_hadamard(state, *qubits)
    if kind == "cx":
        return apply_cnot(state, *qubits)
    (q,) = qubits  # X swaps the two halves of the qubit's axis
    amps = state.amps.reshape(1 << q, 2, -1)[:, ::-1, :]
    return StateVector(state.num_qubits, amps.reshape(-1))


def dense_records(k, before, tap, after):
    """{(Bell record, packed Z readout): p}, each live Bell branch collapsed and read."""
    state = basis_state(k, 0)
    for gate in before:
        state = dense_gate(state, gate)
    probs, collapse = _branches(state, "Bell", tap)
    records = {}
    for eve, weight in enumerate(probs):
        if weight > 0.0:
            branch = collapse(eve)
            for gate in after:
                branch = dense_gate(branch, gate)
            dist = distribution_dict(outcome_distribution(branch, [(q, "Z") for q in range(k)]), k)
            for bits, p in dist.items():
                index = int("".join(map(str, bits)), 2)
                records[eve, index] = weight * p
    return records


def tableau_records(k, before, tap, after):
    """The same records, expanded from the tableau's outcome forms."""
    tableau = Tableau(k)
    for kind, *qubits in before:
        getattr(tableau, kind)(*qubits)
    q1, q2 = tap
    tableau.cx(q1, q2)
    tableau.h(q1)
    phase, parity = tableau.measure(q1), tableau.measure(q2)
    tableau.h(q1)
    tableau.cx(q1, q2)
    for kind, *qubits in after:
        getattr(tableau, kind)(*qubits)
    offset, *vectors = tableau.vectors([parity, phase] + [tableau.measure(q) for q in range(k)])
    codes = {offset}
    for vector in vectors:
        codes |= {code ^ vector for code in codes}
    assert len(codes) == 1 << len(vectors)
    p = 1.0 / len(codes)
    return {(code >> k, code & (1 << k) - 1): p for code in sorted(codes)}


@pytest.mark.parametrize("k", range(2, 9))
def test_tableau_records_equal_the_dense_distribution(k):
    rng = np.random.default_rng(k)
    for _ in range(40):
        before, after = random_gates(rng, k, 3 * k), random_gates(rng, k, 3 * k)
        tap = tuple(rng.choice(k, size=2, replace=False).tolist())
        assert tableau_records(k, before, tap, after) == dense_records(k, before, tap, after)


def test_tableau_forms_name_their_slots():
    # |0> reads 0; after H it reads a fresh slot; a Bell pair's second
    # qubit then repeats that slot, and an X before the readout adds 1
    tableau = Tableau(2)
    assert tableau.measure(0) == 0
    tableau.h(0)
    tableau.cx(0, 1)
    tableau.x(1)
    assert tableau.measure(0) == 0b10
    assert tableau.measure(1) == 0b11
    assert tableau.slots == 2
    assert tableau.vectors([0b11, 0b10]) == [0b10, 0b11]


def test_a_parameter_slot_is_a_pauli_frame():
    # an X raised to a parameter bit, before a Bell pair's CNOT, enters the
    # target's outcome and not the control's fresh one; run for both values
    # of the bit, the circuit gives the same records with that vector added
    for bit in (0, 1):
        tableau = Tableau(2)
        payload = tableau.parameter()
        tableau.h(0)
        tableau.x(1, payload)
        tableau.cx(0, 1)
        forms = [tableau.measure(0), tableau.measure(1)]
        assert (payload, forms) == (1, [0b100, 0b110])
        fixed = Tableau(2)
        fixed.h(0)
        if bit:
            fixed.x(1)
        fixed.cx(0, 1)
        offset, frame, vector = tableau.vectors(forms)
        assert fixed.vectors([fixed.measure(0), fixed.measure(1)]) == [offset ^ frame * bit, vector]
