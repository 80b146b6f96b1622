"""The dense oracle: the reference ``attacks.exact_round_analysis`` is pinned to.

It runs the round's circuit (``attacks._round_prefix``, the one
``run_round`` replays) on a dense state vector, collapses each live Bell
branch of the attacker's tap in turn and reads its readout through
``statevec.outcome_distribution``, so its cost grows as 2^(n+2).  The
package's tableau oracle must give the same records, expanded from its
``RecordTable`` (``records.expand``): the same width, records in the same
order and the same probabilities.
"""

from dataclasses import dataclass

import numpy as np

from ghzqss.attacks import _round_prefix, validate_round
from ghzqss.protocol import readout
from ghzqss.statevec import _branches, outcome_distribution


@dataclass(frozen=True)
class DenseTable:
    """Live records as three arrays, ascending by (eve, index): packed readout bits,
    Bell record (-1 without an attack) and probability."""

    width: int
    index: np.ndarray
    eve: np.ndarray
    p: np.ndarray


def dense_round_analysis(variant, payload_bit, attack):
    """One round's record table, enumerated on the dense state vector."""
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
    return DenseTable(len(plan), index, eve, p)
