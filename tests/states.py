"""Expected states that tests compare the engine's states against."""

import math

import numpy as np

from ghzqss.statevec import StateVector


def receiver_parity_state(num_receivers, parity_bit):
    """Joint receiver state carrying one parity bit in the X basis.

    (|0...0> + (-1)^parity_bit |1...1>) / sqrt2 over all receivers: its
    X-basis expansion has 2^(num_receivers - 1) equal-magnitude terms whose
    sign parities all equal ``parity_bit``.
    """
    if num_receivers < 1:
        raise ValueError("need at least one receiver")
    if parity_bit not in (0, 1):
        raise ValueError("parity bit must be 0 or 1")
    amps = np.zeros(1 << num_receivers, dtype=np.complex128)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = -amps[0] if parity_bit else amps[0]
    return StateVector(num_receivers, amps)
