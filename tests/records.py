"""The engine's packed records, read back as the tuples and dicts tests compare.

A record leaves the package only as arrays: a ``RecordTable``'s columns,
the per-row readout bits and Bell records that ``route_rounds`` samples
from one table (and a session's ``Transcript`` holds), and
``outcome_distribution``'s packed indices and probabilities.  These helpers
turn them into plain Python values, in the arrays' order, so that tests
can compare with ``==`` and check ordering.  A record reads as
(alice_a, alice_A, receiver_signs, eve_record), with eve_record None where
the arrays hold -1 (no attack).
"""

import numpy as np


def row_records(bits, eve):
    """One record per row of readout bits and its Bell record."""
    return [
        (row[0], row[1], tuple(row[2:]), None if e < 0 else e)
        for row, e in zip(np.asarray(bits).tolist(), np.asarray(eve).tolist())
    ]


def _unpack(index, width):
    return (np.asarray(index)[:, None] >> np.arange(width - 1, -1, -1)) & 1


def record_counts(bits, eve):
    """{record: number of rows holding it}, counted on packed codes."""
    width = np.shape(bits)[1]
    packed = np.asarray(bits) @ (1 << np.arange(width - 1, -1, -1))
    codes, counts = np.unique((np.asarray(eve) + 1) << width | packed, return_counts=True)
    return dict(zip(row_records(_unpack(codes, width), (codes >> width) - 1), counts.tolist()))


def table_dict(table):
    """A ``RecordTable`` as {record: probability}, in table order."""
    return dict(zip(row_records(_unpack(table.index, table.width), table.eve), table.p.tolist()))


def distribution_dict(distribution, width):
    """``outcome_distribution``'s (index, p) arrays as {bit tuple: p}, first bit first."""
    index, p = distribution
    return dict(zip(map(tuple, _unpack(index, width).tolist()), p.tolist()))
