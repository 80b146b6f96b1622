"""The engine's packed records, read back as the tuples and dicts tests compare.

A record leaves the package only as arrays: the per-row readout bits and
Bell records that ``route_rounds`` samples from one table (and a session's
``Transcript`` holds), and ``outcome_distribution``'s packed indices and
probabilities.  A ``RecordTable`` is an affine form that the package never
expands; ``expand`` lists one payload's records, as the dense reference
holds them.
These helpers turn them into plain Python values, in the arrays' order, so
that tests can compare with ``==`` and check ordering; ``random_form``
draws a form for the tests that need tables the protocol does not produce.
A record reads as (alice_a, alice_A, receiver_signs, eve_record), with
eve_record None where the arrays hold -1 (no attack).
"""

import numpy as np

from ghzqss.attacks import RecordTable, _unpack


def row_records(bits, eve):
    """One record per row of readout bits and its Bell record."""
    return [
        (row[0], row[1], tuple(row[2:]), None if e < 0 else e)
        for row, e in zip(np.asarray(bits).tolist(), np.asarray(eve).tolist())
    ]


def record_counts(bits, eve):
    """{record: number of rows holding it}, counted on packed codes."""
    width = np.shape(bits)[1]
    packed = np.asarray(bits) @ (1 << np.arange(width - 1, -1, -1))
    codes, counts = np.unique((np.asarray(eve) + 1) << width | packed, return_counts=True)
    return dict(zip(row_records(_unpack(codes, width), (codes >> width) - 1), counts.tolist()))


def expand(table, payload=0):
    """Every live record's packed readout bits and Bell record (-1 untapped), by code.

    A ``RecordTable``'s records under ``payload`` are every base of that
    payload (``bases_of``) XOR every subset of its vectors; the dense
    reference's table, built for one payload, holds them as arrays.
    """
    if not isinstance(table, RecordTable):
        return table.index, table.eve
    size = len(table.bases)
    codes = np.empty(size << len(table.vectors), dtype=np.int64)
    codes[:size] = table.bases_of(payload)
    for vector in table.vectors:
        codes[size : 2 * size] = codes[:size] ^ vector
        size *= 2
    codes.sort()
    eve = codes >> table.width if table.tapped else np.full(codes.size, -1)
    return codes & (1 << table.width) - 1, eve


def table_dict(table, payload=0):
    """A payload's records (or the dense reference's) as {record: probability}, by code."""
    index, eve = expand(table, payload)
    p = np.broadcast_to(table.p, index.shape)
    return dict(zip(row_records(_unpack(index, table.width), eve), p.tolist()))


def assert_same_table(table, reference):
    """The form's records, expanded, and its one p against the dense arrays."""
    assert table.width == reference.width
    for got, want in zip(expand(table), expand(reference)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (reference.p == table.p).all()


def reference_table_text(table, payload):
    """One payload's ``analyze`` table rows, one ``%`` format per record, ascending (index, eve)."""
    lines = []
    index, eve = expand(table, payload)
    for index, eve in sorted(zip(index.tolist(), eve.tolist())):
        bits = format(index, f"0{table.width}b")
        signs = "".join("-" if bit == "1" else "+" for bit in bits[2:])
        eve_text = "-" if eve < 0 else str(eve)
        lines.append(
            "  alice_a=%d alice_A=%d signs=%s eve=%s  p=%.8f\n"
            % (int(bits[0]), int(bits[1]), signs, eve_text, table.p)
        )
    return "".join(lines)


def distribution_dict(distribution, width):
    """``outcome_distribution``'s (index, p) arrays as {bit tuple: p}, first bit first."""
    index, p = distribution
    return dict(zip(map(tuple, _unpack(index, width).tolist()), p.tolist()))


def random_form(rng, width, tapped, rank=None, bell_rank=None):
    """A random ``RecordTable`` that keeps the oracle's rules.

    ``rank`` of the ``width`` readout bits (random when None) are random
    outcomes, each read into the highest bit of its vector; no other vector
    and no base holds that bit, and the vector's lower bits are random.  A
    tapped form's Bell record has ``bell_rank`` random outcomes (0..2,
    random when None), so 1, 2 or 4 bases, each a random offset XOR a
    subset of their vectors: with two, the phase outcome's vector may flip
    the parity bit too, i.e. the parity's form reads the phase slot; with
    one, the outcome flips the phase bit, the parity bit or both.  The
    payload's frame holds no Bell bit and no vector's highest bit, and its
    other readout bits are random.
    """

    def bits(count):
        return int(rng.integers(1 << count)) if count else 0

    if rank is None:
        rank = int(rng.integers(width + 1))
    read = sorted(rng.choice(width, size=rank, replace=False).tolist())  # readout positions
    pivots = sum(1 << width - 1 - i for i in read)
    bells = []
    if tapped:
        if bell_rank is None:
            bell_rank = int(rng.integers(3))
        phase, parity = 1 << width, 2 << width
        if bell_rank == 2:
            eves = [phase | parity * int(rng.integers(2)), parity]
        else:
            eves = [(phase, parity, phase | parity)[rng.integers(3)]] * bell_rank
        bells = [eve | bits(width) & ~pivots for eve in eves]
    vectors = tuple(1 << width - 1 - i | bits(width - 1 - i) & ~pivots for i in read)
    bases = [bits(width + 2 * tapped) & ~pivots]
    for vector in bells:
        bases += [base ^ vector for base in bases]
    return RecordTable(width, tapped, tuple(sorted(bases)), vectors, bits(width) & ~pivots)
