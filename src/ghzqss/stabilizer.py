"""A stabilizer tableau whose signs are affine forms over the random outcomes.

The tableau is Aaronson and Gottesman's (PRA 70, 052328, 2004): on k
qubits, rows 0..k-1 are destabilizers and rows k..2k-1 stabilizers, each a
Pauli product with a sign.  It is held column-major in Python ints: for
each qubit q, ``xs[q]`` has bit r set when row r holds X or Y on q, and
``zs[q]`` when it holds Z or Y.  A sign is not a bit but an affine form
over GF(2) in the outcomes drawn so far (Dehaene and De Moor, PRA 68,
042318, 2003): ``signs[s]`` has bit r set when slot s is in row r's sign,
where slot 0 is the constant 1 and each later slot a parameter or a random
outcome, numbered in the order they arise.
Destabilizer signs are never read, so they are not kept meaningful.

``measure`` returns an outcome as such a form, one int with bit s set for
each slot in it.  A random outcome is a fresh slot; a determinate one is
the XOR of the forms of the stabilizers whose product is the measured
Pauli, plus the product's phase.  Every assignment of the random slots is
one equally likely run, so a circuit's record is uniform over an affine
subspace, found without enumerating a state.  A ``parameter`` slot is a
classical bit the circuit is written for both values of, such as an X
that runs only when it is 1: a Pauli frame (as in Gidney's Stim, Quantum
5, 497, 2021), so the record for either value comes from the one run.
"""

from __future__ import annotations


class Tableau:
    """k qubits in |0...0>, acted on by ``h``, ``x``, ``cx`` and Z ``measure``."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.xs = [1 << q for q in range(k)]  # destabilizer q is X_q
        self.zs = [1 << (k + q) for q in range(k)]  # stabilizer k + q is Z_q
        self.signs = [0]
        self._stabilizers = ((1 << k) - 1) << k

    @property
    def slots(self) -> int:
        """How many slots the forms use: the constant, each parameter and each random outcome."""
        return len(self.signs)

    def h(self, q: int) -> None:
        xs, zs = self.xs, self.zs
        self.signs[0] ^= xs[q] & zs[q]
        xs[q], zs[q] = zs[q], xs[q]

    def x(self, q: int, slot: int = 0) -> None:
        """X on ``q``; given a ``parameter`` slot, X when that slot's bit is 1."""
        self.signs[slot] ^= self.zs[q]

    def parameter(self) -> int:
        """A new slot for a classical bit chosen outside the circuit; its index."""
        self.signs.append(0)
        return len(self.signs) - 1

    def cx(self, control: int, target: int) -> None:
        xs, zs = self.xs, self.zs
        self.signs[0] ^= xs[control] & zs[target] & ~(xs[target] ^ zs[control])
        xs[target] ^= xs[control]
        zs[control] ^= zs[target]

    def measure(self, q: int) -> int:
        """Measure Z on qubit ``q``; the outcome's form (bit s: slot s is in it)."""
        anticommuting = self.xs[q]
        stabilizers = anticommuting >> self.k
        if stabilizers:
            pivot = self.k + (stabilizers & -stabilizers).bit_length() - 1
            return self._random(q, pivot, anticommuting & ~(1 << pivot))
        return self._determinate(anticommuting << self.k)

    def _random(self, q: int, pivot: int, others: int) -> int:
        """Multiply the pivot row into every other row that anticommutes with Z_q,
        move it to the destabilizers and replace it by Z_q with a fresh slot."""
        xs, zs, signs = self.xs, self.zs, self.signs
        rows = others & self._stabilizers  # the rows whose signs matter
        bit, destabilizer = 1 << pivot, 1 << (pivot - self.k)
        keep = ~(bit | destabilizer)
        # each row's product phase, as powers of i summed mod 4 in two bit planes
        low = high = 0
        for j, (x, z) in enumerate(zip(xs, zs)):
            xp, zp = x & bit, z & bit
            if xp or zp:
                x2, z2 = x & rows, z & rows
                if xp and zp:  # Y times X is -iZ, Y times Z is iX
                    plus, minus = z2 & ~x2, x2 & ~z2
                elif xp:  # X times Y is iZ, X times Z is -iY
                    plus, minus = z2 & x2, z2 & ~x2
                else:  # Z times X is iY, Z times Y is -iX
                    plus, minus = x2 & ~z2, x2 & z2
                high ^= low & plus
                low ^= plus
                high ^= ~low & minus
                low ^= minus
            # the destabilizer takes the pivot row, which becomes Z_q
            xs[j] = (x ^ others) & keep | destabilizer if xp else x & keep
            zs[j] = (z ^ others) & keep | destabilizer if zp else z & keep
        # commuting rows multiply to a real sign, so the phase is 0 or 2
        signs[0] ^= high
        for s, form in enumerate(signs):
            if form & bit:
                signs[s] = (form ^ rows) & ~bit
        zs[q] |= bit
        signs.append(bit)
        return 1 << (len(signs) - 1)

    def _determinate(self, rows: int) -> int:
        """The form of the product of the stabilizer ``rows``, taken in row order."""
        form = 0
        for s, signed in enumerate(self.signs):
            form |= ((signed & rows).bit_count() & 1) << s
        # on each qubit the product of the rows' i^(xz) X^x Z^z is i^e X^x' Z^z'
        # with e = sum xz + 2 #{r < r': z_r x_r'}, as Z_q's X parts cancel
        phase = 0
        for x, z in zip(self.xs, self.zs):
            x, z = x & rows, z & rows
            below = z
            shift = 1
            while shift < 2 * self.k:
                below ^= below << shift
                shift <<= 1
            phase += (x & z).bit_count() + 2 * (x & below << 1).bit_count()
        return form ^ (phase >> 1 & 1)

    def vectors(self, forms: list[int]) -> list[int]:
        """The outcome ``forms`` as one vector of record bits per slot.

        Record bit i, counted from the most significant, is ``forms[i]``;
        entry s of the result has that bit set when slot s is in it, so
        entry 0 is the record at which every other slot reads 0.
        """
        vectors = [0] * self.slots
        for position, form in enumerate(reversed(forms)):
            while form:
                slot = form & -form
                vectors[slot.bit_length() - 1] |= 1 << position
                form ^= slot
        return vectors
