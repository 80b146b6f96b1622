"""Simulator for (n,n)-threshold quantum secret sharing over GHZ carriers.

The package splits into a small dense state-vector engine (``statevec``),
a symbolic stabilizer tableau (``stabilizer``), the protocol round
mechanics (``protocol``), eavesdropping models with an exact single-round
oracle on that tableau (``attacks``), session orchestration with
transcript/report output (``session``), and a command-line front end
(``cli``).
"""

__version__ = "0.1.0"
