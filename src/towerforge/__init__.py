"""Exact-arithmetic verification of infinite class field tower criteria.

The package recomputes, from first principles, every quantity entering the
two sufficient conditions for a prime-power cyclotomic field to sit under an
infinite tower: relative class numbers (two independent methods),
multiplicative orders, regular-prime tests, local Kummer invariants, and the
Golod-Shafarevich obstruction.

Names are imported from their modules (``towerforge.arith``, ``.characters``,
``.criteria``, ``.local``, ``.pipeline``, ...); the root holds only ``__version__``.
"""

__version__ = "0.1.0"
