"""Exact rational construction of a binary expansion whose orbits keep low
discrepancy in every integer base, plus the audit tooling around it:
interval measure arithmetic, windowed orbit deviation sweeps, bad-set
families with certified tail bounds, certificate replay, exact
discrepancy statistics, and seeded sample streams.

The package itself imports nothing: import names from its modules
(`normnum.measure`, `enclose`, `schedule`, `orbit`, `badsets`,
`constructor`, `discrepancy`, `mc`, and the `cli` front end). `cli`
registers every module at import but runs the body of `orbit`, `badsets`,
`constructor`, `discrepancy` and `mc` only when a command first uses it.
"""

__version__ = "0.1.0"
