"""Exact classification tools for torsion-free solvable groups of small
Hirsch length: arithmetic primitives, group element models, a classifier,
a presentation simplifier, and a randomized verifier with a CLI front end.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """An input the tools refuse: malformed, out of scope or past a stated
    budget.  The command line prints its message and exits 2."""
