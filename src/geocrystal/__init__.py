"""Exact-arithmetic toolkit for the two geometric realizations of sl_n:
flag-side and quiver-side combinatorics, the explicit map between them,
crystal structure, and quotient-dimension computations.
"""

__version__ = "0.1.0"
