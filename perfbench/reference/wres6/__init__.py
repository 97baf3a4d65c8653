"""Exact symbolic verifier for the noncommutative residue of Q = (fDh)^2
on 6-dimensional spin manifolds: interior density and boundary term."""

__version__ = "0.1.0"
