"""Certified desk-scale models of gap products, their square-root
branches, capacity chains, and fiber potentials.

The package materializes finitely many stages of constructions whose
interesting behavior lives at infinite depth, and pairs every truncation
with an explicit, certified error or capacity bound so statements about
the limit object survive at double precision.
"""

__version__ = "0.1.0"
