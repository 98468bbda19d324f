"""Driven and similarity-deformed two-state block toolkit.

Complex Bessel values and the kick sum from one Fourier quadrature,
root finding, dressed two-state block spectra with PT-phase
classification, driven amplitude dynamics in lab/interaction/gauged
frames integrated by RK4 step propagators, driven-vs-static
equivalence experiments, and the similarity-deformed
truncated-Fock-space model with its biorthogonal eigenfamilies and
metric identities.
"""

__version__ = "0.1.0"

from . import bessel, dynamics, equivalence, fockspace, jc, pseudo  # noqa: F401
