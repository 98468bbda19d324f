"""Static Jaynes-Cummings blocks, dressed spectra, and PT classification.

The total-excitation number is conserved, so everything happens inside
2x2 blocks spanned by (|n-1, 1>, |n, 0>) for n >= 1 (field quanta,
two-level occupation); that ordering is fixed here once and used by
every consumer.  Units follow hbar = 1 so frequencies are energies.

The dressed splitting is evaluated as

    Delta = sqrt(delta**2 + 4 * g**2 * n)      (principal branch)

which coincides with the usual positive root for real coupling g and
continues analytically to complex g; for g = i*gamma it reproduces the
exact block eigenvalues on both sides of the exceptional point.
"""
from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

# Discriminant window classified as an exceptional point, relative to delta^2 + 4 g^2 n.
EXCEPTIONAL_POINT_TOL = 1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class DegenerateBlockError(ValueError):
    """Raised when Delta = 0 and the mixing angle is undefined."""


@dataclass(frozen=True)
class JcParams:
    """Static model parameters (atom frequency, mode frequency, coupling)."""

    omega0: float
    omega: float
    coupling: complex = 0.0 + 0.0j

    def __post_init__(self):
        for name in ("omega0", "omega"):
            value = getattr(self, name)
            if not (value >= sys.float_info.min and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and at least the smallest normal "
                                 f"float64, {sys.float_info.min!r}, got {value}")
        g = complex(self.coupling)
        if not (math.isfinite(g.real) and math.isfinite(g.imag)):
            raise ValueError(f"coupling must be finite, got {self.coupling!r}")
        object.__setattr__(self, "coupling", g)

    def detuning(self) -> float:
        return self.omega0 - self.omega


@dataclass(frozen=True)
class DressedSpectrum:
    """Closed-form eigensystem of one excitation block; ``t_block`` holds its eigenvectors."""

    big_delta: complex
    e_plus: complex
    e_minus: complex
    theta_half_sin: complex
    theta_half_cos: complex


class PtPhaseKind(enum.Enum):
    UNBROKEN = "unbroken"
    EXCEPTIONAL_POINT = "exceptional_point"
    BROKEN = "broken"


@dataclass(frozen=True)
class PtPhase:
    kind: PtPhaseKind
    discriminant: float


def build_subspace_hamiltonian(params: JcParams, n: int) -> np.ndarray:
    """Assemble the 2x2 block in the (|n-1,1>, |n,0>) ordering.

    The block is Hermitian exactly when the coupling is real; an
    imaginary coupling leaves both off-diagonal entries equal, giving
    the complex-symmetric PT-type block.
    """
    if n < 1:
        raise ValueError("n must be >= 1; the 0-excitation subspace is one-dimensional")
    g_eff = params.coupling * math.sqrt(n)
    return np.array(
        [
            [params.omega0 / 2.0 + params.omega * (n - 1), g_eff],
            [g_eff, n * params.omega - params.omega0 / 2.0],
        ],
        dtype=complex,
    )


def dressed_spectrum(params: JcParams, n: int) -> DressedSpectrum:
    """Closed-form dressed eigenvalues and half-angle entries of a block.

    sin(theta/2) = (1 + delta/Delta)^{1/2} / sqrt(2) and
    cos(theta/2) = -(1 - delta/Delta)^{1/2} / sqrt(2); the negative
    cosine branch is kept verbatim, so eigenvectors are fixed only up to
    that convention and callers comparing against other diagonalizers
    should compare rays.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    delta = params.detuning()
    g = params.coupling
    big_delta = cmath.sqrt(delta * delta + 4.0 * g * g * n)
    if not cmath.isfinite(big_delta):
        raise ValueError(f"Delta = sqrt(delta^2 + 4 g^2 n) leaves float64 at delta = {delta!r}, "
                         f"g = {g!r}, n = {n}")
    if big_delta == 0:
        raise DegenerateBlockError(
            "Delta = 0: the block is already diagonal and the mixing angle "
            "is undefined; treat the block as diagonal instead"
        )
    ratio = delta / big_delta
    s_half = _SQRT_HALF * cmath.sqrt(1.0 + ratio)
    c_half = -_SQRT_HALF * cmath.sqrt(1.0 - ratio)
    mid = (n - 0.5) * params.omega
    e_plus, e_minus = mid + big_delta / 2.0, mid - big_delta / 2.0
    if not (cmath.isfinite(e_plus) and cmath.isfinite(e_minus)):
        raise ValueError(f"E+- = (n - 1/2) omega +- Delta / 2 leaves float64 at n = {n}, "
                         f"omega = {params.omega!r}, Delta = {big_delta!r}")
    return DressedSpectrum(
        big_delta=big_delta,
        e_plus=e_plus,
        e_minus=e_minus,
        theta_half_sin=s_half,
        theta_half_cos=c_half,
    )


def classify_pt_phase(params: JcParams, n: int) -> PtPhase:
    """Classify the block of an imaginary-coupling model.

    For coupling i*g (g real) the discriminant delta**2 - 4 g**2 n
    decides between real eigenvalues (unbroken), a conjugate pair
    (broken), and the exceptional point within EXCEPTIONAL_POINT_TOL
    times delta**2 + 4 g**2 n, so the window scales with the block's
    energies (both terms 0 is an exceptional point).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = complex(params.coupling)
    if g.real != 0.0:
        raise ValueError(
            f"classify_pt_phase requires purely imaginary coupling, got {params.coupling!r}"
        )
    gamma = g.imag
    delta = params.detuning()
    square, pull = delta * delta, 4.0 * gamma * gamma * n
    disc = square - pull
    # an overflowed term has no window: the sign of disc decides
    if abs(disc) <= EXCEPTIONAL_POINT_TOL * (square + pull) < math.inf:
        kind = PtPhaseKind.EXCEPTIONAL_POINT
    elif disc > 0:
        kind = PtPhaseKind.UNBROKEN
    else:
        kind = PtPhaseKind.BROKEN
    return PtPhase(kind=kind, discriminant=disc)


def t_block(params: JcParams, n: int) -> np.ndarray:
    """2x2 rotation t with t @ H_block @ t^{-1} = diag(e_minus, e_plus).

    Built from the half-angle entries of :func:`dressed_spectrum`.  It
    has unit determinant, so the same expression serves real and complex
    mixing angles, and its transpose is its inverse: the eigenvector
    column matrix [[cos, -sin], [sin, cos]], whose columns are the
    eigenvectors of e_minus and e_plus.  With zero coupling there is
    nothing to mix and the sin(theta) = 0 branch is taken, i.e. the
    identity is returned (the block is already diagonal, holding its
    bare energies).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.coupling == 0:
        if params.detuning() == 0:
            raise DegenerateBlockError("Delta = 0: block is a multiple of the identity")
        return np.eye(2, dtype=complex)
    spec = dressed_spectrum(params, n)
    s, c = spec.theta_half_sin, spec.theta_half_cos
    return np.array([[c, s], [-s, c]], dtype=complex)
