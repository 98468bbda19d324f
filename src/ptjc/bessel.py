"""Complex-argument Bessel functions J0 and J1, the kick sum, and a root solver.

Every value comes from one trapezoid rule on the periodic integrand
exp(i z sin theta).  With nodes theta_k = 2 pi k / N and s_k = sin theta_k,

    J0(z) = mean_k cos(z s_k)        J1(z) = mean_k s_k sin(z s_k)

and the J_m(z) of the kick sum are the FFT coefficients of exp(i z s_k).
For this analytic periodic integrand the rule converges exponentially
(Trefethen and Weideman, SIAM Rev. 56, 385 (2014)); N grows with |z| so
the aliased orders J_{m + kN}(z) are negligible.  The cosine and sine
forms make the parity relations

    J0(-z) = J0(z)        J1(-z) = -J1(z)

hold exactly, node by node.  One domain check bounds the argument:
|z| <= MAX_ABS_ARG keeps N at most 2**16, and |Im z| <= MAX_IMAG_ARG
keeps N exp(|Im z|), the largest sum formed, below the float64 maximum
exp(709.78), so every accepted z gives a finite value.

A plain complex Newton iteration (derivative J0' = -J1) solves
J0(z) = target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Default starting point of the Newton iteration when hunting the
# principal root of J0(z) = i.  Other roots are reachable by passing a
# guess near them instead.
DEFAULT_ROOT_GUESS = -2.0 + 1.4j

# Newton stops once |J0(z) - target| is within NEWTON_TOL, or after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60

# Below this derivative magnitude the Newton update is meaningless.
DERIVATIVE_BREAKDOWN_TOL = 1e-14

# Domain of the quadrature (see the module docstring).
MAX_ABS_ARG = 16000.0
MAX_IMAG_ARG = 690.0

_MIN_NODES = 64


class DerivativeBreakdownError(ArithmeticError):
    """Raised when |J1| vanishes at a Newton iterate."""


@dataclass(frozen=True)
class RootResult:
    """Outcome of a Newton solve of J0(z) = target."""

    root: complex
    residual: float
    iterations: int
    converged: bool


def _require_finite(z: complex, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} requires a finite argument, got {z!r}")
    return z


def _nodes(z: complex, name: str) -> tuple[complex, np.ndarray]:
    """The checked argument and the node sines s_k for it."""
    z = _require_finite(z, name)
    if abs(z) > MAX_ABS_ARG:
        raise ValueError(f"{name}: |z| = {abs(z):.6g} exceeds the quadrature "
                         f"limit |z| <= {MAX_ABS_ARG:g}")
    if abs(z.imag) > MAX_IMAG_ARG:
        raise ValueError(f"{name}: |Im z| = {abs(z.imag):.6g} exceeds the overflow "
                         f"limit |Im z| <= {MAX_IMAG_ARG:g}")
    size = max(_MIN_NODES, 1 << (int(4.0 * abs(z)) + 32).bit_length())
    return z, np.sin(2.0 * math.pi * np.arange(size) / size)


def bessel_j0(z: complex) -> complex:
    """Bessel function of the first kind, order zero, complex argument."""
    z, s = _nodes(z, "bessel_j0")
    return complex(np.mean(np.cos(z * s)))


def bessel_j1(z: complex) -> complex:
    """Bessel function of the first kind, order one, complex argument."""
    z, s = _nodes(z, "bessel_j1")
    return complex(np.mean(s * np.sin(z * s)))


def kick_sum(z: complex) -> complex:
    """S(z) = sum over m != 0 of J_m(z) / m, the first-order kick coefficient.

    The J_m(z) are the Fourier coefficients of exp(i z sin theta), read
    off one FFT on the shared nodes.  S(0) = 0 exactly.
    """
    z, s = _nodes(z, "kick_sum")
    size = len(s)
    coeffs = np.fft.fft(np.exp(1j * z * s)) / size
    m = np.arange(1, size // 2)
    return complex(np.sum((coeffs[m] - coeffs[-m]) / m))


def solve_j0_equals(target: complex, guess: complex = DEFAULT_ROOT_GUESS) -> RootResult:
    """Newton iteration for J0(z) = target with derivative -J1(z).

    The default guess homes in on the principal root of J0(z) = i; other
    roots of the same equation are selected by starting nearby instead.
    Non-convergence within NEWTON_MAX_ITER steps returns converged=False
    rather than raising; a vanishing derivative raises DerivativeBreakdownError.
    """
    target = _require_finite(target, "solve_j0_equals target")
    z = _require_finite(guess, "solve_j0_equals guess")
    iterations = 0
    f = bessel_j0(z) - target
    while iterations < NEWTON_MAX_ITER:
        if abs(f) <= NEWTON_TOL:
            return RootResult(root=z, residual=abs(f), iterations=iterations, converged=True)
        deriv = -bessel_j1(z)
        if abs(deriv) < DERIVATIVE_BREAKDOWN_TOL:
            raise DerivativeBreakdownError(
                f"|J1({z!r})| < {DERIVATIVE_BREAKDOWN_TOL} during Newton iteration"
            )
        z = z - f / deriv
        iterations += 1
        f = bessel_j0(z) - target
    return RootResult(root=z, residual=abs(f), iterations=iterations,
                      converged=abs(f) <= NEWTON_TOL)
