"""Shared fixtures and independent numerical oracles.

The oracles here are deliberately written against different algorithms
than the library code they check: Simpson quadrature and a real power
series instead of the trapezoid-rule Bessel values, characteristic
polynomials instead of closed-form branch formulas.  Tests compare the
two routes; neither side is allowed to call the other.
"""

import cmath
import math

import numpy as np
import pytest

from ptjc import (
    FockSpace,
    JcParams,
    build_biorthogonal_system,
    build_h0,
    build_similarity,
)

DEFAULT_SEED = 20260814


@pytest.fixture
def rng():
    return np.random.default_rng(DEFAULT_SEED)


# ---------------------------------------------------------------------------
# quadrature oracle (independent route to the averaged phase factor)


def simpson_phase_average(gamma: complex, panels: int) -> complex:
    """(1/2pi) integral of exp(-i gamma sin x) over [-pi, pi], composite Simpson.

    Hand-rolled here so the test-side oracle shares no code with the
    trapezoid rule of ptjc.bessel.
    """
    if panels % 2 or panels < 2:
        raise ValueError("panels must be even and >= 2")
    xs = np.linspace(-math.pi, math.pi, panels + 1)
    vals = np.exp(-1j * gamma * np.sin(xs))
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (2.0 * math.pi) / panels
    return complex((h / 3.0) * np.sum(weights * vals) / (2.0 * math.pi))


def j0_real_series(x: float, terms: int = 80) -> float:
    """Real power series for J0 on the real axis (bisection oracle)."""
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    for k in range(1, terms + 1):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-17:
            break
    return total


def bisect_j0_zero(lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = j0_real_series(lo)
    fhi = j0_real_series(hi)
    assert flo * fhi < 0, "bracket must straddle a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = j0_real_series(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# 2x2 closed-form oracles (route independent of ptjc.jc branch formulas)


def block_matrix_oracle(omega0: float, omega: float, coupling: complex, n: int) -> np.ndarray:
    """Hand-coded 2x2 block in the (|n-1,1>, |n,0>) ordering."""
    upper = omega0 / 2.0 + omega * (n - 1)
    lower = n * omega - omega0 / 2.0
    off = coupling * math.sqrt(n)
    return np.array([[upper, off], [off, lower]], dtype=complex)


def charpoly_eigvals(m: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 via the quadratic formula on det(m - e)."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


# ---------------------------------------------------------------------------
# expensive shared pseudo-spectral objects (session scope: build once)


@pytest.fixture(scope="session")
def pseudo_default():
    """Default deformed-system bundle: N_b=32, alpha=0.5, epsilon=0.1, resonant."""
    params = JcParams(omega0=1.0, omega=1.0, coupling=0.1)
    space = FockSpace(boson_levels=32)
    h0 = build_h0(params, space)
    smap = build_similarity(space, 0.5)
    system = build_biorthogonal_system(h0, smap)
    return {"params": params, "space": space, "h0": h0, "smap": smap, "system": system}
