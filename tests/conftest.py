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

from ptjc import dynamics
from ptjc.fockspace import FockSpace, build_h0
from ptjc.jc import JcParams
from ptjc.pseudo import build_biorthogonal_system, build_similarity

DEFAULT_SEED = 20260814


def pass_rows(columns):
    """Rows in one of write_csv's passes over ``columns`` distinct columns."""
    return dynamics._CSV_PASS_FLOATS // columns


def pass_boundary_rows(columns):
    """Row counts at write_csv's pass boundaries for ``columns`` distinct columns: one
    row, a pass less one, one pass, one past it, and one past two passes."""
    rows = pass_rows(columns)
    return [1, rows - 1, rows, rows + 1, 2 * rows + 1]


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
# grid for the block-built H0 and its closed-form energies

H0_GRID_LEVELS = (4, 8, 48, 512)
H0_GRID_PARAMS = (
    JcParams(1.0, 1.0, 0.1),  # resonant
    JcParams(1.07, 1.0, 0.1),  # blue detuned
    JcParams(1.0, 1.0, 0.06 - 0.08j),  # complex coupling
    JcParams(1.2, 0.9, 0.0),  # uncoupled, detuned
)


# ---------------------------------------------------------------------------
# step-by-step RK4 oracle (route independent of ptjc.kernels' step matrices)


def apply_rhs(rhs, t: float, c: complex, d: complex) -> tuple[complex, complex]:
    """(dc, dd) = A(t) (c, d) at one time, A's entries from ``rhs.matrix``."""
    a11, a12, a21, a22 = rhs.matrix(np.asarray(t, dtype=float)).tolist()
    return a11 * c + a12 * d, a21 * c + a22 * d


def rk4_generic(rhs, c0: complex, d0: complex, t0: float, h: float,
                n_full: int, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of (c, d)' = A(t) (c, d), one state and stage at a time.

    Each stage applies ``rhs.matrix`` through ``apply_rhs``; ptjc.kernels
    instead multiplies whole step matrices built from the same A.
    """
    out_c, out_d = np.empty((2, n_full + (2 if tail > 0.0 else 1)), dtype=complex)
    c, d = complex(c0), complex(d0)
    out_c[0], out_d[0] = c, d
    steps = [h] * n_full + ([tail] if tail > 0.0 else [])
    for k, dt in enumerate(steps):
        t = t0 + k * h
        k1c, k1d = apply_rhs(rhs, t, c, d)
        k2c, k2d = apply_rhs(rhs, t + dt / 2.0, c + (dt / 2.0) * k1c, d + (dt / 2.0) * k1d)
        k3c, k3d = apply_rhs(rhs, t + dt / 2.0, c + (dt / 2.0) * k2c, d + (dt / 2.0) * k2d)
        k4c, k4d = apply_rhs(rhs, t + dt, c + dt * k3c, d + dt * k3d)
        c = c + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        d = d + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        out_c[k + 1] = c
        out_d[k + 1] = d
    return out_c, out_d


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
