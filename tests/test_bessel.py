"""Bessel evaluation, its domain check and complex Newton solver."""

import math

import numpy as np
import pytest
from scipy.special import jv

from ptjc import bessel
from ptjc.bessel import (
    DEFAULT_ROOT_GUESS,
    MAX_ABS_ARG,
    MAX_IMAG_ARG,
    NEWTON_TOL,
    DerivativeBreakdownError,
    bessel_j0,
    bessel_j1,
    kick_sum,
    solve_j0_equals,
)

from conftest import bisect_j0_zero, simpson_phase_average

ORACLE_TOL = 1e-10
QUOTED_ROOT = -2.14 + 1.42j
QUOTED_ROOT_TOL = 5e-3
FD_STEP = 1e-5
FD_TOL = 1e-8


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0 + 0.0j

    def test_matches_quadrature_at_one(self):
        oracle = simpson_phase_average(1.0, 2 ** 14)
        assert abs(bessel_j0(1.0) - oracle) <= ORACLE_TOL

    def test_quoted_root_value(self):
        # the three-digit root of J0(z) = i evaluates back to i
        assert abs(bessel_j0(QUOTED_ROOT) - 1j) <= QUOTED_ROOT_TOL

    def test_evenness_exact(self, rng):
        for _ in range(100):
            z = complex(*(rng.uniform(-10, 10, 2) / math.sqrt(2)))
            assert bessel_j0(-z) - bessel_j0(z) == 0.0

    def test_conjugation_symmetry(self, rng):
        for _ in range(100):
            z = complex(*(rng.uniform(-10, 10, 2) / math.sqrt(2)))
            assert abs(bessel_j0(z.conjugate()) - bessel_j0(z).conjugate()) <= 1e-13

    def test_quadrature_agreement_disk(self, rng):
        # independent Simpson route, modest sample to keep runtime down
        for _ in range(12):
            r = 6.0 * math.sqrt(rng.random())
            ph = 2.0 * math.pi * rng.random()
            z = r * complex(math.cos(ph), math.sin(ph))
            assert abs(bessel_j0(z) - simpson_phase_average(z, 2 ** 16)) <= 1e-9

    def test_against_scipy_disk(self, rng):
        # relative agreement on |z| <= 20; the function grows to ~4e7 off
        # the real axis there, so an absolute bound is only meaningful on
        # the real segment (checked separately below)
        for _ in range(200):
            r = 20.0 * math.sqrt(rng.random())
            ph = 2.0 * math.pi * rng.random()
            z = r * complex(math.cos(ph), math.sin(ph))
            ref = complex(jv(0, z))
            assert abs(bessel_j0(z) - ref) <= 1e-13 * max(abs(ref), 1.0)

    def test_against_scipy_real_segment(self):
        for x in np.linspace(-20.0, 20.0, 161):
            assert abs(bessel_j0(complex(x)) - complex(jv(0, float(x)))) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j0(complex(math.inf, 0.0))
        with pytest.raises(ValueError):
            bessel_j0(complex(0.0, math.nan))


class TestBesselJ1:
    def test_at_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_oddness(self, rng):
        for _ in range(50):
            z = complex(*(rng.uniform(-10, 10, 2) / math.sqrt(2)))
            assert bessel_j1(-z) + bessel_j1(z) == 0.0

    @pytest.mark.parametrize("z", [1.0 + 0.0j, 2.0 + 0.0j])
    def test_is_minus_j0_derivative(self, z):
        fd = -(bessel_j0(z + FD_STEP) - bessel_j0(z - FD_STEP)) / (2.0 * FD_STEP)
        assert abs(bessel_j1(z) - fd) <= FD_TOL

    def test_against_scipy(self, rng):
        for _ in range(100):
            r = 20.0 * math.sqrt(rng.random())
            ph = 2.0 * math.pi * rng.random()
            z = r * complex(math.cos(ph), math.sin(ph))
            ref = complex(jv(1, z))
            assert abs(bessel_j1(z) - ref) <= 1e-13 * max(abs(ref), 1.0)


class TestDomain:
    """J0, J1 and the kick sum share one domain check: each limit is
    rejected just past it, and J0 and J1 match scipy just inside it (the
    kick sum's inside cases are in test_equivalence)."""

    @pytest.mark.parametrize("f", [bessel_j0, bessel_j1, kick_sum])
    @pytest.mark.parametrize("z", [MAX_ABS_ARG * 1.0001, -MAX_ABS_ARG * 1.0001j,
                                   complex(1.0, MAX_IMAG_ARG * 1.0001),
                                   complex(-1.0, -MAX_IMAG_ARG * 1.0001)])
    def test_rejects_past_limit(self, f, z):
        limit = MAX_IMAG_ARG if abs(z) < MAX_ABS_ARG else MAX_ABS_ARG
        with pytest.raises(ValueError, match=f"limit .* <= {limit:g}"):
            f(z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", [bessel_j0, bessel_j1, kick_sum])
    def test_finite_at_corner(self, f):
        # largest node count and largest |Im z| at once
        y = MAX_IMAG_ARG
        value = f(complex(math.sqrt(MAX_ABS_ARG ** 2 - y * y), y))
        assert math.isfinite(value.real) and math.isfinite(value.imag)

    @pytest.mark.parametrize("z", [MAX_ABS_ARG, -MAX_ABS_ARG, 650j, -689.0j])
    @pytest.mark.parametrize("order, f", [(0, bessel_j0), (1, bessel_j1)])
    def test_matches_scipy_inside(self, z, order, f):
        ref = complex(jv(order, z))
        assert abs(f(z) - ref) <= 1e-13 * max(abs(ref), 1.0)


class TestSolveJ0Equals:
    def test_trivial_target_one(self):
        res = solve_j0_equals(1.0, guess=0.0)
        assert res.converged
        assert res.root == 0.0
        assert res.iterations == 0

    def test_first_real_zero(self):
        oracle = bisect_j0_zero(2.0, 3.0)
        res = solve_j0_equals(0.0, guess=2.5)
        assert res.converged
        assert abs(res.root.imag) <= 1e-12
        assert abs(res.root.real - oracle) <= 1e-12

    def test_principal_root(self):
        res = solve_j0_equals(1j)
        assert res.converged
        assert res.residual <= 1e-12
        assert abs(res.root - QUOTED_ROOT) <= QUOTED_ROOT_TOL

    def test_converged_implies_residual_within_tol(self):
        res = solve_j0_equals(1j)
        assert res.converged and res.residual <= NEWTON_TOL

    def test_local_uniqueness_under_reseeding(self, rng):
        base = solve_j0_equals(1j).root
        for _ in range(20):
            r = 0.3 * math.sqrt(rng.random())
            ph = 2.0 * math.pi * rng.random()
            guess = base + r * complex(math.cos(ph), math.sin(ph))
            res = solve_j0_equals(1j, guess=guess)
            assert res.converged
            assert abs(res.root - base) <= 1e-10

    def test_default_guess_constant(self):
        assert DEFAULT_ROOT_GUESS == -2.0 + 1.4j

    def test_derivative_breakdown(self):
        # J1(0) = 0 while J0(0) - target != 0: Newton cannot proceed
        with pytest.raises(DerivativeBreakdownError):
            solve_j0_equals(0.0, guess=0.0)

    def test_non_convergence_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(bessel, "NEWTON_MAX_ITER", 1)
        res = solve_j0_equals(1j, guess=DEFAULT_ROOT_GUESS)
        assert not res.converged
        assert res.iterations == 1

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            solve_j0_equals(complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            solve_j0_equals(1j, guess=complex(0.0, math.inf))
