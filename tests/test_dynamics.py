"""Frame maps, amplitude equations of motion, and the RK4 front end."""

import math
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest
from conftest import apply_rhs, pass_boundary_rows, pass_rows, rk4_generic

from ptjc import dynamics, floattext, kernels
from ptjc.bessel import bessel_j0, solve_j0_equals
from ptjc.dynamics import (
    TRAJECTORY_CSV_HEADER,
    BoundRhs,
    Frame,
    IntegrationError,
    ModulationSpec,
    ModulationTarget,
    OffResonanceWarning,
    Trajectory,
    averaged_effective_coupling,
    bind_averaged_rhs,
    bind_driven_rhs,
    bind_static_rhs,
    check_rk4_stability,
    closed_form_amplitudes,
    integrate,
    map_trajectory,
    read_trajectory_csv,
    suggested_step,
    write_trajectory_csv,
)
from ptjc.equivalence import solve_modulation_beta
from ptjc.floattext import float_text
from ptjc.jc import JcParams

ROUND_TRIP_TOL = 1e-14
FRAME_CONSISTENCY_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8
CONSERVATION_TOL = 1e-10

ATOM = ModulationTarget.ATOM_FREQUENCY
CAVITY = ModulationTarget.CAVITY_FREQUENCY

# A(t) = 0, zero in every frame: the static block without coupling (tagged interaction).
ZERO_RHS = bind_static_rhs(JcParams(1.0, 1.0, 0.0), 1)


def lab_hamiltonian(params, mod, n, t):
    """Hand-built instantaneous 2x2 lab Hamiltonian (test-side oracle)."""
    drive = 1.0 + mod.beta * math.cos(mod.big_omega * t)
    omega0_t = params.omega0 * (drive if mod.target is ATOM else 1.0)
    omega_t = params.omega * (drive if mod.target is CAVITY else 1.0)
    off = params.coupling.real * math.sqrt(n)
    return np.array(
        [[omega0_t / 2.0 + omega_t * (n - 1), off],
         [off, n * omega_t - omega0_t / 2.0]], dtype=complex)


# One frame-tagged state of block n: a map test's single sample.
Sample = namedtuple("Sample", "n c d frame")


def random_state(rng, n, frame):
    c = complex(*rng.standard_normal(2))
    d = complex(*rng.standard_normal(2))
    return Sample(n, c, d, frame)


class TestTypes:
    def test_modulation_validation(self):
        with pytest.raises(ValueError):
            ModulationSpec(target=ATOM, beta=0.1, big_omega=0.0)
        with pytest.raises(ValueError):
            ModulationSpec(target=ATOM, beta=complex(math.nan, 0), big_omega=1.0)

    def test_rhs_and_initial_amplitude_validation(self):
        # every binder and closed_form_amplitudes refuse n < 1 before they take
        # sqrt(n), as does BoundRhs itself (so suggested_step never sees one)
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.3, big_omega=2.0)
        for bind in (*(lambda n, f=f: bind_driven_rhs(p, mod, n, f) for f in Frame),
                     lambda n: bind_static_rhs(p, n), lambda n: bind_averaged_rhs(p, mod, n),
                     lambda n: BoundRhs(ZERO_RHS.matrix, Frame.LAB, n, 0.0, 0.0),
                     lambda n: closed_form_amplitudes(p, n, 1.0, 0.0, 1.0)):
            for n in (0, -1):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    bind(n)
        for c0, d0 in [(complex(math.inf, 0), 0.0), (0.0, complex(0.0, math.nan))]:
            with pytest.raises(ValueError, match="c0 = .*, d0 = "):
                integrate(ZERO_RHS, c0, d0, 1.0, 0.1)

    def test_trajectory_tags_come_from_the_rhs(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=CAVITY, beta=0.3, big_omega=2.0)
        for rhs, frame, n in [(bind_driven_rhs(p, mod, 3, Frame.LAB), Frame.LAB, 3),
                              (bind_static_rhs(p, 2), Frame.INTERACTION, 2),
                              (bind_averaged_rhs(p, mod, 1), Frame.GAUGED, 1),
                              (bind_driven_rhs(p, mod, 4, Frame.GAUGED), Frame.GAUGED, 4)]:
            traj = integrate(rhs, 0.0, 1.0, 0.5, 0.1)
            assert (traj.frame, traj.n) == (rhs.frame, rhs.n) == (frame, n)

    @pytest.mark.parametrize("times, message", [
        ([0.0, 0.1, 0.3, 0.4], "interval 1 is 0.19999999999999998, the first 0.1"),
        ([0.0, 0.1, 0.3], "interval 1 is 0.19999999999999998, the first 0.1"),
        # a shortened last step, as older versions ended their runs
        ([0.0, 0.1, 0.15], "interval 1 is 0.04999999999999999, the first 0.1")])
    def test_trajectory_requires_uniform_grid(self, times, message):
        with pytest.raises(ValueError, match=f"times must be uniformly spaced: {message}"):
            Trajectory(times=np.array(times), c=np.zeros(len(times), complex),
                       d=np.zeros(len(times), complex), frame=Frame.LAB, n=1)


def one_sample(state, t):
    """A single-sample trajectory holding ``state`` at time t."""
    return Trajectory(times=np.array([t]), c=np.array([state.c]), d=np.array([state.d]),
                      frame=state.frame, n=state.n)


def mapped_sample(state, params, mod, t, to_frame):
    out = map_trajectory(one_sample(state, t), params, mod, to_frame)
    assert out.frame is to_frame
    return complex(out.c[0]), complex(out.d[0])


class TestFrameMaps:
    def test_interaction_identity_at_t0(self, rng):
        s = random_state(rng, 2, Frame.LAB)
        c, d = mapped_sample(s, JcParams(1.2, 1.0, 0.1), None, 0.0, Frame.INTERACTION)
        assert c == s.c and d == s.d

    def test_interaction_preserves_moduli(self, rng):
        p = JcParams(1.2, 0.9, 0.1)
        s = random_state(rng, 3, Frame.LAB)
        c, d = mapped_sample(s, p, None, 2.7, Frame.INTERACTION)
        assert abs(abs(c) - abs(s.c)) <= 1e-15
        assert abs(abs(d) - abs(s.d)) <= 1e-15

    def test_interaction_round_trip(self, rng):
        p = JcParams(1.3, 0.8, 0.2)
        for _ in range(20):
            s = random_state(rng, int(rng.integers(1, 6)), Frame.LAB)
            there = map_trajectory(one_sample(s, 7.3), p, None, Frame.INTERACTION)
            back = map_trajectory(there, p, None, Frame.LAB)
            assert back.frame is Frame.LAB
            assert abs(back.c[0] - s.c) <= ROUND_TRIP_TOL
            assert abs(back.d[0] - s.d) <= ROUND_TRIP_TOL

    def test_gauged_identity_at_sin_zero(self, rng):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.4, big_omega=2.0)
        s = random_state(rng, 1, Frame.INTERACTION)
        c, d = mapped_sample(s, p, mod, math.pi / 2.0, Frame.GAUGED)  # sin(2t) = 0
        assert abs(c - s.c) <= 1e-12 * abs(s.c)
        assert d == s.d

    def test_gauged_preserves_modulus_for_real_beta(self, rng):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.7, big_omega=1.3)
        s = random_state(rng, 1, Frame.INTERACTION)
        c, _ = mapped_sample(s, p, mod, 0.37, Frame.GAUGED)
        assert abs(abs(c) - abs(s.c)) <= 1e-15

    def test_gauged_scaling_for_imaginary_beta(self):
        # beta = i, omega0 = 2, Omega = 1, sin(Omega t) = 1: the absorbed
        # phase is (omega0 beta / 2 Omega) = i, so c picks up e^{i*i} = e^-1
        p = JcParams(2.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=1j, big_omega=1.0)
        s = Sample(1, 1.0 + 0j, 0.5 + 0j, Frame.INTERACTION)
        c, d = mapped_sample(s, p, mod, math.pi / 2.0, Frame.GAUGED)
        assert abs(c) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert d == s.d

    def test_gauged_round_trip_complex_beta(self, rng):
        p = JcParams(1.0, 1.0, 0.05)
        for target in (ATOM, CAVITY):
            mod = ModulationSpec(target=target, beta=0.5 + 0.3j, big_omega=2.0)
            s = random_state(rng, 2, Frame.INTERACTION)
            there = map_trajectory(one_sample(s, 1.9), p, mod, Frame.GAUGED)
            back = map_trajectory(there, p, mod, Frame.INTERACTION)
            assert abs(back.c[0] - s.c) <= ROUND_TRIP_TOL
            assert back.d[0] == s.d

    def test_cavity_gauge_phase_scales_with_n(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=CAVITY, beta=0.3, big_omega=2.0)
        c4, d4 = mapped_sample(Sample(4, 1.0, 0.5, Frame.INTERACTION), p, mod, 0.41, Frame.GAUGED)
        c1, d1 = mapped_sample(Sample(1, 1.0, 0.5, Frame.INTERACTION), p, mod, 0.41, Frame.GAUGED)
        assert d4 == d1 == 0.5  # the gauge leaves d untouched
        assert np.log(c4) == pytest.approx(4.0 * np.log(c1))

    def test_gauge_shares_d_with_the_interaction_frame(self):
        # d's phase is the same in both frames, so the map hands over the very array, and
        # write_csv formats its columns once for both files
        p = JcParams(1.02, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.3 + 0.1j, big_omega=5.0)
        traj = integrate(bind_driven_rhs(p, mod, 1, Frame.GAUGED), 0.0, 1.0, 1.0, 0.01)
        assert map_trajectory(traj, p, mod, Frame.INTERACTION).d is traj.d
        assert map_trajectory(traj, p, mod, Frame.LAB).d is not traj.d

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    @pytest.mark.parametrize("n", [1, 3])
    def test_maps_match_hand_written_phases(self, target, n):
        # independent oracle: every lab/interaction/gauged conversion of
        # a detuned (aperiodic) complex-beta run against the phases
        # written out here, with each frame's total phase in one exponent,
        # and back again
        p = JcParams(1.3, 0.8, 0.07)
        mod = ModulationSpec(target=target, beta=0.35 - 0.2j, big_omega=2.9)
        lab = integrate(bind_driven_rhs(p, mod, n, Frame.LAB), 0.6 + 0.2j, 0.5 - 0.1j,
                        12.3, 0.01)
        t = lab.times
        theta_c = (p.omega0 / 2.0 + p.omega * (n - 1)) * t
        theta_d = (n * p.omega - p.omega0 / 2.0) * t
        gamma = (p.omega0 * mod.beta / (2.0 * mod.big_omega) if target is ATOM
                 else n * p.omega * mod.beta / mod.big_omega)
        expected = {
            Frame.LAB: (lab.c, lab.d),
            Frame.INTERACTION: (lab.c * np.exp(1j * theta_c), lab.d * np.exp(1j * theta_d)),
            Frame.GAUGED: (lab.c * np.exp(1j * (theta_c + gamma * np.sin(mod.big_omega * t))),
                           lab.d * np.exp(1j * theta_d)),
        }
        for src in Frame:
            traj = Trajectory(times=t, c=expected[src][0], d=expected[src][1],
                              frame=src, n=n)
            for dst in Frame:
                out = map_trajectory(traj, p, mod, dst)
                c_ref, d_ref = expected[dst]
                scale = np.hypot(np.abs(c_ref), np.abs(d_ref))
                back = map_trajectory(out, p, mod, src)
                assert out.frame is dst and back.frame is src
                assert (np.abs(out.c - c_ref) / scale).max() <= 1e-13, (src, dst)
                assert (np.abs(out.d - d_ref) / scale).max() <= 1e-13, (src, dst)
                scale = np.hypot(np.abs(traj.c), np.abs(traj.d))
                assert (np.abs(back.c - traj.c) / scale).max() <= 1e-13, (src, dst)
                assert (np.abs(back.d - traj.d) / scale).max() <= 1e-13, (src, dst)

    @pytest.mark.parametrize("beta, c", [(1400j, 1e10), (2000j, 0.6 + 0.2j)])
    def test_map_leaving_float64_rejected(self, beta, c):
        # at t = pi/2 the inverse gauge factor is e^{700} (the product
        # overflows) or e^{1000}, which overflows alone
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=beta, big_omega=1.0)
        traj = Trajectory(times=np.array([0.0, math.pi / 2.0]), c=np.array([c, c]),
                          d=np.array([0.5, 0.5], dtype=complex), frame=Frame.GAUGED, n=1)
        with pytest.raises(ValueError, match="finite"):
            map_trajectory(traj, p, mod, Frame.INTERACTION)


class TestRhsLab:
    def test_free_evolution(self):
        p = JcParams(1.4, 0.9, 0.0)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        c, d = 0.8 + 0.1j, 0.2 - 0.4j
        dc, dd = apply_rhs(bind_driven_rhs(p, mod, 3, Frame.LAB), 0.55, c, d)
        assert abs(dc - (-1j * (1.4 / 2.0 + 0.9 * 2.0) * c)) <= 1e-15
        assert abs(dd - (-1j * (3 * 0.9 - 1.4 / 2.0) * d)) <= 1e-15

    def test_resonant_coupled_example(self):
        p = JcParams(1.0, 1.0, 0.1)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        dc, dd = apply_rhs(bind_driven_rhs(p, mod, 1, Frame.LAB), 0.0, 0.0, 1.0)
        assert abs(dc - (-0.1j)) <= 1e-15
        assert abs(dd - (-0.5j)) <= 1e-15

    def test_crest_uses_modulated_frequency(self):
        p = JcParams(1.2, 1.0, 0.0)
        mod = ModulationSpec(target=ATOM, beta=0.25, big_omega=2.0)
        dc, _ = apply_rhs(bind_driven_rhs(p, mod, 1, Frame.LAB), 0.0, 1.0, 0.0)  # cos(0) = 1
        assert abs(dc - (-1j * 1.2 * 1.25 / 2.0)) <= 1e-15

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    def test_matches_hand_built_hamiltonian(self, rng, target):
        p = JcParams(1.1, 0.9, 0.07)
        mod = ModulationSpec(target=target, beta=0.4 - 0.2j, big_omega=1.7)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            s = random_state(rng, n, Frame.LAB)
            t = float(rng.uniform(0, 10))
            dc, dd = apply_rhs(bind_driven_rhs(p, mod, n, Frame.LAB), t, s.c, s.d)
            ref = -1j * (lab_hamiltonian(p, mod, n, t) @ [s.c, s.d])
            assert abs(dc - ref[0]) <= 1e-13
            assert abs(dd - ref[1]) <= 1e-13

    def test_complex_coupling_rejected(self):
        p = JcParams(1.0, 1.0, 0.1j)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        with pytest.raises(ValueError):
            bind_driven_rhs(p, mod, 1, Frame.LAB)


class TestRhsGauged:
    def test_vanishes_when_fully_gauged_away(self):
        p = JcParams(1.0, 1.0, 0.0)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        assert apply_rhs(bind_driven_rhs(p, mod, 1, Frame.GAUGED), 0.9, 0.3, 0.7) == (0.0, 0.0)

    def test_reduces_to_static_at_beta_zero(self, rng):
        p = JcParams(1.0, 1.0, 0.08)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        for _ in range(10):
            s = random_state(rng, 2, Frame.GAUGED)
            gauged = bind_driven_rhs(p, mod, 2, Frame.GAUGED)
            dc_g, dd_g = apply_rhs(gauged, float(rng.uniform(0, 5)), s.c, s.d)
            dc_s, dd_s = apply_rhs(bind_static_rhs(p, 2), 0.0, s.c, s.d)
            assert abs(dc_g - dc_s) <= 1e-15
            assert abs(dd_g - dd_s) <= 1e-15

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    def test_frame_consistency_with_lab(self, rng, target):
        # the module's central self-check: integrate in the lab frame,
        # map the whole trajectory to the gauged frame, and compare with
        # a direct gauged-frame integration
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=target, beta=0.3 + 0.2j, big_omega=2.0)
        n = 2
        period = 2.0 * math.pi / mod.big_omega
        step = period / 400.0
        t1 = 3.0 * period
        lab_traj = integrate(bind_driven_rhs(p, mod, n, Frame.LAB), 0.6 + 0.2j, 0.5 - 0.1j,
                             t1, step)
        mapped = map_trajectory(lab_traj, p, mod, Frame.GAUGED)
        gauged_traj = integrate(bind_driven_rhs(p, mod, n, Frame.GAUGED), mapped.c[0], mapped.d[0],
                                t1, step)
        err = max(np.abs(mapped.c - gauged_traj.c).max(),
                  np.abs(mapped.d - gauged_traj.d).max())
        assert err <= FRAME_CONSISTENCY_TOL


class TestRhsAveraged:
    def test_beta_zero_is_static(self):
        p = JcParams(1.0, 1.0, 0.06)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        avg = bind_averaged_rhs(p, mod, 3)
        static = bind_static_rhs(p, 3)
        assert np.array_equal(avg.matrix(np.array(0.0)), static.matrix(np.array(0.0)))

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_solved_beta_gives_imaginary_coupling(self, target, n):
        # the splitting convention puts the root of J0 = i on z itself
        p = JcParams(1.0, 1.0, 0.05)
        big_omega = 100.0 * abs(p.coupling) * math.sqrt(n)
        beta = solve_modulation_beta(p, target, n, big_omega, "splitting")
        mod = ModulationSpec(target=target, beta=beta, big_omega=big_omega)
        g_eff = averaged_effective_coupling(p, mod, n)
        assert abs(g_eff - 1j * p.coupling.real) <= 1e-12

    def test_gauge_solved_atom_beta_gives_j0_of_twice_the_root(self):
        # the gauge argument is z / 2 for the atom, so its root doubles z
        p = JcParams(1.0, 1.0, 0.05)
        big_omega = 5.0
        beta = solve_modulation_beta(p, ATOM, 1, big_omega, "gauge")
        mod = ModulationSpec(target=ATOM, beta=beta, big_omega=big_omega)
        root = solve_j0_equals(1j).root
        want = p.coupling.real * bessel_j0(2.0 * root)
        assert abs(averaged_effective_coupling(p, mod, 1) - want) <= 1e-12 * abs(want)

    def test_runs_in_gauged_frame(self):
        p = JcParams(1.0, 1.0, 0.06)
        mod = ModulationSpec(target=ATOM, beta=0.8, big_omega=2.0)
        assert bind_averaged_rhs(p, mod, 2).frame is Frame.GAUGED
        assert bind_static_rhs(p, 2).frame is Frame.INTERACTION

    def test_off_resonance_warns(self):
        p = JcParams(1.1, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.2, big_omega=1.0)
        with pytest.warns(OffResonanceWarning):
            bind_averaged_rhs(p, mod, 1)

    def test_matches_static_as_linear_map(self, rng):
        # the averaged rhs is literally the static rhs with g -> g J0
        p = JcParams(1.0, 1.0, 0.06)
        mod = ModulationSpec(target=ATOM, beta=0.8, big_omega=2.0)
        g_eff = averaged_effective_coupling(p, mod, 2)
        p_eff = JcParams(1.0, 1.0, g_eff)
        for _ in range(10):
            s = random_state(rng, 2, Frame.GAUGED)
            t = float(rng.uniform(0, 4))
            assert (apply_rhs(bind_averaged_rhs(p, mod, 2), t, s.c, s.d)
                    == apply_rhs(bind_static_rhs(p_eff, 2), t, s.c, s.d))


class TestStaticAndClosedForm:
    def test_rhs_static_structure(self, rng):
        p = JcParams(1.0, 1.0, 0.1 - 0.04j)
        s = random_state(rng, 4, Frame.INTERACTION)
        dc, dd = apply_rhs(bind_static_rhs(p, 4), 0.0, s.c, s.d)
        kappa = p.coupling * 2.0
        assert abs(dc - (-1j * kappa * s.d)) <= 1e-15
        assert abs(dd - (-1j * kappa * s.c)) <= 1e-15

    def test_closed_form_at_t0(self, rng):
        p = JcParams(1.0, 1.0, 0.2j)
        s = random_state(rng, 2, Frame.INTERACTION)
        c, d = closed_form_amplitudes(p, 2, s.c, s.d, 0.0)
        assert c == s.c and d == s.d

    def test_rabi_oscillation(self):
        p = JcParams(1.0, 1.0, 0.1)
        t = 3.7
        c, d = closed_form_amplitudes(p, 1, 0.0, 1.0, t)
        assert abs(c - (-1j * math.sin(0.1 * t))) <= 1e-15
        assert abs(d - math.cos(0.1 * t)) <= 1e-15

    def test_hyperbolic_growth_for_imaginary_coupling(self):
        p = JcParams(1.0, 1.0, 0.1j)
        t = 2.9
        c, d = closed_form_amplitudes(p, 1, 0.0, 1.0, t)
        assert abs(c - math.sinh(0.1 * t)) <= 1e-14
        assert abs(d - math.cosh(0.1 * t)) <= 1e-14
        assert abs(abs(d) ** 2 - abs(c) ** 2 - 1.0) <= 1e-12

    def test_complex_coupling_matches_complex_trig(self):
        # one formula for any coupling: cos and sin of kappa t = a + ib
        p = JcParams(1.0, 1.0, 0.07 - 0.03j)
        t = np.linspace(0.0, 60.0, 301)
        c, d = closed_form_amplitudes(p, 3, 0.2 - 0.1j, 0.9j, t)
        kt = p.coupling * math.sqrt(3) * t
        ref_c = (0.2 - 0.1j) * np.cos(kt) - 1j * 0.9j * np.sin(kt)
        ref_d = 0.9j * np.cos(kt) - 1j * (0.2 - 0.1j) * np.sin(kt)
        assert np.abs(c - ref_c).max() <= 1e-14 * np.abs(ref_c).max()
        assert np.abs(d - ref_d).max() <= 1e-14 * np.abs(ref_d).max()

    def test_zero_coupling_constant(self, rng):
        p = JcParams(1.0, 1.0, 0.0)
        s = random_state(rng, 1, Frame.INTERACTION)
        c, d = closed_form_amplitudes(p, 1, s.c, s.d, 11.0)
        assert c == s.c and d == s.d

    def test_norm_conserved_real_coupling(self, rng):
        p = JcParams(1.0, 1.0, 0.13)
        s = random_state(rng, 3, Frame.INTERACTION)
        c, d = closed_form_amplitudes(p, 3, s.c, s.d, 5.21)
        n0 = abs(s.c) ** 2 + abs(s.d) ** 2
        n1 = abs(c) ** 2 + abs(d) ** 2
        assert abs(n1 - n0) <= 1e-13 * n0


class TestIntegrate:
    def test_matches_closed_form(self):
        p = JcParams(1.0, 1.0, 0.1)
        rabi = 2.0 * math.pi / 0.1
        step = rabi / 1000.0
        traj = integrate(bind_static_rhs(p, 1), 0.0, 1.0, 10.0 * rabi, step)
        worst = 0.0
        for i in range(0, len(traj), 97):
            ref_c, ref_d = closed_form_amplitudes(p, 1, 0.0, 1.0, float(traj.times[i]))
            worst = max(worst, abs(traj.c[i] - ref_c), abs(traj.d[i] - ref_d))
        assert worst <= CLOSED_FORM_TOL

    def test_fourth_order_convergence(self):
        p = JcParams(1.0, 1.0, 0.1)
        rabi = 2.0 * math.pi / 0.1
        errs = []
        for divisor in (100.0, 200.0):
            traj = integrate(bind_static_rhs(p, 1), 0.0, 1.0, rabi, rabi / divisor)
            ref_c, ref_d = closed_form_amplitudes(p, 1, 0.0, 1.0, float(traj.times[-1]))
            errs.append(max(abs(traj.c[-1] - ref_c), abs(traj.d[-1] - ref_d)))
        order = math.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_zero_rhs_constant_trajectory(self):
        traj = integrate(ZERO_RHS, 0.3 + 0.1j, -0.2j, 1.0, 0.01)
        assert np.all(traj.c == 0.3 + 0.1j)
        assert np.all(traj.d == -0.2j)

    def test_norm_conservation_driven_hermitian(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.5, big_omega=2.0)
        step = (2.0 * math.pi / 2.0) / 400.0
        traj = integrate(bind_driven_rhs(p, mod, 1, Frame.LAB), 0.6, 0.8, 1000.0 * step, step)
        norms = np.abs(traj.c) ** 2 + np.abs(traj.d) ** 2
        assert np.abs(norms - norms[0]).max() <= CONSERVATION_TOL

    def test_pseudo_norm_conservation_imaginary_coupling(self):
        p = JcParams(1.0, 1.0, 0.1j)
        traj = integrate(bind_static_rhs(p, 1), 0.0, 1.0, 10.0, 0.01)
        pseudo = np.abs(traj.c) ** 2 - np.abs(traj.d) ** 2
        assert np.abs(pseudo - pseudo[0]).max() <= CONSERVATION_TOL

    def test_last_sample_is_the_first_step_past_t1(self):
        traj = integrate(ZERO_RHS, 1.0, 0.0, 0.25, 0.1)
        assert traj.times.tolist() == (0.1 * np.arange(4)).tolist()  # 0, 0.1, 0.2, 0.3

    @pytest.mark.parametrize("total, step, count", [
        (62.5, 1 / 256, 16000), (16000 + 1e-10, 1.0, 16000), (16000 - 1e-10, 1.0, 16000),
        (16000 + 2e-9, 1.0, 16001), (2.0, 0.0314159, 64), (1e-12, 1.0, 1)])
    def test_step_count_takes_whole_steps_within_its_slack(self, total, step, count):
        # a ratio within 1e-9 above a whole number counts as whole, in evolve and
        # compare, and any t1 > 0 takes at least one step
        assert dynamics.step_count(total, step) == count

    @pytest.mark.parametrize("t1, step, message", [
        (1.0, 0.0, "step must be"), (1.0, math.nan, "step must be"),
        (-0.5, 0.01, "t1 must be positive"), (0.0, 0.01, "t1 must be positive"),
        (math.nan, 0.01, "t1 must be positive"), (2.0, 1e-320, "not a finite number")])
    def test_invalid_step_rejected(self, t1, step, message):
        # argument errors, not IntegrationError: that one means the run left float64
        with pytest.raises(ValueError, match=message):
            integrate(ZERO_RHS, 0.0, 1.0, t1, step)

    def test_blowup_reports_time(self):
        grow = bind_static_rhs(JcParams(1.0, 1.0, 1e180), 1)
        with pytest.raises(IntegrationError, match="t ="):
            integrate(grow, 1.0, 1.0, 1.0, 0.1)

    def test_blowup_names_the_first_non_finite_sample(self):
        # A = 60 I, h = 0.1: a step multiplies by 1 + 6 + 18 + 36 + 54 = 115, and 115^150
        # is its first power past float64, also as the one step past t1 = 14.99
        grow = BoundRhs(TestBlockedScan.diagonal(60.0, 60.0), Frame.LAB, 1, 0.0, 0.0)
        with pytest.raises(IntegrationError, match=f"t = {150 * 0.1}$"):
            integrate(grow, 1.0, 1.0, 40.0, 0.1)
        with pytest.raises(IntegrationError, match=f"t = {150 * 0.1}$"):
            integrate(grow, 1.0, 1.0, 14.99, 0.1)

    def test_refuses_plain_callable(self):
        with pytest.raises(TypeError, match="BoundRhs"):
            integrate(lambda t, c, d: (0.0, 0.0), 1.0, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("rhs_name", ["static", "lab_atom", "lab_cavity",
                                          "gauged_atom", "gauged_cavity"])
    def test_propagators_match_generic_rk4(self, rhs_name):
        # the vectorized step propagators against the per-state oracle:
        # detuned, complex beta, more than one chunk and a part of one
        p = JcParams(1.1, 0.9, 0.05)
        target = CAVITY if rhs_name.endswith("cavity") else ATOM
        mod = ModulationSpec(target=target, beta=0.4 - 0.15j, big_omega=3.0)
        n = 2
        rhs = {"static": bind_static_rhs(JcParams(1.1, 0.9, 0.05 + 0.02j), n),
               "lab_atom": bind_driven_rhs(p, mod, n, Frame.LAB),
               "lab_cavity": bind_driven_rhs(p, mod, n, Frame.LAB),
               "gauged_atom": bind_driven_rhs(p, mod, n, Frame.GAUGED),
               "gauged_cavity": bind_driven_rhs(p, mod, n, Frame.GAUGED)}[rhs_name]
        h = 0.004
        n_steps = 2 * kernels._CHUNK + 37
        c, d = kernels.rk4_linear(rhs.matrix, 0.6 + 0.2j, 0.5 - 0.1j, h, n_steps)
        c_ref, d_ref = rk4_generic(rhs, 0.6 + 0.2j, 0.5 - 0.1j, h, n_steps)
        assert len(c) == len(c_ref) == n_steps + 1
        scale = np.maximum(np.hypot(np.abs(c_ref), np.abs(d_ref)), 1e-300)
        assert (np.abs(c - c_ref) / scale).max() <= 1e-12
        assert (np.abs(d - d_ref) / scale).max() <= 1e-12

    def test_long_detuned_run_matches_generic_rk4(self):
        # the evolve-detuned shape over 8,192 steps (8 chunks of 16 blocks): the blocked
        # scan's rounding grows with the run (measured 2.9e-14 here, 4.7e-14 at 16,000
        # steps), and must stay far under 1e-12
        p = JcParams(1.0123, 1.0, 0.05)
        mod = ModulationSpec(ATOM, solve_modulation_beta(p, ATOM, 2, 5.0), 5.0)
        rhs = bind_driven_rhs(p, mod, 2, Frame.GAUGED)
        h, n_full = 1.0 / 256.0, 8192
        traj = integrate(rhs, 0.6 + 0.2j, 0.5 - 0.1j, n_full * h, h)
        c_ref, d_ref = rk4_generic(rhs, 0.6 + 0.2j, 0.5 - 0.1j, h, n_full)
        assert len(traj) == n_full + 1
        assert _max_rel_dev(traj, c_ref, d_ref) <= 1e-12


def _max_rel_dev(traj, c_ref, d_ref):
    """Largest per-sample deviation over the oracle's (c, d) norm."""
    scale = np.maximum(np.hypot(np.abs(c_ref), np.abs(d_ref)), 1e-300)
    return max((np.abs(traj.c - c_ref) / scale).max(), (np.abs(traj.d - d_ref) / scale).max())


class TestPeriodicPath:
    """Runs whose step divides a drive period, and those around them, against the oracle."""

    @pytest.mark.parametrize("ratio", [100.0, 200.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("convention", ["gauge", "splitting"])
    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    def test_compare_runs_match_generic_rk4(self, target, convention, n, ratio):
        # the gauged resonant drive of `ptjc compare` at its defaults:
        # 400 steps a period over 2 Rabi units
        p = JcParams(1.0, 1.0, 0.05)
        big_omega = ratio * 0.05 * math.sqrt(n)
        beta = solve_modulation_beta(p, target, n, big_omega, convention)
        rhs = bind_driven_rhs(p, ModulationSpec(target, beta, big_omega), n, Frame.GAUGED)
        h = 2.0 * math.pi / big_omega / 400
        n_steps = math.ceil(2.0 / (0.05 * math.sqrt(n)) / h - 1e-9)
        traj = integrate(rhs, 0.0, 1.0, n_steps * h, h)
        c_ref, d_ref = rk4_generic(rhs, 0.0, 1.0, h, n_steps)
        assert len(traj) == n_steps + 1
        assert _max_rel_dev(traj, c_ref, d_ref) <= 1e-12

    @pytest.mark.parametrize("case", ["lab_atom", "lab_cavity", "detuned_gauged",
                                      "step_not_dividing", "under_one_period", "static",
                                      "averaged"])
    def test_partial_last_period(self, case):
        # lab frame, detuned, complex beta: t1 lies 13.4 steps into the eighth period of
        # 50 steps, so the run ends 14 steps into it.  The rest: the resonant gauged atom
        # at 40 steps a period over 10 time units, or a run beside it (no period, another
        # step, under one period, the static and averaged blocks)
        p, mod = JcParams(1.0, 1.0, 0.05), ModulationSpec(ATOM, 0.3, 2.0)
        rhs, h, t1 = bind_driven_rhs(p, mod, 1, Frame.GAUGED), math.pi / 40, 10.0
        if case.startswith("lab"):
            mod = ModulationSpec(CAVITY if case == "lab_cavity" else ATOM, 0.4 - 0.15j, 2.0)
            rhs, h = bind_driven_rhs(JcParams(1.1, 0.9, 0.05), mod, 2, Frame.LAB), math.pi / 50
            t1 = (7 * 50 + 13.4) * h
        elif case == "detuned_gauged":
            rhs = bind_driven_rhs(JcParams(1.02, 1.0, 0.05), mod, 1, Frame.GAUGED)
        elif case == "step_not_dividing":
            h = math.pi / 40.5
        elif case == "under_one_period":
            t1 = 0.9 * math.pi
        elif case == "static":
            rhs = bind_static_rhs(p, 1)
        elif case == "averaged":
            rhs = bind_averaged_rhs(p, mod, 1)
        traj = integrate(rhs, 0.6 + 0.2j, 0.5 - 0.1j, t1, h)
        c_ref, d_ref = rk4_generic(rhs, 0.6 + 0.2j, 0.5 - 0.1j, h, dynamics.step_count(t1, h))
        assert traj.times[-2] < t1 <= traj.times[-1] and len(traj) == len(c_ref)
        assert not case.startswith("lab") or len(traj) == 7 * 50 + 14 + 1
        assert _max_rel_dev(traj, c_ref, d_ref) <= 1e-12


class TestBlockedScan:
    """kernels: step matrices multiplied by doubling within blocks, states carried between."""

    @staticmethod
    def diagonal(a11, a22):
        """A = diag(a11, a22) at every t; each broadcasts against t (one row a run)."""
        def matrix(t):
            a = np.zeros((4,) + t.shape, dtype=complex)
            a[0], a[3] = a11, a22
            return a

        return matrix

    def test_zero_component_stays_zero_past_an_overflowing_product(self):
        # A = diag(20, -20), h = 0.1: a step multiplies c by 7 and d by 1/3.  The product
        # of all 400 steps would hold 7^400, past float64, and times c = 0 give nan;
        # carried states keep c exactly 0, as the per-step loop did
        split = self.diagonal(20.0, -20.0)
        c, d = kernels.rk4_linear(split, 0.0, 1.0, 0.1, 400)
        assert np.isfinite(c).all() and np.isfinite(d).all()
        assert not c.any()
        c_ref, d_ref = rk4_generic(BoundRhs(split, Frame.LAB, 1, 20.0, 0.0), 0.0, 1.0, 0.1, 400)
        assert not c_ref.any()
        np.testing.assert_allclose(d, d_ref, rtol=1e-12, atol=0.0)

    def test_padding_past_a_run_is_not_read(self):
        # two runs of 10-step periods, A = 60 I and I: the first's 100 steps end near
        # 1.1e206, but its padded states go on growing past float64 up to the second's
        # 400 steps; only the second run's own periods count
        rates = np.array([[60.0], [1.0]])
        grow = self.diagonal(rates, rates)
        p, y = kernels.rk4_period_factors(grow, 1.0, 1.0, [0.1, 0.1], [100, 400], 10)
        assert p.shape == (4, 2, 11) and y.shape == (2, 2, 41)
        assert np.isfinite(y[:, 0, :11]).all() and not np.isfinite(y[:, 0, -1]).any()
        _, y_alone = kernels.rk4_period_factors(self.diagonal(60.0, 60.0), 1.0, 1.0, 0.1,
                                                100, 10)
        assert y[:, 0, :11].tobytes() == y_alone[:, 0].tobytes()

    def test_overflow_names_the_run_and_the_step(self):
        # the second run grows 115-fold a step: its states leave float64 within the 15th
        # period, so Y_15 (step 150) is the first non-finite one
        rates = np.array([[1.0], [60.0]])
        grow = self.diagonal(rates, rates)
        with pytest.raises(FloatingPointError) as info:
            kernels.rk4_period_factors(grow, 1.0, 1.0, [0.1, 0.1], [400, 400], 10)
        assert info.value.args == (150, 1)


def sampled_rate(rhs, big_omega):
    """max |Im a_jj| of ``rhs.matrix`` over one drive period, 20,001 times (test-side
    oracle): the grid holds t = 0 and T / 2, where cos(Omega t) = +-1."""
    a = rhs.matrix(np.linspace(0.0, 2.0 * math.pi / big_omega, 20001))
    return float(np.abs(a[[0, 3]].imag).max())


class TestRk4Stability:
    """check_rk4_stability: h rhs.rate, the closed-form max |Im a_jj|, against 2 sqrt(2)."""

    def test_detuned_gauged_atom(self):
        # off resonance the diagonal a22 = i (omega0 beta / 2) cos(Omega t)
        # still peaks at 1020
        mod = ModulationSpec(ATOM, 2000.0, 5.0)
        rhs = bind_driven_rhs(JcParams(1.02, 1.0, 0.05), mod, 1, Frame.GAUGED)
        period = 2.0 * math.pi / 5.0
        with pytest.raises(ValueError, match=f"{1.02 * math.pi:.6g}, exceeds"):
            check_rk4_stability(rhs, period / 400)
        check_rk4_stability(rhs, period / 480)  # rate 2.67

    @pytest.mark.parametrize("beta", [0.3 + 0.2j, -0.4 + 0.25j, -1.5 - 0.5j])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    @pytest.mark.parametrize("frame", list(Frame))
    def test_closed_form_rate_matches_sampling(self, frame, target, n, beta):
        # Re beta < 0 puts the peak at cos(Omega t) = -1, half a period in
        p = JcParams(1.3, 0.8, 0.07)
        rhs = bind_driven_rhs(p, ModulationSpec(target, beta, 2.9), n, frame)
        assert rhs.rate == pytest.approx(sampled_rate(rhs, 2.9), rel=1e-9, abs=1e-15)

    def test_peak_half_a_period_in_counts(self):
        # the lab atom diagonal peaks at t = pi / Omega for Re beta < 0; the bound holds
        # for all t, so a run that ends before the peak is refused all the same
        p = JcParams(1.0, 1.0, 0.05)
        rhs = bind_driven_rhs(p, ModulationSpec(ATOM, -0.5, 5.0), 1000, Frame.LAB)
        assert rhs.rate == 999.5 + 0.25
        assert sampled_rate(rhs, 5.0) == pytest.approx(rhs.rate, rel=1e-12)
        with pytest.raises(ValueError, match="rate, 2.99925, exceeds"):
            check_rk4_stability(rhs, 0.003)

    def test_lab_and_static_defaults_pass(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(CAVITY, 0.3, 2.0)
        for rhs in (bind_driven_rhs(p, mod, 3, Frame.LAB), bind_static_rhs(p, 3)):
            check_rk4_stability(rhs, suggested_step(mod, rhs))

    def test_non_finite_step_is_left_to_integrate(self):
        rhs = bind_driven_rhs(JcParams(1.0, 1.0, 0.05), ModulationSpec(ATOM, 0.3, 2.0), 1,
                              Frame.LAB)
        check_rk4_stability(rhs, math.inf)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            integrate(rhs, 1.0, 0.0, 1.0, math.inf)


class TestStepAndSerialization:
    def test_suggested_step_picks_fastest_scale(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.1, big_omega=5.0)
        # drive period 2pi/5 is shorter than the Rabi period 2pi/0.05 and the
        # diagonal's 2pi/0.55
        rhs = bind_driven_rhs(p, mod, 1, Frame.LAB)
        assert suggested_step(mod, rhs) == pytest.approx((2.0 * math.pi / 5.0) / 400.0)

    def test_suggested_step_resolves_the_diagonal(self):
        # n = 1000: the lab diagonal turns at 999.55, past Omega = 5; the drive period
        # alone gave h rate = 3.14 > 2 sqrt(2)
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.1, big_omega=5.0)
        rhs = bind_driven_rhs(p, mod, 1000, Frame.LAB)
        step = suggested_step(mod, rhs)
        assert step == pytest.approx(2.0 * math.pi / 999.55 / 400.0)
        assert step * rhs.rate == pytest.approx(2.0 * math.pi / 400.0)

    def test_suggested_step_takes_the_averaged_coupling(self):
        # the averaged atom at the gauge beta couples with g J0(2 r) = 3.06 g, past
        # Omega = 0.1: the coupling, not g, sets the step
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(ATOM, solve_modulation_beta(p, ATOM, 1, 0.1, "gauge"), 0.1)
        rhs = bind_averaged_rhs(p, mod, 1)
        assert rhs.kappa == pytest.approx(0.153, rel=2e-3)
        assert suggested_step(mod, rhs) == 2.0 * math.pi / rhs.kappa / 400

    def test_suggested_step_requires_a_timescale(self):
        p = JcParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            suggested_step(None, bind_static_rhs(p, 1))

    def test_csv_round_trip(self, rng, tmp_path):
        p = JcParams(1.0, 1.0, 0.1j)
        traj = integrate(bind_static_rhs(p, 2), 0.1 + 0.2j, 1.0 - 0.05j, 2.0, 0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.c, traj.c)
        assert np.array_equal(back.d, traj.d)
        assert back.frame is traj.frame
        assert back.n == traj.n

    def test_csv_header_exact(self, tmp_path):
        traj = integrate(ZERO_RHS, 0.0, 1.0, 0.2, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        first = path.read_text().splitlines()[0]
        assert first == "t,re_c,im_c,re_d,im_d,frame,n"

    @pytest.mark.parametrize("second_tags", ["gauged,3", "gauged,1", "lab,3"])
    def test_csv_rejects_mixed_tags(self, tmp_path, second_tags):
        path = tmp_path / "traj.csv"
        path.write_text("t,re_c,im_c,re_d,im_d,frame,n\n"
                        "0.0,1.0,0.0,0.0,0.0,lab,1\n"
                        f"0.1,1.0,0.0,0.0,0.0,{second_tags}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{second_tags}' \\(line 3\\)"):
            read_trajectory_csv(path)

    def test_map_trajectory_round_trip(self, rng):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.3 + 0.1j, big_omega=2.0)
        traj = integrate(bind_driven_rhs(p, mod, 1, Frame.LAB), 0.5, 0.5, 2.0, 0.01)
        there = map_trajectory(traj, p, mod, Frame.GAUGED)
        back = map_trajectory(there, p, mod, Frame.LAB)
        assert np.abs(back.c - traj.c).max() <= 1e-13
        assert np.abs(back.d - traj.d).max() <= 1e-13

    def test_map_to_gauged_needs_modulation(self):
        traj = integrate(ZERO_RHS, 0.5, 0.5, 0.3, 0.1)
        with pytest.raises(ValueError):
            map_trajectory(traj, JcParams(1.0, 1.0, 0.05), None, Frame.GAUGED)


def per_row_trajectory_text(traj):
    """The per-row f-string writer ``write_csv`` replaced: the byte oracle."""
    rows = [TRAJECTORY_CSV_HEADER + "\n"]
    for i in range(len(traj)):
        t, c, d = float(traj.times[i]), complex(traj.c[i]), complex(traj.d[i])
        rows.append(f"{t!r},{c.real!r},{c.imag!r},{d.real!r},{d.imag!r},"
                    f"{traj.frame.value},{traj.n}\n")
    return "".join(rows)


class TestCsvCodec:
    AWKWARD = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 2.0, -1e-300, 0.0, -5e-324]

    def awkward_trajectory(self):
        parts = np.array(self.AWKWARD)
        c = parts.view(complex)
        return Trajectory(times=np.arange(4) * 0.5, c=c, d=c[::-1].copy(),
                          frame=Frame.GAUGED, n=3)

    def test_trajectory_bytes_match_the_per_row_writer(self, tmp_path):
        traj = self.awkward_trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        text = per_row_trajectory_text(traj)
        assert "-0.0,5e-324" in text and "0.30000000000000004" in text
        assert path.read_bytes() == text.encode("utf-8")

    def test_integrated_bytes_match_the_per_row_writer(self, tmp_path):
        traj = integrate(bind_static_rhs(JcParams(1.0, 1.0, 0.1j), 2), 0.1 + 0.2j, 1.0 - 0.05j, 2.05, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        assert path.read_bytes() == per_row_trajectory_text(traj).encode("utf-8")

    def test_read_back_bitwise(self, tmp_path):
        traj = self.awkward_trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        back = read_trajectory_csv(path)
        for got, want in ((back.times, traj.times), (back.c, traj.c), (back.d, traj.d)):
            assert got.tobytes() == want.tobytes()
        assert (back.frame, back.n) == (Frame.GAUGED, 3)

    def test_random_bit_patterns_read_back_bitwise(self, tmp_path):
        bits = np.random.default_rng(20).integers(0, 2**64, size=80000, dtype=np.uint64)
        values = bits.view(float)
        c, d = values[np.isfinite(values)][:64000].view(complex).reshape(2, -1)
        traj = Trajectory(times=np.arange(len(c)) * 0.25, c=c, d=d, frame=Frame.LAB, n=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        back = read_trajectory_csv(path)
        assert back.c.tobytes() == c.tobytes() and back.d.tobytes() == d.tobytes()

    EDGES = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-05,
             0.0001, 0.0001234, 9999999999999998.0, 1e16, float(2**53 - 1), float(2**53 + 1), 1e22,
             1e23, math.inf]

    def test_random_bit_patterns_match_the_per_row_writer(self, tmp_path):
        # 1,000,000 bit patterns in five columns, about 490 of them NaNs of either sign;
        # the edge values and their negatives (and NaNs of both signs) straddle the
        # first pass boundary and fill the first and last rows
        rows = 200000
        bits = np.random.default_rng(25).integers(0, 2**64, size=5 * rows, dtype=np.uint64)
        edges = np.array(self.EDGES + [-v for v in self.EDGES] + [math.nan, -math.nan])
        at = 5 * pass_rows(5) - len(edges) // 2
        bits[at:at + len(edges)] = edges.view(np.uint64)
        bits[:len(edges)] = bits[-len(edges):] = edges.view(np.uint64)
        table = bits.view(float).reshape(rows, 5)
        assert np.signbit(table[np.isnan(table)]).any() and not np.signbit(edges[-2])
        path = tmp_path / "bits.csv"
        dynamics.write_csv("a,b,c,d,e", [(path, table.T, ",x")])
        want = "".join([",".join(map(repr, row)) + ",x\n" for row in table.tolist()])
        assert path.read_bytes() == ("a,b,c,d,e\n" + want).encode("utf-8")

    def test_a_nul_in_the_row_suffix_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="holds a NUL"):
            dynamics.write_csv("x", [(tmp_path / "a.csv", [[1.0]], ",a\0")])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,re_c,im_c,re_d,im_d,frame,n\n\n"
                        "0.0,1.0,0.0,0.0,0.0,lab,1\n   \n"
                        "0.1,1.0,-0.0,0.0,0.0,lab,1\n\n", encoding="utf-8")
        back = read_trajectory_csv(path)
        assert back.times.tolist() == [0.0, 0.1]
        assert math.copysign(1.0, back.c[1].imag) == -1.0

    @pytest.mark.parametrize("row", ["0.1,1.0,0.0,0.0,0.0,lab",
                                     "0.1,1.0,0.0,0.0,0.0,lab,1,9"])
    def test_refuses_rows_of_other_widths(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text("t,re_c,im_c,re_d,im_d,frame,n\n"
                        f"0.0,1.0,0.0,0.0,0.0,lab,1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"malformed trajectory row '{row}'"):
            read_trajectory_csv(path)

    def test_refuses_a_commented_row(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,re_c,im_c,re_d,im_d,frame,n\n"
                        "#0.0,1.0,0.0,0.0,0.0,lab,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="#0.0"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected trajectory header ''"),
        ("t,re_c,im_c,re_d,im_d,frame,n\n\n", "empty trajectory file"),
        ("t,re_c,im_c,re_d,im_d,n,frame\n0.0,1.0,0.0,0.0,0.0,1,lab\n",
         "unexpected trajectory header"),
    ], ids=["no-header", "no-rows", "wrong-header"])
    def test_refuses_empty_and_wrong_header(self, tmp_path, text, message):
        path = tmp_path / "traj.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("rows", pass_boundary_rows(5))
    def test_bytes_match_at_pass_boundaries(self, tmp_path, rows):
        parts = np.resize(np.array(self.AWKWARD), 4 * rows)
        parts[5::3] = np.random.default_rng(rows).standard_normal(len(parts[5::3]))
        c, d = parts.view(complex).reshape(2, rows)
        traj = Trajectory(times=np.arange(rows) * 0.1, c=c, d=d, frame=Frame.INTERACTION, n=12)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        text = per_row_trajectory_text(traj)
        assert text.count("\n") == rows + 1
        assert all(v in text for v in ("-0.0,", "5e-324", "0.30000000000000004"))
        assert path.read_bytes() == text.encode("utf-8")
        back = read_trajectory_csv(path)
        for got, want in ((back.times, traj.times), (back.c, c), (back.d, d)):
            assert got.tobytes() == want.tobytes()

    # the distinct columns of each case: t and the four of c_g, c_i and d, plus the lab
    # frame's own; the one-buffer case's lab c and d are one pair
    LAB_COLUMNS = {"equal-values": 11, "one-buffer": 9, "one-start-two-strides": 11}

    @pytest.mark.parametrize("lab_case,rows", [(case, rows) for case, columns in LAB_COLUMNS.items()
                                               for rows in pass_boundary_rows(columns)])
    def test_shared_columns_match_the_per_row_writer(self, tmp_path, monkeypatch, rows,
                                                     lab_case):
        # gauged and interaction share times and d, as evolve's frames do; the lab
        # columns must not take the text of another column
        parts = np.resize(np.array(self.AWKWARD), 8 * rows)
        parts[5::3] = np.random.default_rng(rows).standard_normal(len(parts[5::3]))
        buffer = parts.view(complex)
        c_g, c_i, d, c_lab = buffer.reshape(4, rows)
        times = np.arange(rows) * 0.1
        if lab_case == "equal-values":  # other memory, the gauged values
            c_lab, d_lab = c_g.copy(), d.copy()
        elif lab_case == "one-buffer":  # re and im of one buffer, each twice
            d_lab = c_lab
        else:  # starts where c_g starts, with twice its stride
            c_lab, d_lab = buffer[:2 * rows:2], c_lab
        trajs = [Trajectory(times=times, c=c, d=dd, frame=frame, n=2)
                 for c, dd, frame in ((c_g, d, Frame.GAUGED), (c_i, d, Frame.INTERACTION),
                                      (c_lab, d_lab, Frame.LAB))]
        paths = [tmp_path / f"{tr.frame.value}.csv" for tr in trajs]
        passes = []
        monkeypatch.setattr(floattext, "float_text",
                            lambda values: passes.append(values.shape) or float_text(values))
        write_trajectory_csv(trajs, paths)
        monkeypatch.undo()
        per = pass_rows(self.LAB_COLUMNS[lab_case])
        assert passes == [(min(per, rows - i), self.LAB_COLUMNS[lab_case])
                          for i in range(0, rows, per)]
        for tr, path in zip(trajs, paths):
            alone = tmp_path / "alone.csv"
            write_trajectory_csv([tr], [alone])
            text = per_row_trajectory_text(tr).encode("utf-8")
            assert path.read_bytes() == text == alone.read_bytes()

    @pytest.mark.parametrize("columns", [1, 2, 5, 9, 11])
    def test_passes_hold_the_float_budget(self, tmp_path, monkeypatch, columns):
        # the pass boundaries the byte tests sit on: a pass holds the most whole rows of
        # the distinct columns that fit in _CSV_PASS_FLOATS
        passes = []
        monkeypatch.setattr(floattext, "float_text",
                            lambda values: passes.append(values.shape) or float_text(values))
        per = pass_rows(columns)
        assert per * columns <= dynamics._CSV_PASS_FLOATS < (per + 1) * columns
        for rows, count in zip(pass_boundary_rows(columns), [1, 1, 1, 2, 3]):
            passes.clear()
            table = np.random.default_rng(rows).standard_normal((columns, rows))
            dynamics.write_csv("x", [(tmp_path / "a.csv", table, "")])
            assert passes == [(min(per, rows - i), columns) for i in range(0, rows, per)]
            assert len(passes) == count

    def test_columns_of_other_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            dynamics.write_csv("x", [(tmp_path / "a.csv", [[1.0]], ""),
                                     (tmp_path / "b.csv", [[1.0, 2.0]], "")])

    def write_rows(self, tmp_path, *rows):
        path = tmp_path / "traj.csv"
        path.write_text("t,re_c,im_c,re_d,im_d,frame,n\n" + "".join(r + "\n" for r in rows),
                        encoding="utf-8")
        return path

    def test_mixed_tags_after_blank_lines_name_the_file_line(self, tmp_path):
        path = self.write_rows(tmp_path, "", "0.0,1.0,0.0,0.0,0.0,lab,1", "  ", "",
                               "0.1,1.0,0.0,0.0,0.0,lab,1", "\t", "0.2,1.0,0.0,0.0,0.0,lab,2")
        with pytest.raises(ValueError, match=r"'0.2,1.0,0.0,0.0,0.0,lab,2' \(line 8\) has "
                                             r"other frame/n tags than the first row's lab,1"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("tags", ["lab\x00,1", "lab,1\x00"])
    def test_tags_differing_by_trailing_nul_are_mixed(self, tmp_path, tags):
        # numpy's byte fields drop trailing NULs; the per-row check does not
        path = self.write_rows(tmp_path, "0.0,1.0,0.0,0.0,0.0,lab,1",
                               f"0.1,1.0,0.0,0.0,0.0,{tags}")
        with pytest.raises(ValueError, match=r"\(line 3\) has other frame/n tags than the "
                                             r"first row's lab,1"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("first, second", [
        ("1" * 29 + "0", "1" * 29 + "1"),  # past both fields, differing at the end
        ("interaction  x", "interaction  y"),  # padded: the first 12 bytes agree
        ("interactionX", "interactionXY"),  # fills the frame field
        ("1234", "12345"),  # fills the n field
        ("1   ", "1   x"),  # trailing blanks, stripped from the text, fill the n field
        ("gauged", "interaction  x"),
    ])
    @pytest.mark.parametrize("column", ["frame", "n"])
    def test_long_tags_are_not_compared_cut(self, tmp_path, first, second, column):
        def row(t, tag):
            return f"{t},1.0,0.0,0.0,0.0," + (f"{tag},1" if column == "frame" else f"lab,{tag}")
        for a, b in ((first, second), (second, first)):
            path = self.write_rows(tmp_path, row(0.0, a), row(0.1, a), row(0.2, b))
            with pytest.raises(ValueError, match=r"\(line 4\) has other frame/n tags"):
                read_trajectory_csv(path)

    def test_long_n_is_read_in_full(self, tmp_path):
        n = int("9" * 30)
        traj = self.awkward_trajectory()
        traj = Trajectory(times=traj.times, c=traj.c, d=traj.d, frame=Frame.LAB, n=n)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([traj], [path])
        back = read_trajectory_csv(path)
        assert back.n == n and back.frame is Frame.LAB
        for got, want in ((back.times, traj.times), (back.c, traj.c), (back.d, traj.d)):
            assert got.tobytes() == want.tobytes()

    def test_reads_any_file_name_as_plain_text(self, tmp_path):
        traj = self.awkward_trajectory()
        path = tmp_path / "traj.csv.gz"  # not gzip: no name-based decompression
        write_trajectory_csv([traj], [path])
        back = read_trajectory_csv(path)
        for got, want in ((back.times, traj.times), (back.c, traj.c), (back.d, traj.d)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frame", ["interaction  x", "gaugedgaugedgauged"])
    def test_long_frame_is_refused_by_name(self, tmp_path, frame):
        path = self.write_rows(tmp_path, f"0.0,1.0,0.0,0.0,0.0,{frame},1",
                               f"0.1,1.0,0.0,0.0,0.0,{frame},1")
        with pytest.raises(ValueError, match=f"'{frame}' is not a valid Frame"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("body", ["", "\n\n   \n"], ids=["header-only", "blank-lines"])
    def test_no_rows_raise_without_a_numpy_warning(self, tmp_path, body):
        path = tmp_path / "traj.csv"
        path.write_text("t,re_c,im_c,re_d,im_d,frame,n\n" + body, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^empty trajectory file$"):
                read_trajectory_csv(path)

    def test_round_trip_memory_stays_bounded(self, tmp_path):
        # 16,001 rows, as one evolve-detuned frame; the bounds keep the codec in passes
        rows = 16001
        parts = np.random.default_rng(7).standard_normal(4 * rows)
        c, d = parts.view(complex).reshape(2, rows)
        traj = Trajectory(times=np.arange(rows) / 256.0, c=c, d=d, frame=Frame.INTERACTION, n=2)
        path = tmp_path / "traj.csv"
        peaks = []
        for call in (lambda: write_trajectory_csv([traj], [path]),
                     lambda: read_trajectory_csv(path)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.0 and peaks[1] <= 1.5, peaks

    def test_lockstep_write_memory_stays_bounded(self, tmp_path):
        # evolve-detuned's three frames: 11 distinct columns of 16,001 rows.  The peak
        # measured 0.62 MiB, one pass of 2,048 floats; text kept for a whole file
        # would take over 10 MiB
        rows = 16001
        parts = np.random.default_rng(7).standard_normal(10 * rows)
        c_g, c_i, d, c_lab, d_lab = parts.view(complex).reshape(5, rows)
        times = np.arange(rows) / 256.0
        trajs = [Trajectory(times=times, c=c, d=dd, frame=frame, n=2)
                 for c, dd, frame in ((c_g, d, Frame.GAUGED), (c_i, d, Frame.INTERACTION),
                                      (c_lab, d_lab, Frame.LAB))]
        paths = [tmp_path / f"{tr.frame.value}.csv" for tr in trajs]
        tracemalloc.start()
        try:
            write_trajectory_csv(trajs, paths)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 1.6, peak
