"""Frame maps, amplitude equations of motion, and the RK4 front end."""

import math

import numpy as np
import pytest

from ptjc import kernels
from ptjc.dynamics import (
    AmplitudeState,
    Frame,
    FrameMismatchError,
    IntegrationError,
    ModulationSpec,
    ModulationTarget,
    OffResonanceWarning,
    Trajectory,
    averaged_effective_coupling,
    bind_averaged_rhs,
    bind_gauged_rhs,
    bind_lab_rhs,
    bind_static_rhs,
    closed_form_static,
    frame_factors,
    integrate,
    map_trajectory,
    read_trajectory_csv,
    suggested_step,
    write_trajectory_csv,
)
from ptjc.equivalence import solve_modulation_beta
from ptjc.jc import JcParams

ROUND_TRIP_TOL = 1e-14
FRAME_CONSISTENCY_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8
CONSERVATION_TOL = 1e-10

ATOM = ModulationTarget.ATOM_FREQUENCY
CAVITY = ModulationTarget.CAVITY_FREQUENCY


def lab_hamiltonian(params, mod, n, t):
    """Hand-built instantaneous 2x2 lab Hamiltonian (test-side oracle)."""
    drive = 1.0 + mod.beta * math.cos(mod.big_omega * t)
    omega0_t = params.omega0 * (drive if mod.target is ATOM else 1.0)
    omega_t = params.omega * (drive if mod.target is CAVITY else 1.0)
    off = params.coupling.real * math.sqrt(n)
    return np.array(
        [[omega0_t / 2.0 + omega_t * (n - 1), off],
         [off, n * omega_t - omega0_t / 2.0]], dtype=complex)


def random_state(rng, n, frame):
    c = complex(*rng.standard_normal(2))
    d = complex(*rng.standard_normal(2))
    return AmplitudeState(n=n, c=c, d=d, frame=frame)


class TestTypes:
    def test_modulation_validation(self):
        with pytest.raises(ValueError):
            ModulationSpec(target=ATOM, beta=0.1, big_omega=0.0)
        with pytest.raises(ValueError):
            ModulationSpec(target=ATOM, beta=complex(math.nan, 0), big_omega=1.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            AmplitudeState(n=0, c=0.0, d=1.0, frame=Frame.LAB)
        with pytest.raises(ValueError):
            AmplitudeState(n=1, c=complex(math.inf, 0), d=0.0, frame=Frame.LAB)

    def test_trajectory_requires_uniform_grid(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.1, 0.3]), c=np.zeros(3, complex),
                       d=np.zeros(3, complex), frame=Frame.LAB, n=1, step=0.1)

    def test_trajectory_allows_short_final_interval(self):
        traj = Trajectory(times=np.array([0.0, 0.1, 0.15]), c=np.zeros(3, complex),
                          d=np.zeros(3, complex), frame=Frame.LAB, n=1, step=0.1)
        assert len(traj) == 3


def one_sample(state, t):
    """A single-sample trajectory holding ``state`` at time t."""
    return Trajectory(times=np.array([t]), c=np.array([state.c]), d=np.array([state.d]),
                      frame=state.frame, n=state.n, step=1.0)


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
        s = AmplitudeState(n=1, c=1.0, d=0.5, frame=Frame.INTERACTION)
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
        t = 0.41
        f4, d4 = frame_factors(p, mod, 4, t, Frame.GAUGED)
        f1, d1 = frame_factors(p, mod, 1, t, Frame.GAUGED)
        assert d4 is None and d1 is None  # the gauge leaves d untouched
        assert np.log(f4) == pytest.approx(4.0 * np.log(f1))

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    @pytest.mark.parametrize("n", [1, 3])
    def test_maps_match_hand_written_phases(self, target, n):
        # independent oracle: every lab/interaction/gauged conversion of
        # a detuned (aperiodic) complex-beta run against the phases
        # written out here, with each frame's total phase in one exponent
        p = JcParams(1.3, 0.8, 0.07)
        mod = ModulationSpec(target=target, beta=0.35 - 0.2j, big_omega=2.9)
        s0 = AmplitudeState(n=n, c=0.6 + 0.2j, d=0.5 - 0.1j, frame=Frame.LAB)
        lab = integrate(bind_lab_rhs(p, mod, n), s0, 0.0, 12.3, 0.01)
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
                              frame=src, n=n, step=lab.step)
            for dst in Frame:
                out = map_trajectory(traj, p, mod, dst)
                c_ref, d_ref = expected[dst]
                scale = np.hypot(np.abs(c_ref), np.abs(d_ref))
                assert out.frame is dst
                assert (np.abs(out.c - c_ref) / scale).max() <= 1e-13, (src, dst)
                assert (np.abs(out.d - d_ref) / scale).max() <= 1e-13, (src, dst)

    @pytest.mark.parametrize("beta, c", [(1400j, 1e10), (2000j, 0.6 + 0.2j)])
    def test_map_leaving_float64_rejected(self, beta, c):
        # at t = pi/2 the gauge factor is e^{-700} (the quotient
        # overflows) or e^{-1000}, which underflows to zero
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=beta, big_omega=1.0)
        traj = Trajectory(times=np.array([0.0, math.pi / 2.0]), c=np.array([c, c]),
                          d=np.array([0.5, 0.5], dtype=complex), frame=Frame.GAUGED,
                          n=1, step=math.pi / 2.0)
        with pytest.raises(ValueError, match="finite"):
            map_trajectory(traj, p, mod, Frame.INTERACTION)


class TestRhsLab:
    def test_free_evolution(self):
        p = JcParams(1.4, 0.9, 0.0)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        s = AmplitudeState(n=3, c=0.8 + 0.1j, d=0.2 - 0.4j, frame=Frame.LAB)
        dc, dd = bind_lab_rhs(p, mod, s.n)(0.55, s.c, s.d)
        assert abs(dc - (-1j * (1.4 / 2.0 + 0.9 * 2.0) * s.c)) <= 1e-15
        assert abs(dd - (-1j * (3 * 0.9 - 1.4 / 2.0) * s.d)) <= 1e-15

    def test_resonant_coupled_example(self):
        p = JcParams(1.0, 1.0, 0.1)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        s = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.LAB)
        dc, dd = bind_lab_rhs(p, mod, s.n)(0.0, s.c, s.d)
        assert abs(dc - (-0.1j)) <= 1e-15
        assert abs(dd - (-0.5j)) <= 1e-15

    def test_crest_uses_modulated_frequency(self):
        p = JcParams(1.2, 1.0, 0.0)
        mod = ModulationSpec(target=ATOM, beta=0.25, big_omega=2.0)
        s = AmplitudeState(n=1, c=1.0, d=0.0, frame=Frame.LAB)
        dc, _ = bind_lab_rhs(p, mod, s.n)(0.0, s.c, s.d)  # cos(0) = 1
        assert abs(dc - (-1j * 1.2 * 1.25 / 2.0)) <= 1e-15

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    def test_matches_hand_built_hamiltonian(self, rng, target):
        p = JcParams(1.1, 0.9, 0.07)
        mod = ModulationSpec(target=target, beta=0.4 - 0.2j, big_omega=1.7)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            s = random_state(rng, n, Frame.LAB)
            t = float(rng.uniform(0, 10))
            dc, dd = bind_lab_rhs(p, mod, n)(t, s.c, s.d)
            ref = -1j * (lab_hamiltonian(p, mod, n, t) @ [s.c, s.d])
            assert abs(dc - ref[0]) <= 1e-13
            assert abs(dd - ref[1]) <= 1e-13

    def test_complex_coupling_rejected(self):
        p = JcParams(1.0, 1.0, 0.1j)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        with pytest.raises(ValueError):
            bind_lab_rhs(p, mod, 1)


class TestRhsGauged:
    def test_vanishes_when_fully_gauged_away(self):
        p = JcParams(1.0, 1.0, 0.0)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        s = AmplitudeState(n=1, c=0.3, d=0.7, frame=Frame.GAUGED)
        assert bind_gauged_rhs(p, mod, s.n)(0.9, s.c, s.d) == (0.0, 0.0)

    def test_reduces_to_static_at_beta_zero(self, rng):
        p = JcParams(1.0, 1.0, 0.08)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        for _ in range(10):
            s = random_state(rng, 2, Frame.GAUGED)
            dc_g, dd_g = bind_gauged_rhs(p, mod, 2)(float(rng.uniform(0, 5)), s.c, s.d)
            dc_s, dd_s = bind_static_rhs(p, 2)(0.0, s.c, s.d)
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
        s_lab = AmplitudeState(n=n, c=0.6 + 0.2j, d=0.5 - 0.1j, frame=Frame.LAB)
        lab_traj = integrate(bind_lab_rhs(p, mod, n), s_lab, 0.0, t1, step)
        mapped = map_trajectory(lab_traj, p, mod, Frame.GAUGED)
        s_gauged = AmplitudeState(n=n, c=mapped.c[0], d=mapped.d[0], frame=Frame.GAUGED)
        gauged_traj = integrate(bind_gauged_rhs(p, mod, n), s_gauged, 0.0, t1, step)
        err = max(np.abs(mapped.c - gauged_traj.c).max(),
                  np.abs(mapped.d - gauged_traj.d).max())
        assert err <= FRAME_CONSISTENCY_TOL


class TestRhsAveraged:
    def test_beta_zero_is_static(self):
        p = JcParams(1.0, 1.0, 0.06)
        mod = ModulationSpec(target=ATOM, beta=0.0, big_omega=1.0)
        avg = bind_averaged_rhs(p, mod, 3)
        static = bind_static_rhs(p, 3)
        assert avg.coef[0] == static.coef[0]

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    def test_solved_beta_gives_imaginary_coupling(self, target):
        p = JcParams(1.0, 1.0, 0.05)
        n = 2
        big_omega = 100.0 * abs(p.coupling) * math.sqrt(n)
        beta = solve_modulation_beta(p, target, n, big_omega)
        mod = ModulationSpec(target=target, beta=beta, big_omega=big_omega)
        g_eff = averaged_effective_coupling(p, mod, n)
        assert abs(g_eff - 1j * p.coupling.real) <= 1e-12

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
            assert (bind_averaged_rhs(p, mod, 2)(t, s.c, s.d)
                    == bind_static_rhs(p_eff, 2)(t, s.c, s.d))


class TestStaticAndClosedForm:
    def test_rhs_static_structure(self, rng):
        p = JcParams(1.0, 1.0, 0.1 - 0.04j)
        s = random_state(rng, 4, Frame.INTERACTION)
        dc, dd = bind_static_rhs(p, 4)(0.0, s.c, s.d)
        kappa = p.coupling * 2.0
        assert abs(dc - (-1j * kappa * s.d)) <= 1e-15
        assert abs(dd - (-1j * kappa * s.c)) <= 1e-15

    def test_closed_form_at_t0(self, rng):
        p = JcParams(1.0, 1.0, 0.2j)
        s = random_state(rng, 2, Frame.INTERACTION)
        out = closed_form_static(p, 2, s, 0.0)
        assert out.c == s.c and out.d == s.d

    def test_rabi_oscillation(self):
        p = JcParams(1.0, 1.0, 0.1)
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.INTERACTION)
        t = 3.7
        out = closed_form_static(p, 1, s0, t)
        assert abs(out.c - (-1j * math.sin(0.1 * t))) <= 1e-15
        assert abs(out.d - math.cos(0.1 * t)) <= 1e-15

    def test_hyperbolic_growth_for_imaginary_coupling(self):
        p = JcParams(1.0, 1.0, 0.1j)
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.INTERACTION)
        t = 2.9
        out = closed_form_static(p, 1, s0, t)
        assert abs(out.c - math.sinh(0.1 * t)) <= 1e-14
        assert abs(out.d - math.cosh(0.1 * t)) <= 1e-14
        assert abs(abs(out.d) ** 2 - abs(out.c) ** 2 - 1.0) <= 1e-12

    def test_zero_coupling_constant(self, rng):
        p = JcParams(1.0, 1.0, 0.0)
        s = random_state(rng, 1, Frame.INTERACTION)
        out = closed_form_static(p, 1, s, 11.0)
        assert out.c == s.c and out.d == s.d

    def test_norm_conserved_real_coupling(self, rng):
        p = JcParams(1.0, 1.0, 0.13)
        s = random_state(rng, 3, Frame.INTERACTION)
        out = closed_form_static(p, 3, s, 5.21)
        n0 = abs(s.c) ** 2 + abs(s.d) ** 2
        n1 = abs(out.c) ** 2 + abs(out.d) ** 2
        assert abs(n1 - n0) <= 1e-13 * n0


class TestIntegrate:
    def test_matches_closed_form(self):
        p = JcParams(1.0, 1.0, 0.1)
        rabi = 2.0 * math.pi / 0.1
        step = rabi / 1000.0
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.INTERACTION)
        traj = integrate(bind_static_rhs(p, 1), s0, 0.0, 10.0 * rabi, step)
        worst = 0.0
        for i in range(0, len(traj), 97):
            ref = closed_form_static(p, 1, s0, float(traj.times[i]))
            worst = max(worst, abs(traj.c[i] - ref.c), abs(traj.d[i] - ref.d))
        assert worst <= CLOSED_FORM_TOL

    def test_fourth_order_convergence(self):
        p = JcParams(1.0, 1.0, 0.1)
        rabi = 2.0 * math.pi / 0.1
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.INTERACTION)
        errs = []
        for divisor in (100.0, 200.0):
            traj = integrate(bind_static_rhs(p, 1), s0, 0.0, rabi, rabi / divisor)
            ref = closed_form_static(p, 1, s0, float(traj.times[-1]))
            errs.append(max(abs(traj.c[-1] - ref.c), abs(traj.d[-1] - ref.d)))
        order = math.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_zero_rhs_constant_trajectory(self):
        s0 = AmplitudeState(n=1, c=0.3 + 0.1j, d=-0.2j, frame=Frame.LAB)
        traj = integrate(lambda t, c, d: (0.0, 0.0), s0, 0.0, 1.0, 0.01)
        assert np.all(traj.c == s0.c)
        assert np.all(traj.d == s0.d)

    def test_norm_conservation_driven_hermitian(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.5, big_omega=2.0)
        s0 = AmplitudeState(n=1, c=0.6, d=0.8, frame=Frame.LAB)
        step = (2.0 * math.pi / 2.0) / 400.0
        traj = integrate(bind_lab_rhs(p, mod, 1), s0, 0.0, 1000.0 * step, step)
        norms = np.abs(traj.c) ** 2 + np.abs(traj.d) ** 2
        assert np.abs(norms - norms[0]).max() <= CONSERVATION_TOL

    def test_pseudo_norm_conservation_imaginary_coupling(self):
        p = JcParams(1.0, 1.0, 0.1j)
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.INTERACTION)
        traj = integrate(bind_static_rhs(p, 1), s0, 0.0, 10.0, 0.01)
        pseudo = np.abs(traj.c) ** 2 - np.abs(traj.d) ** 2
        assert np.abs(pseudo - pseudo[0]).max() <= CONSERVATION_TOL

    def test_lands_exactly_on_t1(self):
        s0 = AmplitudeState(n=1, c=1.0, d=0.0, frame=Frame.LAB)
        traj = integrate(lambda t, c, d: (0.0, 0.0), s0, 0.0, 0.25, 0.1)
        assert traj.times[-1] == 0.25
        assert len(traj) == 4  # 0, 0.1, 0.2, 0.25

    def test_frame_guard(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.1, big_omega=1.0)
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.GAUGED)
        with pytest.raises(FrameMismatchError):
            integrate(bind_lab_rhs(p, mod, 1), s0, 0.0, 1.0, 0.01)

    def test_invalid_step_rejected(self):
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.LAB)
        with pytest.raises(IntegrationError):
            integrate(lambda t, c, d: (0.0, 0.0), s0, 0.0, 1.0, 0.0)
        with pytest.raises(IntegrationError):
            integrate(lambda t, c, d: (0.0, 0.0), s0, 1.0, 0.5, 0.01)

    def test_blowup_reports_time(self):
        s0 = AmplitudeState(n=1, c=1.0, d=1.0, frame=Frame.LAB)
        grow = lambda t, c, d: (1e180 * d, 1e180 * c)
        with pytest.raises(IntegrationError, match="t ="):
            integrate(grow, s0, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("rhs_name", ["static", "lab_atom", "lab_cavity",
                                          "gauged_atom", "gauged_cavity"])
    def test_propagators_match_generic_rk4(self, rhs_name):
        # the vectorized step propagators against the per-state oracle:
        # detuned, complex beta, a tail step, more than one chunk
        p = JcParams(1.1, 0.9, 0.05)
        target = CAVITY if rhs_name.endswith("cavity") else ATOM
        mod = ModulationSpec(target=target, beta=0.4 - 0.15j, big_omega=3.0)
        n = 2
        rhs = {"static": bind_static_rhs(JcParams(1.1, 0.9, 0.05 + 0.02j), n),
               "lab_atom": bind_lab_rhs(p, mod, n),
               "lab_cavity": bind_lab_rhs(p, mod, n),
               "gauged_atom": bind_gauged_rhs(p, mod, n),
               "gauged_cavity": bind_gauged_rhs(p, mod, n)}[rhs_name]
        h = 0.004
        n_full = 2 * kernels._CHUNK + 37
        tail = 0.3 * h
        c, d = kernels.rk4_form(rhs.form, rhs.coef, 0.6 + 0.2j, 0.5 - 0.1j,
                                0.25, h, n_full, tail)
        c_ref, d_ref = kernels.rk4_generic(rhs, 0.6 + 0.2j, 0.5 - 0.1j,
                                           0.25, h, n_full, tail)
        assert len(c) == len(c_ref) == n_full + 2
        scale = np.maximum(np.hypot(np.abs(c_ref), np.abs(d_ref)), 1e-300)
        assert (np.abs(c - c_ref) / scale).max() <= 1e-12
        assert (np.abs(d - d_ref) / scale).max() <= 1e-12


class TestStepAndSerialization:
    def test_suggested_step_picks_fastest_scale(self):
        p = JcParams(1.0, 1.0, 0.05)
        mod = ModulationSpec(target=ATOM, beta=0.1, big_omega=5.0)
        # drive period 2pi/5 is shorter than the Rabi period 2pi/0.05
        assert suggested_step(p, mod, 1) == pytest.approx((2.0 * math.pi / 5.0) / 400.0)

    def test_suggested_step_requires_a_timescale(self):
        with pytest.raises(ValueError):
            suggested_step(JcParams(1.0, 1.0, 0.0), None, 1)

    def test_csv_round_trip(self, rng, tmp_path):
        p = JcParams(1.0, 1.0, 0.1j)
        s0 = AmplitudeState(n=2, c=0.1 + 0.2j, d=1.0 - 0.05j, frame=Frame.INTERACTION)
        traj = integrate(bind_static_rhs(p, 2), s0, 0.0, 2.0, 0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.c, traj.c)
        assert np.array_equal(back.d, traj.d)
        assert back.frame is traj.frame
        assert back.n == traj.n

    def test_csv_header_exact(self, tmp_path):
        s0 = AmplitudeState(n=1, c=0.0, d=1.0, frame=Frame.LAB)
        traj = integrate(lambda t, c, d: (0.0, 0.0), s0, 0.0, 0.2, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
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
        s0 = AmplitudeState(n=1, c=0.5, d=0.5, frame=Frame.LAB)
        traj = integrate(bind_lab_rhs(p, mod, 1), s0, 0.0, 2.0, 0.01)
        there = map_trajectory(traj, p, mod, Frame.GAUGED)
        back = map_trajectory(there, p, mod, Frame.LAB)
        assert np.abs(back.c - traj.c).max() <= 1e-13
        assert np.abs(back.d - traj.d).max() <= 1e-13

    def test_map_to_gauged_needs_modulation(self):
        s0 = AmplitudeState(n=1, c=0.5, d=0.5, frame=Frame.LAB)
        traj = integrate(lambda t, c, d: (0.0, 0.0), s0, 0.0, 0.3, 0.1)
        with pytest.raises(ValueError):
            map_trajectory(traj, JcParams(1.0, 1.0, 0.05), None, Frame.GAUGED)
