"""Driven-vs-static comparison experiment and the complex beta condition.

The default pipeline (splitting convention, slow measure, kicked
reference) is held to the stated 5 percent bound by the acceptance
suite.  Here the legacy gauge/printed pipeline is checked against the
closed-form plateau its J0 argument predicts, and the first-order kick
against S(z) = sum over m != 0 of J_m(z) / m computed with SciPy.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv
from conftest import pass_boundary_rows

from ptjc import equivalence, kernels
from ptjc.bessel import bessel_j0, solve_j0_equals
from ptjc.dynamics import (
    ModulationSpec,
    ModulationTarget,
    closed_form_amplitudes,
)
from ptjc.equivalence import (
    COMPARISON_CSV_HEADER,
    ENVELOPE_FLOOR,
    ComparisonReport,
    ExperimentConfig,
    GAUGE_CONVENTION,
    PRINTED_MEASURE,
    SLOW_MEASURE,
    SPLITTING_CONVENTION,
    convergence_sweep,
    kick_sum,
    report_to_json_dict,
    run_equivalence_experiment,
    solve_modulation_beta,
    write_comparison_csv,
)
from ptjc.jc import JcParams

ATOM = ModulationTarget.ATOM_FREQUENCY
CAVITY = ModulationTarget.CAVITY_FREQUENCY

BETA_TOL = 1e-12
SANITY_TOL = 1e-6


def default_params():
    return JcParams(omega0=1.0, omega=1.0, coupling=0.05)


def default_cfg(**overrides):
    base = dict(params=default_params(), target=ATOM, n=1, omega_ratio=100.0,
                duration_rabi_units=2.0, step_per_period=400)
    base.update(overrides)
    return ExperimentConfig(**base)


def static_deviation(coupling, n, start=(0.0, 1.0), samples=2001):
    """Max envelope deviation of the static block with ``coupling`` from
    the i g block, both from ``start``, over 2 Rabi units, in the
    experiment's metric (normalized by max(|i g reference|, floor))."""
    g = default_params().coupling
    kappa = abs(g) * math.sqrt(n)
    got_params = JcParams(1.0, 1.0, coupling)
    ref_params = JcParams(1.0, 1.0, 1j * g)
    worst = 0.0
    for t in np.linspace(0.0, 2.0 / kappa, samples):
        got = closed_form_amplitudes(got_params, n, start[0], start[1], float(t))
        ref = closed_form_amplitudes(ref_params, n, start[0], start[1], float(t))
        for a, b in zip(got, ref):
            worst = max(worst, abs(abs(a) - abs(b)) / max(abs(b), ENVELOPE_FLOOR))
    return worst


def scipy_kick_sum(z):
    # J_m(z) is negligible past |m| = |z| + 2000 on the Bessel domain
    m = np.arange(1, int(abs(z)) + 2000)
    return complex(np.sum((jv(m, z) - jv(-m, z)) / m))


class TestSolveModulationBeta:
    def test_atom_beta_is_minus_root_at_half_drive(self):
        # omega0 = 2 Omega makes -omega0 beta / (2 Omega) = -beta/... = r
        # collapse to beta = -r
        root = solve_j0_equals(1j).root
        beta = solve_modulation_beta(JcParams(2.0, 2.0, 0.05), ATOM, 1, 1.0)
        assert abs(beta - (-root)) <= 1e-14

    def test_cavity_beta_is_minus_root_at_unit_ratio(self):
        root = solve_j0_equals(1j).root
        beta = solve_modulation_beta(JcParams(1.0, 1.0, 0.05), CAVITY, 1, 1.0)
        assert abs(beta - (-root)) <= 1e-14

    def test_cavity_beta_scales_inversely_with_n(self):
        p = default_params()
        b1 = solve_modulation_beta(p, CAVITY, 1, 5.0)
        b4 = solve_modulation_beta(p, CAVITY, 4, 5.0)
        assert abs(b4 - b1 / 4.0) <= 1e-14

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    @pytest.mark.parametrize("convention", [GAUGE_CONVENTION, SPLITTING_CONVENTION])
    def test_condition_residual(self, target, convention):
        p = default_params()
        beta = solve_modulation_beta(p, target, 3, 7.0, convention)
        if convention == GAUGE_CONVENTION:
            if target is ATOM:
                arg = -p.omega0 * beta / (2.0 * 7.0)
            else:
                arg = -3 * p.omega * beta / 7.0
        else:
            if target is ATOM:
                arg = -p.omega0 * beta / 7.0
            else:
                arg = -p.omega * beta / 7.0
        assert abs(bessel_j0(arg) - 1j) <= BETA_TOL

    def test_root_solved_once_per_process(self, monkeypatch):
        calls = []

        def spy(target):
            calls.append(target)
            return solve_j0_equals(target)

        monkeypatch.setattr(equivalence, "solve_j0_equals", spy)
        equivalence._bessel_root.cache_clear()
        convergence_sweep(default_cfg(), [25.0, 50.0, 100.0])
        assert calls == [1j]

    def test_argument_validation(self):
        p = default_params()
        with pytest.raises(ValueError):
            solve_modulation_beta(p, ATOM, 1, 0.0)
        with pytest.raises(ValueError):
            solve_modulation_beta(p, ATOM, 0, 1.0)
        with pytest.raises(ValueError):
            solve_modulation_beta(p, ATOM, 1, 1.0, convention="folklore")


class TestExperimentConfig:
    def test_derived_frequencies(self):
        cfg = default_cfg(n=4, omega_ratio=50.0)
        assert cfg.rabi_frequency() == pytest.approx(0.05 * 2.0)
        assert cfg.drive_frequency() == pytest.approx(50.0 * 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_cfg(omega_ratio=1.0)
        with pytest.raises(ValueError):
            default_cfg(step_per_period=50)
        with pytest.raises(ValueError):
            default_cfg(n=0)

    @pytest.mark.parametrize("k", [101, 401])
    def test_odd_step_per_period_refused(self, k):
        # an odd K has no centre sample in the one-period window
        with pytest.raises(ValueError, match=f"step_per_period must be even.*, got {k}$"):
            default_cfg(step_per_period=k)


class TestPeriodResolvedAverages:
    """The window averages and the static reference come from one period
    of per-phase rows and the period-boundary states.  Here they are held
    against the slow-frame block integrated sample by sample, with the
    printed measure's micromotion phases written out, averaged window by
    window, and against the closed form evaluated at every sample."""

    @staticmethod
    def direct(cfg, beta, measure):
        """(times, driven envelope, reference) built sample by sample."""
        p, n, k = cfg.params, cfg.n, cfg.step_per_period
        big_omega = cfg.drive_frequency()
        dt = 2.0 * math.pi / big_omega / k
        n_steps = math.ceil(cfg.duration_rabi_units / cfg.rabi_frequency() / dt - 1e-9)
        z = (p.omega0 if cfg.target is ATOM else -p.omega) * beta / big_omega
        kappa = p.coupling * math.sqrt(n)

        def slow_block(t):
            a = np.zeros((4,) + t.shape, dtype=complex)
            a[1] = -1j * kappa * np.exp(1j * z * np.sin(big_omega * t))
            a[2] = -1j * kappa * np.exp(-1j * z * np.sin(big_omega * t))
            return a

        c, d = kernels.rk4_linear(slow_block, 0.0, 1.0, 0.0, dt, n_steps, 0.0)
        times = dt * np.arange(n_steps + 1, dtype=float)
        s = np.sin(big_omega * times)
        if measure == PRINTED_MEASURE and cfg.target is ATOM:
            d = d * np.exp(1j * (p.omega0 * beta / (2.0 * big_omega)) * s)
        elif measure == PRINTED_MEASURE:
            c = c * np.exp(1j * (p.omega * beta / big_omega) * s)
            d = d * np.exp(-1j * (n * p.omega * beta / big_omega) * s)
        # one period, trapezoid: the two end samples weighted 1/2, divided by K
        width, weights = (0, [1.0]) if beta == 0 else (k, np.r_[0.5, np.ones(k - 1), 0.5] / k)
        avg = [np.convolve(x, weights, mode="valid") for x in (c, d)]
        times = times[width // 2:len(times) - width // 2]
        kick = p.coupling * math.sqrt(n) / big_omega * kick_sum(z)
        static = JcParams(p.omega0, p.omega, p.coupling if beta == 0 else 1j * p.coupling)
        ref = closed_form_amplitudes(static, n, kick, 1.0, times)
        return times, np.column_stack(avg), np.column_stack(ref)

    CASES = [(target, measure, k, False) for target in (ATOM, CAVITY)
             for measure in (PRINTED_MEASURE, SLOW_MEASURE) for k in (400, 1000)] + [
        (ATOM, SLOW_MEASURE, 400, True), (CAVITY, PRINTED_MEASURE, 1000, True)]

    @pytest.mark.parametrize("target, measure, k, undriven", CASES)
    def test_match_sample_by_sample(self, target, measure, k, undriven):
        cfg = default_cfg(target=target, n=1 if target is ATOM else 2, omega_ratio=25.0,
                          step_per_period=k)
        beta = 0.0 if undriven else solve_modulation_beta(
            cfg.params, target, cfg.n, cfg.drive_frequency(), SPLITTING_CONVENTION)
        report = run_equivalence_experiment(cfg, beta=beta, measure=measure)
        times, avg, ref = self.direct(cfg, beta, measure)
        assert report.times.tobytes() == times.tobytes()
        assert np.abs(report.driven_envelope - avg).max() <= 1e-12 * np.abs(avg).max()
        assert np.abs(report.static_reference - ref).max() <= 1e-13 * np.abs(ref).max()


class TestModuliScoring:
    """max_rel_err_c, max_rel_err_d and rms_err come from the moduli of one
    rank-4 real product per series.  Here they are held against the
    per-sample formula on the expanded (cached) envelopes."""

    @staticmethod
    def per_sample(report):
        env, ref = report.driven_envelope, report.static_reference
        err = np.abs(np.abs(env) - np.abs(ref)) / np.maximum(np.abs(ref), ENVELOPE_FLOOR)
        with np.errstate(over="ignore"):
            return [*err.max(axis=0), math.sqrt(np.mean(err ** 2))]

    @staticmethod
    def scored(report):
        return [report.max_rel_err_c, report.max_rel_err_d, report.rms_err]

    @pytest.mark.parametrize("target", [ATOM, CAVITY])
    @pytest.mark.parametrize("measure", [PRINTED_MEASURE, SLOW_MEASURE])
    def test_solved_beta(self, target, measure):
        # ratio 25 leaves a partial last period (count 2785 = 6 * 400 + 385):
        # its slots past count must not be scored
        cfg = default_cfg(target=target, n=1 if target is ATOM else 2, omega_ratio=25.0)
        report = run_equivalence_experiment(cfg, measure=measure)
        assert report.count == 2785
        np.testing.assert_allclose(self.scored(report), self.per_sample(report), rtol=1e-10)

    @pytest.mark.parametrize("measure", [PRINTED_MEASURE, SLOW_MEASURE])
    def test_undriven_through_exact_zeros(self, measure):
        # beta = 0 at ratio 25: c starts at exactly 0 and d = cos(g t) crosses 0
        # on sample 2500, where a square from the product cancels to rounding
        report = run_equivalence_experiment(default_cfg(omega_ratio=25.0), beta=0.0,
                                            measure=measure)
        assert report.driven_envelope[0, 0] == 0.0
        assert np.abs(report.static_reference[:, 1]).min() < 1e-15
        np.testing.assert_allclose(self.scored(report), self.per_sample(report), rtol=0,
                                   atol=1e-15)

    @pytest.mark.parametrize("target, ratio, beta", [(ATOM, 100.0, 55j), (CAVITY, 100.0, 80j),
                                                     (ATOM, 5.0, 40j)])
    def test_envelopes_past_the_squares_range(self, target, ratio, beta):
        # the envelopes pass 1e160, whose squares leave float64, and stay finite;
        # the squared errors overflow, so rms_err is inf on both sides.  At ratio
        # 5 the run spans under two periods and the window rows carry P_j U_T,
        # about 5e271, against states of 1e133
        cfg = default_cfg(target=target, n=1 if target is ATOM else 2, omega_ratio=ratio)
        report = run_equivalence_experiment(cfg, beta=beta)
        peak = np.abs(report.driven_envelope).max()
        assert 1e160 < peak < np.inf and math.isinf(report.rms_err)
        np.testing.assert_allclose(self.scored(report), self.per_sample(report), rtol=1e-10)

    def test_sweep_expands_no_envelope(self, monkeypatch, tmp_path):
        # the sweep reads max_rel_err only: no per-sample array is expanded, and
        # each ratio runs the experiment through the module global, which a
        # tracer may wrap
        expanded, ratios = [], []
        expand, experiment = kernels.expand_periods, equivalence.run_equivalence_experiment

        def expand_spy(*args):
            expanded.append(args[2])
            return expand(*args)

        def experiment_spy(cfg, **kwargs):
            ratios.append(cfg.omega_ratio)
            return experiment(cfg, **kwargs)

        monkeypatch.setattr(kernels, "expand_periods", expand_spy)
        monkeypatch.setattr(equivalence, "run_equivalence_experiment", experiment_spy)
        convergence_sweep(default_cfg(), [25, 50])
        assert expanded == [] and ratios == [25.0, 50.0]
        # the headline path expands both series when comparison.csv is written
        report = experiment(default_cfg(omega_ratio=25.0))
        assert expanded == []
        path = tmp_path / "comparison.csv"
        write_comparison_csv(report, path)
        assert expanded == [report.count, report.count]
        assert path.read_bytes() == per_row_comparison_text(report).encode("utf-8")


class TestBatchedSweep:
    """A sweep integrates all its ratios in one kernels.rk4_period_factors call."""

    @pytest.mark.parametrize("target, n, convention, measure", [
        (ATOM, 1, SPLITTING_CONVENTION, SLOW_MEASURE),
        (CAVITY, 3, GAUGE_CONVENTION, PRINTED_MEASURE)])
    def test_members_do_not_mix(self, monkeypatch, target, n, convention, measure):
        # each ratio's error is bit for bit the one its run gets alone
        batches = []
        factors = kernels.rk4_period_factors

        def spy(*args):
            batches.append(len(args[4]))
            return factors(*args)

        monkeypatch.setattr(kernels, "rk4_period_factors", spy)
        cfg = default_cfg(target=target, n=n)
        curve = convergence_sweep(cfg, [100.0, 200.0, 400.0], convention=convention,
                                  measure=measure)
        assert batches == [3]
        for ratio, err in curve:
            alone = run_equivalence_experiment(replace(cfg, omega_ratio=ratio),
                                               convention=convention, measure=measure)
            assert err.hex() == alone.max_rel_err.hex()
        assert batches == [3, 1, 1, 1]


class TestExperimentGuards:
    def test_requires_resonance(self):
        cfg = default_cfg(params=JcParams(1.1, 1.0, 0.05))
        with pytest.raises(ValueError):
            run_equivalence_experiment(cfg)

    def test_requires_real_coupling(self):
        cfg = default_cfg(params=JcParams(1.0, 1.0, 0.05j))
        with pytest.raises(ValueError):
            run_equivalence_experiment(cfg)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            run_equivalence_experiment(default_cfg(), measure="hope")

    def test_duration_must_cover_window(self):
        cfg = default_cfg(duration_rabi_units=0.001)
        with pytest.raises(ValueError):
            run_equivalence_experiment(cfg)

    @pytest.mark.parametrize("steps, samples", [(400, 0), (401, 2)])
    def test_exactly_one_drive_period(self, steps, samples):
        # at ratio 100 and K = 400 steps a period, 2 pi / 100 Rabi units are exactly
        # one period: its K steps leave no window average, and one step more gives two
        cfg = default_cfg(duration_rabi_units=2.0 * math.pi / 100.0 * steps / 400.0)
        if not samples:
            with pytest.raises(ValueError, match="duration too short for the averaging window"):
                run_equivalence_experiment(cfg)
        else:
            report = run_equivalence_experiment(cfg)
            assert len(report.times) == samples
            assert report.window_states.shape[1] == 2  # Y_0 and Y_1


class TestSanityPath:
    def test_undriven_run_matches_hermitian_closed_form(self):
        # beta = 0: no averaging, static Hermitian reference; this pins
        # the integrator and the error metric independent of averaging
        report = run_equivalence_experiment(default_cfg(), beta=0.0)
        assert report.beta_used == 0.0
        assert report.max_rel_err <= SANITY_TOL


class TestPrintedPipeline:
    """Legacy gauge convention with the printed measure.

    The gauge argument is half the atom's relative-phase amplitude, so
    its beta gives the averaged coupling g J0(2 r) instead of i g; the
    envelopes then approach the static deviation of that coupling
    (3.8425) as the ratio grows.  For the cavity the argument is n times
    the amplitude, giving g J0(r / n).
    """

    LEGACY = dict(convention=GAUGE_CONVENTION, measure=PRINTED_MEASURE)

    @staticmethod
    def atom_plateau():
        root = solve_j0_equals(1j).root
        return static_deviation(default_params().coupling * bessel_j0(2.0 * root), 1)

    def test_headline_deviation_window(self):
        # measured 4.0365 at ratio 100, against the plateau 3.8425
        plateau = self.atom_plateau()
        report = run_equivalence_experiment(default_cfg(), **self.LEGACY)
        assert plateau < report.max_rel_err <= 1.1 * plateau
        assert report.convention == GAUGE_CONVENTION
        assert report.measure == PRINTED_MEASURE

    def test_sweep_strictly_decreasing_but_saturating(self):
        plateau = self.atom_plateau()
        curve = convergence_sweep(default_cfg(), [25.0, 50.0, 100.0, 200.0],
                                  **self.LEGACY)
        errs = [err for _, err in curve]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # above the plateau and approaching it: measured gaps
        # 1.71 / 0.57 / 0.19 / 0.085
        assert all(err > plateau for err in errs)
        assert errs[3] - plateau < (errs[1] - plateau) / 2.0
        # saturation: no halving from ratio 50 to 200
        assert errs[3] > errs[1] / 2.0

    def test_cavity_deviations(self):
        # n = 1: gauge and splitting arguments coincide, so the coupling
        # is right and what is left is the printed measure's first-order
        # micromotion term, halving per doubling of the ratio (measured
        # 0.2224 / 0.1115); n = 4 sits on the J0(r / 4) plateau 0.9428
        # (measured 0.9485)
        root = solve_j0_equals(1j).root
        r1 = [run_equivalence_experiment(default_cfg(target=CAVITY, n=1,
                                                     omega_ratio=ratio),
                                         **self.LEGACY).max_rel_err
              for ratio in (100.0, 200.0)]
        r4 = run_equivalence_experiment(default_cfg(target=CAVITY, n=4), **self.LEGACY)
        assert 1.8 <= r1[0] / r1[1] <= 2.2
        plateau = static_deviation(default_params().coupling * bessel_j0(root / 4.0), 4)
        assert abs(r4.max_rel_err - plateau) <= 0.05

    def test_sweep_validation(self):
        cfg = default_cfg()
        with pytest.raises(ValueError):
            convergence_sweep(cfg, [])
        with pytest.raises(ValueError):
            convergence_sweep(cfg, [0.5, 2.0])
        with pytest.raises(ValueError):
            convergence_sweep(cfg, [50.0, 50.0])


class TestSplittingSlowPath:
    def test_atom_ratio_100(self):
        # splitting convention for beta, slow measure for the envelopes,
        # kicked reference: measured 0.0009 at ratio 100
        report = run_equivalence_experiment(
            default_cfg(), convention=SPLITTING_CONVENTION, measure=SLOW_MEASURE)
        assert report.max_rel_err_d <= 0.05
        assert report.max_rel_err <= 0.005

    def test_atom_ratio_400_converges(self):
        report = run_equivalence_experiment(
            default_cfg(omega_ratio=400.0), convention=SPLITTING_CONVENTION,
            measure=SLOW_MEASURE)
        assert report.max_rel_err <= 0.06  # measured 0.000058

    @pytest.mark.parametrize("ratio", [25.0, 100.0])
    def test_cavity_error_is_the_same_for_every_n(self, ratio):
        # the slow-frame block sees n only through kappa = g sqrt(n), which
        # the ratio scales out: measured spread 7.1e-13 relative over n, and
        # 0.6 / 0.1 percent off the atom at ratio 25 / 100
        atom = run_equivalence_experiment(default_cfg(omega_ratio=ratio)).max_rel_err
        errs = [run_equivalence_experiment(default_cfg(target=CAVITY, n=n, omega_ratio=ratio)
                                           ).max_rel_err for n in (1, 4, 9, 16, 25)]
        assert max(errs) - min(errs) <= 1e-9 * min(errs)
        assert all(abs(err - atom) <= 0.2 * atom for err in errs)

    def test_slow_measure_beats_printed_at_same_beta(self):
        # for the atom target the micromotion factor multiplies only
        # the d amplitude, so stripping it improves the d comparison
        # (measured 0.0009 vs 0.1253) and leaves the c comparison
        # unchanged
        beta = solve_modulation_beta(default_params(), ATOM, 1,
                                     default_cfg().drive_frequency(),
                                     SPLITTING_CONVENTION)
        printed = run_equivalence_experiment(default_cfg(), beta=beta,
                                             measure=PRINTED_MEASURE)
        slow = run_equivalence_experiment(default_cfg(), beta=beta,
                                          measure=SLOW_MEASURE)
        assert slow.max_rel_err_d < printed.max_rel_err_d
        assert slow.max_rel_err <= printed.max_rel_err


class TestFirstOrderKick:
    """The window averages follow the static i g block from the kicked
    start (c, d) = ((kappa / Omega) S(z), 1); for the headline atom run
    z = -r and kappa / Omega = 1 / ratio."""

    @pytest.mark.parametrize("z", [0.0, -2.14 + 1.42j, 4.3 - 2.8j, 0.7, 12.0 + 0.5j,
                                   16000.0, 650j, -689j])
    def test_kick_sum_matches_scipy(self, z):
        assert abs(kick_sum(z) - scipy_kick_sum(z)) <= 1e-12 * max(1.0, abs(scipy_kick_sum(z)))

    def test_kick_sum_vanishes_without_drive(self):
        assert kick_sum(0.0) == 0.0

    def test_kick_sum_rejects_huge_amplitude(self):
        with pytest.raises(ValueError):
            kick_sum(1e5)

    @pytest.mark.parametrize("ratio", [100.0, 200.0, 400.0])
    def test_unkicked_reference_misses_by_the_kick(self, ratio):
        # on the envelope floor the unkicked closed form from (0, 1)
        # misses c by |S(-r)| / ratio, i.e. 20.64 / ratio in the
        # experiment's metric (measured 0.2054 / 0.1028 / 0.0514)
        report = run_equivalence_experiment(default_cfg(omega_ratio=ratio))
        g = default_params().coupling
        static = JcParams(1.0, 1.0, 1j * g)
        ref = np.column_stack(closed_form_amplitudes(static, 1, 0.0, 1.0, report.times))
        dev = (np.abs(np.abs(report.driven_envelope) - np.abs(ref))
               / np.maximum(np.abs(ref), ENVELOPE_FLOOR))
        root = solve_j0_equals(1j).root
        predicted = abs(scipy_kick_sum(-root)) / (ENVELOPE_FLOOR * ratio)
        assert dev.max() == pytest.approx(predicted, rel=0.05)

    @pytest.mark.parametrize("ratio", [25.0, 100.0, 400.0])
    def test_window_bias_below_the_physics(self, ratio):
        # the trapezoid window is the period mean up to O(dt^2): eight times
        # finer steps move max_rel_err by 1.2e-5 / 7.8e-6 / 9.9e-6 relative
        # (a boxcar over K + 1 samples read 9.80e-4 against 9.08e-4 at ratio 100)
        coarse, fine = (run_equivalence_experiment(default_cfg(omega_ratio=ratio,
                                                               step_per_period=k)).max_rel_err
                        for k in (400, 3200))
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_kicked_residual_is_second_order(self):
        # O(1 / Omega^2): measured 0.0136 -> 0.0036 from ratio 25 to 50
        curve = convergence_sweep(default_cfg(), [25.0, 50.0])
        assert curve[0][1] >= 3.0 * curve[1][1]


class TestOneExcitationReduction:
    def test_n1_drops_the_sqrt_factor_bitwise(self):
        # n = 1 must reduce to the one-excitation model exactly:
        # kappa = g sqrt(1) carries no rounding
        from ptjc.dynamics import bind_averaged_rhs, bind_static_rhs, ModulationSpec

        p = default_params()
        t = np.array(0.0)
        assert bind_static_rhs(p, 1).matrix(t)[1] == -1j * p.coupling
        mod = ModulationSpec(target=ATOM, beta=0.4, big_omega=2.0)
        avg = bind_averaged_rhs(p, mod, 1)
        # g J0(z), z = omega0 beta / Omega
        assert avg.matrix(t)[1] == -1j * (p.coupling.real * bessel_j0(1.0 * 0.4 / 2.0))


class TestReportSerialization:
    def test_json_dict_layout(self):
        report = run_equivalence_experiment(default_cfg(), beta=0.0)
        doc = report_to_json_dict(report)
        assert doc["beta"] == [0.0, 0.0]
        assert set(doc) == {"beta", "max_rel_err", "rms_err", "max_rel_err_c",
                            "max_rel_err_d", "convention", "measure"}
        assert all(isinstance(v, float) for k, v in doc.items()
                   if k not in ("beta", "convention", "measure"))

    def test_csv_layout(self, tmp_path):
        report = run_equivalence_experiment(default_cfg(), beta=0.0)
        path = tmp_path / "cmp.csv"
        write_comparison_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == COMPARISON_CSV_HEADER
        assert len(lines) == 1 + len(report.times)
        row = [float(x) for x in lines[1].split(",")]
        assert len(row) == 9
        assert row[0] == float(report.times[0])

    def test_csv_bytes_match_the_per_row_writer(self, tmp_path):
        report = run_equivalence_experiment(default_cfg(omega_ratio=50.0, step_per_period=100))
        path = tmp_path / "cmp.csv"
        write_comparison_csv(report, path)
        assert path.read_bytes() == per_row_comparison_text(report).encode("utf-8")

    @pytest.mark.parametrize("rows", pass_boundary_rows(9))
    def test_csv_bytes_match_at_pass_boundaries(self, tmp_path, rows):
        # all nine columns, with -0.0, 5e-324 and 0.1 + 0.2 among normal values
        parts = np.random.default_rng(rows).standard_normal(8 * rows)
        parts[:8] = [-0.0, 5e-324, 0.1 + 0.2, 1e300, -5e-324, 0.0, 2.0, -1e-300]
        env, ref = parts.view(complex).reshape(2, rows, 2)
        factors = np.zeros((4, 1), dtype=complex), np.zeros((2, rows), dtype=complex)
        report = ComparisonReport(beta_used=0j, max_rel_err=0.0, rms_err=0.0, max_rel_err_c=0.0,
                                  max_rel_err_d=0.0, dt=0.25, width=0, count=rows,
                                  window_rows=factors[0], window_states=factors[1],
                                  reference_rows=factors[0], reference_states=factors[1])
        # the envelopes are cached properties: set them, as a first read would
        vars(report).update(driven_envelope=env, static_reference=ref)
        assert report.times.tobytes() == (np.arange(rows) * 0.25).tobytes()
        path = tmp_path / "cmp.csv"
        write_comparison_csv(report, path)
        text = per_row_comparison_text(report)
        assert text.count("\n") == rows + 1 and "-0.0,5e-324,0.30000000000000004" in text
        assert path.read_bytes() == text.encode("utf-8")


def per_row_comparison_text(report):
    """The per-row f-string writer ``write_comparison_csv`` replaced: the byte oracle."""
    rows = [COMPARISON_CSV_HEADER + "\n"]
    for i in range(len(report.times)):
        t = float(report.times[i])
        ca, da = (complex(z) for z in report.driven_envelope[i])
        cr, dr = (complex(z) for z in report.static_reference[i])
        rows.append(f"{t!r},{ca.real!r},{ca.imag!r},{da.real!r},{da.imag!r},"
                    f"{cr.real!r},{cr.imag!r},{dr.real!r},{dr.imag!r}\n")
    return "".join(rows)
