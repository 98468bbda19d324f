"""Driven-versus-static equivalence experiments.

The headline experiment: pick the modulation depth beta so that the
drive-averaged coupling becomes purely imaginary (J0 condition equal to
i), integrate the driven gauged equations, window-average over drive
periods, and compare the envelopes against the closed-form static
evolution with coupling i g.  A convergence sweep in Omega / Omega_R
quantifies how the deviation shrinks as the drive gets faster.

In the slow frame (micromotion stripped from both amplitudes) the
driven block reads

    i c' = kappa exp(+i z sin(Omega t)) d,
    i d' = kappa exp(-i z sin(Omega t)) c,

with kappa = g sqrt(n) and z the amplitude of the relative phase
between c and d: z = omega0 beta / Omega (atom, whose levels carry
+-omega0(t)/2) and z = -omega beta / Omega (cavity, levels (n-1) omega(t)
and n omega(t); independent of n).  Averaged over a period the coupling
is kappa J0(z), so J0(z) = i gives the static i g block.

Two Bessel-argument conventions are provided for the resonance
condition.  ``splitting`` (the default here) solves J0 at the relative-
phase amplitude above.  ``gauge`` uses omega0 beta / (2 Omega) (atom),
half of it, and n omega beta / Omega (cavity), n times it; the solved
beta then gives the coupling g J0(2 r) (atom) or g J0(r / n) (cavity),
r the root of J0(r) = i, and the envelopes approach that static
evolution rather than the i g one.

``measure`` selects which amplitudes get window-averaged: ``slow`` (the
default) averages the slow-frame pair above, ``printed`` averages the
gauged pair (c_gauged, d) as produced, whose boxcar scales each
envelope by |J0| of its leftover micromotion amplitude.

The reference starts from the first-order kicked state (high-frequency
expansion): the window averages follow the static evolution from
c_eff(0) = c0 + (kappa / Omega) S d0, d_eff(0) = d0 - (kappa / Omega) S c0
with S(z) = sum over m != 0 of J_m(z) / m, so the remaining deviation
is O(1 / Omega^2).  S(z) and every J0 value here come from the one
Fourier quadrature of ``ptjc.bessel``; its domain check bounds the
relative-phase amplitude z a run accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bessel import bessel_j0, kick_sum, solve_j0_equals
from .dynamics import (
    AmplitudeState,
    Frame,
    ModulationSpec,
    ModulationTarget,
    Trajectory,
    bind_gauged_rhs,
    closed_form_amplitudes,
    integrate,
    step_ratio,
)
from .jc import JcParams

# Residual demanded of the solved Bessel condition.
BETA_RESIDUAL_TOL = 1e-12

# Floor applied to the static magnitude when normalizing deviations,
# so the sinh reference near t = 0 does not blow the ratio up.
ENVELOPE_FLOOR = 0.1

GAUGE_CONVENTION = "gauge"
SPLITTING_CONVENTION = "splitting"
_CONVENTIONS = (GAUGE_CONVENTION, SPLITTING_CONVENTION)

PRINTED_MEASURE = "printed"
SLOW_MEASURE = "slow"
_MEASURES = (PRINTED_MEASURE, SLOW_MEASURE)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one driven-vs-static comparison.

    omega_ratio is Omega / Omega_R with Omega_R = g sqrt(n); the drive
    frequency itself is derived, never stored.
    """

    params: JcParams
    target: ModulationTarget
    n: int = 1
    omega_ratio: float = 100.0
    duration_rabi_units: float = 2.0
    window_periods: int = 1
    step_per_period: int = 400

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.omega_ratio) and self.omega_ratio > 1):
            raise ValueError(f"omega_ratio must be finite and exceed 1, got {self.omega_ratio!r}")
        if not (math.isfinite(self.duration_rabi_units) and self.duration_rabi_units > 0):
            raise ValueError("duration_rabi_units must be finite and positive, "
                             f"got {self.duration_rabi_units!r}")
        if self.window_periods < 1:
            raise ValueError("window_periods must be >= 1")
        if self.step_per_period < 100:
            raise ValueError("step_per_period must be >= 100")

    def rabi_frequency(self) -> float:
        g = complex(self.params.coupling)
        if g.imag != 0.0:
            raise ValueError("equivalence experiments need real coupling")
        return abs(g.real) * math.sqrt(self.n)

    def drive_frequency(self) -> float:
        return self.omega_ratio * self.rabi_frequency()


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one experiment.

    ``times`` covers only the window-average-valid interior (half a
    window trimmed at each end); ``driven_envelope`` and
    ``static_reference`` are (len(times), 2) complex arrays with
    columns (c, d).
    """

    beta_used: complex
    max_rel_err: float
    rms_err: float
    times: np.ndarray
    driven_envelope: np.ndarray
    static_reference: np.ndarray
    max_rel_err_c: float
    max_rel_err_d: float
    convention: str = SPLITTING_CONVENTION
    measure: str = SLOW_MEASURE
    notes: tuple = field(default_factory=tuple)


def _bessel_root() -> complex:
    res = solve_j0_equals(1j)
    if not res.converged:
        raise ArithmeticError("J0(z) = i root solve did not converge")
    return res.root


def solve_modulation_beta(params: JcParams, target: ModulationTarget, n: int,
                          big_omega: float,
                          convention: str = GAUGE_CONVENTION) -> complex:
    """Modulation depth beta making the averaged coupling imaginary.

    With r the principal root of J0(r) = i, the gauge convention
    returns beta with -omega0 beta / (2 Omega) = r (atom) or
    -n omega beta / Omega = r (cavity); the splitting convention drops
    the factor 2 (atom) and the factor n (cavity).  The residual of
    the defining condition is re-verified before returning.

    Only ``splitting`` puts the root on the amplitude of the relative
    phase between c and d (omega0 beta / Omega, omega beta / Omega),
    which sets the averaged coupling g J0(...).  The ``gauge`` argument
    is half that amplitude for the atom, so its beta yields the
    coupling g J0(2 r); for the cavity it is n times it, giving
    g J0(r / n).
    """
    if big_omega <= 0:
        raise ValueError("big_omega must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    r = _bessel_root()
    if target is ModulationTarget.ATOM_FREQUENCY:
        if convention == GAUGE_CONVENTION:
            beta = -2.0 * big_omega * r / params.omega0
            arg = -params.omega0 * beta / (2.0 * big_omega)
        else:
            beta = -big_omega * r / params.omega0
            arg = -params.omega0 * beta / big_omega
    else:
        if convention == GAUGE_CONVENTION:
            beta = -big_omega * r / (n * params.omega)
            arg = -n * params.omega * beta / big_omega
        else:
            beta = -big_omega * r / params.omega
            arg = -params.omega * beta / big_omega
    residual = abs(bessel_j0(arg) - 1j)
    if residual > BETA_RESIDUAL_TOL:
        raise ArithmeticError(f"beta condition residual {residual:.3e} too large")
    return beta


def _boxcar_interior(values: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average over width+1 samples (width even).

    Output has len(values) - width entries, one per interior center.
    Computed by cumulative sums, so it is exact up to rounding and
    costs O(len); returns complex averages (envelopes are taken later).
    """
    if width % 2 != 0 or width < 2:
        raise ValueError("boxcar width must be even and >= 2")
    if len(values) <= width:
        raise ValueError("trajectory shorter than one averaging window")
    csum = np.concatenate(([0.0 + 0.0j], np.cumsum(values)))
    return (csum[width + 1:] - csum[:-(width + 1)]) / (width + 1)


def _slow_frame_arrays(traj: Trajectory, cfg: ExperimentConfig, beta: complex,
                       big_omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Strip residual micromotion phases from the gauged amplitudes.

    Atom target: c is already slow in the gauged frame; d carries
    exp(-i Gamma sin(Omega t)) with Gamma = omega0 beta / (2 Omega).
    Cavity target: both amplitudes keep micromotion; the slow pair is
    (c exp(-i (omega beta/Omega) sin), d exp(+i (n omega beta/Omega) sin)).
    """
    s = np.sin(big_omega * traj.times)
    if cfg.target is ModulationTarget.ATOM_FREQUENCY:
        gamma = cfg.params.omega0 * beta / (2.0 * big_omega)
        return np.asarray(traj.c), np.asarray(traj.d) * np.exp(-1j * gamma * s)
    unit = cfg.params.omega * beta / big_omega
    c_slow = np.asarray(traj.c) * np.exp(-1j * unit * s)
    d_slow = np.asarray(traj.d) * np.exp(1j * cfg.n * unit * s)
    return c_slow, d_slow


def _relative_phase_amplitude(cfg: ExperimentConfig, beta: complex,
                              big_omega: float) -> complex:
    """z in the slow-frame equations i c' = kappa exp(i z sin(Omega t)) d."""
    if cfg.target is ModulationTarget.ATOM_FREQUENCY:
        return cfg.params.omega0 * beta / big_omega
    return -cfg.params.omega * beta / big_omega


def run_equivalence_experiment(cfg: ExperimentConfig, *,
                               beta: Optional[complex] = None,
                               convention: str = SPLITTING_CONVENTION,
                               measure: str = SLOW_MEASURE) -> ComparisonReport:
    """Drive, average, and compare against the static i g evolution.

    Steps: solve for beta (unless an explicit beta is supplied, e.g.
    beta = 0 for the sanity path), integrate the gauged equations from
    (c, d) = (0, 1), window-average over ``window_periods`` drive
    periods, evaluate the closed-form static solution with coupling
    i g at the surviving interior times, started from the kicked state
    (c, d) = ((kappa / Omega) S(z), 1), and report the maximum and RMS
    relative deviation of the envelopes, each normalized by
    max(|static|, ENVELOPE_FLOOR).
    """
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    params = cfg.params
    if params.detuning() != 0.0:
        raise ValueError("equivalence experiment is defined at resonance omega0 = omega")
    g = complex(params.coupling)
    if g.imag != 0.0:
        raise ValueError("equivalence experiment needs real coupling")
    omega_r = cfg.rabi_frequency()
    big_omega = cfg.drive_frequency()
    if beta is None:
        beta_used = solve_modulation_beta(params, cfg.target, cfg.n, big_omega,
                                          convention)
    else:
        beta_used = complex(beta)
    # first-order kick of the reference start (0, 1); S = 0 without drive
    kick = (g.real * math.sqrt(cfg.n) / big_omega
            * kick_sum(_relative_phase_amplitude(cfg, beta_used, big_omega)))

    drive_period = 2.0 * math.pi / big_omega
    dt = drive_period / cfg.step_per_period
    t1 = cfg.duration_rabi_units / omega_r
    n_steps = int(math.ceil(step_ratio(t1, dt) - 1e-9))
    width = cfg.window_periods * cfg.step_per_period
    if width % 2 != 0:
        width += 1
    if n_steps <= width:
        raise ValueError("duration too short for the averaging window")

    mod = ModulationSpec(target=cfg.target, beta=beta_used, big_omega=big_omega)
    rhs = bind_gauged_rhs(params, mod, cfg.n)
    state0 = AmplitudeState(n=cfg.n, c=0.0, d=1.0, frame=Frame.GAUGED)
    # Integrate to a whole number of steps (slightly past t1) so every
    # sample interval is uniform for the boxcar.
    traj = integrate(rhs, state0, 0.0, n_steps * dt, dt)

    if measure == SLOW_MEASURE:
        c_arr, d_arr = _slow_frame_arrays(traj, cfg, beta_used, big_omega)
    else:
        c_arr, d_arr = np.asarray(traj.c), np.asarray(traj.d)
    if beta_used == 0:
        # Sanity path: no drive means nothing to average away, and the
        # undriven system is the static Hermitian one, so compare the
        # raw trajectory against the real-coupling closed form.
        c_avg, d_avg = c_arr, d_arr
        t_mid = traj.times
        ref_coupling = complex(g.real)
    else:
        c_avg = _boxcar_interior(c_arr, width)
        d_avg = _boxcar_interior(d_arr, width)
        half = width // 2
        t_mid = traj.times[half:len(traj.times) - half]
        ref_coupling = 1j * g.real

    static_params = JcParams(omega0=params.omega0, omega=params.omega,
                             coupling=ref_coupling)
    ref_c, ref_d = closed_form_amplitudes(static_params, cfg.n, kick, 1.0 + 0.0j, t_mid)

    err_c = np.abs(np.abs(c_avg) - np.abs(ref_c)) / np.maximum(np.abs(ref_c), ENVELOPE_FLOOR)
    err_d = np.abs(np.abs(d_avg) - np.abs(ref_d)) / np.maximum(np.abs(ref_d), ENVELOPE_FLOOR)
    max_c = float(err_c.max())
    max_d = float(err_d.max())
    with np.errstate(over="ignore"):  # an inf rms is refused when the report is written
        rms = float(math.sqrt(np.mean(np.concatenate([err_c, err_d]) ** 2)))

    return ComparisonReport(
        beta_used=beta_used,
        max_rel_err=max(max_c, max_d),
        rms_err=rms,
        times=np.asarray(t_mid, dtype=float),
        driven_envelope=np.column_stack([c_avg, d_avg]),
        static_reference=np.column_stack([ref_c, ref_d]),
        max_rel_err_c=max_c,
        max_rel_err_d=max_d,
        convention=convention,
        measure=measure,
    )


def convergence_sweep(base_cfg: ExperimentConfig, ratios: Sequence[float], *,
                      convention: str = SPLITTING_CONVENTION,
                      measure: str = SLOW_MEASURE) -> list[tuple[float, float]]:
    """max_rel_err as a function of omega_ratio; ratios strictly increasing."""
    ratios = list(ratios)
    if not ratios:
        raise ValueError("ratios must be non-empty")
    if any(r <= 1 for r in ratios):
        raise ValueError("all ratios must exceed 1")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ValueError("ratios must be strictly increasing")
    curve = []
    for ratio in ratios:
        cfg = replace(base_cfg, omega_ratio=float(ratio))
        report = run_equivalence_experiment(cfg, convention=convention,
                                            measure=measure)
        curve.append((float(ratio), report.max_rel_err))
    return curve


def report_to_json_dict(report: ComparisonReport) -> dict:
    """The JSON payload for one report (scalars only; series go to CSV)."""
    return {
        "beta": [report.beta_used.real, report.beta_used.imag],
        "max_rel_err": report.max_rel_err,
        "rms_err": report.rms_err,
        "max_rel_err_c": report.max_rel_err_c,
        "max_rel_err_d": report.max_rel_err_d,
        "convention": report.convention,
        "measure": report.measure,
    }


COMPARISON_CSV_HEADER = ("t,re_c_avg,im_c_avg,re_d_avg,im_d_avg,"
                         "re_c_ref,im_c_ref,re_d_ref,im_d_ref")


def write_comparison_csv(report: ComparisonReport, path) -> None:
    """Averaged driven amplitudes next to the static reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(COMPARISON_CSV_HEADER + "\n")
        for i in range(len(report.times)):
            t = float(report.times[i])
            ca = complex(report.driven_envelope[i, 0])
            da = complex(report.driven_envelope[i, 1])
            cr = complex(report.static_reference[i, 0])
            dr = complex(report.static_reference[i, 1])
            fh.write(
                f"{t!r},{ca.real!r},{ca.imag!r},{da.real!r},{da.imag!r},"
                f"{cr.real!r},{cr.imag!r},{dr.real!r},{dr.imag!r}\n"
            )
