"""Driven-versus-static equivalence experiments.

The headline experiment: pick the modulation depth beta so that the
drive-averaged coupling becomes purely imaginary (J0 condition equal to
i), integrate the driven block over one drive period in the slow frame
(micromotion stripped from both amplitudes), where it reads

    i c' = kappa exp(+i z sin(Omega t)) d,
    i d' = kappa exp(-i z sin(Omega t)) c,

average over one drive period with trapezoid weights, and compare the
envelopes against the closed-form static evolution with coupling i g.
Averages and reference are per-phase rows times period-boundary states
(W_r Y_m and E(tau_r) V_m); no per-sample trajectory is built.  The
errors read the moduli |R_r s_m| from one rank-4 real product per
series; the complex envelopes are expanded only when a report's
``driven_envelope`` or ``static_reference`` is read (``comparison.csv``).
A convergence sweep in Omega / Omega_R quantifies how the deviation
shrinks as the drive gets faster.  Its ratios share K steps a period and
differ only in Omega and the step, so one batched
``kernels.rk4_period_factors`` call integrates them all.

Here kappa = g sqrt(n) and z is ``dynamics._relative_phase_amplitude``,
the amplitude of the relative phase between c and d: omega0 beta / Omega
(atom) or -omega beta / Omega (cavity, independent of n).  The block
has no diagonal, so it depends on the target and on n only through
kappa and z, and its RK4 error is the same for every n.  Averaged over
a period the coupling is kappa J0(z), so J0(z) = i gives the static
i g block.

``convention`` picks the Bessel argument of the resonance condition:
``splitting`` (the default here) solves J0 at z, ``gauge`` at another
multiple of beta (``solve_modulation_beta``), whose coupling is not i g.

``measure`` selects which amplitudes get period-averaged: ``slow`` (the
default) averages the slow-frame pair above, ``printed`` the gauged
pair (c_gauged, d), the slow pair times the gauged frame's micromotion
exp(i u sin(Omega t)) with u = (0, z / 2) (atom) or (-z, n z) (cavity);
its period average scales each envelope by |J0(u)|.

The reference starts from the first-order kicked state (high-frequency
expansion): the period averages follow the static evolution from
c_eff(0) = c0 + (kappa / Omega) S d0, d_eff(0) = d0 - (kappa / Omega) S c0
with S(z) = sum over m != 0 of J_m(z) / m, so the remaining deviation
is O(1 / Omega^2).  S(z) and every J0 value here come from the one
Fourier quadrature of ``ptjc.bessel``; its domain check bounds the
relative-phase amplitude z a run accepts.
"""
from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .bessel import bessel_j0, kick_sum, solve_j0_equals
from .dynamics import (
    ModulationSpec,
    ModulationTarget,
    _check_rk4_rate,
    _relative_phase_amplitude,
    closed_form_amplitudes,
    step_count,
    write_csv,
)
from .jc import JcParams

# Residual demanded of the solved Bessel condition.
BETA_RESIDUAL_TOL = 1e-12

# Floor applied to the static magnitude when normalizing deviations,
# so the sinh reference near t = 0 does not blow the ratio up.
ENVELOPE_FLOOR = 0.1

# Below this fraction of its terms, a modulus square is formed directly (see _moduli).
_CANCELLATION_FLOOR = 1e-4

# Bytes one complex series of per-period arrays may take, periods x K x 2 x 16: the
# envelopes comparison.csv expands, and the (periods, 2, K) moduli of the errors.
SERIES_BYTES_MAX = 2**28

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
    frequency itself is derived, never stored.  One drive period of
    step_per_period RK4 steps is the averaging window, so it must be even.
    """

    params: JcParams
    target: ModulationTarget
    n: int = 1
    omega_ratio: float = 100.0
    duration_rabi_units: float = 2.0
    step_per_period: int = 400

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.omega_ratio) and self.omega_ratio > 1):
            raise ValueError(f"omega_ratio must be finite and exceed 1, got {self.omega_ratio!r}")
        if not (math.isfinite(self.duration_rabi_units) and self.duration_rabi_units > 0):
            raise ValueError("duration_rabi_units must be finite and positive, "
                             f"got {self.duration_rabi_units!r}")
        if self.step_per_period < 100 or self.step_per_period % 2:
            raise ValueError("step_per_period must be even and >= 100 (the one-period window "
                             f"needs a centre sample), got {self.step_per_period!r}")

    def rabi_frequency(self) -> float:
        g = complex(self.params.coupling)
        if g.imag != 0.0:
            raise ValueError("equivalence experiments need real coupling")
        return abs(g.real) * math.sqrt(self.n)

    def drive_frequency(self) -> float:
        return self.omega_ratio * self.rabi_frequency()


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one experiment, with the series kept as their period factors.

    Sample s = m K + r (K = ``window_rows.shape[1]``) of the driven
    envelope is ``window_rows[:, r]`` times ``window_states[:, m]``, and of
    the static reference ``reference_rows[:, r]`` times
    ``reference_states[:, m]``, each row a 2x2 by entry (11, 12, 21, 22).
    ``times`` covers only the window-average-valid interior (half a
    window trimmed at each end); ``driven_envelope`` and
    ``static_reference`` are (len(times), 2) complex arrays with
    columns (c, d), each expanded the first time it is read.
    """

    beta_used: complex
    max_rel_err: float
    rms_err: float
    max_rel_err_c: float
    max_rel_err_d: float
    dt: float
    width: int
    count: int
    window_rows: np.ndarray
    window_states: np.ndarray
    reference_rows: np.ndarray
    reference_states: np.ndarray
    convention: str = SPLITTING_CONVENTION
    measure: str = SLOW_MEASURE

    @cached_property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.width // 2, self.width // 2 + self.count, dtype=float)

    @cached_property
    def driven_envelope(self) -> np.ndarray:
        return kernels.expand_periods(self.window_rows, self.window_states, self.count).T

    @cached_property
    def static_reference(self) -> np.ndarray:
        return kernels.expand_periods(self.reference_rows, self.reference_states, self.count).T


@cache
def _bessel_root() -> complex:
    res = solve_j0_equals(1j)
    if not res.converged:
        raise ArithmeticError("J0(z) = i root solve did not converge")
    return res.root


def condition_argument(params: JcParams, target: ModulationTarget, n: int,
                       big_omega: float, beta: complex, convention: str) -> complex:
    """The J0 argument that ``convention`` sets to the root of J0(r) = i.

    Atom: -omega0 beta / (2 Omega) (gauge) or -omega0 beta / Omega.
    Cavity: -n omega beta / Omega (gauge) or -omega beta / Omega.
    """
    gauge = convention == GAUGE_CONVENTION
    if target is ModulationTarget.ATOM_FREQUENCY:
        return -params.omega0 * beta / ((2.0 if gauge else 1.0) * big_omega)
    return -(n if gauge else 1) * params.omega * beta / big_omega


def solve_modulation_beta(params: JcParams, target: ModulationTarget, n: int,
                          big_omega: float,
                          convention: str = GAUGE_CONVENTION) -> complex:
    """Modulation depth beta making the averaged coupling imaginary.

    With r the principal root of J0(r) = i, returns beta with
    ``condition_argument`` = r, re-verifying that residual.

    Only ``splitting`` puts the root on the amplitude of the relative
    phase between c and d (omega0 beta / Omega, omega beta / Omega),
    which sets the averaged coupling g J0(...).  The ``gauge`` argument
    is half that amplitude for the atom, so its beta yields the
    coupling g J0(2 r); for the cavity it is n times it, giving
    g J0(r / n).
    """
    if not (big_omega > 0 and math.isfinite(big_omega)):
        raise ValueError(f"big_omega must be positive and finite, got {big_omega!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    r = _bessel_root()
    gauge = convention == GAUGE_CONVENTION
    if target is ModulationTarget.ATOM_FREQUENCY:
        beta = -(2.0 if gauge else 1.0) * big_omega * r / params.omega0
    else:
        beta = -big_omega * r / ((n if gauge else 1) * params.omega)
    if not cmath.isfinite(beta):
        freq = "omega0" if target is ModulationTarget.ATOM_FREQUENCY else "omega"
        raise ValueError(f"beta = {beta!r} leaves float64: the ratio big_omega / {freq} = "
                         f"{big_omega!r} / {getattr(params, freq)!r} is too large")
    if abs(beta) < sys.float_info.min:  # subnormal: beta has lost digits
        # beta / big_omega = r / condition_argument at beta = big_omega = 1
        unit_arg = abs(condition_argument(params, target, n, 1.0, 1.0, convention))
        raise ValueError(f"beta = {beta!r} is below the smallest normal float64, "
                         f"{sys.float_info.min!r}, in magnitude: big_omega = {big_omega!r} "
                         f"must be at least about {sys.float_info.min * unit_arg / abs(r):.4g}")
    arg = condition_argument(params, target, n, big_omega, beta, convention)
    residual = abs(bessel_j0(arg) - 1j)
    if residual > BETA_RESIDUAL_TOL:
        raise ArithmeticError(f"beta condition residual {residual:.3e} too large")
    return beta


def _slow_block(kappa, z, big_omega):
    """A(t) of i c' = kappa exp(+i z sin(Omega t)) d, i d' = kappa exp(-i z sin(Omega t)) c.

    Each of kappa, z and big_omega may be a (B, 1) column, one run a row of t.
    """
    def matrix(t):
        turn = np.exp(1j * (z * np.sin(big_omega * t)))
        a = np.zeros((4,) + t.shape, dtype=complex)
        a[1] = -1j * kappa * turn
        a[2] = -1j * kappa / turn
        return a

    return matrix


def _moduli(rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|R_r s_m| for rows (4, K) and states (2, P), as (P, 2, K), from one real product.

    |w0 s0 + w1 s1|^2 = F_m . G_r with F = (|s0|^2, |s1|^2, Re s0 s1*, Im s0 s1*)
    and G = (|w0|^2, |w1|^2, 2 Re w0 w1*, -2 Im w0 w1*).  The rows, and each
    state, are divided by their largest modulus before squaring and multiplied
    back after the root, so the squares stay inside float64 wherever the moduli
    do.  A square under _CANCELLATION_FLOOR times its row's |w0|^2 + |w1|^2 (a
    negative one included) has lost its digits to cancellation, and its root
    would keep half of them (1e-8 where an envelope crosses zero): those few
    samples are formed directly as |w0 s0 + w1 s1|^2.
    """
    k = rows.shape[1]
    row_scale = np.abs(rows).max()
    scale = np.abs(states).max(axis=0)
    scale[scale == 0.0] = 1.0  # a state that underflowed to (0, 0)
    s0, s1 = states / scale
    w = (rows / row_scale).reshape(2, 2, k)
    w0, w1 = w[:, 0].reshape(-1), w[:, 1].reshape(-1)
    s01, w01 = s0 * s1.conj(), w0 * w1.conj()
    g = np.array([np.abs(w0) ** 2, np.abs(w1) ** 2, 2.0 * w01.real, -2.0 * w01.imag])
    sq = np.stack([np.abs(s0) ** 2, np.abs(s1) ** 2, s01.real, s01.imag], axis=1) @ g
    m, col = np.divmod(np.flatnonzero(sq < _CANCELLATION_FLOOR * (g[0] + g[1])), 2 * k)
    sq[m, col] = np.abs(w0[col] * s0[m] + w1[col] * s1[m]) ** 2
    np.sqrt(sq, out=sq)
    sq *= (scale * row_scale)[:, None]
    return sq.reshape(-1, 2, k)


# One run's checked slow-frame drive: what its integration and its reference need.
_Drive = namedtuple("_Drive", "beta z kappa big_omega kick dt n_steps")


def _drive(cfg: ExperimentConfig, beta: Optional[complex], convention: str,
           measure: str) -> _Drive:
    """Every check of ``run_equivalence_experiment`` that comes before integrating."""
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    params = cfg.params
    if params.detuning() != 0.0:
        raise ValueError("equivalence experiment is defined at resonance omega0 = omega")
    omega_r = cfg.rabi_frequency()  # refuses complex coupling
    big_omega = cfg.drive_frequency()
    if beta is None:
        beta = solve_modulation_beta(params, cfg.target, cfg.n, big_omega, convention)
    mod = ModulationSpec(target=cfg.target, beta=beta, big_omega=big_omega)  # refuses inf, nan
    # first-order kick of the reference start (0, 1); S = 0 without drive
    z = _relative_phase_amplitude(params, mod)
    kappa = complex(params.coupling).real * math.sqrt(cfg.n)
    kick = kappa / big_omega * kick_sum(z)

    k = cfg.step_per_period
    dt = 2.0 * math.pi / big_omega / k
    t1 = cfg.duration_rabi_units / omega_r
    n_steps = step_count(t1, dt)
    # RK4's limit for the block with the phase z sin(Omega t) split evenly over c and d
    _check_rk4_rate(math.pi * abs(z.real) / k, dt * kappa)
    if n_steps <= k:
        raise ValueError("duration too short for the averaging window")
    periods = n_steps // k + 1
    if periods * k * 2 * 16 > SERIES_BYTES_MAX:
        raise ValueError(f"{periods} periods of {k} steps take {periods * k * 2 * 16} bytes "
                         f"per complex series, past the budget of {SERIES_BYTES_MAX} bytes")
    return _Drive(mod.beta, z, kappa, big_omega, kick, dt, n_steps)


def _past_float64(z: complex, kappa: float, t: float) -> str:
    """Both growths of amplitudes that left float64 by t, as exponents beside the limit's."""
    limit, envelope = np.finfo(float).max, abs((kappa * bessel_j0(z)).imag) * t
    return (f"past the float64 limit {limit:.4g} = exp({math.log(limit):.2f}): |Im z| = "
            f"{abs(z.imag):.6g} grows them up to exp(2 |Im z|) = exp({2 * abs(z.imag):.4g})-fold "
            f"a period, the averaged coupling kappa J0(z) up to exp(|Im(kappa J0(z))| t) = "
            f"exp({envelope:.4g})-fold by t = {t:.6g}")


def _integrate(k: int, drives: Sequence[_Drive]) -> list:
    """Each run's (drive, p, y): its share of one ``kernels.rk4_period_factors`` call.

    The slow-frame blocks start from (0, 1), and sample m k + j is P_j Y_m.  A
    non-finite Y_m raises ValueError naming the first such run's time.
    """
    kappa, z, big_omega = (np.array([[getattr(d, f)] for d in drives])
                           for f in ("kappa", "z", "big_omega"))
    try:
        p, y = kernels.rk4_period_factors(_slow_block(kappa, z, big_omega), 0.0, 1.0,
                                          [d.dt for d in drives], [d.n_steps for d in drives], k)
    except FloatingPointError as exc:
        step, b = exc.args
        d = drives[b]
        raise ValueError(f"non-finite amplitudes at t = {step * d.dt}, "
                         f"{_past_float64(d.z, d.kappa, step * d.dt)}") from None
    return [(d, p[:, b], y[:, b, :d.n_steps // k + 1]) for b, d in enumerate(drives)]


def run_equivalence_experiment(cfg: ExperimentConfig, *,
                               beta: Optional[complex] = None,
                               convention: str = SPLITTING_CONVENTION,
                               measure: str = SLOW_MEASURE,
                               batch: Optional[tuple] = None) -> ComparisonReport:
    """Drive, average, and compare against the static i g evolution.

    Steps: solve for beta (unless an explicit beta is supplied, e.g.
    beta = 0 for the unaveraged sanity path), integrate the slow-frame
    block from (c, d) = (0, 1) to its one-period factors (no per-sample
    trajectory), average over one drive period with trapezoid weights,
    evaluate the closed-form static solution with coupling i g at the
    period centres, started from the kicked state
    (c, d) = ((kappa / Omega) S(z), 1), and report the maximum and RMS
    relative deviation of the envelopes, each normalized by
    max(|static|, ENVELOPE_FLOOR).  A non-finite beta, a real part of z
    too large for RK4 at ``step_per_period``, or a series past
    SERIES_BYTES_MAX, is refused before integrating; a state or window
    row past float64 raises ValueError.

    ``batch`` is how ``convergence_sweep`` hands this run its checked
    drive and its share of one integration of every ratio; without it
    the run integrates alone, as a batch of one.
    """
    if batch is None:
        (batch,) = _integrate(cfg.step_per_period, [_drive(cfg, beta, convention, measure)])
    (beta_used, z, kappa, big_omega, kick, dt, n_steps), p, y = batch
    params, k = cfg.params, cfg.step_per_period
    g = complex(params.coupling).real
    # beta = 0 sanity path: nothing to average away, static Hermitian reference
    width, ref_coupling = (0, complex(g)) if beta_used == 0 else (k, 1j * g)

    # Averaged sample s = m k + r is W_r Y_m: W_r is the trapezoid mean over
    # one period, (a_r / 2 + a_{r+1} + ... + a_{r+k-1} + a_{r+k} / 2) / k, of
    # the per-phase rows a_j (row of P_j; a_{j+k} = a_j U_T), from one cumsum.
    # ``printed`` puts the gauged frame's micromotion back as the factors f_j.
    a = p[:, :k].reshape(2, 2, k)
    if measure == PRINTED_MEASURE:
        atom = cfg.target is ModulationTarget.ATOM_FREQUENCY
        phases = (0.0, z / 2.0) if atom else (-z, cfg.n * z)
        f = np.exp(1j * np.multiply.outer(phases, np.sin(big_omega * (dt * np.arange(k)))))
        a = f[:, None, :] * a
    if width:
        with np.errstate(over="ignore", invalid="ignore"):
            b = np.concatenate([a, (a[:, :, None] * p[:, k].reshape(2, 2, 1)).sum(axis=1)], 2)
            csum = np.cumsum(b, axis=2)
            a = (csum[..., k:] - csum[..., :k] + 0.5 * (b[..., :k] - b[..., k:])) / k
        if not np.isfinite(a).all():
            span = (2 * k - 1) * dt  # of the rows' samples a_0 ... a_{2k-1}
            raise ValueError(f"non-finite window rows, {_past_float64(z, kappa, span)}")
    window = a.reshape(4, k)

    count = n_steps + 1 - width
    periods = -(-count // k)
    # The static reference at t_mid = (m k + r + width / 2) dt is E(tau_r) V_m,
    # V_m the kicked start's closed form at the period boundaries m k dt.
    static_params = JcParams(omega0=params.omega0, omega=params.omega, coupling=ref_coupling)
    cos, msin = closed_form_amplitudes(static_params, cfg.n, 1.0, 0.0,
                                       (np.arange(k) + width / 2) * dt)
    v = np.array(closed_form_amplitudes(static_params, cfg.n, kick, 1.0,
                                        dt * (k * np.arange(y.shape[1]))))
    ref_rows = np.array([cos, msin, msin, cos])

    # Errors from the moduli, in place, as (period, component, phase); samples
    # past count read 0.
    err, ref = _moduli(window, y[:, :periods]), _moduli(ref_rows, v[:, :periods])
    err -= ref
    np.abs(err, out=err)
    err /= np.maximum(ref, ENVELOPE_FLOOR, out=ref)
    err[-1, :, count - (periods - 1) * k:] = 0.0
    max_c, max_d = (float(e) for e in err.max(axis=(0, 2)))
    with np.errstate(over="ignore"):  # an inf rms is refused when the report is written
        rms = float(math.sqrt(np.square(err, out=err).sum() / (2 * count)))

    return ComparisonReport(
        beta_used=beta_used,
        max_rel_err=max(max_c, max_d),
        rms_err=rms,
        max_rel_err_c=max_c,
        max_rel_err_d=max_d,
        dt=dt,
        width=width,
        count=count,
        window_rows=window,
        window_states=y,
        reference_rows=ref_rows,
        reference_states=v,
        convention=convention,
        measure=measure,
    )


def convergence_sweep(base_cfg: ExperimentConfig, ratios: Sequence[float], *,
                      convention: str = SPLITTING_CONVENTION,
                      measure: str = SLOW_MEASURE) -> list[tuple[float, float]]:
    """max_rel_err as a function of omega_ratio; ratios strictly increasing.

    One ``kernels.rk4_period_factors`` call integrates every ratio; each is then
    averaged and scored by ``run_equivalence_experiment``.  A failing ratio raises
    what it would alone, and the first one in ratio order wins.
    """
    ratios = list(ratios)
    if not ratios:
        raise ValueError("ratios must be non-empty")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ValueError("ratios must be strictly increasing")
    cfgs, drives, failure = [], [], None
    for ratio in ratios:  # every ratio's checks before integrating; errors keep ratio order
        try:
            cfgs.append(replace(base_cfg, omega_ratio=float(ratio)))
            drives.append(_drive(cfgs[-1], None, convention, measure))
        except (ValueError, ArithmeticError) as exc:
            failure = exc
            break
    curve = []
    for cfg, share in zip(cfgs, _integrate(base_cfg.step_per_period, drives) if drives else []):
        report = run_equivalence_experiment(cfg, convention=convention, measure=measure,
                                            batch=share)
        curve.append((cfg.omega_ratio, report.max_rel_err))
    if failure is not None:
        raise failure
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
    (ca, da), (cr, dr) = report.driven_envelope.T, report.static_reference.T
    write_csv(COMPARISON_CSV_HEADER, [(path, [report.times, ca.real, ca.imag, da.real, da.imag,
                                              cr.real, cr.imag, dr.real, dr.imag], "")])
