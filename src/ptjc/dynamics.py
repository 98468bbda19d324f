"""Amplitude dynamics of the driven two-state blocks in three frames.

Within one excitation block the state is a pair of complex amplitudes
(c, d) multiplying (|n-1,1>, |n,0>).  Three reference frames are used:

* Lab: the raw Schrodinger amplitudes with the full time-dependent
  diagonal.
* Interaction: the static part of the diagonal is absorbed into phases
  exp(+i [omega0/2 + omega (n-1)] t) on c and
  exp(+i [n omega - omega0/2] t) on d.
* Gauged: the oscillating part of c's diagonal is absorbed as well,
  c_gauged = c_int * exp(+i gamma sin(Omega t)) with
  gamma = omega0 beta / 2 Omega for atom-frequency drive and
  n omega beta / Omega for cavity-frequency drive; d is untouched.
  The gauged d equation keeps its oscillating diagonal term; the pair
  of gauged equations and this map are mutually consistent (the
  frame-consistency test in the suite checks exactly that), which pins
  the sign of the exponent.

``frame_factors`` holds these factors, one hop up the ladder at a time;
``map_trajectory`` applies them to whole frame-tagged trajectories.

Integration is classical fixed-step RK4, deterministic, with the final
step shortened to land exactly on the requested end time.  Structured
right-hand sides (built by the bind_* helpers) run on the vectorized
step propagators of ``ptjc.kernels``; arbitrary callables step one
state at a time.  At most MAX_STEPS steps are taken in one call.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .bessel import bessel_j0
from .jc import JcParams

# Relative slack when deciding whether the final partial step exists.
_TAIL_REL_TOL = 1e-12

# Most RK4 steps one integration may take: 10^8 steps hold 3.2 GB of
# (c, d) samples.
MAX_STEPS = 10**8

# Default number of steps per fastest period in suggested_step().
DEFAULT_STEPS_PER_PERIOD = 400

TRAJECTORY_CSV_HEADER = "t,re_c,im_c,re_d,im_d,frame,n"


class FrameMismatchError(TypeError):
    """Raised when a state is used in a frame it is not tagged for."""


class IntegrationError(RuntimeError):
    """Raised when amplitudes stop being finite during integration."""


class OffResonanceWarning(UserWarning):
    """Averaged equations evaluated away from their resonant derivation."""


class ModulationTarget(enum.Enum):
    ATOM_FREQUENCY = "atom"
    CAVITY_FREQUENCY = "cavity"


class Frame(enum.Enum):
    """Reference frames, declared in ladder order: each is one hop above the last."""

    LAB = "lab"
    INTERACTION = "interaction"
    GAUGED = "gauged"


@dataclass(frozen=True)
class ModulationSpec:
    """Which frequency is driven, with what depth and drive frequency."""

    target: ModulationTarget
    beta: complex
    big_omega: float

    def __post_init__(self):
        b = complex(self.beta)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        object.__setattr__(self, "beta", b)
        if not (self.big_omega > 0 and math.isfinite(self.big_omega)):
            raise ValueError(f"big_omega must be positive, got {self.big_omega}")


@dataclass(frozen=True)
class AmplitudeState:
    """Two complex amplitudes in a tagged frame."""

    n: int
    c: complex
    d: complex
    frame: Frame

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("c", "d"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name} must be finite, got {z!r}")
            object.__setattr__(self, name, z)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled amplitude time series in one frame.

    ``times`` advances in steps of ``step`` except possibly the final
    interval, which may be shorter when the integration end time is not
    an integer number of steps away from the start.
    """

    times: np.ndarray
    c: np.ndarray
    d: np.ndarray
    frame: Frame
    n: int
    step: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a non-empty 1-d sequence")
        if len(self.c) != len(t) or len(self.d) != len(t):
            raise ValueError("times, c, d must have equal lengths")
        dt = np.diff(t)
        if len(dt):
            if not np.all(dt > 0):
                raise ValueError("times must be strictly increasing")
            scale = max(abs(t[0]), abs(t[-1]), 1.0)
            if len(dt) > 1 and np.abs(dt[:-1] - self.step).max() > 1e-12 * scale:
                raise ValueError("interior spacing must equal step")
            if dt[-1] > self.step + 1e-12 * scale:
                raise ValueError("final spacing may not exceed step")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class BoundRhs:
    """A structured right-hand side: form code + coefficients + frame.

    Callable as rhs(t, c, d) -> (dc, dd), evaluating the same
    ``kernels.generator`` matrix that integrate() builds its step
    propagators from.
    ``frame`` is None for frame-agnostic systems (static/averaged).
    """

    form: int
    coef: np.ndarray
    frame: Optional[Frame]
    n: int

    def __call__(self, t: float, c: complex, d: complex) -> tuple[complex, complex]:
        a11, a12, a21, a22 = kernels.generator(self.form, self.coef, t).tolist()
        return a11 * c + a12 * d, a21 * c + a22 * d


RhsLike = Union[BoundRhs, Callable[[float, complex, complex], tuple[complex, complex]]]


def _require_real_coupling(params: JcParams, op: str) -> float:
    g = complex(params.coupling)
    if g.imag != 0.0:
        raise ValueError(f"{op} requires real coupling (Hermitian driven model), got {params.coupling!r}")
    return g.real


# ---------------------------------------------------------------------------
# Frame maps


def _gauge_amplitude(params: JcParams, mod: ModulationSpec, n: int) -> complex:
    """gamma of the gauged frame's phase gamma sin(Omega t); complex for complex beta."""
    if mod.target is ModulationTarget.ATOM_FREQUENCY:
        return params.omega0 * mod.beta / (2.0 * mod.big_omega)
    return n * params.omega * mod.beta / mod.big_omega


def frame_factors(params: JcParams, mod: Optional[ModulationSpec], n: int, t,
                  frame: Frame) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(f_c, f_d) taking (c, d) from the frame below ``frame`` into it at times t.

    Interaction (from lab): exp(+i [omega0/2 + omega (n-1)] t) on c and
    exp(+i [n omega - omega0/2] t) on d.  Gauged (from interaction, needs
    ``mod``): exp(+i gamma sin(Omega t)) on c; f_d is None, as the gauge
    leaves d untouched.
    """
    t = np.asarray(t, dtype=float)
    if frame is Frame.INTERACTION:
        return (np.exp(1j * (params.omega0 / 2.0 + params.omega * (n - 1)) * t),
                np.exp(1j * (n * params.omega - params.omega0 / 2.0) * t))
    if frame is Frame.GAUGED:
        return np.exp(1j * (_gauge_amplitude(params, mod, n) * np.sin(mod.big_omega * t))), None
    raise ValueError(f"no frame lies below the {frame.value} frame")


# ---------------------------------------------------------------------------
# Right-hand sides (public one-shot builders over the kernel forms)


def bind_lab_rhs(params: JcParams, mod: ModulationSpec, n: int) -> BoundRhs:
    g = _require_real_coupling(params, "bind_lab_rhs")
    kappa = g * math.sqrt(n)
    form = (kernels.FORM_LAB_ATOM if mod.target is ModulationTarget.ATOM_FREQUENCY
            else kernels.FORM_LAB_CAVITY)
    coef = np.array([params.omega0, params.omega, mod.beta, mod.big_omega,
                     kappa, float(n)], dtype=complex)
    return BoundRhs(form=form, coef=coef, frame=Frame.LAB, n=n)


def bind_gauged_rhs(params: JcParams, mod: ModulationSpec, n: int) -> BoundRhs:
    g = _require_real_coupling(params, "bind_gauged_rhs")
    kappa = g * math.sqrt(n)
    delta = params.detuning()
    gamma = _gauge_amplitude(params, mod, n)
    if mod.target is ModulationTarget.ATOM_FREQUENCY:
        mod_amp = params.omega0 * mod.beta / 2.0
        coef = np.array([delta, gamma, mod_amp, mod.big_omega, kappa], dtype=complex)
        return BoundRhs(form=kernels.FORM_GAUGED_ATOM, coef=coef, frame=Frame.GAUGED, n=n)
    diag_c = -params.omega * mod.beta
    diag_d = n * params.omega * mod.beta
    coef = np.array([delta, gamma, diag_c, diag_d, mod.big_omega, kappa], dtype=complex)
    return BoundRhs(form=kernels.FORM_GAUGED_CAVITY, coef=coef, frame=Frame.GAUGED, n=n)


def bind_static_rhs(params: JcParams, n: int) -> BoundRhs:
    kappa = params.coupling * math.sqrt(n)
    coef = np.array([kappa], dtype=complex)
    return BoundRhs(form=kernels.FORM_STATIC, coef=coef, frame=None, n=n)


def averaged_effective_coupling(params: JcParams, mod: ModulationSpec,
                                n: int) -> complex:
    """g J0(-omega0 beta / 2 Omega) or g J0(-n omega beta / Omega).

    The J0 argument is the amplitude of the phase the gauged frame
    absorbed (the ``gauge`` convention); by evenness of J0 its sign is
    immaterial.  For the atom that is half the amplitude omega0 beta /
    Omega of the relative phase between c and d, which is what sets
    the period-averaged coupling, so with the gauge-solved beta this
    returns g i while the driven block averages to g J0(2 r), r the
    root of J0(r) = i.  For the cavity the argument is n times the
    relative-phase amplitude omega beta / Omega.
    """
    g = _require_real_coupling(params, "averaged_effective_coupling")
    return g * bessel_j0(-_gauge_amplitude(params, mod, n))


def bind_averaged_rhs(params: JcParams, mod: ModulationSpec, n: int) -> BoundRhs:
    if params.detuning() != 0.0:
        warnings.warn(
            "averaged equations are derived at resonance; omega0 != omega here",
            OffResonanceWarning,
            stacklevel=2,
        )
    g_eff = averaged_effective_coupling(params, mod, n)
    coef = np.array([g_eff * math.sqrt(n)], dtype=complex)
    return BoundRhs(form=kernels.FORM_STATIC, coef=coef, frame=Frame.GAUGED, n=n)


def closed_form_static(params: JcParams, n: int, state0: AmplitudeState,
                       t: float) -> AmplitudeState:
    """Exact solution of the static system at time t.

    With kappa = g_s sqrt(n), the propagator is
    [[cos(kappa t), -i sin(kappa t)], [-i sin(kappa t), cos(kappa t)]],
    analytic in kappa: real coupling gives Rabi cosine/sine, imaginary
    coupling gives cosh/sinh growth.
    """
    c, d = closed_form_amplitudes(params, n, state0.c, state0.d, t)
    return AmplitudeState(n=n, c=c, d=d, frame=state0.frame)


def closed_form_amplitudes(params: JcParams, n: int, c0: complex, d0: complex, t):
    """closed_form_static's (c, d) at a time or an array of times."""
    arg = params.coupling * math.sqrt(n) * np.asarray(t, dtype=float)
    cos_a = np.cos(arg)
    sin_a = np.sin(arg)
    return c0 * cos_a - 1j * d0 * sin_a, d0 * cos_a - 1j * c0 * sin_a


def suggested_step(params: JcParams, mod: Optional[ModulationSpec], n: int,
                   steps_per_period: int = DEFAULT_STEPS_PER_PERIOD) -> float:
    """min(drive period, Rabi period) / steps_per_period."""
    kappa = abs(params.coupling) * math.sqrt(n)
    periods = []
    if kappa > 0:
        periods.append(2.0 * math.pi / kappa)
    if mod is not None:
        periods.append(2.0 * math.pi / mod.big_omega)
    if not periods:
        raise ValueError("cannot suggest a step for a system with no timescale")
    return min(periods) / steps_per_period


def step_ratio(total: float, step: float) -> float:
    """total / step, refused with ValueError above the MAX_STEPS budget."""
    ratio = total / step
    if not ratio <= MAX_STEPS:
        raise ValueError(f"{total:g} / {step:g} = {ratio:.3g} RK4 steps exceeds the "
                         f"sample budget of {MAX_STEPS:.0e} steps")
    return ratio


def _split_steps(t0: float, t1: float, step: float) -> tuple[int, float]:
    total = t1 - t0
    n_full = int(math.floor(step_ratio(total, step) + 1e-9))
    tail = total - n_full * step
    if tail <= _TAIL_REL_TOL * max(1.0, abs(total)):
        tail = 0.0
    return n_full, tail


def integrate(rhs: RhsLike, state0: AmplitudeState, t0: float, t1: float,
              step: float) -> Trajectory:
    """Classical fixed-step RK4 from t0 to t1, recording every step.

    ``rhs`` is either a BoundRhs (from the bind_* helpers; integrated
    by ``kernels.rk4_form``) or any callable (t, c, d) -> (dc, dd),
    integrated by ``kernels.rk4_generic``.  The final time is reached
    exactly, via a shortened last step when (t1 - t0) / step is not
    integral.  More than MAX_STEPS steps raise ValueError before any
    allocation.
    """
    if not (math.isfinite(step) and step > 0):
        raise IntegrationError(f"step must be positive and finite, got {step}")
    if not t1 > t0:
        raise IntegrationError(f"t1 must exceed t0, got [{t0}, {t1}]")
    n_full, tail = _split_steps(t0, t1, step)
    if isinstance(rhs, BoundRhs):
        if rhs.frame is not None and state0.frame is not rhs.frame:
            raise FrameMismatchError(
                f"rhs integrates {rhs.frame.value}-frame states, got {state0.frame.value}"
            )
        cs, ds = kernels.rk4_form(rhs.form, rhs.coef, state0.c, state0.d,
                                  t0, step, n_full, tail)
    else:
        cs, ds = kernels.rk4_generic(rhs, state0.c, state0.d, t0, step, n_full, tail)
    bad = ~(np.isfinite(cs.real) & np.isfinite(cs.imag)
            & np.isfinite(ds.real) & np.isfinite(ds.imag))
    if bad.any():
        first = int(np.argmax(bad))
        t_bad = t0 + min(first, n_full) * step if first <= n_full else t1
        raise IntegrationError(f"non-finite amplitudes at t = {t_bad}")
    times = t0 + step * np.arange(n_full + 1, dtype=float)
    if tail > 0.0:
        times = np.concatenate([times, [t1]])
    return Trajectory(times=times, c=cs, d=ds, frame=state0.frame, n=state0.n, step=step)


# ---------------------------------------------------------------------------
# Trajectory serialization


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Plain CSV with the fixed header t,re_c,im_c,re_d,im_d,frame,n."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        frame = traj.frame.value
        for i in range(len(traj)):
            t = float(traj.times[i])
            c = complex(traj.c[i])
            d = complex(traj.d[i])
            fh.write(
                f"{t!r},{c.real!r},{c.imag!r},{d.real!r},{d.imag!r},{frame},{traj.n}\n"
            )


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_CSV_HEADER:
            raise ValueError(f"unexpected trajectory header {header!r}")
        times, cs, ds = [], [], []
        tags = None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"malformed trajectory row {line!r}")
            times.append(float(parts[0]))
            cs.append(complex(float(parts[1]), float(parts[2])))
            ds.append(complex(float(parts[3]), float(parts[4])))
            if tags is None:
                tags = parts[5], parts[6]
            elif (parts[5], parts[6]) != tags:
                raise ValueError(f"trajectory row {line!r} (line {lineno}) has other "
                                 f"frame/n tags than the first row's {','.join(tags)}")
    if not times:
        raise ValueError("empty trajectory file")
    frame, n = Frame(tags[0]), int(tags[1])
    times_arr = np.array(times)
    step = float(times_arr[1] - times_arr[0]) if len(times_arr) > 1 else 1.0
    return Trajectory(times=times_arr, c=np.array(cs), d=np.array(ds),
                      frame=frame, n=n, step=step)


def map_trajectory(traj: Trajectory, params: JcParams,
                   mod: Optional[ModulationSpec], to_frame: Frame) -> Trajectory:
    """Frame conversion of a whole trajectory, one array product per hop.

    Each hop up the ladder multiplies by ``frame_factors``; each hop
    down divides by the same factors.  Conversions touching the gauged
    frame need the modulation spec; a missing spec raises ValueError,
    as do amplitudes that the map takes out of float64.
    """
    if traj.frame is to_frame:
        return traj
    if Frame.GAUGED in (traj.frame, to_frame) and mod is None:
        raise ValueError("gauged-frame conversion requires a modulation spec")
    ladder = list(Frame)
    i_from, i_to = ladder.index(traj.frame), ladder.index(to_frame)
    up = i_to > i_from
    hops = ladder[i_from + 1:i_to + 1] if up else ladder[i_from:i_to:-1]
    c = np.asarray(traj.c, dtype=complex)
    d = np.asarray(traj.d, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for frame in hops:
            f_c, f_d = frame_factors(params, mod, traj.n, traj.times, frame)
            c = c * f_c if up else c / f_c
            if f_d is not None:
                d = d * f_d if up else d / f_d
    if not (np.isfinite(c).all() and np.isfinite(d).all()):
        raise ValueError(f"mapping the {traj.frame.value}-frame trajectory to the "
                         f"{to_frame.value} frame leaves float64 (non-finite amplitudes)")
    return Trajectory(times=traj.times, c=c, d=d, frame=to_frame, n=traj.n, step=traj.step)
