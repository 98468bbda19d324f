"""Amplitude dynamics of the driven two-state blocks in three frames.

Within one excitation block the state is a pair of complex amplitudes
(c, d) multiplying (|n-1,1>, |n,0>).  A frame multiplies each level's
lab amplitude by exp(+i [r_j t + (v_j / Omega) sin(Omega t)]), and
``_frame_phases`` says with what: nothing in the lab frame, the static
level energies in the interaction frame, and in the gauged frame those
plus gamma sin(Omega t) on c, gamma = omega0 beta / 2 Omega for
atom-frequency drive and n omega beta / Omega for cavity-frequency
drive.  From these phases ``bind_driven_rhs`` writes the driven block
in any frame and ``map_trajectory`` multiplies each level once by its
change of phase; the frame-consistency test in the suite checks the
two against each other.

Each bind_* helper returns a ``BoundRhs``, the one owner of a run's
linear (c, d)' = A(t) (c, d), block index n, frame (the static rhs runs
in the interaction frame), largest diagonal rate and coupling modulus.
``integrate`` tags its trajectory with the rhs's n and frame.  Its
fixed-step RK4 is ``ptjc.kernels.rk4_linear`` for every rhs (blocked
prefix products, no per-step loop): whole steps from t = 0, as many as
``step_count`` gives, so the last sample lies in [t1, t1 + step).

``_relative_phase_amplitude`` is the package's one z, the amplitude of
the relative phase z sin(Omega t) between c and d: the averaged rhs
couples with g J0(z); ``ptjc.equivalence`` drives its slow-frame block.

``write_csv`` is the package's one CSV formatter, of one or more files in
lockstep passes of _CSV_PASS_FLOATS floats.  Its float text is
``ptjc.floattext``'s: the bytes of ``repr``, from one NumPy kernel over
each pass's distinct columns, none formatted on its own.
``np.loadtxt`` reads a trajectory back.
"""
from __future__ import annotations

import contextlib
import enum
import math
import mmap
import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import floattext, kernels
from .bessel import bessel_j0
from .jc import JcParams

# Steps per fastest period of the step suggested_step() picks.
DEFAULT_STEPS_PER_PERIOD = 400

TRAJECTORY_CSV_HEADER = "t,re_c,im_c,re_d,im_d,frame,n"
# One read_trajectory_csv row; the Trajectory keeps these records, so the tag fields are narrow.
_TRAJECTORY_ROW = np.dtype([("t", float), ("cd", float, (4,)), ("frame", "S12"), ("n", "S4")])

# Floats write_csv formats per pass, summed over distinct columns: bounds the arrays alive.
# At 3,072 the kernel's temporaries outgrew what malloc keeps between passes, and every
# pass faulted in fresh pages.
_CSV_PASS_FLOATS = 2048


class IntegrationError(RuntimeError):
    """Raised when amplitudes stop being finite during integration."""


class OffResonanceWarning(UserWarning):
    """Averaged equations evaluated away from their resonant derivation."""


class ModulationTarget(enum.Enum):
    ATOM_FREQUENCY = "atom"
    CAVITY_FREQUENCY = "cavity"


class Frame(enum.Enum):
    """Reference frames; ``_frame_phases`` defines each."""

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
            raise ValueError(f"big_omega must be positive and finite, got {self.big_omega!r}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled amplitude time series in one frame: ``times`` advances in
    steps of its first interval."""

    times: np.ndarray
    c: np.ndarray
    d: np.ndarray
    frame: Frame
    n: int

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
            off = np.abs(dt - dt[0]) > 1e-12 * max(abs(t[0]), abs(t[-1]), 1.0)
            if off.any():
                i = int(np.argmax(off))
                raise ValueError(f"times must be uniformly spaced: interval {i} is "
                                 f"{float(dt[i])!r}, the first {float(dt[0])!r}")

    def __len__(self) -> int:
        return len(self.times)


def _require_block(n: int) -> int:
    """n, or ValueError unless it is a block index n >= 1."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return n


@dataclass(frozen=True)
class BoundRhs:
    """(c, d)' = A(t) (c, d) of block n >= 1 in ``frame``.

    ``matrix(t)`` gives A's entries (a11, a12, a21, a22) at an array of
    times, shape (4,) + t.shape.  A run's n and frame live here only:
    ``integrate`` tags its trajectory with them.  ``rate`` is
    max |Im a_jj| over all t and ``kappa`` the coupling's modulus
    |a12 a21|^(1/2), which ``check_rk4_stability`` bounds together.
    """

    matrix: Callable[[np.ndarray], np.ndarray]
    frame: Frame
    n: int
    rate: float
    kappa: float

    def __post_init__(self):
        _require_block(self.n)


def _require_real_coupling(params: JcParams, op: str) -> float:
    g = complex(params.coupling)
    if g.imag != 0.0:
        raise ValueError(f"{op} requires real coupling (Hermitian driven model), got {params.coupling!r}")
    return g.real


# ---------------------------------------------------------------------------
# Frames and right-hand sides


def _relative_phase_amplitude(params: JcParams, mod: ModulationSpec) -> complex:
    """z of the relative phase z sin(Omega t) between c and d; independent of n.

    omega0 beta / Omega for the atom, whose levels carry +-omega0(t)/2;
    -omega beta / Omega for the cavity, levels (n-1) omega(t) and n omega(t).
    """
    if mod.target is ModulationTarget.ATOM_FREQUENCY:
        return params.omega0 * mod.beta / mod.big_omega
    return -params.omega * mod.beta / mod.big_omega


def _frame_phases(params: JcParams, mod: Optional[ModulationSpec], n: int, frame: Frame):
    """The one definition of each frame: ((r_c, r_d), (v_c, v_d), delta).

    Level j's amplitude in ``frame`` is its lab amplitude times
    exp(+i [r_j t + (v_j / Omega) sin(Omega t)]); the coupling turns at
    delta = r_c - r_d, the detuning taken as ``params.detuning()`` so
    that resonance is exact.  Lab: no phase.  Interaction: the static
    level energies.  Gauged (needs ``mod``): the interaction phases plus
    gamma sin(Omega t) on c, v_c = gamma Omega = omega0 beta / 2 (atom)
    or n omega beta (cavity).
    """
    if frame is Frame.LAB:
        return (0.0, 0.0), (0.0, 0.0), 0.0
    rates = (params.omega0 / 2.0 + params.omega * (n - 1), n * params.omega - params.omega0 / 2.0)
    if frame is Frame.INTERACTION:
        return rates, (0.0, 0.0), params.detuning()
    if mod is None:
        raise ValueError("gauged-frame conversion requires a modulation spec")
    atom = mod.target is ModulationTarget.ATOM_FREQUENCY
    v_c = (params.omega0 / 2.0 if atom else n * params.omega) * mod.beta
    return rates, (v_c, 0.0), params.detuning()


def bind_driven_rhs(params: JcParams, mod: ModulationSpec, n: int, frame: Frame) -> BoundRhs:
    """The driven block in ``frame``, from its ``_frame_phases``.

    Level j's lab energy E_j + w_j beta cos(Omega t) less the frame's rate gives the
    diagonal -i [(E_j - r_j) + (w_j beta - v_j) cos(Omega t)]: w = (omega0/2, -omega0/2)
    for the atom, (omega (n-1), n omega) for the cavity.  The coupling is
    -i kappa exp(+-i [delta t + ((v_c - v_d) / Omega) sin(Omega t)]).
    """
    g = _require_real_coupling(params, "bind_driven_rhs")
    kappa = g * math.sqrt(_require_block(n))
    levels = _frame_phases(params, mod, n, Frame.INTERACTION)[0]
    rates, waves, delta = _frame_phases(params, mod, n, frame)
    weights = ((params.omega0 / 2.0, -params.omega0 / 2.0)
               if mod.target is ModulationTarget.ATOM_FREQUENCY
               else (params.omega * (n - 1), n * params.omega))
    # (-i (E_j - r_j), -i (w_j beta - v_j)) of each level, folded once
    diag = [(-1j * (e - r), -1j * (w * mod.beta - v))
            for e, r, w, v in zip(levels, rates, weights, waves)]
    rel = (waves[0] - waves[1]) / mod.big_omega

    def matrix(t):
        wt = mod.big_omega * t
        cosw = np.cos(wt)
        a = np.empty((4,) + t.shape, dtype=complex)
        a[0], a[3] = (c + b * cosw for c, b in diag)
        kick = 1j * (delta * t) + 1j * (rel * np.sin(wt))
        a[1] = -1j * kappa * np.exp(kick)
        a[2] = -1j * kappa * np.exp(-kick)
        return a

    rate = max(abs(c.imag) + abs(b.imag) for c, b in diag)
    return BoundRhs(matrix, frame, n, rate, abs(kappa))


def bind_static_rhs(params: JcParams, n: int) -> BoundRhs:
    """The static block in the interaction frame, kappa = g sqrt(n) and delta its
    ``_frame_phases`` detuning: i c' = kappa exp(+i delta t) d, i d' = kappa exp(-i delta t) c."""
    kappa = params.coupling * math.sqrt(_require_block(n))
    delta = _frame_phases(params, None, n, Frame.INTERACTION)[2]

    def matrix(t):
        a = np.zeros((4,) + t.shape, dtype=complex)
        a[1] = a[2] = -1j * kappa
        if delta:  # at resonance the entries stay constant, bit for bit
            turn = np.exp(1j * (delta * t))
            a[1] *= turn
            a[2] *= turn.conj()
        return a

    return BoundRhs(matrix, Frame.INTERACTION, n, 0.0, abs(params.coupling) * math.sqrt(n))


def averaged_effective_coupling(params: JcParams, mod: ModulationSpec,
                                n: int) -> complex:
    """g J0(z), z the relative-phase amplitude: the period-averaged coupling.

    With the ``splitting``-solved beta this is g i for both targets and
    every n; the ``gauge``-solved beta gives g J0(2 r) (atom) or
    g J0(r / n) (cavity), r the root of J0(r) = i.
    """
    g = _require_real_coupling(params, "averaged_effective_coupling")
    return g * bessel_j0(_relative_phase_amplitude(params, mod))


def bind_averaged_rhs(params: JcParams, mod: ModulationSpec, n: int) -> BoundRhs:
    if params.detuning() != 0.0:
        warnings.warn(
            "averaged equations are derived at resonance; omega0 != omega here",
            OffResonanceWarning,
            stacklevel=2,
        )
    g_eff = averaged_effective_coupling(params, mod, n)
    return replace(bind_static_rhs(JcParams(params.omega0, params.omega, g_eff), n),
                   frame=Frame.GAUGED)


def closed_form_amplitudes(params: JcParams, n: int, c0: complex, d0: complex, t):
    """Exact (c, d) of the resonant static system at a time or an array of times.

    With kappa = g_s sqrt(n), the propagator is
    [[cos(kappa t), -i sin(kappa t)], [-i sin(kappa t), cos(kappa t)]],
    analytic in kappa: real coupling gives Rabi cosine/sine, imaginary
    coupling gives cosh/sinh growth; both from real cos, sin, cosh, sinh.
    """
    kappa = complex(params.coupling) * math.sqrt(_require_block(n))
    t = np.asarray(t, dtype=float)
    cos_a, sin_a = np.cos(kappa.real * t), np.sin(kappa.real * t)
    cosh_b, sinh_b = np.cosh(kappa.imag * t), np.sinh(kappa.imag * t)
    parts = np.stack([cos_a * cosh_b, -(sin_a * sinh_b),
                      cos_a * sinh_b, -(sin_a * cosh_b)], axis=-1).view(complex)
    return c0 * parts[..., 0] + d0 * parts[..., 1], d0 * parts[..., 0] + c0 * parts[..., 1]


def suggested_step(mod: Optional[ModulationSpec], rhs: BoundRhs) -> float:
    """The fastest of the Rabi (``rhs.kappa``), drive and diagonal (``rhs.rate``) periods
    over DEFAULT_STEPS_PER_PERIOD, so that h rhs.rate stays far inside RK4's stability limit."""
    rates = [rhs.kappa, rhs.rate]
    if mod is not None:
        rates.append(mod.big_omega)
    if not max(rates) > 0:
        raise ValueError("cannot suggest a step for a system with no timescale")
    return 2.0 * math.pi / max(rates) / DEFAULT_STEPS_PER_PERIOD


def step_count(total: float, step: float) -> int:
    """The fewest whole steps of ``step`` from t = 0 that reach ``total``, at least one:
    ceil(total / step - 1e-9), so a ratio within 1e-9 above a whole number counts as whole.

    ValueError unless the step is positive and finite, total positive and the ratio
    finite.  The count is not bounded here: each command bounds the bytes it holds.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not total > 0:
        raise ValueError(f"t1 must be positive, got {total}")
    ratio = total / step
    if not math.isfinite(ratio):
        raise ValueError(f"{total:g} / {step:g} is not a finite number of RK4 steps")
    return max(1, math.ceil(ratio - 1e-9))


def _check_rk4_rate(rate: float, coupling: float) -> None:
    """ValueError if rate + coupling, the step times the largest diagonal rate plus the
    step times |kappa|, exceeds 2 sqrt(2)."""
    limit = 2.0 * math.sqrt(2.0)
    if rate + coupling > limit:
        raise ValueError(f"RK4 step times |kappa|, {coupling:.6g}, plus the step times the "
                         f"largest diagonal rate, {rate:.6g}, exceeds RK4's imaginary-axis "
                         f"stability limit 2 sqrt(2) = {limit:.6g}")


def check_rk4_stability(rhs: BoundRhs, step: float) -> None:
    """ValueError if h (rhs.rate + rhs.kappa) exceeds 2 sqrt(2), RK4's imaginary-axis limit.

    a12 a21 = -kappa^2 at every t, so the coupling adds |kappa| to the diagonal's rate
    in the bound on A's eigenvalues.  A step that is not finite is left to ``integrate``.
    """
    if math.isfinite(step):
        _check_rk4_rate(step * rhs.rate, step * rhs.kappa)


def integrate(rhs: BoundRhs, c0: complex, d0: complex, t1: float, step: float) -> Trajectory:
    """Classical fixed-step RK4 of (c, d) from (c0, d0) at t = 0 past t1, recording every step.

    ``rhs`` comes from a bind_* helper (a plain callable raises TypeError);
    the trajectory is tagged with its frame and n.  ``kernels.rk4_linear``
    takes ``step_count(t1, step)`` whole steps, so sample j lies at j step
    and the last in [t1, t1 + step).  Non-finite c0 or d0 and what
    ``step_count`` refuses raise ValueError before any allocation;
    IntegrationError means the amplitudes left float64 during the run,
    naming the first non-finite sample's time.
    """
    if not isinstance(rhs, BoundRhs):
        raise TypeError(f"integrate needs a BoundRhs, got {type(rhs).__name__}")
    c0, d0 = complex(c0), complex(d0)
    if not all(map(math.isfinite, (c0.real, c0.imag, d0.real, d0.imag))):
        raise ValueError(f"initial amplitudes must be finite, got c0 = {c0!r}, d0 = {d0!r}")
    n_steps = step_count(t1, step)
    cs, ds = kernels.rk4_linear(rhs.matrix, c0, d0, step, n_steps)
    # the initial state is finite, so index 0 means every sample is
    first = int(np.argmin(np.isfinite(cs) & np.isfinite(ds)))
    if first:
        raise IntegrationError(f"non-finite amplitudes at t = {first * step}")
    times = step * np.arange(n_steps + 1, dtype=float)
    return Trajectory(times=times, c=cs, d=ds, frame=rhs.frame, n=rhs.n)


# ---------------------------------------------------------------------------
# Trajectory serialization


def write_csv(header: str, outputs) -> None:
    """Per (path, columns, suffix) in ``outputs``: ``header``, then per sample each column's
    float ``repr`` joined by commas, then ``suffix`` (which may not hold a NUL).

    Every path opens first.  Then per pass of up to _CSV_PASS_FLOATS floats (rows times
    distinct columns) ``floattext.float_text`` turns each distinct column, keyed by the
    memory it views, into text once, for every file holding it, and each file writes the
    ``floattext.csv_lines`` of its columns.
    """
    cols, outs = {}, []  # every array stays referenced, so no key is reused
    with contextlib.ExitStack() as stack:
        for path, columns, suffix in outputs:
            arrays = [np.asarray(col, dtype=float) for col in columns]
            fh = stack.enter_context(open(path, "wb"))
            fh.write(f"{header}\n".encode("utf-8"))
            keys = [(a.ctypes.data, a.strides, len(a)) for a in arrays]
            cols.update(zip(keys, arrays))
            outs.append((fh, keys, f"{suffix}\n".encode("utf-8")))
        (rows,) = {len(col) for col in cols.values()}  # ValueError unless of one length
        slot = {key: j for j, key in enumerate(cols)}
        outs = [(fh, [slot[key] for key in keys], end) for fh, keys, end in outs]
        per = max(1, min(rows, _CSV_PASS_FLOATS // len(cols)))
        values = np.empty((per, len(cols)))
        for i in range(0, rows, per):
            n = min(per, rows - i)
            for j, col in enumerate(cols.values()):
                values[:n, j] = col[i:i + n]
            text = floattext.float_text(values[:n])
            for fh, slots, end in outs:
                fh.write(floattext.csv_lines(text, slots, end))
            del text  # before the next pass's rows are made


def write_trajectory_csv(trajs, paths) -> None:
    """``trajs[i]`` as CSV t,re_c,im_c,re_d,im_d,frame,n at ``paths[i]``, in one ``write_csv``."""
    write_csv(TRAJECTORY_CSV_HEADER,
              [(path, [tr.times, tr.c.real, tr.c.imag, tr.d.real, tr.d.imag],
                f",{tr.frame.value},{tr.n}") for tr, path in zip(trajs, paths, strict=True)])


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv: one ``np.loadtxt`` of the rows, read from the path.

    One array comparison checks the tags (frame under 12 bytes, n under 4: not cut).  A
    file that fails (or has a line of blanks) streams again through a per-row check into
    ``np.loadtxt``, naming the bad row.  So does a file holding a NUL byte, which numpy's
    byte fields would drop from the end of a tag ('lab\\0' would pass as 'lab').  A row
    starting with '#' is malformed, not skipped.
    """
    def checked(lines):  # 7 fields and the first row's tags, or ValueError naming the row
        for lineno, line in enumerate(lines, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"malformed trajectory row {line!r}")
            if parts[5:] != tags:
                raise ValueError(f"trajectory row {line!r} (line {lineno}) has other "
                                 f"frame/n tags than the first row's {','.join(tags)}")
            yield line

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_CSV_HEADER:
            raise ValueError(f"unexpected trajectory header {header!r}")
        if not (first := next(filter(None, map(str.strip, fh)), "")):
            raise ValueError("empty trajectory file")
        tags = first.split(",")[5:]
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as raw:
            nul = raw.find(b"\0") >= 0
        try:  # numpy reads the path in blocks; it skips empty lines, not blank ones
            data = np.loadtxt(os.fsdecode(path), delimiter=",", skiprows=1, encoding="utf-8",
                              dtype=_TRAJECTORY_ROW, comments=None, ndmin=1)
            frame, n = (got := data[["frame", "n"]])[0].item()
        except (ValueError, OSError):  # the checked pass below names the fault
            got = None
        if nul or got is None or len(frame) >= 12 or len(n) >= 4 or (got != got[0]).any():
            fh.seek(0)
            fh.readline()
            data = np.loadtxt(checked(fh), delimiter=",", usecols=range(5),
                              dtype=_TRAJECTORY_ROW[["t", "cd"]], comments=None, ndmin=1)
    c, d = data["cd"].view(complex).T  # (re, im) pairs, bit for bit
    return Trajectory(times=data["t"], c=c, d=d, frame=Frame(tags[0]), n=int(tags[1]))


def map_trajectory(traj: Trajectory, params: JcParams,
                   mod: Optional[ModulationSpec], to_frame: Frame) -> Trajectory:
    """Frame conversion of a whole trajectory: each level times exp(+i its change of phase).

    The phases are ``_frame_phases``'; a level whose phase does not change keeps its very
    array (``d`` between the interaction and gauged frames).  Conversions touching the
    gauged frame need the modulation spec; a missing spec raises ValueError, as do
    amplitudes that the map takes out of float64.
    """
    if traj.frame is to_frame:
        return traj
    (r0, v0, _), (r1, v1, _) = (_frame_phases(params, mod, traj.n, f)
                                for f in (traj.frame, to_frame))
    t = traj.times
    amps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for amp, dr, dv in zip((traj.c, traj.d), np.subtract(r1, r0), np.subtract(v1, v0)):
            if dr or dv:
                phase = dr * t
                if dv:
                    phase = phase + dv / mod.big_omega * np.sin(mod.big_omega * t)
                amp = np.asarray(amp, dtype=complex) * np.exp(1j * phase)
            amps.append(amp)
    c, d = amps
    if not (np.isfinite(c).all() and np.isfinite(d).all()):
        raise ValueError(f"mapping the {traj.frame.value}-frame trajectory to the "
                         f"{to_frame.value} frame leaves float64 (non-finite amplitudes)")
    return Trajectory(times=t, c=c, d=d, frame=to_frame, n=traj.n)
