"""Fixed-step RK4 for the structured amplitude forms, as 2x2 step propagators.

The amplitude equations used throughout the package reduce to five
structured right-hand-side forms, each identified by a small integer and
a flat complex coefficient vector.  Every form is linear in (c, d):
(c, d)' = A(t) (c, d), with A(t) given by ``generator``.  One classical
RK4 step of a linear system is therefore a 2x2 matrix M_k built from
A(t), A(t + h/2) and A(t + h).  ``rk4_form`` builds the M_k with
vectorized NumPy, a chunk of steps at a time, and advances the state by
plain 2x2 products in step order.

Coefficient layouts (all entries complex; reals carried in .real):

===============  ====================================================
form             coefficients
===============  ====================================================
FORM_STATIC      [kappa]
FORM_LAB_ATOM    [omega0, omega, beta, big_omega, kappa, n]
FORM_LAB_CAVITY  [omega0, omega, beta, big_omega, kappa, n]
FORM_GAUGED_ATOM [delta, gamma0, mod_amp, big_omega, kappa]
FORM_GAUGED_CAV  [delta, psi_amp, diag_c, diag_d, big_omega, kappa]
===============  ====================================================

with kappa = g sqrt(n), gamma0 = omega0 beta / (2 Omega),
mod_amp = omega0 beta / 2, psi_amp = n omega beta / Omega,
diag_c = -omega beta, diag_d = n omega beta.
"""
from __future__ import annotations

import numpy as np

FORM_STATIC = 0
FORM_LAB_ATOM = 1
FORM_LAB_CAVITY = 2
FORM_GAUGED_ATOM = 3
FORM_GAUGED_CAVITY = 4

# Steps whose propagators are built at once; bounds the temporary arrays.
_CHUNK = 1024


def generator(form: int, coef, t) -> np.ndarray:
    """Entries (a11, a12, a21, a22) of A(t) in (c, d)' = A(t) (c, d).

    Returns an array of shape (4,) + t.shape, one row per entry.
    """
    t = np.asarray(t, dtype=float)
    a = np.zeros((4,) + t.shape, dtype=complex)
    if form == FORM_STATIC:
        a[1] = a[2] = -1j * coef[0]
    elif form in (FORM_LAB_ATOM, FORM_LAB_CAVITY):
        omega0, omega, beta, big_omega, kappa, n = coef[:6]
        drive = 1.0 + beta * np.cos(big_omega.real * t)
        w0t = omega0.real * drive if form == FORM_LAB_ATOM else omega0.real
        wt = omega.real * drive if form == FORM_LAB_CAVITY else omega.real
        a[0] = -1j * (w0t / 2.0 + wt * (n.real - 1.0))
        a[1] = a[2] = -1j * kappa
        a[3] = -1j * (n.real * wt - w0t / 2.0)
    elif form == FORM_GAUGED_ATOM:
        delta, gamma0, mod_amp, big_omega, kappa = coef[:5]
        kick = 1j * (delta.real * t) + 1j * (gamma0 * np.sin(big_omega.real * t))
        a[1] = -1j * kappa * np.exp(kick)
        a[2] = -1j * kappa * np.exp(-kick)
        a[3] = 1j * mod_amp * np.cos(big_omega.real * t)
    elif form == FORM_GAUGED_CAVITY:
        delta, psi_amp, diag_c, diag_d, big_omega, kappa = coef[:6]
        kick = 1j * (delta.real * t) + 1j * (psi_amp * np.sin(big_omega.real * t))
        cosw = np.cos(big_omega.real * t)
        a[0] = -1j * diag_c * cosw
        a[1] = -1j * kappa * np.exp(kick)
        a[2] = -1j * kappa * np.exp(-kick)
        a[3] = -1j * diag_d * cosw
    else:
        raise ValueError(f"unknown rhs form {form}")
    return a


def _times_shifted(a: np.ndarray, s: float, k: np.ndarray) -> np.ndarray:
    """The entries of A (I + s K) for entry arrays A and K."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = s * k
    b11 += 1.0
    b22 += 1.0
    return np.array([a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                     a21 * b11 + a22 * b21, a21 * b12 + a22 * b22])


def _step_propagators(form: int, coef, t: np.ndarray, h: float) -> np.ndarray:
    """Entries of the RK4 step matrices M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

    ``t`` is the half-step grid t_0, t_0 + h/2, ..., t_m of m steps.
    K1 = A(t), K2 = A(t+h/2) (I + h/2 K1), K3 = A(t+h/2) (I + h/2 K2)
    and K4 = A(t+h) (I + h K3), so that one RK4 step is y -> M y.
    """
    a = generator(form, coef, t)
    a0, a_half, a1 = a[:, 0:-1:2], a[:, 1::2], a[:, 2::2]
    k2 = _times_shifted(a_half, h / 2.0, a0)
    k3 = _times_shifted(a_half, h / 2.0, k2)
    k4 = _times_shifted(a1, h, k3)
    m = (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    m[0] += 1.0
    m[3] += 1.0
    return m


def _advance(m: np.ndarray, c: complex, d: complex,
             out_c: np.ndarray, out_d: np.ndarray, start: int) -> tuple[complex, complex]:
    """Apply the step matrices in order, recording states from out[start]."""
    cs, ds = [], []
    for m11, m12, m21, m22 in zip(*m.tolist()):
        c, d = m11 * c + m12 * d, m21 * c + m22 * d
        cs.append(c)
        ds.append(d)
    out_c[start:start + len(cs)] = cs
    out_d[start:start + len(ds)] = ds
    return c, d


def rk4_form(form: int, coef: np.ndarray, c0: complex, d0: complex,
             t0: float, h: float, n_full: int,
             tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over a structured form.

    Records the state after every step (index 0 holds the initial
    state); a positive ``tail`` appends one shortened step from
    t0 + n_full h landing exactly on the final time.  Overflow is not
    reported here: the caller checks the amplitudes for finiteness.
    """
    n_out = n_full + 1 + (1 if tail > 0.0 else 0)
    out_c = np.empty(n_out, dtype=complex)
    out_d = np.empty(n_out, dtype=complex)
    c, d = complex(c0), complex(d0)
    out_c[0] = c
    out_d[0] = d
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_full, _CHUNK):
            half_grid = np.arange(2 * k0, 2 * min(k0 + _CHUNK, n_full) + 1)
            props = _step_propagators(form, coef, t0 + half_grid * (h / 2.0), h)
            c, d = _advance(props, c, d, out_c, out_d, k0 + 1)
        if tail > 0.0:
            t = t0 + n_full * h
            props = _step_propagators(form, coef, np.array([t, t + tail / 2.0, t + tail]), tail)
            _advance(props, c, d, out_c, out_d, n_full + 1)
    return out_c, out_d


def rk4_generic(rhs, c0: complex, d0: complex, t0: float, h: float,
                n_full: int, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 for an arbitrary callable rhs(t, c, d) -> (dc, dd)."""
    n_out = n_full + 1 + (1 if tail > 0.0 else 0)
    out_c = np.empty(n_out, dtype=complex)
    out_d = np.empty(n_out, dtype=complex)
    c, d = complex(c0), complex(d0)
    out_c[0] = c
    out_d[0] = d
    steps = [h] * n_full + ([tail] if tail > 0.0 else [])
    for k, dt in enumerate(steps):
        t = t0 + k * h
        k1c, k1d = rhs(t, c, d)
        k2c, k2d = rhs(t + dt / 2.0, c + (dt / 2.0) * k1c, d + (dt / 2.0) * k1d)
        k3c, k3d = rhs(t + dt / 2.0, c + (dt / 2.0) * k2c, d + (dt / 2.0) * k2d)
        k4c, k4d = rhs(t + dt, c + dt * k3c, d + dt * k3d)
        c = c + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        d = d + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        out_c[k + 1] = c
        out_d[k + 1] = d
    return out_c, out_d
