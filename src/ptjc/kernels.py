"""Fixed-step RK4 of linear 2x2 systems (c, d)' = A(t) (c, d).

``a_of_t(t)`` gives A's entries (a11, a12, a21, a22) at an array of
times, shape (4,) + t.shape.  One RK4 step of a linear system is a 2x2
matrix built from A(t), A(t + h/2) and A(t + h): ``rk4_linear`` builds
them with NumPy, a chunk at a time, and applies them in step order.
When A has period k h, ``rk4_period_factors`` builds only the first
period's matrices, their partial products P_j and the period-boundary
states Y_m; ``expand_periods`` multiplies per-phase rows (the P_j, for
``rk4_periodic``) into those states.
"""
from __future__ import annotations

import numpy as np

# Steps whose propagators are built at once; bounds the temporary arrays.
_CHUNK = 1024


def _times_shifted(a: np.ndarray, s: float, k: np.ndarray) -> np.ndarray:
    """The entries of A (I + s K) for entry arrays A and K."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = s * k
    b11 += 1.0
    b22 += 1.0
    return np.array([a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                     a21 * b11 + a22 * b21, a21 * b12 + a22 * b22])


def _step_propagators(a_of_t, t: np.ndarray, h: float) -> np.ndarray:
    """Entries of the RK4 step matrices M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

    ``t`` is the half-step grid t_0, t_0 + h/2, ..., t_m of m steps.
    K1 = A(t), K2 = A(t+h/2) (I + h/2 K1), K3 = A(t+h/2) (I + h/2 K2)
    and K4 = A(t+h) (I + h K3), so that one RK4 step is y -> M y.
    """
    a = a_of_t(t)
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


def rk4_linear(a_of_t, c0: complex, d0: complex, t0: float, h: float,
               n_full: int, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of (c, d)' = A(t) (c, d), A's entries from a_of_t(t).

    Records the state after every step (index 0 holds the initial
    state); a positive ``tail`` appends one shortened step from
    t0 + n_full h landing exactly on the final time.  Overflow is not
    reported here: the caller checks the amplitudes for finiteness.
    """
    out_c, out_d = np.empty((2, n_full + (2 if tail > 0.0 else 1)), dtype=complex)
    c, d = complex(c0), complex(d0)
    out_c[0], out_d[0] = c, d
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_full, _CHUNK):
            half_grid = np.arange(2 * k0, 2 * min(k0 + _CHUNK, n_full) + 1)
            props = _step_propagators(a_of_t, t0 + half_grid * (h / 2.0), h)
            c, d = _advance(props, c, d, out_c, out_d, k0 + 1)
        _tail_step(a_of_t, t0 + n_full * h, tail, out_c, out_d)
    return out_c, out_d


def _tail_step(a_of_t, t: float, tail: float, out_c: np.ndarray, out_d: np.ndarray) -> None:
    """One shortened step of length ``tail`` (if positive) from t into out[-1]."""
    if tail > 0.0:
        props = _step_propagators(a_of_t, np.array([t, t + tail / 2.0, t + tail]), tail)
        _advance(props, complex(out_c[-2]), complex(out_d[-2]), out_c, out_d, len(out_c) - 1)


def rk4_period_factors(a_of_t, c0: complex, d0: complex, t0: float, h: float,
                       n_full: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``rk4_periodic``'s one-period factors p, y: step m k + j holds P_j Y_m.

    The partial products P_0 = I ... P_k = U_T of the first period's step
    matrices carry the basis vectors; Y_m = U_T Y_{m-1} from (c0, d0).  A
    non-finite Y_m (m >= 1) raises FloatingPointError(m k).
    """
    periods = n_full // k + 1  # the last one possibly partial
    p = np.empty((4, k + 1), dtype=complex)  # rows P11, P12, P21, P22
    y = np.empty((2, periods), dtype=complex)  # rows Y_c, Y_d
    p[:, 0], y[:, 0] = (1.0, 0.0, 0.0, 1.0), (c0, d0)
    with np.errstate(over="ignore", invalid="ignore"):
        props = _step_propagators(a_of_t, t0 + np.arange(2 * k + 1) * (h / 2.0), h)
        _advance(props, 1.0, 0.0, p[0], p[2], 1)
        _advance(props, 0.0, 1.0, p[1], p[3], 1)
        _advance(np.repeat(p[:, k:], periods - 1, axis=1), complex(c0), complex(d0), y[0], y[1], 1)
    first_bad = int(np.argmin(np.isfinite(y).all(axis=0)))
    if first_bad:
        raise FloatingPointError(first_bad * k)
    return p, y


def expand_periods(rows: np.ndarray, states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` samples R_j states[:, m], sample m k + j, as (2, count).

    ``rows`` (4, k) holds the per-phase 2x2 R_j by entry; each component
    fills a (periods, k) buffer by contiguous elementwise products.
    Samples past the last state's period are left unset.
    """
    k = rows.shape[1]
    out = np.empty((2, -(-count // k), k), dtype=complex)
    m = min(out.shape[1], states.shape[1])
    for i in range(2):
        np.multiply(states[0, :m, None], rows[2 * i], out=out[i, :m])
        out[i, :m] += states[1, :m, None] * rows[2 * i + 1]
    return out.reshape(2, -1)[:, :count]


def rk4_periodic(a_of_t, c0: complex, d0: complex, t0: float, h: float,
                 n_full: int, tail: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``rk4_linear`` for A(t + k h) = A(t), 1 <= k <= n_full, from one period.

    A period-boundary FloatingPointError comes before any per-sample array.
    """
    p, y = rk4_period_factors(a_of_t, c0, d0, t0, h, n_full, k)
    with np.errstate(over="ignore", invalid="ignore"):
        out_c, out_d = expand_periods(p[:, :k], y, n_full + (2 if tail > 0.0 else 1))
        _tail_step(a_of_t, t0 + n_full * h, tail, out_c, out_d)
    return out_c, out_d
