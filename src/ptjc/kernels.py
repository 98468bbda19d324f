"""Fixed-step RK4 of linear 2x2 systems (c, d)' = A(t) (c, d), B runs at a time.

``a_of_t(t)`` gives A's entries (a11, a12, a21, a22) at an array of
times, shape (4,) + t.shape.  One RK4 step of a linear system is a 2x2
matrix built from A(t), A(t + h/2) and A(t + h).  ``_prefix_states``
applies a run of them with no per-step Python loop: within blocks of
_BLOCK steps it multiplies them together by doubling, and from block to
block it carries the states, so no product spans more than a block and a
component that is exactly 0 stays 0.  ``rk4_linear``, the one path of
``ptjc.dynamics.integrate``, builds the matrices a chunk at a time.  When
A has period k h, ``rk4_period_factors`` builds only the first period's,
for B runs sharing k, with their partial products P_j and the
period-boundary states Y_m; ``expand_periods`` multiplies per-phase rows
into them.  ``ptjc.equivalence`` alone uses these two.
"""
from __future__ import annotations

import numpy as np

# Steps whose propagators are built at once; bounds the temporary arrays.
_CHUNK = 1024

# Steps multiplied together by doubling before the states are carried on.
_BLOCK = 64


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for 2x2 matrices x and 2xC matrices y, entries on the two leading axes."""
    return x[:, :1] * y[:1] + x[:, 1:] * y[1:]


def _step_propagators(a_of_t, t: np.ndarray, h) -> np.ndarray:
    """The RK4 step matrices M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), entries on axes (0, 1).

    ``t``'s last axis is the half-step grid t_0, t_0 + h/2, ..., t_m of m
    steps; ``h`` broadcasts against t without that axis.
    K1 = A(t), K2 = A(t+h/2) (I + h/2 K1), K3 = A(t+h/2) (I + h/2 K2)
    and K4 = A(t+h) (I + h K3), so that one RK4 step is y -> M y; the
    K here are h K, from h A.
    """
    a = (h * a_of_t(t)).reshape((2, 2) + t.shape)
    a0, a_half, a1 = a[..., 0:-1:2], a[..., 1::2], a[..., 2::2]
    k2 = a_half + 0.5 * _mul(a_half, a0)
    k3 = a_half + 0.5 * _mul(a_half, k2)
    k4 = a1 + _mul(a1, k3)
    m = (a0 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    m[0, 0] += 1.0
    m[1, 1] += 1.0
    return m


def _prefix_states(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The states (2, C, B, n) after each step matrix m (2, 2, B, n), from s (2, C, B).

    Each column of s is a state of its run; the identity's two columns carry a product.
    """
    b, n = m.shape[2:]
    blocks = max(1, -(-n // _BLOCK))
    q = np.zeros((2, 2, b, blocks * _BLOCK), dtype=complex)
    q[..., :n] = m
    q[0, 0, :, n:] = q[1, 1, :, n:] = 1.0
    q = q.reshape(2, 2, b, blocks, _BLOCK)
    shift = 1
    while shift < _BLOCK:  # q[..., i] = M_i ... M_1 of each block
        q[..., shift:] = _mul(q[..., shift:], q[..., :-shift])
        shift *= 2
    start = np.empty(s.shape + (blocks,), dtype=complex)  # the states entering each block
    start[..., 0] = s
    for j in range(1, blocks):
        start[..., j] = _mul(q[..., j - 1, -1], start[..., j - 1])
    return _mul(q, start[..., None]).reshape(s.shape + (-1,))[..., :n]


def rk4_linear(a_of_t, c0: complex, d0: complex, h: float,
               n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of (c, d)' = A(t) (c, d) from t = 0, A's entries from a_of_t(t).

    Records the state after every step (index 0 holds the initial
    state), sample j at t = j h.  Overflow is not reported here: the
    caller checks the amplitudes for finiteness.
    """
    out = np.empty((2, n_steps + 1), dtype=complex)
    out[:, 0] = c0, d0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, _CHUNK):
            k1 = min(k0 + _CHUNK, n_steps)
            props = _step_propagators(a_of_t, np.arange(2 * k0, 2 * k1 + 1) * (h / 2.0), h)
            states = _prefix_states(props[:, :, None], out[:, None, None, k0])
            out[:, k0 + 1:k1 + 1] = states[:, 0, 0]
    return out[0], out[1]


def rk4_period_factors(a_of_t, c0: complex, d0: complex, h, n_steps,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """One-period factors of B runs sharing A's period k h: step m k + j is P_j Y_m.

    ``h`` and ``n_steps`` hold each run's step and step count (a scalar is
    one run); ``a_of_t`` gets the (B, 2 k + 1) half-step grids from t = 0,
    a run a row.  Returns p (4, B, k + 1), the partial products P_0 = I ...
    P_k = U_T of the first period's step matrices, and y (2, B, most periods),
    Y_0 = (c0, d0) and Y_m = U_T Y_{m-1}; entries past a run's own
    n_steps // k + 1 periods are padding.  A non-finite Y_m (m >= 1) of
    its own raises FloatingPointError(m k, b) for the first such run b.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))[:, None]
    periods = np.atleast_1d(n_steps) // k + 1  # the last one possibly partial
    b = len(h)
    p = np.empty((4, b, k + 1), dtype=complex)  # rows P11, P12, P21, P22
    y = np.empty((2, b, periods.max()), dtype=complex)  # rows Y_c, Y_d
    p[:, :, 0], y[:, :, 0] = np.array([[1.0], [0.0], [0.0], [1.0]]), np.array([[c0], [d0]])
    with np.errstate(over="ignore", invalid="ignore"):
        props = _step_propagators(a_of_t, np.arange(2 * k + 1) * (h / 2.0), h)
        p[:, :, 1:] = _prefix_states(props, p[:, :, 0].reshape(2, 2, b)).reshape(4, b, k)
        u = np.broadcast_to(p[:, :, k:].reshape(2, 2, b, 1), (2, 2, b, y.shape[2] - 1))
        y[:, :, 1:] = _prefix_states(u, y[:, None, :, 0])[:, 0]
    bad = ~np.isfinite(y).all(axis=0) & (np.arange(y.shape[2]) < periods[:, None])
    if bad.any():
        first = int(np.argmax(bad.any(axis=1)))
        raise FloatingPointError(int(np.argmax(bad[first])) * k, first)
    return p, y


def expand_periods(rows: np.ndarray, states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` samples R_j states[:, m], sample m k + j, as (2, count).

    ``rows`` (4, k) holds the per-phase 2x2 R_j by entry; each component
    fills a (periods, k) buffer by contiguous elementwise products;
    ``states`` holds at least the ceil(count / k) periods.
    """
    k = rows.shape[1]
    out = np.empty((2, -(-count // k), k), dtype=complex)
    m = out.shape[1]
    for i in range(2):
        np.multiply(states[0, :m, None], rows[2 * i], out=out[i])
        out[i] += states[1, :m, None] * rows[2 * i + 1]
    return out.reshape(2, -1)[:, :count]
