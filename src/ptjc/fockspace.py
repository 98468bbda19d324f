"""Truncated boson-fermion product space and the operators living on it.

The Hilbert space is C^{N_b} (boson, levels 0 .. N_b - 1) tensored
with C^2 (fermion / two-level occupancy k in {0, 1}).  Basis ordering
interleaves the fermion index fastest: index(m, k) = 2 m + k.  Ladder
truncation corrupts the top boson levels, so algebraic identities are
only asserted on states with boson occupancy at most N_b - 4; helpers
for those index sets live here as well.

Operators are plain dense arrays on that basis.  H0 conserves m + k:
it is written on its diagonal and 2x2 block slots, not multiplied out
of the ladder matrices of ``build_fock_operators``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jc import JcParams

# Boson occupancies within this distance of the truncation edge are
# excluded from algebraic assertions.
TRUNCATION_GUARD_LEVELS = 4

MIN_BOSON_LEVELS = 4

# One dense operator on the space is (2 N_b)^2 float64 entries,
# 32 N_b^2 bytes: 8 MiB at this cap, twice that for the complex
# operators of a complex coupling, and a pseudo run holds about a dozen
# of them.
MAX_BOSON_LEVELS = 512

# The pseudo diagnostics square numbers of H0's size (np.linalg.norm),
# so H0's largest entry must stay below sqrt(float64 max) = 1.34e154.
H0_ENTRY_MAX = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class FockSpace:
    """Truncated product space with the interleaved index map."""

    boson_levels: int

    def __post_init__(self):
        if not MIN_BOSON_LEVELS <= self.boson_levels <= MAX_BOSON_LEVELS:
            raise ValueError(f"boson_levels must lie in [{MIN_BOSON_LEVELS}, {MAX_BOSON_LEVELS}]"
                             ": one dense operator takes 32 N_b^2 bytes, "
                             "64 N_b^2 bytes complex")

    @property
    def total_dim(self) -> int:
        return 2 * self.boson_levels

    def unpack(self, i: int) -> tuple[int, int]:
        """The occupancies (m, k) of basis index i = 2 m + k."""
        if not (0 <= i < self.total_dim):
            raise ValueError(f"index {i} out of range")
        return i // 2, i % 2

    def safe_boson_max(self) -> int:
        return self.boson_levels - TRUNCATION_GUARD_LEVELS

    def safe_bare_indices(self) -> list[int]:
        """Bare indices with boson occupancy clear of the truncation edge."""
        mmax = self.safe_boson_max()
        return [2 * m + k for m in range(self.boson_levels) for k in (0, 1)
                if m <= mmax]

    def block_slots(self) -> np.ndarray:
        """Row N - 1 holds block N's slots (2N - 1, 2N) = (|N-1, 1>, |N, 0>), N < N_b."""
        return np.arange(1, self.total_dim - 1).reshape(self.boson_levels - 1, 2)

    def safe_state_budget(self) -> int:
        """Number of eigenstates living entirely on safe boson levels.

        Block N spans boson occupancies N - 1 and N, so it is safe for
        N <= safe_boson_max(); the zero-excitation state adds one.
        """
        return 1 + 2 * self.safe_boson_max()


def build_fock_operators(space: FockSpace) -> dict:
    """Standard ladder matrices on the product space.

    d lowers the boson occupancy (d|m,k> = sqrt(m)|m-1,k>) and c lowers
    the fermion occupancy.  [d, d'] equals the identity except for the
    truncation artifact at the top boson level.
    """
    nb = space.boson_levels
    lower_b = np.diag(np.sqrt(np.arange(1, nb, dtype=float)), k=1)
    lower_f = np.array([[0.0, 1.0], [0.0, 0.0]])
    d = np.kron(lower_b, np.eye(2))
    c = np.kron(np.eye(nb), lower_f)
    return {"d": d, "d_dag": d.T, "c": c, "c_dag": c.T}


def build_h0(params: JcParams, space: FockSpace) -> np.ndarray:
    """Hermitian excitation-conserving Hamiltonian on the product space.

    H0 = omega0 (c'c - 1/2) + omega d'd + eps d c' + eps* d' c with
    eps = params.coupling, written on its slots: omega0 (k - 1/2) +
    omega m on the diagonal at (m, k), and block N's coupling
    eps sqrt(N) at (2N - 1, 2N) and eps* sqrt(N) at (2N, 2N - 1)
    (``FockSpace.block_slots``).  Hermitian for any complex eps, and
    float64 when eps is real; each block reproduces the 2x2 subspace
    Hamiltonian with g_s = conj(eps) in the (c, d) amplitude ordering.
    A largest entry past H0_ENTRY_MAX is refused with a ValueError.
    """
    top = space.boson_levels - 1
    largest = max(params.omega * top + params.omega0 / 2.0,
                  math.hypot(params.coupling.real, params.coupling.imag) * math.sqrt(top))
    if not largest <= H0_ENTRY_MAX:
        raise ValueError(
            f"H0's largest entry max(omega (N_b - 1) + omega0 / 2, |eps| sqrt(N_b - 1)) = "
            f"{largest!r} passes sqrt(float64 max) = {H0_ENTRY_MAX:.4g}, past which its squares "
            f"leave float64 (omega0 = {params.omega0!r}, omega = {params.omega!r}, "
            f"eps = {params.coupling!r}, N_b = {space.boson_levels})")
    eps = params.coupling.real if params.coupling.imag == 0.0 else params.coupling
    m, k = np.divmod(np.arange(space.total_dim), 2)
    h0 = np.diag(params.omega0 * (k - 0.5) + params.omega * m).astype(type(eps))
    row, col = space.block_slots().T
    root = np.sqrt(np.arange(1.0, space.boson_levels))
    h0[row, col] = eps * root
    h0[col, row] = np.conj(eps) * root
    return h0
