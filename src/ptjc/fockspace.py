"""Truncated boson-fermion product space and the operators living on it.

The Hilbert space is C^{N_b} (boson, levels 0 .. N_b - 1) tensored
with C^2 (fermion / two-level occupancy k in {0, 1}).  Basis ordering
interleaves the fermion index fastest: index(m, k) = 2 m + k.  Ladder
truncation corrupts the top boson levels, so algebraic identities are
only asserted on states with boson occupancy at most N_b - 4; helpers
for those index sets live here as well.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jc import JcParams

# Boson occupancies within this distance of the truncation edge are
# excluded from algebraic assertions.
TRUNCATION_GUARD_LEVELS = 4

MIN_BOSON_LEVELS = 4


@dataclass(frozen=True)
class FockSpace:
    """Truncated product space with the interleaved index map."""

    boson_levels: int

    def __post_init__(self):
        if self.boson_levels < MIN_BOSON_LEVELS:
            raise ValueError(f"boson_levels must be >= {MIN_BOSON_LEVELS}")

    @property
    def total_dim(self) -> int:
        return 2 * self.boson_levels

    def index(self, m: int, k: int) -> int:
        """Basis index of |m boson, k fermion>."""
        if not (0 <= m < self.boson_levels):
            raise ValueError(f"boson occupancy {m} out of range")
        if k not in (0, 1):
            raise ValueError(f"fermion occupancy {k} must be 0 or 1")
        return 2 * m + k

    def unpack(self, i: int) -> tuple[int, int]:
        """Inverse of index: i -> (m, k)."""
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

    def safe_block_max(self) -> int:
        """Largest total excitation whose whole block is truncation safe.

        The block at total excitation N spans boson occupancies N - 1
        and N, so the block is safe when N <= safe_boson_max().
        """
        return self.safe_boson_max()

    def safe_state_budget(self) -> int:
        """Number of eigenstates living entirely on safe boson levels."""
        return 1 + 2 * self.safe_block_max()


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator tied to its space, with a descriptive label."""

    space: FockSpace
    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        dim = self.space.total_dim
        if arr.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.space.total_dim


def build_fock_operators(space: FockSpace) -> dict:
    """Standard ladder matrices on the product space.

    d lowers the boson occupancy (d|m,k> = sqrt(m)|m-1,k>) and c lowers
    the fermion occupancy; number_total = d'd + c'c counts the total
    excitation.  [d, d'] equals the identity except for the truncation
    artifact at the top boson level.
    """
    nb = space.boson_levels
    lower_b = np.diag(np.sqrt(np.arange(1, nb, dtype=float)), k=1)
    lower_f = np.array([[0.0, 1.0], [0.0, 0.0]])
    d = np.kron(lower_b, np.eye(2))
    c = np.kron(np.eye(nb), lower_f)
    d_dag = d.conj().T
    c_dag = c.conj().T
    number_total = d_dag @ d + c_dag @ c
    return {
        "d": OperatorMatrix(space, d, "boson lowering"),
        "d_dag": OperatorMatrix(space, d_dag, "boson raising"),
        "c": OperatorMatrix(space, c, "fermion lowering"),
        "c_dag": OperatorMatrix(space, c_dag, "fermion raising"),
        "number_total": OperatorMatrix(space, number_total, "total excitation number"),
    }


def build_h0(params: JcParams, space: FockSpace) -> OperatorMatrix:
    """Hermitian excitation-conserving Hamiltonian on the product space.

    H0 = omega0 (c'c - 1/2) + omega d'd + eps d c' + eps* d' c with
    eps = params.coupling.  Hermitian for any complex eps; each total
    excitation block away from the truncation edge reproduces the 2x2
    subspace Hamiltonian with g_s = conj(eps) in the (c, d) amplitude
    ordering.
    """
    ops = build_fock_operators(space)
    d = ops["d"].entries
    c = ops["c"].entries
    d_dag = ops["d_dag"].entries
    c_dag = ops["c_dag"].entries
    eps = complex(params.coupling)
    dim = space.total_dim
    h0 = (params.omega0 * (c_dag @ c - 0.5 * np.eye(dim))
          + params.omega * (d_dag @ d)
          + eps * (d @ c_dag) + np.conj(eps) * (d_dag @ c))
    return OperatorMatrix(space, h0, "excitation-conserving Hamiltonian")
