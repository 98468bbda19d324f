"""Similarity-deformed model: biorthogonal eigenfamilies and identities.

A real symmetric generator G and a real deformation strength alpha
define S = exp(alpha G); G is a boson plus a fermion term, so S is a
real Kronecker product.  Conjugating the Hermitian excitation-conserving
Hamiltonian H0 and its ladder operators by S produces a non-Hermitian
H_alpha with deformed ladder operators whose commutation relations are
preserved, two biorthogonal eigenfamilies Phi-hat = S Phi, Psi-hat =
S^-1 Phi, a metric identity Phi-hat = S^2 Psi-hat, and a block
rotation T_alpha that diagonalizes H_alpha over the truncation-safe
levels.  ``energy_formula`` is the one closed form of H0's block
spectrum: the T_alpha check's diagonal, and the reference the
diagnostics record measures the computed energies against.

Numerical policy used throughout this module: identities involving
deformed operators are never evaluated by forming dense triple
products S X S^-1 and multiplying those.  The norm of S grows like
exp(|alpha| ||G||) and dense products lose roughly cond(S) * eps of
absolute accuracy, which at the default configuration already exceeds
the 1e-9 targets.  Instead every check applies operators to column
frames S e_j in composition order and reads the result back through
S^-1, which measures the matrix elements between the two biorthogonal
families, the frame in which the identities are actually claimed.
``deformed`` is the one evaluator of such products: each factor
S X S^-1 is applied as S (X (S^-1 v)).  The evaluation order is load
bearing; tests pin the achieved residuals.  Operators, S and S^-1 are
plain dense arrays on the interleaved basis of ``FockSpace``.  S and
S^-1 are float64, and so are H0 and the eigenfamilies for a real
epsilon; ``_apply`` multiplies S into complex frames as real arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fockspace import FockSpace, build_fock_operators
from .jc import JcParams, t_block

# Residual allowed in S S^-1 = identity at construction.  Rounding
# leaves about eps * cond2(S) = eps * exp(|alpha| spread(G)), so this
# tolerance is what bounds alpha for a given truncation.
INVERSE_IDENTITY_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

# Bare excitation cutoff for the fixed probe battery used by the
# resolution-of-identity checks: matrix elements are sampled between
# bare states with m + k at most this, which are the slots 2m + k up to
# 2 PROBE_EXCITATION_MAX.
PROBE_EXCITATION_MAX = 5


@dataclass(frozen=True)
class SimilarityMap:
    """S = exp(alpha G) and its inverse as dense real symmetric matrices.

    G = X_b (x) 1 + 1 (x) sigma_x on the interleaved basis, with the
    boson factor X_b = b + b'.  ``cond2`` is the exact cond2(S) =
    exp(|alpha| spread(G)), spread(G) = spread(X_b) + 2.  G is real
    symmetric, so ``s`` and ``s_inv`` are real symmetric float64 arrays,
    applied to real or complex frames by ``_apply``.
    """

    space: FockSpace
    alpha: float
    cond2: float
    s: np.ndarray
    s_inv: np.ndarray


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired eigenfamilies of H_alpha and its adjoint.

    Columns of ``phis`` are Phi-hat = S Phi (right eigenvectors of
    H_alpha); columns of ``psis`` are Psi-hat = S^-1 Phi scaled so the
    pairing <Phi-hat_j, Psi-hat_j> is exactly 1.  ``labels`` holds the
    (n, k) occupancy labels.  The bare eigenvectors are orthonormal even
    inside a degenerate cluster and S is real symmetric, so
    <S V_i, S^-1 V_j> = delta_ij: the pairing is never arbitrary.
    """

    space: FockSpace
    phis: np.ndarray
    psis: np.ndarray
    energies: np.ndarray
    labels: tuple
    eigvecs_bare: np.ndarray

    def __post_init__(self):
        m = len(self.energies)
        if not (self.phis.shape[1] == self.psis.shape[1] == m
                == len(self.labels) == self.eigvecs_bare.shape[1]):
            raise ValueError("inconsistent system component lengths")

    def __len__(self) -> int:
        return len(self.energies)

    def gram(self) -> np.ndarray:
        return self.phis.conj().T @ self.psis


def _apply(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """s @ v for a real s; a complex v goes through its float view, so S Re v
    and S Im v come from one real matmul instead of a complex one."""
    if not np.iscomplexobj(v):
        return s @ v
    v = np.ascontiguousarray(v)
    return (s @ v.reshape(len(v), -1).view(float)).view(complex).reshape(v.shape)


def _kron_exp(eigvals: np.ndarray, eigvecs: np.ndarray, t: float) -> np.ndarray:
    """exp(t X_b) (x) (cosh t + sinh t sigma_x), the exact identity at t = 0."""
    if t == 0.0:
        return np.eye(2 * len(eigvals))
    boson = (eigvecs * np.exp(t * eigvals)) @ eigvecs.T
    fermion = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    return np.kron(boson, fermion)


def _inverse_pair(eigvals: np.ndarray, eigvecs: np.ndarray,
                  alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """S, S^-1 and max |S S^-1 - 1|, which is NaN when exp overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = _kron_exp(eigvals, eigvecs, alpha)
        s_inv = _kron_exp(eigvals, eigvecs, -alpha)
        return s, s_inv, float(np.abs(s @ s_inv - np.eye(len(s))).max())


def build_similarity(space: FockSpace, alpha: float) -> SimilarityMap:
    """Exponentiate alpha times the ladder-sum generator, factor by factor.

    One eigh of the N_b x N_b boson factor X_b gives exp(+-alpha X_b);
    the fermion factor is cosh alpha + sinh alpha sigma_x in closed
    form, and S, S^-1 are one Kronecker product each.  Construction
    verifies S S^-1 = identity to INVERSE_IDENTITY_TOL; the
    residual grows like exp(|alpha| spread(G)).  On failure a ValueError
    names alpha_max, found by stepping |alpha| down to the log-linear
    estimate |alpha| - ln(residual / tol) / spread(G) on a 1e-3 grid (to
    ln(tol / eps) / spread(G) while exp overflows) and measuring again,
    with the sign of alpha, until the check passes: near the tolerance the
    residual scatters about that line, and a rerun at alpha_max must pass.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    off = np.sqrt(np.arange(1.0, space.boson_levels))
    eigvals, eigvecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    spread = float(eigvals[-1] - eigvals[0]) + 2.0
    s, s_inv, residual = _inverse_pair(eigvals, eigvecs, alpha)
    alpha_max, check = abs(alpha), residual
    while not check <= INVERSE_IDENTITY_TOL:
        if math.isfinite(check):
            alpha_max -= max(math.log(check / INVERSE_IDENTITY_TOL) / spread, 1e-3)
        else:
            alpha_max = min(alpha_max - 1e-3, math.log(INVERSE_IDENTITY_TOL / _EPS) / spread)
        alpha_max = max(math.floor(alpha_max * 1000.0) / 1000.0, 0.0)
        check = _inverse_pair(eigvals, eigvecs, math.copysign(alpha_max, alpha))[2]
    if not residual <= INVERSE_IDENTITY_TOL:
        raise ValueError(
            f"alpha = {alpha} is infeasible at boson_levels = {space.boson_levels}: "
            f"S S^-1 residual {residual:.3e} exceeds {INVERSE_IDENTITY_TOL:.1e} (it grows "
            f"like exp(|alpha| * {spread:.3f}), nan once exp overflows float64); "
            f"alpha_max({space.boson_levels}) = {alpha_max:.3f} passes")
    return SimilarityMap(
        space=space,
        alpha=float(alpha),
        cond2=math.exp(abs(alpha) * spread),
        s=s,
        s_inv=s_inv,
    )


def energy_formula(params: JcParams, space: FockSpace) -> np.ndarray:
    """Closed-form energy E = omega m + (omega - gap) (k - 1/2) at every bare slot (m, k).

    gap = sqrt(delta^2 + 4 |eps|^2 (m + k)): block N's roots are E(N - 1, 1)
    (lower) and E(N, 0).  The zero-excitation slot and the orphan top slot
    (N_b - 1, 1) lie in no block and take gap = -delta, their H0 diagonal
    entry, so E(0, 0) = -omega0 / 2 on either side of resonance.
    """
    delta = params.detuning()
    m, k = np.divmod(np.arange(space.total_dim), 2)
    gap = np.hypot(delta, 2.0 * abs(params.coupling) * np.sqrt(m + k))
    gap[[0, -1]] = -delta
    return params.omega * m + (params.omega - gap) * (k - 0.5)


def build_biorthogonal_system(h0: np.ndarray, smap: SimilarityMap,
                              count: int | None = None) -> BiorthogonalSystem:
    """Diagonalize H0 block by block, transport eigenvectors through S and S^-1.

    The 2x2 excitation blocks (``FockSpace.block_slots``) go through one
    stacked eigh; each eigenpair is labelled by its slot, so block N's
    lower root is (N-1, 1) and its upper (N, 0).  An H0 with an entry
    outside those blocks is refused with a ValueError.

    Keeps the ``count`` lowest eigenstates whose total excitation block
    is truncation safe (count defaults to the whole safe budget).  The
    two families are Phi-hat = S Phi and Psi-hat = S^-1 Phi with
    Psi-hat rescaled so each diagonal pairing is exactly one; energies
    are H0's (similarity preserves the spectrum).
    """
    space = smap.space
    if h0.shape != smap.s.shape:
        raise ValueError("Hamiltonian and similarity map live on different spaces")
    budget = space.safe_state_budget()
    if count is None:
        count = budget
    if not (1 <= count <= budget):
        raise ValueError(f"count must be in [1, {budget}], got {count}")

    blocks = (np.arange(space.total_dim) + 1) // 2  # total excitation m + k per slot
    if np.any(h0[blocks[:, None] != blocks[None, :]]):
        raise ValueError("H0 has entries outside its total-excitation blocks")
    slots = space.block_slots()
    rows, cols = slots[:, :, None], slots[:, None, :]
    evals = np.diagonal(h0).real.copy()
    evecs = np.eye(space.total_dim, dtype=h0.dtype)
    evals[slots], evecs[rows, cols] = np.linalg.eigh(h0[rows, cols])

    order = np.argsort(evals, kind="stable")
    kept = np.flatnonzero(blocks[order] <= space.safe_boson_max())[:count]
    included = order[kept]

    v_incl = evecs[:, included]
    phis = _apply(smap.s, v_incl)
    psis = _apply(smap.s_inv, v_incl)
    pairing = np.einsum("ij,ij->j", phis.conj(), psis)
    if np.any(np.abs(pairing) < 1e-8):
        raise ArithmeticError("near-singular family pairing; cannot normalize")
    psis = psis / pairing[None, :]

    return BiorthogonalSystem(
        space=space,
        phis=phis,
        psis=psis,
        energies=evals[included],
        labels=tuple(space.unpack(int(i)) for i in included),
        eigvecs_bare=v_incl,
    )


def eigen_residuals(system: BiorthogonalSystem, h0: np.ndarray,
                    smap: SimilarityMap) -> tuple[float, float]:
    """Relative eigen-residuals of H_alpha on Phi-hat and its adjoint on Psi-hat.

    Uses the algebraic transport H_alpha (S v) = S (H0 v) and
    H_alpha-dagger (S^-1 v) = S^-1 (H0 v), so the bare residual is
    mapped through one well-conditioned product instead of a dense
    similarity sandwich.
    """
    v = system.eigvecs_bare
    bare = h0 @ v - v * system.energies[None, :]
    res_phi = _apply(smap.s, bare)
    res_psi = _apply(smap.s_inv, bare)
    phi_norms = np.linalg.norm(system.phis, axis=0)
    psi_scale = np.linalg.norm(_apply(smap.s_inv, v), axis=0)
    rel_phi = np.linalg.norm(res_phi, axis=0) / phi_norms
    rel_psi = np.linalg.norm(res_psi, axis=0) / psi_scale
    return float(rel_phi.max()), float(rel_psi.max())


def metric_checks(system: BiorthogonalSystem, smap: SimilarityMap) -> dict:
    """Metric identity and resolution-of-identity diagnostics.

    (a) per-state residual of Phi-hat = S^2 Psi-hat, evaluated as
    S (S Psi-hat) and reported both absolutely and relative to
    ||Phi-hat||; (b) matrix elements of sum |Phi-hat><Phi-hat| - S^2
    between the probe slots, the bare states with m + k <=
    PROBE_EXCITATION_MAX; (c) the dual check with Psi-hat and S^-2.
    S is real symmetric, so S^2 between probes is S^T S read off S's
    probe columns, and no dim x dim product is formed.  The probe battery
    stays fixed as ``count`` grows, so the completeness trend in (b)/(c)
    is monotone in the included family.
    """
    s = smap.s
    diffs = system.phis - _apply(s, _apply(s, system.psis))
    abs_per_state = np.linalg.norm(diffs, axis=0)
    rel_per_state = abs_per_state / np.linalg.norm(system.phis, axis=0)

    p = 2 * PROBE_EXCITATION_MAX + 1  # slots 2m + k with m + k <= the cutoff
    phis, psis = system.phis[:p], system.psis[:p]
    s_cols, s_inv_cols = s[:, :p], smap.s_inv[:, :p]
    res_phi = phis @ phis.conj().T - s_cols.T @ s_cols
    res_psi = psis @ psis.conj().T - s_inv_cols.T @ s_inv_cols

    return {
        "identity_abs_max": float(abs_per_state.max()),
        "identity_rel_max": float(rel_per_state.max()),
        "resolution_phi": float(np.abs(res_phi).max()),
        "resolution_psi": float(np.abs(res_psi).max()),
    }


def quasi_basis_check(system: BiorthogonalSystem,
                      trial_vectors: list) -> list[dict]:
    """Expansion residuals for every ordered pair of trial vectors.

    For each pair (f, g) reports |<f,g> - sum <f,Phi-hat><Psi-hat,g>|
    (``direct``) and the version with the families swapped
    (``swapped``), plus the relative defect of each vector from the
    span of the included Phi-hat family.  The direct residual vanishes
    when g lies in that span, the swapped one when f does; out-of-span
    vectors get their residual reported without any pass/fail meaning.
    """
    dim = system.space.total_dim
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in trial_vectors]
    if any(v.shape != (dim,) for v in vecs):
        raise ValueError("trial vector has wrong dimension")
    f = np.array(vecs).reshape(len(vecs), dim).T
    phi_f = system.phis.conj().T @ f
    psi_f = system.psis.conj().T @ f
    exact = f.conj().T @ f
    direct = np.abs(exact - phi_f.conj().T @ psi_f)
    swapped = np.abs(exact - psi_f.conj().T @ phi_f)
    coeff, *_ = np.linalg.lstsq(system.phis, f, rcond=None)
    span_defects = (np.linalg.norm(f - system.phis @ coeff, axis=0)
                    / np.maximum(np.linalg.norm(f, axis=0), 1e-300))
    return [{
        "f_index": i,
        "g_index": j,
        "direct": float(direct[i, j]),
        "swapped": float(swapped[i, j]),
        "f_span_defect": float(span_defects[i]),
        "g_span_defect": float(span_defects[j]),
    } for i in range(len(vecs)) for j in range(len(vecs))]


def build_block_rotation(space: FockSpace, params: JcParams) -> tuple[np.ndarray, np.ndarray]:
    """T0 and its inverse, assembled block-wise on the bare space.

    Block N couples its bare slots (``FockSpace.block_slots``).  With
    eps = |eps| e^{i phi}, H0's block there is D B D^H, B the real block
    at coupling |eps| and D = diag(e^{i phi}, 1), so T0^-1 gets
    ``t_block`` at |eps| times D^H, and T0 is its adjoint, block by
    block the 2x2 eigenvector column matrix.  For a real positive eps,
    D = 1 and T0 is the transpose.  The zero-excitation slot and the
    orphan top slot stay identity.
    """
    modulus = abs(params.coupling)
    phases = np.array([params.coupling / modulus if modulus else 1.0, 1.0]).conj()
    real = replace(params, coupling=modulus)
    t0_inv = np.eye(space.total_dim, dtype=complex)
    for n, pair in enumerate(space.block_slots(), start=1):
        t0_inv[np.ix_(pair, pair)] = t_block(real, n) * phases
    return t0_inv.conj().T, t0_inv


def deformed(smap: SimilarityMap, bare_ops: list, v: np.ndarray) -> np.ndarray:
    """S o_1 S^-1 ... S o_m S^-1 v for bare_ops = [o_1, ..., o_m].

    The rightmost factor acts first, each as S (o (S^-1 v)); no dense
    deformed matrix is formed.
    """
    for op in reversed(bare_ops):
        v = _apply(smap.s, op @ _apply(smap.s_inv, v))
    return v


def t_alpha_diagonalization_check(h0: np.ndarray, smap: SimilarityMap,
                                  params: JcParams) -> float:
    """Residual of the deformed block rotation bringing H_alpha diagonal.

    Verifies T_alpha^-1 H_alpha T_alpha = omega D_alpha d_alpha +
    (omega - Delta(N_alpha)) (C_alpha c_alpha - 1/2), the right side's
    diagonal being ``energy_formula``, in dual-frame matrix elements
    over the truncation-safe slots, excluding the zero-excitation
    slot.  All factors go through ``deformed`` on the column frames
    S e_j; forming the dense deformed matrices first loses about
    cond(S) * eps and does not meet the tolerance.
    """
    space = smap.space
    if h0.shape != smap.s.shape:
        raise ValueError("Hamiltonian and similarity map live on different spaces")
    if params.coupling == 0 and params.detuning() == 0.0:
        raise ValueError("gap operator is singular with zero coupling and zero detuning")
    t0, t0_inv = build_block_rotation(space, params)

    cols = [i for i in space.safe_bare_indices() if i != 0]
    frame = smap.s[:, cols]
    lhs = deformed(smap, [t0_inv, h0, t0], frame)
    rhs = frame * energy_formula(params, space)[cols][None, :]
    residual = _apply(smap.s_inv, lhs - rhs)
    return float(np.abs(residual[cols, :]).max())


def dual_frame_algebra_residual(smap: SimilarityMap, a_bare: np.ndarray,
                                b_bare: np.ndarray, target_bare: np.ndarray,
                                anticommute: bool = False) -> float:
    """Residual of [a_alpha, b_alpha] = target_alpha in dual-frame elements.

    Computes S^-1 ((a_alpha b_alpha -+ b_alpha a_alpha - target_alpha)
    S e_j) over truncation-safe slots by composition; the sign is plus
    when ``anticommute`` is set.  Exactly zero in exact arithmetic
    whenever the bare identity holds on those slots, so the returned
    number measures pure rounding of the evaluation chain.
    """
    idx = smap.space.safe_bare_indices()
    frame = smap.s[:, idx]
    ab = deformed(smap, [a_bare, b_bare], frame)
    ba = deformed(smap, [b_bare, a_bare], frame)
    combo = ab + ba if anticommute else ab - ba
    combo -= deformed(smap, [target_bare], frame)
    residual = _apply(smap.s_inv, combo)
    return float(np.abs(residual[idx, :]).max())


def pseudo_algebra_residuals(smap: SimilarityMap) -> dict:
    """Deformed ladder algebra residuals on the safe subspace.

    [d_alpha, D_alpha] = 1, {c_alpha, C_alpha} = 1, c_alpha^2 = 0 and
    the cross commutator [d_alpha, c_alpha] = 0, each in dual-frame
    matrix elements.
    """
    ops = build_fock_operators(smap.space)
    dim = smap.space.total_dim
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    return {
        "ccr": dual_frame_algebra_residual(smap, ops["d"], ops["d_dag"], eye),
        "car": dual_frame_algebra_residual(smap, ops["c"], ops["c_dag"], eye,
                                           anticommute=True),
        "fermion_nilpotent": dual_frame_algebra_residual(
            smap, ops["c"], ops["c"], zero, anticommute=True),
        "cross_commutator": dual_frame_algebra_residual(smap, ops["d"], ops["c"], zero),
    }


def diagnostics_record(system: BiorthogonalSystem, smap: SimilarityMap,
                       h0: np.ndarray, params: JcParams) -> dict:
    """Scalar diagnostics bundle used by the command-line front end."""
    gram = system.gram()
    off = gram - np.diag(np.diag(gram))
    res_phi, res_psi = eigen_residuals(system, h0, smap)
    formula = energy_formula(params, system.space)[[2 * m + k for m, k in system.labels]]
    return {
        "alpha": smap.alpha,
        "boson_levels": system.space.boson_levels,
        "cond2": smap.cond2,
        "energies": [float(e) for e in system.energies],
        "gram_max_offdiag": float(np.abs(off).max()),
        "eigen_residual_max": max(res_phi, res_psi),
        "metric_residuals": metric_checks(system, smap),
        "energy_formula_max_dev": float(np.abs(system.energies - formula).max()),
    }
