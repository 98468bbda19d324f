"""Similarity-deformed model: biorthogonal eigenfamilies and identities.

A Hermitian generator G and a real deformation strength alpha define
S = exp(alpha G); G is a boson plus a fermion term, so S is a
Kronecker product.  Conjugating the Hermitian excitation-conserving
Hamiltonian H0 and its ladder operators by S produces a non-Hermitian
H_alpha with deformed ladder operators whose commutation relations are
preserved, two biorthogonal eigenfamilies Phi-hat = S Phi, Psi-hat =
S^-1 Phi, a metric identity Phi-hat = S^2 Psi-hat, and a block
rotation T_alpha that diagonalizes H_alpha over the truncation-safe
levels.

Numerical policy used throughout this module: identities involving
deformed operators are never evaluated by forming dense triple
products S X S^-1 and multiplying those.  The norm of S grows like
exp(|alpha| ||G||) and dense products lose roughly cond(S) * eps of
absolute accuracy, which at the default configuration already exceeds
the 1e-9 targets.  Instead every check applies operators to column
frames S e_j in composition order and reads the result back through
S^-1, which measures the matrix elements between the two biorthogonal
families, the frame in which the identities are actually claimed.
The evaluation order is load bearing; tests pin the achieved
residuals.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fockspace import FockSpace, OperatorMatrix, build_fock_operators
from .jc import JcParams, eigvec_column_matrix, t_block

# Residual allowed in S S^-1 = identity at construction.  Rounding
# leaves about eps * cond2(S) = eps * exp(|alpha| spread(G)), so this
# tolerance is what bounds alpha for a given truncation.
INVERSE_IDENTITY_TOL = 1e-10

# Eigenvalue gaps below this flag a degenerate cluster: the pairing of
# the two families inside the cluster would be arbitrary.
DEGENERACY_TOL = 1e-10

# Bare excitation cutoff for the fixed probe battery used by the
# resolution-of-identity checks: matrix elements are sampled between
# bare states with m + k at most this.
PROBE_EXCITATION_MAX = 5

# States examined by the energy-convention oracle.
CONVENTION_STATES = 10
CONVENTION_TOL = 1e-8


class EnergyConvention(enum.Enum):
    """Argument entering the square root of the closed-form energies."""

    TOTAL_EXCITATION = "total-excitation"
    TOTAL_EXCITATION_PLUS_ONE = "total-excitation-plus-one"


@dataclass(frozen=True)
class SimilarityMap:
    """S = exp(alpha G) and its inverse, built from their boson and fermion factors.

    G = X_b (x) 1 + 1 (x) sigma_x on the interleaved basis, with the
    boson factor X_b = b + b' = V diag(eigvals) V^T, V = eigvecs.  The
    two terms commute, so S^k = exp(k alpha X_b) (x) exp(k alpha sigma_x).
    """

    space: FockSpace
    alpha: float
    eigvals: np.ndarray
    eigvecs: np.ndarray
    s: OperatorMatrix
    s_inv: OperatorMatrix

    @property
    def cond2(self) -> float:
        """Exact cond2(S) = exp(|alpha| spread(G)), spread(G) = spread(X_b) + 2."""
        return math.exp(abs(self.alpha) * (float(self.eigvals[-1] - self.eigvals[0]) + 2.0))

    def power(self, k: float) -> np.ndarray:
        """S^k as a dense matrix."""
        return _kron_exp(self.eigvals, self.eigvecs, k * self.alpha)


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired eigenfamilies of H_alpha and its adjoint.

    Columns of ``phis`` are Phi-hat = S Phi (right eigenvectors of
    H_alpha); columns of ``psis`` are Psi-hat = S^-1 Phi scaled so the
    pairing <Phi-hat_j, Psi-hat_j> is exactly 1.  ``labels`` holds the
    (n, k) occupancy labels, ``degenerate`` flags members of
    eigenvalue clusters closer than DEGENERACY_TOL, where the pairing
    across families is not well defined.
    """

    space: FockSpace
    alpha: float
    phis: np.ndarray
    psis: np.ndarray
    energies: np.ndarray
    labels: tuple
    degenerate: np.ndarray
    eigvecs_bare: np.ndarray

    def __post_init__(self):
        m = len(self.energies)
        if not (self.phis.shape[1] == self.psis.shape[1] == m
                == len(self.labels) == len(self.degenerate)
                == self.eigvecs_bare.shape[1]):
            raise ValueError("inconsistent system component lengths")

    def __len__(self) -> int:
        return len(self.energies)

    def gram(self) -> np.ndarray:
        return self.phis.conj().T @ self.psis


def _kron_exp(eigvals: np.ndarray, eigvecs: np.ndarray, t: float) -> np.ndarray:
    """exp(t X_b) (x) (cosh t + sinh t sigma_x), the exact identity at t = 0."""
    if t == 0.0:
        return np.eye(2 * len(eigvals))
    boson = (eigvecs * np.exp(t * eigvals)) @ eigvecs.T
    fermion = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    return np.kron(boson, fermion)


def default_generator(space: FockSpace) -> OperatorMatrix:
    """Hermitian position-like sum (d + d') + (c + c')."""
    ops = build_fock_operators(space)
    g = (ops["d"].entries + ops["d_dag"].entries
         + ops["c"].entries + ops["c_dag"].entries)
    return OperatorMatrix(space, g, "ladder-sum generator")


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
    estimate |alpha| - ln(residual / tol) / spread(G) on a 1e-3 grid
    (halving while exp overflows) and measuring again, with the sign of
    alpha, until the check passes: near the tolerance the residual
    scatters about that line, and a rerun at alpha_max must pass.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    off = np.sqrt(np.arange(1.0, space.boson_levels))
    eigvals, eigvecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    spread = float(eigvals[-1] - eigvals[0]) + 2.0
    s, s_inv, residual = _inverse_pair(eigvals, eigvecs, alpha)
    alpha_max, check = abs(alpha), residual
    while not check <= INVERSE_IDENTITY_TOL:
        step = (math.log(check / INVERSE_IDENTITY_TOL) / spread
                if math.isfinite(check) else alpha_max / 2.0)
        alpha_max = max(math.floor((alpha_max - max(step, 1e-3)) * 1000.0) / 1000.0, 0.0)
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
        eigvals=eigvals,
        eigvecs=eigvecs,
        s=OperatorMatrix(space, s, "similarity"),
        s_inv=OperatorMatrix(space, s_inv, "inverse similarity"),
    )


def energy_formula(params: JcParams, n: int, k: int,
                   convention: EnergyConvention) -> float:
    """Closed-form eigenvalue for occupancy label (n, k).

    E = [omega - sqrt(delta^2 + 4 |eps|^2 arg)] (k - 1/2) + omega n,
    with arg = n + k for TOTAL_EXCITATION and n + k + 1 for
    TOTAL_EXCITATION_PLUS_ONE.  At arg = 0 the undressed state takes the
    root -delta, as in _bare_gap_diagonal, so E(0, 0) = -omega0 / 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if convention is EnergyConvention.TOTAL_EXCITATION:
        arg = n + k
    elif convention is EnergyConvention.TOTAL_EXCITATION_PLUS_ONE:
        arg = n + k + 1
    else:
        raise ValueError(f"unknown convention {convention!r}")
    delta = params.detuning()
    gap = (-delta if arg == 0
           else math.sqrt(delta ** 2 + 4.0 * abs(params.coupling) ** 2 * arg))
    return (params.omega - gap) * (k - 0.5) + params.omega * n


def build_biorthogonal_system(h0: OperatorMatrix, smap: SimilarityMap,
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
    space = h0.space
    if h0.space != smap.space:
        raise ValueError("Hamiltonian and similarity map live on different spaces")
    budget = space.safe_state_budget()
    if count is None:
        count = budget
    if not (1 <= count <= budget):
        raise ValueError(f"count must be in [1, {budget}], got {count}")

    blocks = (np.arange(space.total_dim) + 1) // 2  # total excitation m + k per slot
    if np.any(h0.entries[blocks[:, None] != blocks[None, :]]):
        raise ValueError("H0 has entries outside its total-excitation blocks")
    slots = space.block_slots()
    rows, cols = slots[:, :, None], slots[:, None, :]
    evals = np.diagonal(h0.entries).real.copy()
    evecs = np.eye(space.total_dim, dtype=complex)
    evals[slots], evecs[rows, cols] = np.linalg.eigh(h0.entries[rows, cols])

    order = np.argsort(evals, kind="stable")
    diff = np.diff(evals[order])
    gaps = np.minimum(np.append(diff, np.inf), np.insert(diff, 0, np.inf))
    kept = np.flatnonzero(blocks[order] <= space.safe_block_max())[:count]
    included = order[kept]

    v_incl = evecs[:, included]
    phis = smap.s.entries @ v_incl
    psis = smap.s_inv.entries @ v_incl
    pairing = np.einsum("ij,ij->j", phis.conj(), psis)
    if np.any(np.abs(pairing) < 1e-8):
        raise ArithmeticError("near-singular family pairing; cannot normalize")
    psis = psis / pairing[None, :]

    return BiorthogonalSystem(
        space=space,
        alpha=smap.alpha,
        phis=phis,
        psis=psis,
        energies=evals[included],
        labels=tuple(space.unpack(int(i)) for i in included),
        degenerate=gaps[kept] < DEGENERACY_TOL,
        eigvecs_bare=v_incl,
    )


def eigen_residuals(system: BiorthogonalSystem, h0: OperatorMatrix,
                    smap: SimilarityMap) -> tuple[float, float]:
    """Relative eigen-residuals of H_alpha on Phi-hat and its adjoint on Psi-hat.

    Uses the algebraic transport H_alpha (S v) = S (H0 v) and
    H_alpha-dagger (S^-1 v) = S^-1 (H0 v), so the bare residual is
    mapped through one well-conditioned product instead of a dense
    similarity sandwich.
    """
    v = system.eigvecs_bare
    bare = h0.entries @ v - v * system.energies[None, :]
    res_phi = smap.s.entries @ bare
    res_psi = smap.s_inv.entries @ bare
    phi_norms = np.linalg.norm(system.phis, axis=0)
    psi_scale = np.linalg.norm(smap.s_inv.entries @ v, axis=0)
    rel_phi = np.linalg.norm(res_phi, axis=0) / phi_norms
    rel_psi = np.linalg.norm(res_psi, axis=0) / psi_scale
    return float(rel_phi.max()), float(rel_psi.max())


def probe_battery(space: FockSpace,
                  excitation_max: int = PROBE_EXCITATION_MAX) -> np.ndarray:
    """Columns of bare basis vectors with m + k <= excitation_max."""
    idx = [space.index(m, k) for m in range(space.boson_levels) for k in (0, 1)
           if m + k <= excitation_max]
    return np.eye(space.total_dim)[:, idx]


def metric_checks(system: BiorthogonalSystem, smap: SimilarityMap) -> dict:
    """Metric identity and resolution-of-identity diagnostics.

    (a) per-state residual of Phi-hat = S^2 Psi-hat, evaluated as
    S (S Psi-hat) and reported both absolutely and relative to
    ||Phi-hat||; (b) matrix elements of sum |Phi-hat><Phi-hat| - S^2
    on the fixed low-excitation probe battery; (c) the dual check with
    Psi-hat and S^-2.  The probe battery stays fixed as ``count``
    grows, so the completeness trend in (b)/(c) is monotone in the
    included family.
    """
    s = smap.s.entries
    s_inv = smap.s_inv.entries
    diffs = system.phis - s @ (s @ system.psis)
    abs_per_state = np.linalg.norm(diffs, axis=0)
    rel_per_state = abs_per_state / np.linalg.norm(system.phis, axis=0)

    s2 = smap.power(2.0)
    sm2 = smap.power(-2.0)
    probes = probe_battery(system.space)
    res_phi = probes.conj().T @ (system.phis @ system.phis.conj().T - s2) @ probes
    res_psi = probes.conj().T @ (system.psis @ system.psis.conj().T - sm2) @ probes

    return {
        "identity_abs_max": float(abs_per_state.max()),
        "identity_rel_max": float(rel_per_state.max()),
        "resolution_phi": float(np.abs(res_phi).max()),
        "resolution_psi": float(np.abs(res_psi).max()),
        "probe_count": probes.shape[1],
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
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in trial_vectors]
    dim = system.space.total_dim
    for v in vecs:
        if v.shape != (dim,):
            raise ValueError("trial vector has wrong dimension")
    phis = system.phis
    psis = system.psis
    span_defects = []
    for v in vecs:
        coeff, *_ = np.linalg.lstsq(phis, v, rcond=None)
        resid = v - phis @ coeff
        span_defects.append(float(np.linalg.norm(resid) / max(np.linalg.norm(v), 1e-300)))
    records = []
    for i, f in enumerate(vecs):
        phi_f = phis.conj().T @ f
        psi_f = psis.conj().T @ f
        for j, g in enumerate(vecs):
            exact = np.vdot(f, g)
            psi_g = psis.conj().T @ g
            phi_g = phis.conj().T @ g
            direct = np.sum(np.conj(phi_f) * psi_g)
            swapped = np.sum(np.conj(psi_f) * phi_g)
            records.append({
                "f_index": i,
                "g_index": j,
                "direct": float(abs(exact - direct)),
                "swapped": float(abs(exact - swapped)),
                "f_span_defect": span_defects[i],
                "g_span_defect": span_defects[j],
            })
    return records


def _bare_gap_diagonal(space: FockSpace, params: JcParams) -> np.ndarray:
    """Diagonal of the gap operator Delta(N) at the bare indices.

    sqrt(delta^2 + 4 eps^2 (m + k)) per slot, except the two slots that
    belong to no complete two-state block: the zero-excitation state
    and the orphan top state (m = N_b - 1, k = 1).  There the dressing
    is absent and matching the actual diagonal energy forces the value
    -delta; with that choice the bare rotation identity is exact on
    every slot.
    """
    delta = params.detuning()
    excitation = (np.arange(space.total_dim) + 1) // 2
    vals = np.sqrt(delta ** 2 + 4.0 * abs(params.coupling) ** 2 * excitation)
    vals[[0, -1]] = -delta
    return vals


def build_block_rotation(space: FockSpace, params: JcParams) -> tuple[np.ndarray, np.ndarray]:
    """T0 and its inverse, assembled block-wise on the bare space.

    Block N couples its bare slots (``FockSpace.block_slots``); each
    gets the 2x2 eigenvector column matrix, whose transpose is its
    inverse.  The zero-excitation slot and the orphan top slot stay
    identity.
    """
    if params.coupling.imag != 0.0:
        raise ValueError("block rotation is defined for real coupling")
    dim = space.total_dim
    t0 = np.eye(dim, dtype=complex)
    t0_inv = np.eye(dim, dtype=complex)
    for n, pair in enumerate(space.block_slots(), start=1):
        sel = np.ix_(pair, pair)
        t0[sel] = eigvec_column_matrix(params, n)
        t0_inv[sel] = t_block(params, n)
    return t0, t0_inv


def t_alpha_diagonalization_check(h0: OperatorMatrix, smap: SimilarityMap,
                                  params: JcParams) -> float:
    """Residual of the deformed block rotation bringing H_alpha diagonal.

    Verifies T_alpha^-1 H_alpha T_alpha = omega D_alpha d_alpha +
    (omega - Delta(N_alpha)) (C_alpha c_alpha - 1/2) in dual-frame
    matrix elements over the truncation-safe slots, excluding the
    zero-excitation slot.  All factors are applied as compositions of
    S, S^-1 and bare operators to column frames S e_j; forming the
    dense deformed matrices first loses about cond(S) * eps and does
    not meet the tolerance.
    """
    space = h0.space
    if h0.space != smap.space:
        raise ValueError("Hamiltonian and similarity map live on different spaces")
    if params.coupling == 0 and params.detuning() == 0.0:
        raise ValueError("gap operator is singular with zero coupling and zero detuning")
    t0, t0_inv = build_block_rotation(space, params)
    gap = _bare_gap_diagonal(space, params)
    mvals, kvals = np.divmod(np.arange(space.total_dim), 2)
    diag_vals = params.omega * mvals + (params.omega - gap) * (kvals - 0.5)

    s = smap.s.entries
    s_inv = smap.s_inv.entries
    cols = [i for i in space.safe_bare_indices() if i != 0]
    frame = s[:, cols]

    v = s_inv @ frame
    v = t0 @ v
    v = s @ v
    v = s_inv @ v
    v = h0.entries @ v
    v = s @ v
    v = s_inv @ v
    v = t0_inv @ v
    lhs = s @ v
    rhs = frame * diag_vals[cols][None, :]
    residual = s_inv @ (lhs - rhs)
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
    space = smap.space
    s = smap.s.entries
    s_inv = smap.s_inv.entries
    idx = space.safe_bare_indices()
    frame = s[:, idx]

    def apply_deformed(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
        return s @ (mat @ (s_inv @ v))

    ab = apply_deformed(a_bare, apply_deformed(b_bare, frame))
    ba = apply_deformed(b_bare, apply_deformed(a_bare, frame))
    combo = ab + ba if anticommute else ab - ba
    combo -= apply_deformed(target_bare, frame)
    residual = s_inv @ combo
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
        "ccr": dual_frame_algebra_residual(smap, ops["d"].entries,
                                           ops["d_dag"].entries, eye),
        "car": dual_frame_algebra_residual(smap, ops["c"].entries,
                                           ops["c_dag"].entries, eye,
                                           anticommute=True),
        "fermion_nilpotent": dual_frame_algebra_residual(
            smap, ops["c"].entries, ops["c"].entries, zero, anticommute=True),
        "cross_commutator": dual_frame_algebra_residual(
            smap, ops["d"].entries, ops["c"].entries, zero),
    }


def convention_match(params: JcParams,
                     system: BiorthogonalSystem) -> EnergyConvention | None:
    """Which closed-form convention reproduces the computed spectrum.

    Compares the CONVENTION_STATES lowest included energies against
    energy_formula under both conventions; returns the unique
    convention agreeing within CONVENTION_TOL, or None when zero or
    both agree.
    """
    m = min(CONVENTION_STATES, len(system))
    matches = []
    for conv in EnergyConvention:
        dev = max(
            abs(system.energies[i] - energy_formula(params, *system.labels[i], conv))
            for i in range(m)
        )
        if dev <= CONVENTION_TOL:
            matches.append(conv)
    if len(matches) == 1:
        return matches[0]
    return None


def diagnostics_record(system: BiorthogonalSystem, smap: SimilarityMap,
                       h0: OperatorMatrix, params: JcParams) -> dict:
    """Scalar diagnostics bundle used by the command-line front end."""
    gram = system.gram()
    off = gram - np.diag(np.diag(gram))
    res_phi, res_psi = eigen_residuals(system, h0, smap)
    metric = metric_checks(system, smap)
    conv = convention_match(params, system)
    return {
        "alpha": smap.alpha,
        "boson_levels": system.space.boson_levels,
        "cond2": smap.cond2,
        "energies": [float(e) for e in system.energies],
        "gram_max_offdiag": float(np.abs(off).max()),
        "eigen_residual_max": max(res_phi, res_psi),
        "metric_residuals": {
            "identity_abs_max": metric["identity_abs_max"],
            "identity_rel_max": metric["identity_rel_max"],
            "resolution_phi": metric["resolution_phi"],
            "resolution_psi": metric["resolution_psi"],
        },
        "convention_match": None if conv is None else conv.value,
    }
