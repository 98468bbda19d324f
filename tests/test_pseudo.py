"""Similarity deformation, biorthogonal families, and their diagnostics.

The expensive default bundle (N_b = 32, alpha = 0.5, epsilon = 0.1,
resonant) is built once per session in conftest; tests on other
parameters use smaller spaces.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from conftest import H0_GRID_LEVELS, H0_GRID_PARAMS

from ptjc.fockspace import FockSpace, build_fock_operators, build_h0
from ptjc.jc import JcParams
from ptjc.pseudo import (
    build_biorthogonal_system,
    build_block_rotation,
    build_similarity,
    deformed,
    diagnostics_record,
    dual_frame_algebra_residual,
    energy_formula,
    eigen_residuals,
    metric_checks,
    pseudo_algebra_residuals,
    quasi_basis_check,
    t_alpha_diagonalization_check,
)

GRAM_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-9
METRIC_REL_TOL = 1e-10
T_ALPHA_TOL = 1e-9
ALGEBRA_TOL = 1e-10


def default_generator(space: FockSpace) -> np.ndarray:
    """Hermitian position-like sum (d + d') + (c + c')."""
    ops = build_fock_operators(space)
    return ops["d"] + ops["d_dag"] + ops["c"] + ops["c_dag"]


def small_bundle(alpha=0.5, omega0=1.0, omega=1.0, eps=0.1, boson_levels=12):
    params = JcParams(omega0=omega0, omega=omega, coupling=eps)
    space = FockSpace(boson_levels=boson_levels)
    h0 = build_h0(params, space)
    smap = build_similarity(space, alpha)
    return params, space, h0, smap


class TestGenerator:
    def test_is_hermitian_ladder_sum(self):
        space = FockSpace(boson_levels=6)
        gen = default_generator(space)
        ops = build_fock_operators(space)
        expected = ops["d"] + ops["d_dag"] + ops["c"] + ops["c_dag"]
        assert np.array_equal(gen, expected)
        assert np.abs(gen - gen.conj().T).max() == 0.0

    def test_anticommutes_with_parity(self):
        # G changes total excitation by one, so (-1)^N G (-1)^N = -G;
        # this symmetry is why the Phi and Psi residual norms coincide
        space = FockSpace(boson_levels=6)
        gen = default_generator(space)
        parity = np.diag([(-1.0) ** (m + k) for m in range(6) for k in (0, 1)])
        assert np.abs(parity @ gen @ parity + gen).max() == 0.0


class TestBuildSimilarity:
    def test_alpha_zero_is_identity(self):
        _, space, _, smap = small_bundle(alpha=0.0, boson_levels=6)
        assert np.array_equal(smap.s, np.eye(space.total_dim))
        assert np.array_equal(smap.s_inv, np.eye(space.total_dim))
        assert smap.cond2 == 1.0

    def test_inverse_identity(self, pseudo_default):
        smap = pseudo_default["smap"]
        dim = smap.space.total_dim
        res = np.abs(smap.s @ smap.s_inv - np.eye(dim)).max()
        assert res <= 1e-10

    def test_self_adjoint(self, pseudo_default):
        s = pseudo_default["smap"].s
        assert np.abs(s - s.conj().T).max() <= 1e-11 * np.abs(s).max()

    def test_default_conditioning_not_flagged(self, pseudo_default):
        # cond2(S) = exp(|alpha| spread(G)) exactly, for Hermitian G
        smap = pseudo_default["smap"]
        lam = np.linalg.eigvalsh(default_generator(smap.space))
        expected = math.exp(0.5 * (lam[-1] - lam[0]))
        assert smap.cond2 == pytest.approx(expected, rel=1e-12)
        assert 6e4 <= smap.cond2 <= 7e4  # spread 22.15 at 32 levels

    @pytest.mark.parametrize("levels", [32, 48, 64, 96])
    def test_conditioning_grows_like_exp_four_root_levels(self, levels):
        # spread(X_b) grows like 4 sqrt(N_b), so no bound on cond2 holds across
        # truncations; measured 3.916, 3.953, 3.972 and 3.990 at alpha = 0.25
        smap = build_similarity(FockSpace(boson_levels=levels), 0.25)
        assert math.log(smap.cond2) / (0.25 * math.sqrt(levels)) == pytest.approx(4.0, rel=0.05)

    def test_matches_expm_of_generator(self):
        _, space, _, smap = small_bundle(alpha=0.3, boson_levels=8)
        ref = scipy.linalg.expm(0.3 * default_generator(space))
        assert np.abs(smap.s - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha", [0.3, -0.3])
    def test_kronecker_factors_match_expm_at_48_levels(self, alpha):
        # S and S^-1 are built from X_b and sigma_x alone; the dense G
        # is the oracle here
        space = FockSpace(boson_levels=48)
        smap = build_similarity(space, alpha)
        gen = default_generator(space)
        for mat, sign in ((smap.s, 1.0), (smap.s_inv, -1.0)):
            ref = scipy.linalg.expm(sign * alpha * gen)
            assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()  # measured 7.6e-15
        lam = np.linalg.eigvalsh(gen)
        assert smap.cond2 == pytest.approx(math.exp(abs(alpha) * (lam[-1] - lam[0])), rel=1e-12)

    def test_alpha_bound(self):
        space = FockSpace(boson_levels=6)
        with pytest.raises(ValueError):
            build_similarity(space, 2.5)
        with pytest.raises(ValueError):
            build_similarity(space, math.inf)

    def test_named_alpha_max_passes(self):
        # the named strength was checked with the sign of alpha; the
        # Kronecker S runs alpha = 1.0 here and names about 1.01
        space = FockSpace(boson_levels=16)
        for alpha in (1.5, -1.5, 1e6):
            with pytest.raises(ValueError) as info:
                build_similarity(space, alpha)
            alpha_max = float(str(info.value).split("alpha_max(16) = ")[1].split()[0])
            assert 0.0 < alpha_max < 1.5
            build_similarity(space, math.copysign(alpha_max, alpha))


def conjugated(smap, mat):
    """Dense X_alpha = S X S^-1; the module itself never forms these."""
    return smap.s @ (mat @ smap.s_inv)


class TestDeform:
    def test_alpha_zero_leaves_everything_bare(self):
        params, space, h0, smap = small_bundle(alpha=0.0, boson_levels=6)
        assert np.abs(conjugated(smap, h0) - h0).max() == 0.0
        ops = build_fock_operators(space)
        d = ops["d"]
        assert np.abs(conjugated(smap, d) - d).max() == 0.0

    def test_deformed_hamiltonian_is_not_hermitian(self, pseudo_default):
        h_a = conjugated(pseudo_default["smap"], pseudo_default["h0"])
        assert np.abs(h_a - h_a.conj().T).max() > 0.01

    def test_number_operator_assembly(self, pseudo_default):
        # D_alpha d_alpha + C_alpha c_alpha = S N S^-1: the inner S^-1 S
        # pairs cancel up to the conditioning of S
        smap = pseudo_default["smap"]
        ops = build_fock_operators(smap.space)
        n_alpha = (conjugated(smap, ops["d_dag"]) @ conjugated(smap, ops["d"])
                   + conjugated(smap, ops["c_dag"]) @ conjugated(smap, ops["c"]))
        number = ops["d_dag"] @ ops["d"] + ops["c_dag"] @ ops["c"]
        ref = conjugated(smap, number)
        assert np.abs(n_alpha - ref).max() <= 1e-9 * np.abs(ref).max()  # measured 6.5e-11

    def test_isospectral_with_bare(self, pseudo_default):
        # similarity cannot move eigenvalues; numpy eigvals on the dense
        # deformed matrix is the independent route here
        h0 = pseudo_default["h0"]
        h_a = conjugated(pseudo_default["smap"], h0)
        bare = np.sort(np.linalg.eigvalsh(h0))
        deformed_evals = np.sort(np.linalg.eigvals(h_a).real)
        assert np.abs(bare - deformed_evals).max() <= 1e-7  # measured 1.0e-8

    @pytest.mark.parametrize("names", [("d", "c_dag"), ("d_dag", "h0", "c")])
    def test_deformed_matches_dense_products(self, names):
        # the evaluator against the dense sandwiches it never forms, at a
        # conditioning where the dense route is still accurate
        params, space, h0, smap = small_bundle(alpha=0.3, boson_levels=8)
        ops = dict(build_fock_operators(space), h0=h0)
        v = np.random.default_rng(3).standard_normal((space.total_dim, 5))
        got = deformed(smap, [ops[name] for name in names], v)
        dense = v
        for name in reversed(names):
            dense = conjugated(smap, ops[name]) @ dense
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def dense_labels(space, evecs):
    """(n, k) per column of a dense ascending eigh: the total excitation N
    as the expectation of m + k; the lower root of a two-state block N is
    (N-1, 1), every other state (N, 0)."""
    excitation = (np.arange(space.total_dim) + 1) // 2
    blocks = np.rint(excitation @ np.abs(evecs) ** 2).astype(int)
    labels = []
    for i, b in enumerate(blocks):
        members = np.flatnonzero(blocks == b)
        labels.append((b - 1, 1) if b > 0 and len(members) == 2 and members[0] == i
                      else (b, 0))
    return labels


class TestBlockEigenpairs:
    @pytest.mark.parametrize("boson_levels", [8, 48])
    @pytest.mark.parametrize("omega0", [0.95, 1.0, 1.05])
    @pytest.mark.parametrize("eps", [0.1, 0.06 - 0.08j])
    def test_against_dense_eigh(self, boson_levels, omega0, eps):
        params, space, h0, smap = small_bundle(alpha=0.2, omega0=omega0, eps=eps,
                                               boson_levels=boson_levels)
        system = build_biorthogonal_system(h0, smap)
        evals, evecs = np.linalg.eigh(h0)
        # blocks interleave in energy at 48 levels: pair each kept state
        # with its nearest dense eigenvalue (the spectrum is simple)
        match = np.abs(system.energies[:, None] - evals[None, :]).argmin(axis=1)
        assert len(set(match)) == len(system.energies)
        assert np.abs(system.energies - evals[match]).max() <= 1e-12  # measured 0
        labels = dense_labels(space, evecs)
        assert list(system.labels) == [labels[i] for i in match]
        overlaps = np.abs(np.einsum("ij,ij->j", evecs[:, match].conj(), system.eigvecs_bare))
        assert np.abs(overlaps - 1.0).max() <= 1e-12  # measured 4.4e-16

    def test_refuses_h0_of_another_space(self):
        params, space, _, smap = small_bundle(boson_levels=6)
        h0 = build_h0(params, FockSpace(boson_levels=8))
        with pytest.raises(ValueError, match="different spaces"):
            build_biorthogonal_system(h0, smap)
        with pytest.raises(ValueError, match="different spaces"):
            t_alpha_diagonalization_check(h0, smap, params)

    def test_refuses_entries_outside_blocks(self):
        params, space, h0, smap = small_bundle(boson_levels=6)
        coupled = h0.copy()
        coupled[0, 3] = coupled[3, 0] = 0.01  # |0,0> to |1,1>: blocks 0 and 2
        with pytest.raises(ValueError, match="outside its total-excitation blocks"):
            build_biorthogonal_system(coupled, smap)


class TestEnergyFormula:
    def test_resonant_split_pair(self):
        e = energy_formula(JcParams(1.0, 1.0, 0.1), FockSpace(boson_levels=4))
        assert e[1] == pytest.approx(0.5 - 0.1, abs=1e-15)  # (0, 1)
        assert e[2] == pytest.approx(0.5 + 0.1, abs=1e-15)  # (1, 0)

    @pytest.mark.parametrize("omega0", [0.95, 1.0, 1.05])
    def test_ground_state_is_undressed(self, omega0):
        # E(0, 0) = -omega0 / 2 on either side of resonance, and the
        # orphan top slot (N_b - 1, 1) keeps its bare energy too
        e = energy_formula(JcParams(omega0, 1.0, 0.1), FockSpace(boson_levels=6))
        assert e[0] == pytest.approx(-omega0 / 2.0, abs=1e-15)
        assert e[-1] == pytest.approx(5.0 + omega0 / 2.0, abs=1e-15)

    @pytest.mark.parametrize("boson_levels", H0_GRID_LEVELS)
    @pytest.mark.parametrize("params", H0_GRID_PARAMS)
    def test_matches_dense_eigvalsh(self, boson_levels, params):
        # every slot, the safe blocks among them: the truncated H0 holds
        # exactly these blocks and the two undressed slots
        space = FockSpace(boson_levels=boson_levels)
        h0 = build_h0(params, space)
        dense = np.linalg.eigvalsh(h0)
        dev = np.abs(np.sort(energy_formula(params, space)) - dense).max()
        assert dev <= 1e-14 * np.abs(h0).max()  # measured 3.3e-16 relative

    @pytest.mark.parametrize("omega0", [0.95, 1.0, 1.05])
    @pytest.mark.parametrize("eps", [0.1, 0.06 - 0.08j])
    def test_max_dev_either_side_of_resonance(self, omega0, eps):
        params, _, h0, smap = small_bundle(omega0=omega0, eps=eps, boson_levels=16)
        system = build_biorthogonal_system(h0, smap)
        record = diagnostics_record(system, smap, h0, params)
        assert record["energy_formula_max_dev"] <= 1e-12


class TestBiorthogonalSystem:
    def test_default_count_is_safe_budget(self, pseudo_default):
        system = pseudo_default["system"]
        assert len(system.energies) == 57

    def test_count_validation(self, pseudo_default):
        with pytest.raises(ValueError):
            build_biorthogonal_system(pseudo_default["h0"],
                                      pseudo_default["smap"], count=0)
        with pytest.raises(ValueError):
            build_biorthogonal_system(pseudo_default["h0"],
                                      pseudo_default["smap"], count=58)

    def test_labels_low_spectrum(self, pseudo_default):
        system = pseudo_default["system"]
        assert system.labels[0] == (0, 0)
        assert set(system.labels[1:3]) == {(0, 1), (1, 0)}
        # within block 1 the lower state is (0, 1)
        assert system.labels[1] == (0, 1)

    def test_energies_ascending_and_resonant_closed_form(self, pseudo_default):
        system = pseudo_default["system"]
        assert np.all(np.diff(system.energies) >= 0)
        # E(b, lower/upper) = b - 1/2 -+ 0.1 sqrt(b) at resonance
        expected = [-0.5]
        for b in range(1, 29):
            expected += [b - 0.5 - 0.1 * math.sqrt(b), b - 0.5 + 0.1 * math.sqrt(b)]
        expected = np.sort(np.array(expected))
        assert np.abs(system.energies - expected[:57]).max() <= 1e-10

    def test_gram_identity_alpha_zero(self):
        params, space, h0, smap = small_bundle(alpha=0.0)
        system = build_biorthogonal_system(h0, smap)
        gram = system.gram()
        assert np.abs(gram - np.eye(len(system.energies))).max() <= 1e-12

    def test_gram_biorthonormal_default(self, pseudo_default):
        gram = pseudo_default["system"].gram()
        off = gram - np.diag(np.diag(gram))
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-12
        assert np.abs(off).max() <= GRAM_TOL  # measured 2.1e-12

    def test_phi_family_alone_is_not_orthonormal(self, pseudo_default):
        phis = pseudo_default["system"].phis
        overlap = phis.conj().T @ phis
        assert np.abs(overlap - np.eye(phis.shape[1])).max() > 1.0

    @pytest.mark.parametrize("boson_levels, alpha", [(12, 0.5), (32, 0.5), (32, -0.3), (48, 0.3)])
    def test_every_block_degenerate(self, boson_levels, alpha):
        # eps = 0 at resonance: both slots of every block share one
        # energy, yet eigh's orthonormal V and a Hermitian S pair the
        # families exactly
        params, _, h0, smap = small_bundle(alpha=alpha, eps=0.0, boson_levels=boson_levels)
        system = build_biorthogonal_system(h0, smap)
        assert np.abs(system.gram() - np.eye(len(system.energies))).max() <= GRAM_TOL  # measured 1.7e-12
        assert max(eigen_residuals(system, h0, smap)) <= 1e-12  # measured 0.0

    def test_eigen_residuals(self, pseudo_default):
        res_phi, res_psi = eigen_residuals(pseudo_default["system"],
                                           pseudo_default["h0"],
                                           pseudo_default["smap"])
        assert res_phi <= 1e-12  # measured 1.04e-14
        assert res_psi <= 1e-12
        # parity symmetry of the generator makes the two coincide
        assert res_phi == pytest.approx(res_psi, rel=1e-9)


class TestMetricChecks:
    def test_alpha_zero_everything_tiny(self):
        params, space, h0, smap = small_bundle(alpha=0.0)
        system = build_biorthogonal_system(h0, smap)
        out = metric_checks(system, smap)
        assert out["identity_abs_max"] <= 1e-12
        assert out["resolution_phi"] <= 1e-12
        assert out["resolution_psi"] <= 1e-12

    def test_default_residuals(self, pseudo_default):
        out = metric_checks(pseudo_default["system"], pseudo_default["smap"])
        assert out["identity_rel_max"] <= METRIC_REL_TOL  # measured 2.0e-11
        assert out["resolution_phi"] <= 1e-12  # measured 1.4e-14
        assert out["resolution_psi"] <= 1e-12

    def test_completeness_trend(self, pseudo_default):
        # the fixed probe battery resolves once the included family
        # covers it; the residual must not grow as states are added
        vals = []
        for count in (19, 39, 57):
            system = build_biorthogonal_system(pseudo_default["h0"],
                                               pseudo_default["smap"], count=count)
            vals.append(metric_checks(system, pseudo_default["smap"])["resolution_phi"])
        assert vals[0] > 1e-3  # 19 states cannot resolve the battery
        assert vals[1] <= 1e-12
        assert vals[2] <= 1e-12

    @pytest.mark.parametrize("boson_levels", [4, 8, 32, 48])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, -0.3])
    @pytest.mark.parametrize("count", [19, None])
    def test_matches_dense_probe_battery(self, boson_levels, alpha, count):
        # oracle: identity columns for every bare state with
        # m + k <= 5 (all 8 slots at 4 levels, 11 from 6 levels up) and
        # dense S^+-2 = expm(+-2 alpha G) sandwiched between them
        params, space, h0, smap = small_bundle(alpha=alpha, boson_levels=boson_levels)
        if count is not None:
            count = min(count, space.safe_state_budget())
        system = build_biorthogonal_system(h0, smap, count)
        idx = [2 * m + k for m in range(boson_levels) for k in (0, 1) if m + k <= 5]
        probes = np.eye(space.total_dim)[:, idx]
        gen = default_generator(space)
        want = {}
        for key, fam, sign in (("resolution_phi", system.phis, 2.0),
                               ("resolution_psi", system.psis, -2.0)):
            res = probes.T @ (fam @ fam.conj().T - scipy.linalg.expm(sign * alpha * gen)) @ probes
            want[key] = float(np.abs(res).max())
        got = metric_checks(system, smap)
        assert set(got) == {"identity_abs_max", "identity_rel_max", *want}
        for key, value in want.items():
            # measured at most 5.8e-14 relative, at 8 levels
            assert abs(got[key] - value) <= 1e-12 * max(1.0, value)


def quasi_basis_loop(system, trial_vectors):
    """The per-pair records of ``quasi_basis_check``, one vector pair at a time."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in trial_vectors]
    phis, psis = system.phis, system.psis
    defects = []
    for v in vecs:
        coeff, *_ = np.linalg.lstsq(phis, v, rcond=None)
        defects.append(float(np.linalg.norm(v - phis @ coeff) / max(np.linalg.norm(v), 1e-300)))
    records = []
    for i, f in enumerate(vecs):
        for j, g in enumerate(vecs):
            exact = np.vdot(f, g)
            direct = np.sum(np.conj(phis.conj().T @ f) * (psis.conj().T @ g))
            swapped = np.sum(np.conj(psis.conj().T @ f) * (phis.conj().T @ g))
            records.append({"f_index": i, "g_index": j,
                            "direct": float(abs(exact - direct)),
                            "swapped": float(abs(exact - swapped)),
                            "f_span_defect": defects[i], "g_span_defect": defects[j]})
    return records


class TestQuasiBasis:
    def test_matches_the_per_pair_loop(self, pseudo_default, rng):
        system = pseudo_default["system"]
        dim = system.space.total_dim
        trials = [np.eye(dim)[:, 7], system.phis[:, 5],
                  rng.standard_normal(dim) + 1j * rng.standard_normal(dim)]
        got = quasi_basis_check(system, trials)
        want = quasi_basis_loop(system, trials)
        assert [list(r) for r in got] == [list(r) for r in want]
        for r, w in zip(got, want):
            assert (r["f_index"], r["g_index"]) == (w["f_index"], w["g_index"])
            for key in ("direct", "swapped", "f_span_defect", "g_span_defect"):
                # relative for the random vector, whose residuals reach ~1e4
                assert abs(r[key] - w[key]) <= 1e-13 * max(1.0, w[key]), key

    def test_in_span_pairs(self, pseudo_default, rng):
        system = pseudo_default["system"]
        phis = system.phis
        coeffs = rng.standard_normal(phis.shape[1]) + 1j * rng.standard_normal(phis.shape[1])
        g = phis @ (coeffs / np.linalg.norm(coeffs))
        f = np.zeros(system.space.total_dim, dtype=complex)
        f[7] = 1.0
        records = quasi_basis_check(system, [f, g])
        rec_fg = next(r for r in records if r["f_index"] == 0 and r["g_index"] == 1)
        assert rec_fg["g_span_defect"] <= 1e-9
        assert rec_fg["direct"] <= 1e-9
        rec_gf = next(r for r in records if r["f_index"] == 1 and r["g_index"] == 0)
        assert rec_gf["swapped"] <= 1e-9

    def test_single_term_expansion(self, pseudo_default):
        system = pseudo_default["system"]
        f = system.phis[:, 5].copy()
        records = quasi_basis_check(system, [f])
        assert records[0]["direct"] <= 1e-9
        assert records[0]["swapped"] <= 1e-9

    def test_out_of_span_disclosed(self, pseudo_default):
        system = pseudo_default["system"]
        space = system.space
        f = np.zeros(space.total_dim, dtype=complex)
        f[63] = 1.0  # |31, 1>, beyond every safe block
        records = quasi_basis_check(system, [f])
        assert records[0]["f_span_defect"] > 1e-3
        assert math.isfinite(records[0]["direct"])

    def test_dimension_validation(self, pseudo_default):
        with pytest.raises(ValueError):
            quasi_basis_check(pseudo_default["system"], [np.zeros(3)])


class TestTAlpha:
    def test_alpha_zero_reduces_to_bare_rotation(self):
        params, space, h0, smap = small_bundle(alpha=0.0)
        assert t_alpha_diagonalization_check(h0, smap, params) <= 1e-12

    def test_resonant_default(self, pseudo_default):
        res = t_alpha_diagonalization_check(pseudo_default["h0"],
                                            pseudo_default["smap"],
                                            pseudo_default["params"])
        assert res <= T_ALPHA_TOL  # measured 1.09e-10

    def test_detuned(self):
        params, space, h0, smap = small_bundle(omega0=1.05, boson_levels=32)
        res = t_alpha_diagonalization_check(h0, smap, params)
        assert res <= T_ALPHA_TOL  # measured 1.10e-10

    def test_block_rotation_orthogonality(self):
        params, space, _, _ = small_bundle(boson_levels=8)
        t0, t0_inv = build_block_rotation(space, params)
        assert np.array_equal(t0, t0_inv.T)
        assert np.abs(t0 @ t0_inv - np.eye(space.total_dim)).max() <= 1e-13

    @pytest.mark.parametrize("eps", [0.1j, 0.06 - 0.08j, -0.1])
    def test_block_rotation_any_coupling_phase(self, eps):
        # H0's block is D B D^H with B the block at |eps|: T0^-1 carries
        # the phase, T0 is its adjoint, and the diagonal is energy_formula
        params, space, h0, _ = small_bundle(eps=eps, omega0=1.05, boson_levels=8)
        t0, t0_inv = build_block_rotation(space, params)
        assert np.abs(t0 @ t0_inv - np.eye(space.total_dim)).max() <= 1e-13
        bare = t0_inv @ h0 @ t0
        assert np.abs(bare - np.diag(energy_formula(params, space))).max() <= 1e-13

    def test_degenerate_guard(self):
        params, space, h0, smap = small_bundle(eps=0.0, boson_levels=6)
        with pytest.raises(ValueError):
            t_alpha_diagonalization_check(h0, smap, params)


class TestPseudoAlgebra:
    def test_residuals_at_default(self, pseudo_default):
        out = pseudo_algebra_residuals(pseudo_default["smap"])
        assert set(out) == {"ccr", "car", "fermion_nilpotent", "cross_commutator"}
        for key, value in out.items():
            assert value <= ALGEBRA_TOL, key  # worst measured 6.7e-11 (ccr)

    def test_exact_at_alpha_zero(self):
        _, _, _, smap = small_bundle(alpha=0.0, boson_levels=8)
        out = pseudo_algebra_residuals(smap)
        for value in out.values():
            assert value <= 1e-13

    def test_single_identity_by_hand(self, pseudo_default):
        # {c_a, C_a} - 1 through the dual-frame evaluator must agree
        # with the generic helper
        smap = pseudo_default["smap"]
        ops = build_fock_operators(smap.space)
        eye = np.eye(smap.space.total_dim)
        res = dual_frame_algebra_residual(smap, ops["c"], ops["c_dag"], eye, anticommute=True)
        assert res == pseudo_algebra_residuals(smap)["car"]


class TestDtypePolicy:
    def test_real_epsilon_is_float64(self):
        _, _, h0, smap = small_bundle(alpha=0.3, boson_levels=48)
        system = build_biorthogonal_system(h0, smap)
        for arr in (h0, smap.s, smap.s_inv, system.phis, system.psis, system.eigvecs_bare):
            assert arr.dtype == np.float64

    def test_complex_epsilon_matches_a_complex_s(self, rng):
        # a real S applied through the frames' float view, against S
        # promoted to complex
        _, space, h0, smap = small_bundle(alpha=0.3, eps=0.06 - 0.08j, boson_levels=48)
        assert h0.dtype == np.complex128
        system = build_biorthogonal_system(h0, smap)
        s, s_inv = smap.s.astype(complex), smap.s_inv.astype(complex)
        v = system.eigvecs_bare
        phis, psis = s @ v, s_inv @ v
        psis = psis / np.einsum("ij,ij->j", phis.conj(), psis)[None, :]
        for got, want in ((system.phis, phis), (system.psis, psis)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        ops = build_fock_operators(space)
        shape = (space.total_dim, 3)
        frame = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = deformed(smap, [ops["d"], h0], frame)
        want = s @ (ops["d"] @ (s_inv @ (s @ (h0 @ (s_inv @ frame)))))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestDiagnosticsRecord:
    def test_layout_and_values(self, pseudo_default):
        record = diagnostics_record(pseudo_default["system"],
                                    pseudo_default["smap"],
                                    pseudo_default["h0"],
                                    pseudo_default["params"])
        assert record["alpha"] == 0.5
        assert record["boson_levels"] == 32
        assert len(record["energies"]) == 57
        assert record["gram_max_offdiag"] <= GRAM_TOL
        assert record["eigen_residual_max"] <= EIGEN_RESIDUAL_TOL
        assert record["energy_formula_max_dev"] <= 1e-12  # measured 3.6e-15
        assert set(record["metric_residuals"]) == {
            "identity_abs_max", "identity_rel_max",
            "resolution_phi", "resolution_psi"}


class TestBoundedness:
    def test_lower_dressed_family_is_monotone(self, pseudo_default):
        # E for the (b-1, 1) family is b - 1/2 - |eps| sqrt(b): the
        # sqrt growth never beats the linear term, so the ladder is
        # strictly increasing and bounded below by the ground level
        system = pseudo_default["system"]
        lowers = [e for e, lbl in zip(system.energies, system.labels) if lbl[1] == 1]
        assert len(lowers) == 28
        diffs = np.diff(np.array(lowers))
        assert np.all(diffs > 0)
        assert min(lowers) > system.energies[0]
