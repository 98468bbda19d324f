"""Static 2x2 excitation blocks: spectra, rotations, PT classification."""

import numpy as np
import pytest

from ptjc.jc import (
    DegenerateBlockError,
    JcParams,
    PtPhaseKind,
    build_subspace_hamiltonian,
    classify_pt_phase,
    dressed_spectrum,
    t_block,
)

from conftest import block_matrix_oracle, charpoly_eigvals

SPECTRAL_TOL = 1e-12
EIGVEC_RESIDUAL_TOL = 1e-11
ROTATION_TOL = 1e-11


def random_params(rng, real_coupling=True, positive_coupling=False):
    omega0 = rng.uniform(0.2, 3.0)
    omega = rng.uniform(0.2, 3.0)
    if positive_coupling:
        # the half-angle branch orients rotations and eigenvectors for
        # couplings of non-negative real sign; see the sign-equivalence
        # test below for how negative couplings relate
        g = complex(rng.uniform(0.01, 0.5))
    elif real_coupling:
        g = complex(rng.uniform(-0.5, 0.5))
    else:
        g = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    return JcParams(omega0=omega0, omega=omega, coupling=g)


class TestSubspaceHamiltonian:
    def test_decoupled_resonant_block(self):
        h = build_subspace_hamiltonian(JcParams(1.0, 1.0, 0.0), n=3)
        assert np.allclose(h, np.diag([2.5, 2.5]), atol=0, rtol=0)

    def test_detuned_block_entries(self):
        h = build_subspace_hamiltonian(JcParams(1.2, 1.0, 0.1), n=1)
        expected = np.array([[0.6, 0.1], [0.1, 0.4]])
        assert np.allclose(h, expected, atol=1e-15)

    def test_matches_hand_coded_builder(self, rng):
        for _ in range(50):
            p = random_params(rng, real_coupling=False)
            n = int(rng.integers(1, 20))
            h = build_subspace_hamiltonian(p, n)
            oracle = block_matrix_oracle(p.omega0, p.omega, p.coupling, n)
            assert np.allclose(h, oracle, atol=1e-14)

    def test_imaginary_coupling_block(self):
        h = build_subspace_hamiltonian(JcParams(1.0, 1.0, 0.1j), n=4)
        assert h[0, 1] == 0.2j
        assert h[1, 0] == 0.2j
        assert not np.allclose(h, h.conj().T)

    def test_hermitian_iff_real_coupling(self, rng):
        p = random_params(rng, real_coupling=True)
        h = build_subspace_hamiltonian(p, n=2)
        assert np.allclose(h, h.conj().T, atol=1e-15)

    def test_rejects_vacuum_block(self):
        with pytest.raises(ValueError):
            build_subspace_hamiltonian(JcParams(1.0, 1.0, 0.1), n=0)


class TestDressedSpectrum:
    def test_resonant_real_coupling(self):
        s = dressed_spectrum(JcParams(1.0, 1.0, 0.05), n=1)
        assert abs(s.e_plus - 0.55) <= 1e-15
        assert abs(s.e_minus - 0.45) <= 1e-15

    def test_zero_coupling_bare_energies(self):
        s = dressed_spectrum(JcParams(1.2, 1.0, 0.0), n=2)
        assert abs(s.big_delta - 0.2) <= 1e-15
        assert {round(s.e_plus.real, 12), round(s.e_minus.real, 12)} == {1.6, 1.4}

    def test_imaginary_coupling_complex_pair(self):
        s = dressed_spectrum(JcParams(1.0, 1.0, 0.1j), n=1)
        assert abs(s.e_plus - (0.5 + 0.1j)) <= 1e-15
        assert abs(s.e_minus - (0.5 - 0.1j)) <= 1e-15

    def test_spectral_oracle(self, rng):
        # closed forms vs the characteristic polynomial of the block
        for _ in range(200):
            p = random_params(rng)
            n = int(rng.integers(1, 51))
            s = dressed_spectrum(p, n)
            m = block_matrix_oracle(p.omega0, p.omega, p.coupling, n)
            hi, lo = charpoly_eigvals(m)
            pair = sorted([s.e_plus, s.e_minus], key=lambda e: e.real)
            ref = sorted([hi, lo], key=lambda e: e.real)
            scale = max(abs(ref[0]), abs(ref[1]), 1.0)
            assert abs(pair[0] - ref[0]) <= SPECTRAL_TOL * scale
            assert abs(pair[1] - ref[1]) <= SPECTRAL_TOL * scale

    def test_eigenvector_residuals(self, rng):
        for _ in range(100):
            p = random_params(rng, positive_coupling=True)
            n = int(rng.integers(1, 20))
            s = dressed_spectrum(p, n)
            h = build_subspace_hamiltonian(p, n)
            # the rows of t_block are the eigenvectors of e_minus and e_plus
            for vec, ev in zip(t_block(p, n), (s.e_minus, s.e_plus)):
                res = np.linalg.norm(h @ vec - ev * vec)
                assert res <= EIGVEC_RESIDUAL_TOL * np.linalg.norm(vec)

    def test_half_angle_identity(self, rng):
        for _ in range(50):
            p = random_params(rng, real_coupling=False)
            n = int(rng.integers(1, 20))
            s = dressed_spectrum(p, n)
            assert abs(s.theta_half_sin ** 2 + s.theta_half_cos ** 2 - 1.0) <= 1e-12

    def test_eigenvector_layout(self):
        p = JcParams(1.3, 1.0, 0.2)
        s = dressed_spectrum(p, n=2)
        sin, cos = s.theta_half_sin, s.theta_half_cos
        assert np.allclose(t_block(p, n=2), [[cos, sin], [-sin, cos]])

    def test_degenerate_block_rejected(self):
        with pytest.raises(DegenerateBlockError):
            dressed_spectrum(JcParams(1.0, 1.0, 0.0), n=1)


class TestPtClassification:
    def test_broken_on_resonance(self):
        ph = classify_pt_phase(JcParams(1.0, 1.0, 0.1j), n=1)
        assert ph.kind is PtPhaseKind.BROKEN
        s = dressed_spectrum(JcParams(1.0, 1.0, 0.1j), n=1)
        assert abs(s.e_plus.imag - 0.1) <= 1e-15

    def test_exceptional_point(self):
        ph = classify_pt_phase(JcParams(1.2, 1.0, 0.1j), n=1)
        assert ph.kind is PtPhaseKind.EXCEPTIONAL_POINT
        assert abs(ph.discriminant) <= 1e-15

    def test_unbroken_at_large_detuning(self):
        ph = classify_pt_phase(JcParams(1.5, 1.0, 0.1j), n=1)
        assert ph.kind is PtPhaseKind.UNBROKEN
        assert ph.discriminant == pytest.approx(0.25 - 0.04)

    def test_rejects_real_coupling_part(self):
        with pytest.raises(ValueError):
            classify_pt_phase(JcParams(1.0, 1.0, 0.1 + 0.1j), n=1)

    @pytest.mark.parametrize("params, kind", [
        (JcParams(1.0, 1.0, 0.0), PtPhaseKind.EXCEPTIONAL_POINT),
        (JcParams(1e200, 1.0, 1j), PtPhaseKind.UNBROKEN),
        (JcParams(1.0, 1.0, 1e200j), PtPhaseKind.BROKEN),
    ], ids=["both-terms-zero", "delta-squared-overflows", "coupling-term-overflows"])
    def test_window_edges(self, params, kind):
        # the window is EXCEPTIONAL_POINT_TOL (delta^2 + 4 g^2 n): both terms 0 is the
        # exceptional point, and an overflowed term leaves the sign of the discriminant
        assert classify_pt_phase(params, n=1).kind is kind

    def test_consistency_with_eigenvalues(self, rng):
        # classification agrees with directly computed block eigenvalues
        for _ in range(100):
            g = rng.uniform(0.01, 0.5)
            delta = rng.uniform(-1.5, 1.5)
            omega = rng.uniform(0.5, 2.0)
            omega0 = omega + delta
            if omega0 <= 0:
                continue
            n = int(rng.integers(1, 10))
            p = JcParams(omega0, omega, complex(0.0, g))
            ph = classify_pt_phase(p, n)
            m = block_matrix_oracle(omega0, omega, p.coupling, n)
            hi, lo = charpoly_eigvals(m)
            if ph.kind is PtPhaseKind.UNBROKEN:
                assert max(abs(hi.imag), abs(lo.imag)) <= 1e-10
            elif ph.kind is PtPhaseKind.BROKEN:
                assert abs(hi - lo.conjugate()) <= 1e-10
                assert abs(hi.imag) > 0


class TestTBlock:
    def test_identity_when_uncoupled(self):
        t = t_block(JcParams(1.2, 1.0, 0.0), n=1)
        assert np.array_equal(t, np.eye(2))

    def test_conjugation_diagonalizes(self):
        p = JcParams(1.0, 1.0, 0.05)
        t = t_block(p, n=1)
        h = build_subspace_hamiltonian(p, n=1)
        s = dressed_spectrum(p, n=1)
        conj = t @ h @ np.linalg.inv(t)
        assert np.allclose(conj, np.diag([s.e_minus, s.e_plus]), atol=1e-12)

    def test_conjugation_property(self, rng):
        for _ in range(100):
            p = random_params(rng, positive_coupling=True)
            if abs(p.coupling) < 1e-3 and abs(p.detuning()) < 1e-3:
                continue
            n = int(rng.integers(1, 20))
            t = t_block(p, n)
            h = build_subspace_hamiltonian(p, n)
            s = dressed_spectrum(p, n)
            conj = t @ h @ np.linalg.inv(t)
            assert np.allclose(conj, np.diag([s.e_minus, s.e_plus]), atol=ROTATION_TOL)

    def test_orthogonal_for_real_coupling(self, rng):
        for _ in range(20):
            p = random_params(rng)
            t = t_block(p, n=int(rng.integers(1, 10)))
            assert np.allclose(t.T @ t, np.eye(2), atol=1e-12)

    def test_degenerate_block_rejected(self):
        with pytest.raises(DegenerateBlockError):
            t_block(JcParams(1.0, 1.0, 0.0), n=1)

    def test_column_matrix_inverts_t_block(self):
        p = JcParams(1.1, 1.0, 0.07)
        t = t_block(p, n=3)
        assert np.allclose(t @ t.T, np.eye(2), atol=1e-14)

    def test_column_matrix_columns_are_eigenvectors(self):
        p = JcParams(1.1, 1.0, 0.07)
        s = dressed_spectrum(p, n=3)
        m = t_block(p, n=3).T
        h = build_subspace_hamiltonian(p, n=3)
        assert np.allclose(h @ m, m * [s.e_minus, s.e_plus], atol=1e-14)

    def test_rays_match_numpy_eigh(self, rng):
        # sign conventions may differ; compare up to a global phase
        for _ in range(30):
            p = random_params(rng, positive_coupling=True)
            if abs(p.coupling) < 1e-3:
                continue
            n = int(rng.integers(1, 10))
            h = build_subspace_hamiltonian(p, n).real
            vals, vecs = np.linalg.eigh(h)
            s = dressed_spectrum(p, n)
            for vec, ev in zip(t_block(p, n), (s.e_minus, s.e_plus)):
                j = int(np.argmin(np.abs(vals - ev.real)))
                overlap = abs(np.vdot(vecs[:, j], vec))
                assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_branch_ignores_coupling_sign(self, rng):
        # the coupling enters the rotation only through its square, so
        # t_block is bitwise identical for +-g; the negative-coupling
        # block is sigma_z conjugate of the positive one, and the
        # flipped eigenvector rays carry over accordingly
        flip = np.diag([1.0, -1.0])
        for _ in range(20):
            p_pos = random_params(rng, positive_coupling=True)
            p_neg = JcParams(p_pos.omega0, p_pos.omega, -p_pos.coupling)
            n = int(rng.integers(1, 10))
            assert np.array_equal(t_block(p_pos, n), t_block(p_neg, n))
            h_neg = build_subspace_hamiltonian(p_neg, n)
            s = dressed_spectrum(p_pos, n)
            for vec, ev in zip(t_block(p_pos, n), (s.e_minus, s.e_plus)):
                res = np.linalg.norm(h_neg @ (flip @ vec) - ev * (flip @ vec))
                assert res <= EIGVEC_RESIDUAL_TOL

