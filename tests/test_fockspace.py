"""Truncated boson-fermion product space and dense operator assembly."""

import numpy as np
import pytest
from conftest import H0_GRID_LEVELS, H0_GRID_PARAMS

from ptjc.fockspace import (
    MAX_BOSON_LEVELS,
    FockSpace,
    build_fock_operators,
    build_h0,
)
from ptjc.jc import JcParams, build_subspace_hamiltonian


class TestFockSpace:
    def test_dimensions(self):
        space = FockSpace(boson_levels=32)
        assert space.total_dim == 64

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            FockSpace(boson_levels=3)

    def test_maximum_size(self):
        # checked on construction, before any operator is allocated
        assert FockSpace(boson_levels=MAX_BOSON_LEVELS).total_dim == 2 * MAX_BOSON_LEVELS
        with pytest.raises(ValueError, match=f"{MAX_BOSON_LEVELS}].*64 N_b\\^2 bytes"):
            FockSpace(boson_levels=MAX_BOSON_LEVELS + 1)

    def test_unpack_inverts_the_interleaved_index(self):
        space = FockSpace(boson_levels=8)
        for m in range(8):
            for k in (0, 1):
                assert space.unpack(2 * m + k) == (m, k)

    def test_unpack_bounds(self):
        space = FockSpace(boson_levels=4)
        with pytest.raises(ValueError):
            space.unpack(8)
        with pytest.raises(ValueError):
            space.unpack(-1)

    def test_block_slots(self):
        # row N - 1 holds block N: (|N-1, 1>, |N, 0>); slots 0 and 2 N_b - 1 stand alone
        space = FockSpace(boson_levels=6)
        slots = space.block_slots()
        assert slots.shape == (5, 2)
        for n, (lower, upper) in enumerate(slots, start=1):
            assert (lower, upper) == (2 * n - 1, 2 * n)
        assert sorted(set(range(12)) - set(slots.ravel())) == [0, 11]

    def test_safe_sets_at_default_size(self):
        space = FockSpace(boson_levels=32)
        assert space.safe_boson_max() == 28
        assert space.safe_state_budget() == 57
        idx = space.safe_bare_indices()
        assert len(idx) == 58
        assert idx[0] == 0 and idx[-1] == 57


class TestLadderOperators:
    def test_boson_lowering_entries(self):
        space = FockSpace(boson_levels=6)
        d = build_fock_operators(space)["d"]
        for m in range(1, 6):
            for k in (0, 1):
                assert d[2 * (m - 1) + k, 2 * m + k] == np.sqrt(m)
        assert np.count_nonzero(d) == 10

    def test_fermion_nilpotency_exact(self):
        space = FockSpace(boson_levels=6)
        c = build_fock_operators(space)["c"]
        assert np.count_nonzero(c @ c) == 0

    def test_fermion_anticommutator_exact(self):
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        c, c_dag = ops["c"], ops["c_dag"]
        acom = c @ c_dag + c_dag @ c
        assert np.array_equal(acom, np.eye(space.total_dim))

    def test_boson_commutator_truncation_defect(self):
        # [d, d+] = 1 everywhere except the two top-level slots, where
        # the truncated raising operator is cut and the defect is -N_b;
        # sqrt(m)*sqrt(m) products round, so compare to ~eps
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        d, d_dag = ops["d"], ops["d_dag"]
        dev = d @ d_dag - d_dag @ d - np.eye(space.total_dim)
        top = [10, 11]  # |5, 0> and |5, 1>
        assert np.abs(dev[np.ix_(top, top)] + 6.0 * np.eye(2)).max() <= 1e-14
        dev[np.ix_(top, top)] = 0.0
        assert np.abs(dev).max() <= 1e-14

    def test_sectors_commute_exactly(self):
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        d, c = ops["d"], ops["c"]
        assert np.count_nonzero(d @ c - c @ d) == 0

    def test_total_number_diagonal(self):
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        n_tot = ops["d_dag"] @ ops["d"] + ops["c_dag"] @ ops["c"]
        expected = np.diag([m + k for m in range(6) for k in (0, 1)]).astype(complex)
        assert np.abs(n_tot - expected).max() <= 1e-14
        assert np.count_nonzero(n_tot - np.diag(np.diag(n_tot))) == 0


class TestH0:
    @pytest.mark.parametrize("boson_levels", H0_GRID_LEVELS)
    @pytest.mark.parametrize("params", H0_GRID_PARAMS)
    def test_matches_ladder_product(self, boson_levels, params):
        # oracle: H0 = omega0 (c'c - 1/2) + omega d'd + eps d c' + eps* d' c
        # multiplied out from the dense ladder matrices, whose d'd diagonal
        # is sqrt(m)^2 rather than m
        space = FockSpace(boson_levels=boson_levels)
        ops = build_fock_operators(space)
        d, d_dag, c, c_dag = ops["d"], ops["d_dag"], ops["c"], ops["c_dag"]
        eps = complex(params.coupling)
        ladder = (params.omega0 * (c_dag @ c - 0.5 * np.eye(space.total_dim))
                  + params.omega * (d_dag @ d) + eps * (d @ c_dag) + np.conj(eps) * (d_dag @ c))
        h0 = build_h0(params, space)
        # measured 1.7e-16 at most
        assert np.abs(h0 - ladder).max() <= 1e-14 * np.abs(ladder).max()

    def test_uncoupled_is_diagonal(self):
        space = FockSpace(boson_levels=5)
        h0 = build_h0(JcParams(1.2, 0.9, 0.0), space)
        expected = np.diag([1.2 * (k - 0.5) + 0.9 * m
                            for m in range(5) for k in (0, 1)])
        assert np.abs(h0 - expected).max() <= 1e-14

    def test_commutes_with_total_number(self):
        space = FockSpace(boson_levels=8)
        h0 = build_h0(JcParams(1.0, 1.0, 0.1), space)
        n_tot = np.diag((np.arange(space.total_dim) + 1) // 2)  # m + k per slot
        assert np.abs(h0 @ n_tot - n_tot @ h0).max() <= 1e-14

    def test_hermitian_for_any_complex_coupling(self):
        space = FockSpace(boson_levels=5)
        h0 = build_h0(JcParams(1.0, 1.0, 0.1 + 0.03j), space)
        assert np.abs(h0 - h0.conj().T).max() == 0.0

    def test_block_matches_jc_core(self):
        # restriction to block n reproduces the 2x2 builder for real
        # coupling (the Hermitian epsilon block vs the symmetric g_s
        # block coincide only there)
        space = FockSpace(boson_levels=8)
        params = JcParams(1.1, 1.0, 0.1)
        h0 = build_h0(params, space)
        for n in (1, 3, 5):
            rows = [2 * n - 1, 2 * n]
            sub = h0[np.ix_(rows, rows)]
            ref = build_subspace_hamiltonian(params, n)
            assert np.abs(sub - ref).max() <= 1e-14

    def test_ground_state_energy_unshifted(self):
        space = FockSpace(boson_levels=8)
        h0 = build_h0(JcParams(1.0, 1.0, 0.1), space)
        # |0, 0> is coupled to nothing; its diagonal entry is -omega0/2
        col = h0[:, 0]
        assert col[0] == -0.5
        assert np.count_nonzero(col[1:]) == 0

