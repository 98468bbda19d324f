"""Truncated boson-fermion product space and dense operator assembly."""

import numpy as np
import pytest

from ptjc.fockspace import (
    FockSpace,
    OperatorMatrix,
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

    def test_index_unpack_round_trip(self):
        space = FockSpace(boson_levels=8)
        for m in range(8):
            for k in (0, 1):
                i = space.index(m, k)
                assert i == 2 * m + k
                assert space.unpack(i) == (m, k)

    def test_index_bounds(self):
        space = FockSpace(boson_levels=4)
        with pytest.raises(ValueError):
            space.index(4, 0)
        with pytest.raises(ValueError):
            space.index(0, 2)

    def test_block_slots(self):
        # row N - 1 holds block N: (|N-1, 1>, |N, 0>); slots 0 and 2 N_b - 1 stand alone
        space = FockSpace(boson_levels=6)
        slots = space.block_slots()
        assert slots.shape == (5, 2)
        for n, (lower, upper) in enumerate(slots, start=1):
            assert (lower, upper) == (space.index(n - 1, 1), space.index(n, 0))
        assert sorted(set(range(12)) - set(slots.ravel())) == [0, 11]

    def test_safe_sets_at_default_size(self):
        space = FockSpace(boson_levels=32)
        assert space.safe_boson_max() == 28
        assert space.safe_block_max() == 28
        assert space.safe_state_budget() == 57
        idx = space.safe_bare_indices()
        assert len(idx) == 58
        assert idx[0] == 0 and idx[-1] == 57


class TestLadderOperators:
    def test_boson_lowering_entries(self):
        space = FockSpace(boson_levels=6)
        d = build_fock_operators(space)["d"].entries
        for m in range(1, 6):
            for k in (0, 1):
                assert d[space.index(m - 1, k), space.index(m, k)] == np.sqrt(m)
        assert np.count_nonzero(d) == 10

    def test_fermion_nilpotency_exact(self):
        space = FockSpace(boson_levels=6)
        c = build_fock_operators(space)["c"].entries
        assert np.count_nonzero(c @ c) == 0

    def test_fermion_anticommutator_exact(self):
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        c, c_dag = ops["c"].entries, ops["c_dag"].entries
        acom = c @ c_dag + c_dag @ c
        assert np.array_equal(acom, np.eye(space.total_dim))

    def test_boson_commutator_truncation_defect(self):
        # [d, d+] = 1 everywhere except the two top-level slots, where
        # the truncated raising operator is cut and the defect is -N_b;
        # sqrt(m)*sqrt(m) products round, so compare to ~eps
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        d, d_dag = ops["d"].entries, ops["d_dag"].entries
        dev = d @ d_dag - d_dag @ d - np.eye(space.total_dim)
        top = [space.index(5, 0), space.index(5, 1)]
        assert np.abs(dev[np.ix_(top, top)] + 6.0 * np.eye(2)).max() <= 1e-14
        dev[np.ix_(top, top)] = 0.0
        assert np.abs(dev).max() <= 1e-14

    def test_sectors_commute_exactly(self):
        space = FockSpace(boson_levels=6)
        ops = build_fock_operators(space)
        d, c = ops["d"].entries, ops["c"].entries
        assert np.count_nonzero(d @ c - c @ d) == 0

    def test_total_number_diagonal(self):
        space = FockSpace(boson_levels=6)
        n_tot = build_fock_operators(space)["number_total"].entries
        expected = np.diag([m + k for m in range(6) for k in (0, 1)]).astype(complex)
        assert np.abs(n_tot - expected).max() <= 1e-14
        assert np.count_nonzero(n_tot - np.diag(np.diag(n_tot))) == 0


class TestH0:
    def test_uncoupled_is_diagonal(self):
        space = FockSpace(boson_levels=5)
        h0 = build_h0(JcParams(1.2, 0.9, 0.0), space)
        expected = np.diag([1.2 * (k - 0.5) + 0.9 * m
                            for m in range(5) for k in (0, 1)])
        assert np.abs(h0.entries - expected).max() <= 1e-14

    def test_commutes_with_total_number(self):
        space = FockSpace(boson_levels=8)
        h0 = build_h0(JcParams(1.0, 1.0, 0.1), space).entries
        n_tot = build_fock_operators(space)["number_total"].entries
        assert np.abs(h0 @ n_tot - n_tot @ h0).max() <= 1e-14

    def test_hermitian_for_any_complex_coupling(self):
        space = FockSpace(boson_levels=5)
        h0 = build_h0(JcParams(1.0, 1.0, 0.1 + 0.03j), space).entries
        assert np.abs(h0 - h0.conj().T).max() == 0.0

    def test_block_matches_jc_core(self):
        # restriction to block n reproduces the 2x2 builder for real
        # coupling (the Hermitian epsilon block vs the symmetric g_s
        # block coincide only there)
        space = FockSpace(boson_levels=8)
        params = JcParams(1.1, 1.0, 0.1)
        h0 = build_h0(params, space).entries
        for n in (1, 3, 5):
            rows = [space.index(n - 1, 1), space.index(n, 0)]
            sub = h0[np.ix_(rows, rows)]
            ref = build_subspace_hamiltonian(params, n).matrix
            assert np.abs(sub - ref).max() <= 1e-14

    def test_ground_state_energy_unshifted(self):
        space = FockSpace(boson_levels=8)
        h0 = build_h0(JcParams(1.0, 1.0, 0.1), space).entries
        # |0, 0> is coupled to nothing; its diagonal entry is -omega0/2
        col = h0[:, 0]
        assert col[0] == -0.5
        assert np.count_nonzero(col[1:]) == 0


class TestOperatorMatrix:
    def test_shape_validation(self):
        space = FockSpace(boson_levels=4)
        with pytest.raises(ValueError):
            OperatorMatrix(space, np.zeros((8, 7)), "bad")
        with pytest.raises(ValueError):
            OperatorMatrix(space, np.zeros((6, 6)), "wrong dim")
