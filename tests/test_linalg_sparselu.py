"""Tests for the shared sparse LU service."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import (
    SparseLU,
    factorization_count,
    refactorization_count,
    reset_factorization_count,
    reset_refactorization_count,
)


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSparseLU:
    def test_singular_matrix_is_one_line_linalg_error(self):
        singular = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError, match="path to ground") as raised:
            SparseLU(singular)
        assert "\n" not in str(raised.value)

    def test_solve_vector(self):
        a = random_spd(8)
        lu = SparseLU(a)
        b = np.arange(8.0)
        x = lu.solve(b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_solve_block(self):
        a = random_spd(10, seed=1)
        lu = SparseLU(sp.csr_matrix(a))
        b = np.random.default_rng(2).standard_normal((10, 4))
        x = lu.solve(b)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_solve_transpose_vector(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9)) + 9 * np.eye(9)  # nonsymmetric
        lu = SparseLU(a)
        b = rng.standard_normal(9)
        x = lu.solve_transpose(b)
        np.testing.assert_allclose(a.T @ x, b, atol=1e-9)

    def test_solve_transpose_block(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 7)) + 7 * np.eye(7)
        lu = SparseLU(sp.csc_matrix(a))
        b = rng.standard_normal((7, 3))
        x = lu.solve_transpose(b)
        np.testing.assert_allclose(a.T @ x, b, atol=1e-9)

    def test_transpose_solve_differs_from_plain_for_nonsymmetric(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        lu = SparseLU(a)
        b = rng.standard_normal(6)
        assert not np.allclose(lu.solve(b), lu.solve_transpose(b))

    def test_shape_and_n(self):
        lu = SparseLU(np.eye(5))
        assert lu.shape == (5, 5)
        assert lu.n == 5

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SparseLU(np.ones((3, 4)))

    def test_rejects_wrong_rhs_dimension(self):
        lu = SparseLU(np.eye(4))
        with pytest.raises(ValueError, match="leading dimension"):
            lu.solve(np.ones(5))

    def test_rejects_3d_rhs(self):
        lu = SparseLU(np.eye(4))
        with pytest.raises(ValueError, match="vector or a 2-D"):
            lu.solve(np.ones((4, 2, 2)))

    def test_singular_matrix_raises(self):
        singular = sp.csc_matrix(np.zeros((3, 3)))
        with pytest.raises(Exception):
            SparseLU(singular)


def _random_sparse(n, seed=0, density=0.08):
    """A well-conditioned random sparse CSC matrix with sorted indices."""
    base = sp.random(n, n, density=density, random_state=seed, format="csc")
    matrix = (base + sp.eye(n, format="csc") * n).tocsc()
    matrix.sort_indices()
    return matrix


class TestRefactor:
    def test_refactor_matches_fresh_factorization(self):
        a = _random_sparse(40, seed=1)
        lu = SparseLU(a)
        scaled_data = a.data * 3.5
        scaled = sp.csc_matrix((scaled_data, a.indices, a.indptr), shape=a.shape)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((40, 3))
        x = lu.refactor(scaled_data).solve(b)
        np.testing.assert_allclose(scaled @ x, b, atol=1e-9)

    def test_refactor_complex_pencil(self):
        """The runtime use case: a complex shifted pencil on a real template."""
        a = _random_sparse(30, seed=2)
        lu = SparseLU(a)
        pencil_data = a.data * (1.0 + 2.0j)
        pencil = sp.csc_matrix((pencil_data, a.indices, a.indptr), shape=a.shape)
        b = np.random.default_rng(3).standard_normal(30)
        x = lu.refactor(pencil_data).solve(b.astype(complex))
        np.testing.assert_allclose(pencil @ x, b, atol=1e-9)

    def test_refactor_transpose_solve(self):
        a = _random_sparse(25, seed=4)
        lu = SparseLU(a)
        data = a.data * -1.25
        scaled = sp.csc_matrix((data, a.indices, a.indptr), shape=a.shape)
        b = np.random.default_rng(5).standard_normal((25, 2))
        x = lu.refactor(data).solve_transpose(b)
        np.testing.assert_allclose(scaled.T @ x, b, atol=1e-9)

    def test_refactor_of_refactor_shares_plan(self):
        a = _random_sparse(20, seed=6)
        first = SparseLU(a).refactor(a.data * 2.0)
        second = first.refactor(a.data * 4.0)
        b = np.ones(20)
        quad = sp.csc_matrix((a.data * 4.0, a.indices, a.indptr), shape=a.shape)
        np.testing.assert_allclose(quad @ second.solve(b), b, atol=1e-10)

    def test_symbolic_template_refactors_alike(self):
        """A template without its numeric factor refactors bit-identically
        to the full factorization it came from."""
        a = _random_sparse(30, seed=10)
        full = SparseLU(a)
        template = full.symbolic()
        data = a.data * (2.0 - 1.0j)
        b = np.random.default_rng(11).standard_normal((30, 2)).astype(complex)
        np.testing.assert_array_equal(template.refactor(data).solve(b),
                                      full.refactor(data).solve(b))
        assert template._lu is None and template.nnz == full.nnz

    def test_refactor_rejects_wrong_length(self):
        lu = SparseLU(_random_sparse(10, seed=8))
        with pytest.raises(ValueError, match="matching"):
            lu.refactor(np.ones(3))

    def test_does_not_mutate_caller_csc(self):
        """A CSC input with unsorted indices must not be reordered in place."""
        # A = [[7,0,0],[4,5,0],[0,0,9]]; column 0 stores rows (1, 0) unsorted.
        rows = np.array([1, 0, 1, 2])
        data = np.array([4.0, 7.0, 5.0, 9.0])
        indptr = np.array([0, 2, 3, 4])
        matrix = sp.csc_matrix((data.copy(), rows.copy(), indptr.copy()), shape=(3, 3))
        assert list(matrix.indices[:2]) == [1, 0]
        lu = SparseLU(matrix)
        np.testing.assert_array_equal(matrix.indices, rows)
        np.testing.assert_array_equal(matrix.data, data)
        x = lu.solve(np.array([7.0, 9.0, 9.0]))
        np.testing.assert_allclose(x, [1.0, 1.0, 1.0], atol=1e-12)

    def test_refactor_counter_separate_from_factorizations(self):
        reset_factorization_count()
        reset_refactorization_count()
        a = _random_sparse(12, seed=9)
        lu = SparseLU(a)
        lu.refactor(a.data * 2.0)
        lu.refactor(a.data * 3.0)
        assert factorization_count() == 1
        assert refactorization_count() == 2
        assert reset_refactorization_count() == 2
        assert refactorization_count() == 0


class TestFactorizationCounter:
    def test_counter_increments(self):
        reset_factorization_count()
        SparseLU(np.eye(3))
        SparseLU(np.eye(4))
        assert factorization_count() == 2

    def test_reset_returns_previous(self):
        reset_factorization_count()
        SparseLU(np.eye(3))
        assert reset_factorization_count() == 1
        assert factorization_count() == 0

    def test_solves_do_not_count(self):
        reset_factorization_count()
        lu = SparseLU(np.eye(5))
        lu.solve(np.ones(5))
        lu.solve_transpose(np.ones(5))
        assert factorization_count() == 1


def _block_solve_nets():
    from repro.circuits import (
        coupled_rlc_bus, power_grid_mesh, rc_tree, rcnet_b)
    from repro.circuits.mna import assemble

    return {
        "rc-tree-2000": assemble(rc_tree(2000, seed=1)),
        "power-grid-40x40": assemble(power_grid_mesh(40, 40)),
        "coupled-rlc-bus": assemble(coupled_rlc_bus()),
        "rcnet-b": rcnet_b().nominal,
    }


class TestBlockSolve:
    """A block right-hand side is one SuperLU call, and each of its
    columns is bit-identical to that column solved alone -- both ways,
    on a fresh factor and on a refactored one (which maps rows through
    the reused column ordering), at DC and at a real shift."""

    @pytest.fixture(scope="class")
    def nets(self):
        return _block_solve_nets()

    @pytest.mark.parametrize("name", ["rc-tree-2000", "power-grid-40x40",
                                      "coupled-rlc-bus", "rcnet-b"])
    @pytest.mark.parametrize("shift", [0.0, 1e9])
    def test_block_columns_match_column_solves(self, nets, name, shift):
        system = nets[name]
        matrix = sp.csc_matrix(system.G + shift * system.C)
        fresh = SparseLU(matrix)
        refactored = fresh.refactor(matrix.data * 1.5)
        rhs = np.random.default_rng(7).standard_normal((matrix.shape[0], 7))
        for lu in (fresh, refactored):
            for solve in (lu.solve, lu.solve_transpose):
                block = solve(rhs)
                for j in range(rhs.shape[1]):
                    column = solve(np.ascontiguousarray(rhs[:, j]))
                    assert np.array_equal(block[:, j], column)
