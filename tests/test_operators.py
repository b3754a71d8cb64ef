import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import singell.operators as ops
from singell import (CoefficientField, GridFunction, LinearSolveError,
                     MeasureData, assemble, make_uniform_grid, solve_linear,
                     solve_measure)


def torsion_square_exact(x, y, terms=60):
    """Series solution of -lap u = 1 on the unit square, zero boundary."""
    u = np.zeros_like(x)
    for k in range(1, 2 * terms, 2):
        kp = k * np.pi
        u += (4.0 / (kp ** 3)
              * (1.0 - np.cosh(kp * (y - 0.5)) / np.cosh(kp / 2.0))
              * np.sin(kp * x))
    return u


def dense_stencil(grid, entries):
    """Loop-built divergence-form stencil on interior nodes (C-order)."""
    nodes = [tuple(i + 1 for i in idx) for idx in np.ndindex(grid.interior_shape)]
    index = {node: k for k, node in enumerate(nodes)}
    dense = np.zeros((len(nodes), len(nodes)))
    for node, row in index.items():
        for ax in range(grid.dim):
            m = entries[..., ax, ax]
            for step in (-1, 1):
                nb = list(node)
                nb[ax] += step
                nb = tuple(nb)
                w = 0.5 * (m[node] + m[nb]) / grid.h[ax] ** 2
                dense[row, row] += w
                if nb in index:
                    dense[row, index[nb]] -= w
    return dense


class TestAssembly:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           cells=st.tuples(st.integers(4, 9), st.integers(4, 9)),
           widths=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_loop_reference(self, dim, cells, widths, seed):
        g = make_uniform_grid(tuple(-0.5 * w for w in widths[:dim]),
                              tuple(0.5 * w for w in widths[:dim]), cells[:dim])
        rng = np.random.default_rng(seed)
        ent = np.zeros(g.shape + (dim, dim))
        for ax in range(dim):
            ent[..., ax, ax] = 0.1 + 5.0 * rng.random(g.shape)
        matrix = assemble(g, CoefficientField(g, ent)).matrix
        ref = dense_stencil(g, ent)
        assert np.max(np.abs(matrix.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs((matrix - matrix.T).toarray())) == 0.0

    def test_1d_laplacian_row(self):
        g = make_uniform_grid(-2.0, 2.0, 8)   # h = 0.5
        op = assemble(g, CoefficientField.identity(g))
        dense = op.matrix.toarray()
        assert np.allclose(np.diag(dense), 8.0)
        assert np.allclose(np.diag(dense, 1), -4.0)

    def test_2d_five_point_row(self):
        g = make_uniform_grid((0.0, 0.0), (4.0, 4.0), (4, 4))   # h = 1
        op = assemble(g, CoefficientField.identity(g))
        dense = op.matrix.toarray()
        assert np.allclose(np.diag(dense), 4.0)
        center = op.grid.interior_shape[1] + 1   # node (2,2)
        row = dense[center]
        assert np.isclose(row[center], 4.0)
        assert np.count_nonzero(np.isclose(row, -1.0)) == 4

    def test_linearity_in_coefficients(self):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
        a1 = assemble(g, CoefficientField.identity(g))
        a2 = assemble(g, CoefficientField.constant(g, [[2.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(a2.matrix.toarray(), 2.0 * a1.matrix.toarray())

    def test_symmetry_exact(self, rng):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        ent = np.zeros(g.shape + (2, 2))
        ent[..., 0, 0] = 1.0 + rng.random(g.shape)
        ent[..., 1, 1] = 0.5 + rng.random(g.shape)
        op = assemble(g, CoefficientField(g, ent))
        diff = (op.matrix - op.matrix.T).toarray()
        assert np.max(np.abs(diff)) == 0.0

    def test_m_matrix_pattern(self, rng):
        for _ in range(5):
            g = make_uniform_grid(0.0, 1.0, 16)
            ent = (1.0 + rng.random(g.shape))[:, None, None]
            op = assemble(g, CoefficientField(g, ent))
            coo = op.matrix.tocoo()
            off = coo.data[coo.row != coo.col]
            assert np.all(off <= 0.0)
            row_sums = np.asarray(op.matrix.sum(axis=1)).ravel()
            assert np.min(row_sums) >= -1e-12 * np.max(op.matrix.diagonal())

    def test_off_diagonal_coefficients_rejected(self):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        field = CoefficientField.constant(g, [[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            assemble(g, field)


class TestSolveLinear:
    def test_poisson_interval_exact(self):
        g = make_uniform_grid(-1.0, 1.0, 64)
        op = assemble(g, CoefficientField.identity(g))
        u = solve_linear(op, GridFunction(g, np.ones(g.shape)))
        t = g.axes()[0]
        assert np.max(np.abs(u.values - (1.0 - t ** 2) / 2.0)) <= 1e-8

    def test_zero_rhs(self):
        g = make_uniform_grid(-1.0, 1.0, 32)
        op = assemble(g, CoefficientField.identity(g))
        u = solve_linear(op, GridFunction.zeros(g))
        assert u.sup_norm() == 0.0

    def test_nonnegative_rhs_gives_nonnegative_solution(self, rng):
        g = make_uniform_grid(-1.0, 1.0, 64)
        op = assemble(g, CoefficientField.identity(g))
        for _ in range(5):
            rhs = GridFunction(g, rng.random(g.shape))
            u = solve_linear(op, rhs)
            assert np.min(u.values) >= 0.0

    def test_comparison_principle(self, rng):
        # 1-D: direct LU; 64^2: multigrid-preconditioned CG
        for g in (make_uniform_grid(-1.0, 1.0, 48),
                  make_uniform_grid((0.0, 0.0), (1.0, 1.0), (64, 64))):
            op = assemble(g, CoefficientField.identity(g))
            for _ in range(5):
                r1 = rng.random(g.shape)
                r2 = r1 + rng.random(g.shape)
                u1 = solve_linear(op, GridFunction(g, r1))
                u2 = solve_linear(op, GridFunction(g, r2))
                assert np.all(u1.values <= u2.values + 1e-10)

    def test_multigrid_path_matches_direct(self, rng):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (64, 64))
        op = assemble(g, CoefficientField.identity(g))
        assert isinstance(op.solve, ops._Multigrid)
        rhs = GridFunction(g, rng.random(g.shape))
        iterative = solve_linear(op, rhs)
        direct = spla.splu(op.matrix).solve(op.interior_of(rhs))
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(op.interior_of(iterative) - direct)) <= 1e-12 * scale

    def test_second_order_refinement_2d(self):
        errors = {}
        for cells in (8, 16, 32):
            g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
            op = assemble(g, CoefficientField.identity(g))
            u = solve_linear(op, GridFunction(g, np.ones(g.shape)))
            x, y = g.meshes()
            errors[cells] = np.max(np.abs(u.values - torsion_square_exact(x, y)))
        assert errors[8] / errors[16] >= 3.5
        assert errors[16] / errors[32] >= 3.5


def random_spd_system(seed, cells, widths, contrast, shift):
    """A 2-D Jacobian-like system: operator A, random M, shift D >= 0, rhs."""
    g = make_uniform_grid((0.0, 0.0), widths, cells)
    rng = np.random.default_rng(seed)
    ent = np.zeros(g.shape + (2, 2))
    for ax in range(2):
        ent[..., ax, ax] = contrast ** rng.random(g.shape)
    op = assemble(g, CoefficientField(g, ent))
    d = shift * rng.random(op.n_unknowns) / min(g.h) ** 2
    return op, d, rng.standard_normal(op.n_unknowns)


def direct_solve(op, d, b):
    return spla.splu((op.matrix + sp.diags(d)).tocsc()).solve(b)


class TestSpdSolver:
    @settings(max_examples=25, deadline=None)
    @given(base=st.tuples(st.sampled_from([3, 4, 5]), st.sampled_from([3, 4, 5])),
           k=st.tuples(st.integers(3, 5), st.integers(3, 5)),
           widths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           contrast=st.floats(1.0, 10.0), shift=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct(self, base, k, widths, contrast, shift, seed):
        cells = tuple(c * 2 ** e for c, e in zip(base, k))
        op, d, b = random_spd_system(seed, cells, widths, contrast, shift)
        assert ops._coarse_shapes(op.grid.interior_shape)
        direct = direct_solve(op, d, b)
        x = op.solver(d)(b)
        assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))

    @settings(max_examples=15, deadline=None)
    @given(cells=st.integers(4, 512), shifted=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_1d_matches_direct(self, cells, shifted, seed):
        # banded Cholesky against SuperLU: rounding apart, the same solution
        g = make_uniform_grid(0.0, 1.0, cells)
        rng = np.random.default_rng(seed)
        ent = (0.1 + rng.random(g.shape))[:, None, None]
        op = assemble(g, CoefficientField(g, ent))
        d = rng.random(op.n_unknowns) / g.h[0] ** 2 if shifted else np.zeros(op.n_unknowns)
        b = rng.standard_normal(op.n_unknowns)
        direct = direct_solve(op, d, b)
        x = op.solver(d if shifted else None)(b)
        assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))

    @pytest.mark.parametrize("cells", [(64, 6), (12, 12), (16, 16), (64, 63)])
    def test_non_coarsenable_2d_is_exactly_direct(self, cells):
        op, d, b = random_spd_system(1, cells, (1.0, 1.0), 10.0, 0.5)
        assert not ops._coarse_shapes(op.grid.interior_shape)
        assert np.array_equal(op.solver(d)(b), direct_solve(op, d, b))

    def test_iteration_cap_raises(self, monkeypatch):
        op, d, b = random_spd_system(2, (64, 64), (1.0, 1.0), 10.0, 0.5)
        monkeypatch.setattr(ops, "CG_MAX_ITERATIONS", 1)
        with pytest.raises(LinearSolveError):
            op.solver(d)(b)


@pytest.mark.parametrize("lo, hi, cells", [(0.0, 1.0, 16),
                                           ((0.0, 0.0), (1.0, 1.0), (12, 10))])
def test_eliminate_replaces_rows_and_columns_by_the_diagonal(lo, hi, cells, rng):
    g = make_uniform_grid(lo, hi, cells)
    op = assemble(g, CoefficientField.identity(g))
    mask = rng.random(op.n_unknowns) < 0.3
    dense = op.matrix.toarray()
    dense[mask, :] = 0.0
    dense[:, mask] = 0.0
    dense[mask, mask] = op.matrix.diagonal()[mask]
    assert np.array_equal(op.eliminate(mask).matrix.toarray(), dense)


class TestSolveMeasure:
    def test_two_unit_masses_hat(self):
        g = make_uniform_grid(-2.0, 2.0, 64)
        op = assemble(g, CoefficientField.identity(g))
        mu = MeasureData.from_pairs([(-1.0, 1.0), (1.0, 1.0)])
        u = solve_measure(op, mu)
        t = g.axes()[0]
        hat = np.where(np.abs(t) <= 1.0, 1.0, 2.0 - np.abs(t))
        assert np.max(np.abs(u.values - hat)) <= 1e-10

    def test_single_mass_tent(self):
        g = make_uniform_grid(-1.0, 1.0, 64)
        op = assemble(g, CoefficientField.identity(g))
        u = solve_measure(op, MeasureData.from_pairs([(0.0, 1.0)]))
        t = g.axes()[0]
        assert np.max(np.abs(u.values - (1.0 - np.abs(t)) / 2.0)) <= 1e-10

    def test_empty_measure(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        op = assemble(g, CoefficientField.identity(g))
        assert solve_measure(op, MeasureData(())).sup_norm() == 0.0

    def test_boundary_location_rejected(self):
        g = make_uniform_grid(-1.0, 1.0, 16)
        op = assemble(g, CoefficientField.identity(g))
        for loc in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                solve_measure(op, MeasureData.from_pairs([(loc, 1.0)]))

    def test_2d_point_source(self):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (16, 16))
        op = assemble(g, CoefficientField.identity(g))
        u = solve_measure(op, MeasureData.from_pairs([((0.5, 0.5), 1.0)]))
        assert np.min(u.values) >= 0.0
        assert 0.0 < u.sup_norm() < 10.0


def test_only_operators_imports_sparse_linalg():
    # sparse matrices, and how their systems are solved, live in one module:
    # no other module imports scipy.sparse or any of its submodules
    importers = set()
    for path in Path(ops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.")
                   for name in names):
                importers.add(path.stem)
    assert importers == {"operators"}
