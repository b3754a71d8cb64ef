import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import singell.operators as ops
from singell import (CoefficientField, EllipticityError, GridFunction,
                     LinearSolveError, MeasureData, assemble, make_uniform_grid,
                     solve_linear, solve_measure, solve_singular)
from singell.config import load_config
from conftest import harmonic_lift, record_direct_solves, reference_harmonic

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
            m = entries[..., ax]
            for step in (-1, 1):
                nb = list(node)
                nb[ax] += step
                nb = tuple(nb)
                w = 0.5 * (m[node] + m[nb]) / grid.h[ax] ** 2
                dense[row, row] += w
                if nb in index:
                    dense[row, index[nb]] -= w
    return dense


def kron_stencil(grid, entries):
    """The stencil as sum_axis D^T W D from Kronecker-product differences."""
    matrix = None
    for axis, h in enumerate(grid.h):
        cells = grid.cells[axis]
        factors = [sp.identity(n) for n in grid.interior_shape]
        factors[axis] = sp.diags([-np.ones(cells - 1), np.ones(cells - 1)], [-1, 0],
                                 shape=(cells, cells - 1))
        diff = functools.reduce(sp.kron, factors)
        faces = [slice(1, -1)] * grid.dim
        faces[axis] = slice(None)
        nodal = entries[tuple(faces) + (axis,)]
        weight = 0.5 * (np.delete(nodal, -1, axis) + np.delete(nodal, 0, axis)) / h ** 2
        term = diff.T @ sp.diags(weight.ravel()) @ diff
        matrix = term if matrix is None else matrix + term
    return matrix.tocsr().sorted_indices()


def assert_same_csr(matrix, ref):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, part), getattr(ref, part)), part


class TestAssembly:
    @pytest.mark.parametrize("name", ["cubic_interval", "matched_indicator",
                                      "square_hole", "uniform_interval_sweep"])
    def test_shipped_configs_match_kron_reference_exactly(self, name):
        spec = load_config(CONFIGS / f"{name}.json").spec
        assert_same_csr(assemble(spec.grid, spec.coefficients).matrix,
                        kron_stencil(spec.grid, spec.coefficients.entries))

    @pytest.mark.parametrize("cells", [(17, 15), (64, 16), (33, 40), (7,), (100,)])
    def test_random_diagonal_coefficients_match_kron_reference_exactly(self, cells, rng):
        g = make_uniform_grid((0.0,) * len(cells), tuple(1.0 + k for k in range(len(cells))),
                              cells)
        ent = np.zeros(g.shape + (g.dim,))
        for ax in range(g.dim):
            ent[..., ax] = 0.1 + 5.0 * rng.random(g.shape)
        assert_same_csr(assemble(g, CoefficientField(g, ent)).matrix, kron_stencil(g, ent))

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           cells=st.tuples(st.integers(4, 9), st.integers(4, 9)),
           widths=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_loop_reference(self, dim, cells, widths, seed):
        g = make_uniform_grid(tuple(-0.5 * w for w in widths[:dim]),
                              tuple(0.5 * w for w in widths[:dim]), cells[:dim])
        rng = np.random.default_rng(seed)
        ent = np.zeros(g.shape + (dim,))
        for ax in range(dim):
            ent[..., ax] = 0.1 + 5.0 * rng.random(g.shape)
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
        ent = np.zeros(g.shape + (2,))
        ent[..., 0] = 1.0 + rng.random(g.shape)
        ent[..., 1] = 0.5 + rng.random(g.shape)
        op = assemble(g, CoefficientField(g, ent))
        diff = (op.matrix - op.matrix.T).toarray()
        assert np.max(np.abs(diff)) == 0.0

    def test_m_matrix_pattern(self, rng):
        for _ in range(5):
            g = make_uniform_grid(0.0, 1.0, 16)
            ent = (1.0 + rng.random(g.shape))[:, None]
            op = assemble(g, CoefficientField(g, ent))
            coo = op.matrix.tocoo()
            off = coo.data[coo.row != coo.col]
            assert np.all(off <= 0.0)
            row_sums = np.asarray(op.matrix.sum(axis=1)).ravel()
            assert np.min(row_sums) >= -1e-12 * np.max(op.matrix.diagonal())

    def test_off_diagonal_coefficients_rejected(self):
        # the 5-point stencil has no cross term: no such field can be built
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        with pytest.raises(ValueError, match="not diagonal"):
            CoefficientField.constant(g, [[1.0, 0.2], [0.2, 1.0]])

    @pytest.mark.parametrize("lo, hi, cells", [(0.0, 3.0, 16), (0.0, 1.0, 8)],
                             ids=["same_count_other_extent", "other_count"])
    def test_field_on_another_grid_raises(self, lo, hi, cells):
        # the same cell count would build A from the other grid's nodal
        # coefficients; another count would fail to reshape
        g, other = make_uniform_grid(0.0, 1.0, 16), make_uniform_grid(lo, hi, cells)
        with pytest.raises(ValueError, match="lives on a different grid"):
            assemble(g, CoefficientField.identity(other))


def assert_diagonal_storage(op):
    """A's diagonals: offsets strictly ascending, the data of A's `todia`."""
    reference = op.matrix.todia()
    assert np.all(np.diff(op.diagonals.offsets) > 0)
    assert np.array_equal(op.diagonals.offsets, reference.offsets)
    assert np.array_equal(op.diagonals.data, reference.data)


def count_todia(monkeypatch):
    """The list every `todia` of a CSR or COO matrix appends itself to."""
    calls = []
    owners = {cls for kind in (sp.csr_matrix, sp.coo_matrix) for cls in kind.__mro__
              if "todia" in vars(cls)}
    for cls in owners:
        real = vars(cls)["todia"]
        monkeypatch.setattr(cls, "todia", lambda matrix, *args, _real=real, **kwargs:
                            calls.append(matrix) or _real(matrix, *args, **kwargs))
    return calls


class TestDiagonalAssembly:
    """`assemble` writes A's diagonals directly, data[k, j] = A[j - offset_k, j]."""

    @pytest.mark.parametrize("name", ["cubic_interval", "matched_indicator",
                                      "square_hole", "uniform_interval_sweep"])
    def test_shipped_configs(self, name):
        spec = load_config(CONFIGS / f"{name}.json").spec
        assert_diagonal_storage(assemble(spec.grid, spec.coefficients))

    @pytest.mark.parametrize("cells", [(17, 15), (64, 16), (33, 40), (7,), (100,)])
    def test_random_diagonal_coefficients(self, cells, rng):
        g = make_uniform_grid((-1.0,) * len(cells), tuple(1.0 + k for k in range(len(cells))),
                              cells)
        ent = np.zeros(g.shape + (g.dim,))
        for ax in range(g.dim):
            ent[..., ax] = 0.1 + 5.0 * rng.random(g.shape)
        op = assemble(g, CoefficientField(g, ent))
        assert_diagonal_storage(op)
        assert np.array_equal(op.diagonals.toarray(), kron_stencil(g, ent).toarray())

    @pytest.mark.parametrize("cells", [64, (40, 64)])
    def test_assembly_converts_nothing(self, cells, rng, monkeypatch):
        lo, hi = ((0.0, 1.0) if np.isscalar(cells) else ((0.0, 0.0), (1.0, 1.0)))
        g = make_uniform_grid(lo, hi, cells)
        calls = count_todia(monkeypatch)
        op = assemble(g, CoefficientField.identity(g))
        x = rng.standard_normal(op.n_unknowns)
        assert np.array_equal(op.apply(x), op.matrix @ x)
        op.rounding_floor(x)
        assert calls == []
        levels, _ = op._hierarchy
        # the coarse Galerkin levels are converted: the count sees them
        assert bool(calls) == (len(levels) > 1)


def csr_product_error_scale(matrix):
    """eps k |A|_inf read off A's CSR form, k the most entries in a row and
    |A|_inf the largest row sum, each row summed in column order (|A| 1)."""
    return (np.finfo(float).eps * int(np.max(np.diff(matrix.indptr)))
            * float(np.max(abs(matrix) @ np.ones(matrix.shape[1]))))


def assert_diagonal_routes(op):
    """A 1-D operator's bands and any operator's rounding-floor scale come
    from its diagonals alone and equal the CSR routes bit for bit."""
    scale = op._product_error_scale
    levels, (bands, shape, axes) = op._hierarchy
    if op.grid.dim == 1:
        assert "matrix" not in vars(op)
        ref_bands, ref_shape, ref_axes = ops._coarse_bands(op.matrix, op.grid.interior_shape)
        assert levels == [] and shape == ref_shape and axes == ref_axes
        assert bands.shape == ref_bands.shape and bands.tobytes() == ref_bands.tobytes()
    assert np.float64(scale).tobytes() == np.float64(
        csr_product_error_scale(op.matrix)).tobytes()


class TestDiagonalRoutes:
    """Set-up read off the diagonals equals the CSR round trip."""

    @pytest.mark.parametrize("name", ["cubic_interval", "matched_indicator",
                                      "square_hole", "uniform_interval_sweep"])
    def test_shipped_configs(self, name):
        spec = load_config(CONFIGS / f"{name}.json").spec
        assert_diagonal_routes(assemble(spec.grid, spec.coefficients))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           cells=st.tuples(st.integers(4, 300), st.integers(4, 40)),
           widths=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           decades=st.floats(0.0, 6.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_diagonal_coefficients(self, dim, cells, widths, decades, seed):
        g = make_uniform_grid(tuple(-0.5 * w for w in widths[:dim]),
                              tuple(0.5 * w for w in widths[:dim]), cells[:dim])
        rng = np.random.default_rng(seed)
        ent = np.zeros(g.shape + (dim,))
        for ax in range(dim):
            ent[..., ax] = 10.0 ** (decades * rng.random(g.shape))
        assert_diagonal_routes(assemble(g, CoefficientField(g, ent)))


class TestHierarchyRowSums:
    """Each level's |A_l| row sums and the cached P 1 equal scipy's
    `abs(A_l).sum(axis=1)` and `P.sum(axis=1)` bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(cells=st.tuples(st.integers(18, 96), st.integers(18, 96)),
           widths=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           decades=st.floats(0.0, 6.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_diagonal_fields(self, cells, widths, decades, seed):
        g = make_uniform_grid(tuple(-0.5 * w for w in widths),
                              tuple(0.5 * w for w in widths), cells)
        ent = 10.0 ** (decades * np.random.default_rng(seed).random(g.shape + (2,)))
        op = assemble(g, CoefficientField(g, ent))
        levels, _ = op._hierarchy
        assert levels
        matrix = op.matrix
        for _, _, abs_rows, interp, restrict, interp_rows in levels:
            assert abs_rows.tobytes() == np.asarray(abs(matrix).sum(axis=1)).ravel().tobytes()
            assert interp_rows.tobytes() == np.asarray(interp.sum(axis=1)).ravel().tobytes()
            matrix = restrict @ matrix @ interp
            matrix.sort_indices()


class TestMMatrixCheck:
    """The sign-pattern certificate, at its thresholds: off-diagonal entries
    at most 1e-14, row sums at least -1e-12 max |diag A|."""

    @staticmethod
    def with_entry(k, j, value):
        """The 1-D Laplacian at h = 1/16 (diagonal 512, interior row sums 0)
        with data[k, j] = A[j - offset_k, j] set to `value`."""
        g = make_uniform_grid(0.0, 1.0, 16)
        diagonals = assemble(g, CoefficientField.identity(g)).diagonals
        data = diagonals.data.copy()
        data[k, j] = value
        return sp.dia_matrix((data, diagonals.offsets), shape=diagonals.shape)

    # data[0, 3] is A[4, 3]: offsets (-1, 0, 1)
    @pytest.mark.parametrize("value, raises", [(1e-10, True), (2e-14, True),
                                               (5e-15, False)])
    def test_positive_off_diagonal(self, value, raises):
        matrix = self.with_entry(0, 3, value)
        assert matrix.toarray()[4, 3] == value
        if raises:
            with pytest.raises(EllipticityError, match="positive off-diagonal"):
                ops._verify_m_matrix(matrix)
        else:
            ops._verify_m_matrix(matrix)

    @pytest.mark.parametrize("loss, raises", [(0.5, True), (2e-12, True),
                                              (0.5e-12, False)])
    def test_row_losing_dominance(self, loss, raises):
        matrix = self.with_entry(1, 5, 512.0 * (1.0 - loss))
        if raises:
            with pytest.raises(EllipticityError, match="diagonal dominance"):
                ops._verify_m_matrix(matrix)
        else:
            ops._verify_m_matrix(matrix)

    def test_assemble_refuses_a_negative_face_weight(self, monkeypatch):
        real = ops.face_weights

        def flipped(coefficients):
            weights = real(coefficients)
            lower, upper = weights[0]
            upper = upper.copy()
            upper[3] = -upper[3]
            return [(lower, upper)]
        monkeypatch.setattr(ops, "face_weights", flipped)
        g = make_uniform_grid(0.0, 1.0, 16)
        with pytest.raises(EllipticityError, match="positive off-diagonal"):
            assemble(g, CoefficientField.identity(g))


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

    @pytest.mark.parametrize("cells", [8192, 65536])
    def test_fine_1d_grid_meets_the_rounding_floor(self, cells):
        # the computed residual of A x carries eps k |A| |x| ~ 1/h^2 of
        # rounding: 1.9e-9 (8192 cells) and 6.0e-8 (65536) against a bound
        # of 2e-10 without that term
        g = make_uniform_grid(-1.0, 1.0, cells)
        op = assemble(g, CoefficientField.identity(g))
        u = solve_linear(op, GridFunction(g, np.ones(g.shape)))
        t = g.axes()[0]
        assert np.max(np.abs(u.values - (1.0 - t ** 2) / 2.0)) <= 1e-8

    def test_rounding_floor_is_k_eps_norm(self):
        for g, entries in ((make_uniform_grid(-1.0, 1.0, 64), 3),
                           (make_uniform_grid((0.0, 0.0), (1.0, 2.0), (8, 16)), 5)):
            op = assemble(g, CoefficientField.identity(g))
            norm = sum(4.0 / h ** 2 for h in g.h)
            x = np.linspace(-2.0, 1.0, op.n_unknowns)
            assert op.rounding_floor(x) == pytest.approx(
                np.finfo(float).eps * entries * norm * 2.0, rel=1e-14)

    def test_multigrid_path_matches_direct(self, rng):
        # (64, 63) cells: an even interior axis, interpolated one-sided
        for cells in ((64, 64), (64, 63)):
            g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), cells)
            op = assemble(g, CoefficientField.identity(g))
            assert ops._coarse_shapes(g.interior_shape)
            rhs = GridFunction(g, rng.random(g.shape))
            iterative = solve_linear(op, rhs)
            direct = spla.splu(op.matrix.tocsc()).solve(op.interior_of(rhs))
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
    ent = np.zeros(g.shape + (2,))
    for ax in range(2):
        ent[..., ax] = contrast ** rng.random(g.shape)
    op = assemble(g, CoefficientField(g, ent))
    d = shift * rng.random(op.n_unknowns) / min(g.h) ** 2
    return op, d, rng.standard_normal(op.n_unknowns)


def direct_solve(op, d, b):
    return spla.splu((op.matrix + sp.diags(d)).tocsc()).solve(b)


def banded_solve(op, d, b):
    """LAPACK banded Cholesky on A + diag(d), the shorter axis numbered fastest."""
    shape = op.grid.interior_shape
    nodes = np.arange(op.n_unknowns).reshape(shape)
    order = (nodes.T if shape[0] < shape[1] else nodes).ravel()
    dense = (op.matrix.toarray() + np.diag(d))[np.ix_(order, order)]
    rows, cols = np.nonzero(dense)
    width = int(np.max(cols - rows))
    bands = np.zeros((width + 1, op.n_unknowns))
    for k in range(width + 1):
        bands[width - k, k:] = np.diagonal(dense, k)
    x = np.empty(op.n_unknowns)
    x[order] = sla.solveh_banded(bands, b[order])
    return x


def solveh_banded_renumbered(bands, shape, axes, b):
    """`solveh_banded` on the unknowns renumbered as `_coarse_bands` does."""
    x = np.empty(shape)
    renumbered = x.transpose(axes)
    renumbered[...] = sla.solveh_banded(
        bands, b.reshape(shape).transpose(axes).ravel()).reshape(renumbered.shape)
    return x.ravel()


class CsrMultigrid:
    """The CSR reference of `ops._Multigrid`: every level a CSR Galerkin
    matrix with the shift scattered into its diagonal slots, sweeps and
    residuals out of place, the coarsest level solved by `solveh_banded` on
    every call.  The solver in diagonal storage must reproduce it bit for bit."""

    def __init__(self, op, shift, rtol):
        self.rtol, self.iterations, self.levels = rtol, 0, []
        matrix = op.matrix
        shapes = [op.grid.interior_shape] + ops._coarse_shapes(op.grid.interior_shape)
        for shape in shapes[:-1]:
            interp, restrict, _ = ops._interpolation(shape)
            rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
            slots = np.flatnonzero(matrix.indices == rows)
            data = matrix.data.copy()
            data[slots] += shift
            shifted = sp.csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)
            abs_rows = np.asarray(abs(matrix).sum(axis=1)).ravel()
            divisor = np.maximum(data[slots], 0.5 * (abs_rows + shift))
            self.levels.append((shifted, ops.JACOBI_WEIGHT / divisor, interp, restrict))
            shift = restrict @ (shift * np.asarray(interp.sum(axis=1)).ravel())
            matrix = restrict @ matrix @ interp
            matrix.sort_indices()
        bands, self.shape, self.axes = ops._coarse_bands(matrix, shapes[-1])
        self.bands = bands.copy()
        self.bands[-1] += shift.reshape(self.shape).transpose(self.axes).ravel()

    def coarse_solve(self, b):
        return solveh_banded_renumbered(self.bands, self.shape, self.axes, b)

    def _vcycle(self, r):
        stack = []
        for matrix, scale, _, restrict in self.levels:
            x = scale * r
            for _ in range(ops.SMOOTHING_SWEEPS - 1):
                x += scale * (r - matrix @ x)
            stack.append((r, x))
            r = restrict @ (r - matrix @ x)
        e = self.coarse_solve(r)
        for (matrix, scale, interp, _), (r, x) in zip(reversed(self.levels),
                                                     reversed(stack)):
            x += interp @ e
            for _ in range(ops.SMOOTHING_SWEEPS):
                x += scale * (r - matrix @ x)
            e = x
        return e

    def _count(self, _x):
        self.iterations += 1

    def __call__(self, b):
        if not self.levels:
            return self.coarse_solve(b)
        system = self.levels[0][0]
        precond = spla.LinearOperator(system.shape, matvec=self._vcycle, dtype=float)
        x, info = spla.cg(system, b, rtol=self.rtol, atol=0.0,
                          maxiter=ops.CG_MAX_ITERATIONS, M=precond, callback=self._count)
        assert info == 0
        return x


class CsrStack:
    """The CSR reference of `solver` on a shift stack over a grid with
    coarse levels: one `CsrMultigrid` per row of the stack."""

    def __init__(self, op, shifts, rtol):
        self.failures = {}
        self.rows = [CsrMultigrid(op, shift, r)
                     for shift, r in zip(shifts, np.broadcast_to(rtol, len(shifts)))]

    @property
    def iterations(self):
        return np.array([solve.iterations for solve in self.rows])

    def __call__(self, b):
        return np.array([solve(row) for solve, row in zip(self.rows, b)])


def csr_reference(monkeypatch):
    """Route every solve and product with A through CSR and `CsrMultigrid`."""
    def solver(op, shift=None, rtol=ops.CG_RELATIVE_TOL):
        if shift is not None and shift.ndim == 2:
            return CsrStack(op, shift, rtol)
        return CsrMultigrid(op, np.zeros(op.n_unknowns) if shift is None else shift, rtol)

    monkeypatch.setattr(ops.SparseOperator, "apply", lambda op, vec: op.matrix @ vec)
    monkeypatch.setattr(ops.SparseOperator, "solver", solver)


class TestSpdSolver:
    @settings(max_examples=25, deadline=None)
    @given(base=st.tuples(st.sampled_from([3, 4, 5]), st.sampled_from([3, 4, 5])),
           k=st.tuples(st.integers(3, 5), st.integers(3, 5)),
           odd=st.tuples(st.booleans(), st.booleans()),
           widths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           contrast=st.floats(1.0, 10.0), shift=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct(self, base, k, odd, widths, contrast, shift, seed):
        # an odd cell count leaves an even interior, interpolated one-sided
        cells = tuple(c * 2 ** e - o for c, e, o in zip(base, k, odd))
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
        ent = (0.1 + rng.random(g.shape))[:, None]
        op = assemble(g, CoefficientField(g, ent))
        d = rng.random(op.n_unknowns) / g.h[0] ** 2 if shifted else np.zeros(op.n_unknowns)
        b = rng.standard_normal(op.n_unknowns)
        direct = direct_solve(op, d, b)
        x = op.solver(d if shifted else None)(b)
        assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))

    # (17, 15) cells: even interior axes, but at most COARSE_SIZE unknowns
    @pytest.mark.parametrize("cells", [(64, 6), (12, 12), (16, 16), (17, 15)])
    def test_non_coarsenable_2d_is_exactly_direct(self, cells):
        op, d, b = random_spd_system(1, cells, (1.0, 1.0), 10.0, 0.5)
        assert not ops._coarse_shapes(op.grid.interior_shape)
        solve = op.solver(d)
        x = solve(b)
        assert np.array_equal(x, banded_solve(op, d, b))
        assert solve.iterations == 0
        direct = direct_solve(op, d, b)
        assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))

    # the shorter axis numbered fastest: bandwidth 5, not 2047
    @pytest.mark.parametrize("cells", [(6, 2048), (2048, 6)])
    def test_thin_grid_is_direct_on_few_bands(self, cells):
        op, d, b = random_spd_system(4, cells, (1.0, 1.0), 10.0, 0.5)
        assert not ops._coarse_shapes(op.grid.interior_shape)
        solve = op.solver(d)
        x = solve(b)
        assert solve.iterations == 0
        assert solve.bands.shape[0] <= 7
        direct = direct_solve(op, d, b)
        assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))

    def test_even_interior_factorizes_only_the_coarsest_level(self, monkeypatch):
        op, d, b = random_spd_system(3, (63, 63), (1.0, 1.0), 10.0, 0.5)
        direct = direct_solve(op, d, b)
        sizes = record_direct_solves(monkeypatch)
        x = op.solver(d)(b)
        coarsest = int(np.prod(ops._coarse_shapes(op.grid.interior_shape)[-1]))
        assert sizes == [coarsest] and coarsest <= ops.COARSE_SIZE
        assert np.max(np.abs(x - direct)) <= 1e-11 * np.max(np.abs(direct))

    def test_solvers_never_write_the_cached_hierarchy(self):
        op, d1, b = random_spd_system(5, (32, 48), (1.0, 1.5), 10.0, 0.5)
        d2 = 3.0 * d1[::-1]
        levels, (bands, *_) = op._hierarchy
        before = [level[0].data.copy() for level in levels], bands.copy()
        x1 = op.solver(d1)(b)
        solve2 = op.solver(d2)
        solve2(b)
        assert all(np.array_equal(level[0].data, data)
                   for level, data in zip(levels, before[0]))
        assert np.array_equal(bands, before[1])
        assert np.array_equal(op.solver(d1)(b), x1)
        # each solver's level l is exactly A_l + diag(d_l), d_{l+1} = R (d_l * P 1)
        assert len(levels) >= 2
        shift = d2
        for (matrix, _, _, interp, restrict, interp_rows), (shifted, *_) in zip(
                levels, solve2.levels):
            assert np.array_equal(shifted.toarray(), matrix.toarray() + np.diag(shift))
            shift = restrict @ (shift * interp_rows)

    @settings(max_examples=20, deadline=None)
    @given(base=st.tuples(st.sampled_from([3, 4, 5]), st.sampled_from([3, 4, 5])),
           k=st.tuples(st.integers(3, 4), st.integers(3, 4)),
           odd=st.tuples(st.booleans(), st.booleans()),
           widths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           contrast=st.floats(1.0, 10.0), shift=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_vcycle_is_symmetric(self, base, k, odd, widths, contrast, shift, seed):
        # CG needs an SPD preconditioner: <V r1, r2> = <r1, V r2>
        cells = tuple(c * 2 ** e - o for c, e, o in zip(base, k, odd))
        op, d, r1 = random_spd_system(seed, cells, widths, contrast, shift)
        r2 = np.random.default_rng(seed + 1).standard_normal(op.n_unknowns)
        vcycle = op.solver(d)._vcycle
        v1, v2 = vcycle(r1), vcycle(r2)
        gap = abs(np.dot(v1, r2) - np.dot(r1, v2))
        assert gap <= 1e-12 * np.linalg.norm(v1) * np.linalg.norm(r2)

    def test_iteration_cap_raises(self, monkeypatch):
        op, d, b = random_spd_system(2, (64, 64), (1.0, 1.0), 10.0, 0.5)
        monkeypatch.setattr(ops, "CG_MAX_ITERATIONS", 1)
        with pytest.raises(LinearSolveError):
            op.solver(d)(b)


class TestDiagonalStorage:
    """Every product and solve in diagonal storage, bit-identical to CSR."""

    @pytest.mark.parametrize("cells", [(64, 64), (63, 80), (96, 40)])
    def test_levels_equal_the_csr_galerkin_levels(self, cells):
        op, _, _ = random_spd_system(6, cells, (1.0, 2.0), 10.0, 0.0)
        levels, _ = op._hierarchy
        assert len(levels) >= 2 and levels[0][0] is op.diagonals
        matrix = op.matrix
        for stored, main, *_, interp, restrict, _ in levels:
            assert np.all(np.diff(stored.offsets) > 0) and stored.offsets[main] == 0
            assert np.array_equal(stored.toarray(), matrix.toarray())
            matrix = restrict @ matrix @ interp
            matrix.sort_indices()

    def test_products_equal_csr_products(self, rng):
        op, _, _ = random_spd_system(7, (40, 24), (1.0, 0.5), 10.0, 0.0)
        levels, _ = op._hierarchy
        matrix = op.matrix
        for stored, *_, interp, restrict, _ in levels:
            x = rng.standard_normal(matrix.shape[0])
            assert np.array_equal(stored @ x, matrix @ x)
            matrix = restrict @ matrix @ interp
            matrix.sort_indices()
        x = rng.standard_normal(op.n_unknowns)
        assert np.array_equal(op.apply(x), op.matrix @ x)

    @settings(max_examples=20, deadline=None)
    @given(base=st.tuples(st.sampled_from([3, 4, 5]), st.sampled_from([3, 4, 5])),
           k=st.tuples(st.integers(3, 4), st.integers(3, 4)),
           odd=st.tuples(st.booleans(), st.booleans()),
           widths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           contrast=st.floats(1.0, 10.0), shift=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_vcycle_and_solve_equal_the_csr_reference(self, base, k, odd, widths,
                                                      contrast, shift, seed):
        cells = tuple(c * 2 ** e - o for c, e, o in zip(base, k, odd))
        op, d, b = random_spd_system(seed, cells, widths, contrast, shift)
        solve, reference = op.solver(d, rtol=1e-8), CsrMultigrid(op, d, 1e-8)
        assert np.array_equal(solve._vcycle(b), reference._vcycle(b))
        assert np.array_equal(solve(b), reference(b))
        assert solve.iterations == reference.iterations > 0

    @pytest.mark.parametrize("cells", [64, (12, 12), (6, 40), (40, 64)])
    def test_coarse_solve_equals_solveh_banded(self, cells, rng):
        lo, hi = ((0.0, 1.0) if np.isscalar(cells) else ((0.0, 0.0), (1.0, 1.0)))
        g = make_uniform_grid(lo, hi, cells)
        op = assemble(g, CoefficientField.identity(g))
        coarsest = op._hierarchy[1]
        bands, shape, axes = coarsest
        shift = rng.random(int(np.prod(shape)))
        solve = ops._Banded(*coarsest, shift)
        shifted = bands.copy()
        shifted[-1] += shift.reshape(shape).transpose(axes).ravel()
        assert solve.bands.shape == bands.shape
        for b in [rng.standard_normal(shift.size) for _ in range(3)] * 2:
            assert np.array_equal(solve(b), solveh_banded_renumbered(shifted, shape, axes, b))

    @pytest.mark.parametrize("cells", [64, (40, 64)])
    def test_coarse_factor_once_per_solver(self, cells, monkeypatch):
        lo, hi = ((0.0, 1.0) if np.isscalar(cells) else ((0.0, 0.0), (1.0, 1.0)))
        g = make_uniform_grid(lo, hi, cells)
        op = assemble(g, CoefficientField.identity(g))
        calls = []

        def counting(name):
            real = getattr(sla.lapack, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)
        for name in ("dpttrf", "dpbtrf", "dptsv", "dpbsv"):
            monkeypatch.setattr(sla.lapack, name, counting(name))
        solve = op.solver(np.ones(op.n_unknowns))
        for _ in range(3):
            solve(np.ones(op.n_unknowns))
        assert calls == ["dpttrf" if g.dim == 1 else "dpbtrf"]
        assert g.dim == 1 or solve.iterations > 1

    @pytest.mark.parametrize("cells", [64, (12, 12)])
    def test_indefinite_shift_raises(self, cells):
        lo, hi = ((0.0, 1.0) if np.isscalar(cells) else ((0.0, 0.0), (1.0, 1.0)))
        g = make_uniform_grid(lo, hi, cells)
        op = assemble(g, CoefficientField.identity(g))
        shift = np.full(op.n_unknowns, -2.0 * np.max(op.matrix.diagonal()))
        with pytest.raises(np.linalg.LinAlgError):
            op.solver(shift)

    def test_square_solve_equals_the_csr_reference(self, monkeypatch):
        spec = load_config(CONFIGS / "square_hole.json").spec
        sol = solve_singular(spec)
        csr_reference(monkeypatch)
        reference = solve_singular(spec)
        assert np.array_equal(sol.u.values, reference.u.values)
        assert ([(it.iterations, it.linear_iterations) for it in sol.trace]
                == [(it.iterations, it.linear_iterations) for it in reference.trace])


class TestStackedSolver:
    """`solver` on a (k, n) stack of shifts: each row bit for bit its own solver."""

    @staticmethod
    def operator(cells):
        lo, hi = ((0.0, 1.0) if np.isscalar(cells) else ((0.0, 0.0), (1.0, 1.0)))
        g = make_uniform_grid(lo, hi, cells)
        return assemble(g, CoefficientField.identity(g))

    # 1-D (block-diagonal pttrf), 2-D with coarse levels (CG), 2-D without (pbtrf)
    @pytest.mark.parametrize("cells", [64, 1024, (40, 64), (12, 10)])
    def test_rows_equal_row_solvers(self, cells, rng):
        op = self.operator(cells)
        rtol = np.array([1e-2, 1e-6, 1e-10, 1e-13])
        shifts = rng.random((4, op.n_unknowns)) * np.array([[0.0], [1.0], [1e3], [1e6]])
        b = rng.standard_normal((4, op.n_unknowns))
        solve = op.solver(shifts, rtol=rtol)
        x = solve(b)
        for i in range(4):
            alone = op.solver(shifts[i], rtol=rtol[i])
            assert np.array_equal(x[i], alone(b[i]))
            assert solve.iterations[i] == alone.iterations
        assert not solve.failures

    # without coarse levels: one banded Cholesky of the block-diagonal stack
    @pytest.mark.parametrize("cells", [64, (12, 10)])
    def test_factors_the_stack_once(self, cells, rng, monkeypatch):
        op = self.operator(cells)
        calls = []

        def counting(name):
            real = getattr(sla.lapack, name)
            return lambda *args: calls.append(args[0].shape[-1]) or real(*args)
        for name in ("dpttrf", "dpbtrf"):
            monkeypatch.setattr(sla.lapack, name, counting(name))
        solve = op.solver(rng.random((5, op.n_unknowns)))
        solve(rng.standard_normal((5, op.n_unknowns)))
        assert calls == [5 * op.n_unknowns]

    @pytest.mark.parametrize("cells", [64, (40, 64), (12, 10)])
    def test_non_finite_row_leaves_the_others_alone(self, cells, rng):
        # 0 * inf is NaN: a non-finite row must not leak across a zero coupling
        op = self.operator(cells)
        shifts = rng.random((3, op.n_unknowns))
        b = rng.standard_normal((3, op.n_unknowns))
        bad_shifts, bad_b = shifts.copy(), b.copy()
        bad_shifts[1, 5], bad_b[1, 7] = np.inf, np.nan
        for stack_shifts, stack_b in ((bad_shifts, b), (shifts, bad_b)):
            with np.errstate(invalid="ignore"):
                x = op.solver(stack_shifts)(stack_b)
            for i in (0, 2):
                assert np.array_equal(x[i], op.solver(shifts[i])(b[i]))

    def test_failed_cg_row_is_nan_and_recorded(self, rng, monkeypatch):
        op = self.operator((40, 64))
        monkeypatch.setattr(ops, "CG_MAX_ITERATIONS", 2)
        shifts = rng.random((2, op.n_unknowns))
        b = rng.standard_normal((2, op.n_unknowns))
        solve = op.solver(shifts, rtol=[0.5, 1e-13])
        x = solve(b)
        assert list(solve.failures) == [1]
        assert isinstance(solve.failures[1], ops.LinearSolveError)
        assert np.all(np.isnan(x[1]))
        assert np.array_equal(x[0], op.solver(shifts[0], rtol=0.5)(b[0]))


def lift_grid(dim, data):
    """A 1-D grid, direct solves, or a 2-D grid with multigrid levels."""
    if dim == 1:
        return make_uniform_grid(-2.0, 2.0, data.draw(st.integers(8, 200)))
    kx, ky = data.draw(st.integers(4, 6)), data.draw(st.integers(4, 6))
    height = data.draw(st.floats(0.5, 2.0))
    return make_uniform_grid((0.0, 0.0), (1.0, height), (2 ** kx, 2 ** ky))


def node_box(grid, data):
    """The node mask of a box with corners on interior nodes."""
    lo, hi = [], []
    for t, c in zip(grid.axes(), grid.cells):
        i0 = data.draw(st.integers(1, c - 2))
        i1 = data.draw(st.integers(i0 + 1, c - 1))
        lo.append(t[i0])
        hi.append(t[i1])
    return grid.box_mask((tuple(lo), tuple(hi)))


def irregular_mask(grid, data):
    """Nodes drawn independently, each with a drawn probability."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random(grid.shape) < data.draw(st.floats(0.02, 0.5))


class TestHarmonicLift:
    """`SparseOperator.harmonic_lift` of node sets that are not one box:
    at CG_RELATIVE_TOL it meets a SuperLU solve on the nodes off the set
    within the bound of the box tests (`TestConjecture`)."""

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_two_boxes_match_superlu_reference(self, dim, data):
        grid = lift_grid(dim, data)
        mask = node_box(grid, data) | node_box(grid, data)
        assert np.max(np.abs(harmonic_lift(grid, mask) - reference_harmonic(grid, mask))) <= 2e-12

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_irregular_mask_matches_superlu_reference(self, dim, data):
        # at most 1.4e-12 over 300 random masks in 2-D, 1.0e-12 in 1-D
        grid = lift_grid(dim, data)
        mask = irregular_mask(grid, data)
        assert np.max(np.abs(harmonic_lift(grid, mask) - reference_harmonic(grid, mask))) <= 2e-12

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_comparison_principle(self, dim, data):
        # the discrete lifts of mask inside larger obey phi <= phi_larger
        # exactly; the computed ones carry the solve error of the reference
        # tests (2e-12), which shows where both lifts are 1: on nodes that
        # the smaller mask encloses
        grid = lift_grid(dim, data)
        mask = data.draw(st.sampled_from([node_box, irregular_mask]))(grid, data)
        larger = mask | irregular_mask(grid, data)
        phi, phi_larger = harmonic_lift(grid, mask), harmonic_lift(grid, larger)
        interior = ~grid.frame_mask()
        assert np.all(phi[mask & interior] == 1.0)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert np.max(phi - phi_larger) <= 2e-12


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
