import functools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singell import (CoefficientField, ConstantDatum, EllipticityError,
                     GridFunction, IndicatorDatum, ProblemSpec, TabulatedDatum,
                     assemble, make_uniform_grid)
from singell.cli import main
from singell.config import load_config
from singell.grids import Grid, sample_datum

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestMakeUniformGrid:
    def test_interval(self):
        g = make_uniform_grid(-2.0, 2.0, 8)
        assert g.dim == 1
        assert g.shape == (9,)
        assert g.h == (0.5,)

    def test_nodes(self):
        g = make_uniform_grid(-1.0, 1.0, 4)
        np.testing.assert_allclose(g.axes()[0], [-1.0, -0.5, 0.0, 0.5, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-10.0, 10.0), length=st.floats(1e-3, 20.0),
           cells=st.integers(4, 64))
    def test_axis_ends_on_lo_and_hi(self, lo, length, cells):
        # lo + h*cells can miss hi by an ulp, e.g. (-0.044, 1.926) at 10 cells
        hi = lo + length
        if lo < hi:
            axis = make_uniform_grid(lo, hi, cells).axes()[0]
            assert axis[0] == lo and axis[-1] == hi

    def test_square(self):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        assert g.dim == 2
        assert g.node_count == 25

    def test_degenerate_extent(self):
        with pytest.raises(ValueError):
            make_uniform_grid(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            make_uniform_grid(2.0, 1.0, 8)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            make_uniform_grid(0.0, 1.0, 3)

    @pytest.mark.parametrize("cells", [64.5, 2.5, "64", True, np.nan, np.inf])
    def test_non_integer_cell_count_raises(self, cells):
        # int() would truncate 64.5 to 64 and accept the string "64"
        with pytest.raises(ValueError, match="integers"):
            make_uniform_grid(0.0, 1.0, cells)
        with pytest.raises(ValueError, match="integers"):
            make_uniform_grid((0.0, 0.0), (1.0, 1.0), (64, cells))

    def test_integral_cell_counts_accepted(self):
        assert make_uniform_grid(0.0, 1.0, 64.0).cells == (64,)
        assert make_uniform_grid(0.0, 1.0, np.int64(64)).cells == (64,)
        assert make_uniform_grid((0.0, 0.0), (1.0, 1.0), [8, 16.0]).cells == (8, 16)


class TestEllipticity:
    def test_identity_any_grid(self):
        for g in (make_uniform_grid(-1, 1, 16),
                  make_uniform_grid((0, 0), (1, 2), (8, 16))):
            assert CoefficientField.identity(g).ellipticity == (1.0, 1.0)

    def test_diagonal(self):
        g = make_uniform_grid((0, 0), (1, 1), (4, 4))
        field = CoefficientField.constant(g, [[2.0, 0.0], [0.0, 0.5]])
        assert field.ellipticity == (0.5, 2.0)

    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([1, 2]), cells=st.integers(4, 12),
           spread=st.floats(0.0, 8.0), seed=st.integers(0, 2 ** 32 - 1),
           bad=st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0, -1.0, -1e-300]))
    def test_diagonal_certificate_property(self, dim, cells, spread, seed, bad):
        # entries across 10^spread, sometimes one bad entry at a random node:
        # (alpha, beta) is (min, max) of the entries, or every read raises
        g = make_uniform_grid((0.0,) * dim, (1.0,) * dim, (cells,) * dim)
        rng = np.random.default_rng(seed)
        ent = 10.0 ** (spread * (rng.random(g.shape + (dim,)) - 0.5))
        if bad is not None:
            ent[tuple(rng.integers(0, n) for n in ent.shape)] = bad
        field = CoefficientField(g, ent)
        full = np.zeros(g.shape + (dim, dim))
        full[..., range(dim), range(dim)] = ent
        with pytest.raises(ValueError, match="entry shape"):   # M itself, (d, d) per node
            CoefficientField(g, full)
        if np.all(ent > 0.0) and np.all(np.isfinite(ent)):
            assert field.ellipticity == (ent.min(), ent.max())
        else:
            for _ in range(2):      # nothing is cached for a bad field
                with pytest.raises(EllipticityError):
                    field.ellipticity

    @settings(max_examples=100, deadline=None)
    @given(diagonal=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
           off=st.one_of(st.floats(), st.just(np.nan)),
           position=st.sampled_from([(0, 1), (1, 0)]))
    def test_constant_refuses_off_diagonal(self, diagonal, off, position):
        # a nonzero or NaN off-diagonal entry is refused; +-0 stores M's diagonal
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        matrix = np.diag(diagonal)
        matrix[position] = off
        if off == 0.0:
            assert np.array_equal(CoefficientField.constant(g, matrix).entries,
                                  np.broadcast_to(diagonal, g.shape + (2,)))
        else:
            with pytest.raises(ValueError, match="not diagonal"):
                CoefficientField.constant(g, matrix)

    def test_negative_eigenvalue(self):
        g = make_uniform_grid((0, 0), (1, 1), (4, 4))
        ent = CoefficientField.identity(g).entries.copy()
        ent[2, 2] = [1.0, -0.1]
        with pytest.raises(EllipticityError):
            CoefficientField(g, ent).ellipticity

    def test_non_symmetric(self):
        # an asymmetric M is not diagonal: refused when the field is built
        g = make_uniform_grid((0, 0), (1, 1), (4, 4))
        with pytest.raises(ValueError, match="not diagonal"):
            CoefficientField.constant(g, [[1.0, 0.3], [0.0, 1.0]])

    @pytest.mark.parametrize("dim, matrix", [
        (1, [[np.nan]]), (1, [[np.inf]]),
        (2, [[np.nan, 0.0], [0.0, 1.0]]), (2, [[1.0, 0.0], [0.0, np.inf]])],
        ids=["nan_1d", "inf_1d", "nan_diagonal", "inf_diagonal"])
    def test_non_finite_entries_raise(self, dim, matrix):
        # every check fails closed: a NaN compares false and must not pass
        g = make_uniform_grid((0.0,) * dim, (1.0,) * dim, (8,) * dim)
        field = CoefficientField.constant(g, matrix)
        for _ in range(2):      # nothing is cached for a bad field
            with pytest.raises(EllipticityError):
                field.ellipticity
            with pytest.raises(EllipticityError):
                assemble(g, field)

    @pytest.mark.parametrize("matrix", [[[1.0, np.nan], [np.nan, 1.0]],
                                        [[1.0, np.inf], [np.inf, 1.0]]],
                             ids=["nan_off_diagonal", "inf_off_diagonal"])
    def test_non_finite_off_diagonal_refused(self, matrix):
        g = make_uniform_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        with pytest.raises(ValueError, match="not diagonal"):
            CoefficientField.constant(g, matrix)

    def test_one_non_finite_node_raises(self):
        g = make_uniform_grid((0, 0), (1, 1), (4, 4))
        ent = CoefficientField.identity(g).entries.copy()
        ent[2, 3, 1] = np.nan
        with pytest.raises(EllipticityError):
            CoefficientField(g, ent).ellipticity


class TestEllipticityOnce:
    """A field's certificate is scanned once (`CoefficientField.ellipticity`);
    every check of a bad field still raises."""

    def test_scanned_once_across_load_config_and_assemble(self, monkeypatch):
        real = CoefficientField.__dict__["ellipticity"].func
        scans = []

        def counted(field):
            scans.append(field)
            return real(field)

        scan = functools.cached_property(counted)
        scan.__set_name__(CoefficientField, "ellipticity")
        monkeypatch.setattr(CoefficientField, "ellipticity", scan)
        spec = load_config(CONFIGS / "square_hole.json").spec
        assemble(spec.grid, spec.coefficients)
        assert spec.coefficients.ellipticity == (1.0, 1.0)
        assert scans == [spec.coefficients]

    @pytest.mark.parametrize("dim, matrix, error, message", [
        pytest.param(1, [[-1.0]], EllipticityError, "ellipticity violated",
                     id="1-matrix0-ellipticity violated"),
        pytest.param(2, [[1.0, 0.0], [0.0, -0.5]], EllipticityError,
                     "ellipticity violated", id="2-matrix1-ellipticity violated"),
        pytest.param(2, [[1.0, 0.3], [0.0, 1.0]], ValueError, "not diagonal",
                     id="2-matrix2-not symmetric")])
    def test_field_built_in_code_raises_from_assemble(self, dim, matrix, error, message):
        # an asymmetric M is refused when the field is built, before assemble
        g = make_uniform_grid((0.0,) * dim, (1.0,) * dim, (8,) * dim)
        field = None
        for _ in range(2):      # nothing is cached for a bad field
            with pytest.raises(error, match=message):
                if field is None:
                    field = CoefficientField.constant(g, matrix)
                assemble(g, field)

    def test_non_elliptic_config_exits_2(self, tmp_path, capsys):
        payload = json.loads((CONFIGS / "cubic_interval.json").read_text())
        payload["problem"]["coefficients"] = {"kind": "constant", "matrix": [[-2.0]]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert "ellipticity violated" in capsys.readouterr().err
        assert not out.exists()


class TestWithGamma:
    def test_equals_replace_without_sampling_the_datum(self, monkeypatch):
        g = make_uniform_grid(-2.0, 2.0, 32)
        spec = ProblemSpec(g, CoefficientField.identity(g),
                           IndicatorDatum(1.0, -1.0, 1.0), gamma=3.0)
        expected = replace(spec, gamma=40.0)
        calls = []
        real = Grid.box_mask
        monkeypatch.setattr(Grid, "box_mask",
                            lambda grid, box: calls.append(box) or real(grid, box))
        other = spec.with_gamma(40.0)
        assert calls == []
        assert (other.gamma, other.datum) == (40.0, spec.datum)
        assert other.datum_values() is spec.datum_values()
        assert np.array_equal(other.datum_values(), expected.datum_values())
        assert spec.gamma == 3.0

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_what_replace_rejects(self, gamma):
        g = make_uniform_grid(0.0, 1.0, 8)
        spec = ProblemSpec(g, CoefficientField.identity(g), ConstantDatum(1.0), gamma=3.0)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            spec.with_gamma(gamma)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            replace(spec, gamma=gamma)


class TestGridFunction:
    def test_rejects_non_finite(self):
        g = make_uniform_grid(0.0, 1.0, 4)
        vals = np.zeros(5)
        vals[2] = np.nan
        with pytest.raises(ValueError):
            GridFunction(g, vals)
        vals[2] = np.inf
        with pytest.raises(ValueError):
            GridFunction(g, vals)

    def test_rejects_wrong_shape(self):
        g = make_uniform_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(4))

    def test_values_frozen(self):
        g = make_uniform_grid(0.0, 1.0, 4)
        u = GridFunction.zeros(g)
        with pytest.raises(ValueError):
            u.values[0] = 1.0


class TestProblemSpec:
    def test_negative_datum_rejected(self):
        # the data only describe f; the spec refuses the sampled values
        g = make_uniform_grid(0.0, 1.0, 8)
        values = np.ones(g.shape)
        values[3] = -1e-300
        for datum in (ConstantDatum(-1.0), TabulatedDatum(GridFunction(g, values))):
            with pytest.raises(ValueError, match="datum must be finite and nonnegative"):
                ProblemSpec(g, CoefficientField.identity(g), datum, gamma=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("indicator", [False, True], ids=["constant", "indicator"])
    def test_non_finite_datum_rejected(self, value, indicator):
        # one check on the sampled values, written so that a NaN fails it
        g = make_uniform_grid(0.0, 1.0, 8)
        datum = IndicatorDatum(value, 0.25, 0.75) if indicator else ConstantDatum(value)
        with pytest.raises(ValueError, match="datum must be finite and nonnegative"):
            ProblemSpec(g, CoefficientField.identity(g), datum, gamma=1.0)

    def test_indicator_boundary_nodes_take_inside_value(self):
        g = make_uniform_grid(-2.0, 2.0, 8)
        f = sample_datum(IndicatorDatum(3.0, -1.0, 1.0), g)
        t = g.axes()[0]
        assert f[np.isclose(t, -1.0)] == 3.0
        assert f[np.isclose(t, 1.0)] == 3.0
        assert f[np.isclose(t, 1.5)] == 0.0

    def test_datum_values_sampled_once_and_read_only(self):
        g = make_uniform_grid(-2.0, 2.0, 16)
        spec = ProblemSpec(g, CoefficientField.identity(g),
                           IndicatorDatum(3.0, -1.0, 1.0), gamma=2.0)
        f = spec.datum_values()
        assert f is spec.datum_values()
        assert np.array_equal(f, sample_datum(spec.datum, g))
        with pytest.raises(ValueError):
            f[0] = 1.0
        # not a field: equality, repr and replace see only the fields
        assert "_datum_values" not in repr(spec)
        assert replace(spec) == spec
        assert np.array_equal(replace(spec, datum=ConstantDatum(2.0)).datum_values(),
                              np.full(g.shape, 2.0))

    def test_gamma_positive(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            ProblemSpec(g, CoefficientField.identity(g), ConstantDatum(1.0),
                        gamma=0.0)
