"""Tests for repro.viz (ASCII renderers and figure artifacts)."""

import numpy as np
import pytest

from repro.geo.geometry import BBox
from repro.geo.raster import GridSpec
from repro.viz import ascii as viz
from repro.viz import figures


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


class TestDensityMap:
    def test_dimensions(self):
        out = viz.density_map(np.array([-100.0]), np.array([35.0]),
                              BBox(-110, 30, -90, 40), width=40)
        lines = out.splitlines()
        assert all(len(l) == 40 for l in lines)
        assert len(lines) >= 1

    def test_empty_points(self):
        out = viz.density_map(np.array([]), np.array([]),
                              BBox(-110, 30, -90, 40), width=20)
        assert set("".join(out.splitlines())) == {" "}

    def test_dense_cell_darker(self):
        lons = np.array([-100.0] * 100 + [-95.0])
        lats = np.array([35.0] * 100 + [35.0])
        out = viz.density_map(lons, lats, BBox(-110, 30, -90, 40),
                              width=40)
        ramp = viz.DENSITY_RAMP
        chars = set("".join(out.splitlines()))
        # densest char present, and it's later in the ramp than the
        # single-point char
        nonblank = sorted((ramp.index(c) for c in chars if c != " "))
        assert len(nonblank) >= 2
        assert nonblank[-1] > nonblank[0]

    def test_points_outside_ignored(self):
        out = viz.density_map(np.array([0.0]), np.array([0.0]),
                              BBox(-110, 30, -90, 40), width=20)
        assert set("".join(out.splitlines())) == {" "}


class TestClassMap:
    def test_symbols_rendered(self):
        grid = GridSpec(BBox(-110, 30, -90, 40), 0.5)
        data = np.zeros(grid.shape, dtype=np.int8)
        data[:, : grid.width // 2] = 1
        out = viz.class_map(data, grid, {0: ".", 1: "#"}, width=40)
        assert "#" in out and "." in out

    def test_window_restriction(self):
        grid = GridSpec(BBox(-110, 30, -90, 40), 0.5)
        data = np.zeros(grid.shape, dtype=np.int8)
        out = viz.class_map(data, grid, {0: "."},
                            bbox=BBox(-105, 33, -100, 37), width=20)
        assert set("".join(out.splitlines())) == {"."}

    def test_outside_grid_blank(self):
        grid = GridSpec(BBox(-110, 30, -90, 40), 0.5)
        data = np.zeros(grid.shape, dtype=np.int8)
        out = viz.class_map(data, grid, {0: "."},
                            bbox=BBox(-130, 30, -90, 40), width=40)
        assert " " in "".join(out.splitlines())


class TestBarChart:
    def test_basic(self):
        out = viz.bar_chart(["a", "bb"], [10, 5], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            viz.bar_chart(["a"], [1, 2])

    def test_zero_values(self):
        out = viz.bar_chart(["a"], [0.0])
        assert "█" not in out


class TestFigureArtifacts:
    @pytest.mark.parametrize("fn", [
        figures.figure2, figures.figure3, figures.figure4,
        figures.figure5, figures.figure6, figures.figure8,
        figures.figure9, figures.figure10, figures.figure12,
        figures.figure14,
    ])
    def test_figure_produces_artifact(self, universe, fn):
        art = fn(universe)
        assert art.ascii_art
        assert art.data is not None
        assert art.figure.isdigit()

    def test_figure7_three_panels(self, universe):
        art = figures.figure7(universe, width=40)
        assert art.ascii_art.count("[") == 3

    def test_figure7_panels_are_the_direct_classification(self, universe):
        """The panels read the session's ``whp_classes``; the text is
        exactly what classifying the universe directly draws."""
        from repro.data.whp import WHPClass

        cells = universe.cells
        classes = universe.whp.classify(cells.lons, cells.lats)
        expected = "\n\n".join(
            f"[{name}]\n" + viz.density_map(
                cells.lons[classes == int(cls)],
                cells.lats[classes == int(cls)],
                universe.population.grid.bbox, width=40)
            for name, cls in (("Moderate", WHPClass.MODERATE),
                              ("High", WHPClass.HIGH),
                              ("Very High", WHPClass.VERY_HIGH)))
        assert figures.figure7(universe, width=40).ascii_art == expected

    def test_figure7_classifies_at_most_once(self, monkeypatch):
        from repro.core import overlay as overlay_mod
        from repro.data import SyntheticUS, UniverseConfig

        calls = []
        real = overlay_mod.classify_cells

        def spy(cells, whp, **kw):
            calls.append(id(cells))
            return real(cells, whp, **kw)

        # Spy the name in the figure module too, so a direct call from
        # the figure code would be counted.
        monkeypatch.setattr(overlay_mod, "classify_cells", spy)
        monkeypatch.setattr(figures, "classify_cells", spy, raising=False)
        fresh = SyntheticUS(UniverseConfig(n_transceivers=6000, seed=7))
        figures.figure7(fresh, width=40)
        assert len(calls) <= 1

    def test_figure11_counts_nested(self, universe):
        art = figures.figure11(universe, width=40)
        assert art.data["vh_both"] <= art.data["vh_pop"] \
            <= art.data["all"]

    def test_figure13_windows(self, universe):
        art = figures.figure13(universe, width=30)
        assert "Orlando" in art.ascii_art

    def test_figure15_window(self, universe):
        art = figures.figure15(universe, width=40)
        assert len(art.data) == 13
