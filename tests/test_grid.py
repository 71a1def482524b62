import numpy as np
import pytest

from hydrobal.errors import ConfigurationError
from hydrobal.cases import make_scenario
from hydrobal.grid import CellField, Grid
from hydrobal.runner import run
from hydrobal.scheme import Scheme


@pytest.mark.parametrize("domain, cells, n_ghost", [
    ((0.0, 1.0, 0.0), (4,), 2),
    ((0.0, 1.0), (4, 4), 2),
    ((1.0, 0.0), (4,), 2),
    ((0.0, 1.0), (0,), 2),
    ((0.0, 1.0), (4,), -1),
    ((0.0, 1.0), (2.5,), 2),
    ((0.0, 1.0, 0.0, 1.0), (4, 4.0), 2),
], ids=["half-pair", "axes-mismatch", "hi-below-lo", "no-cells",
        "negative-ghosts", "fractional-cells", "float-cells"])
def test_inconsistent_grid_rejected(domain, cells, n_ghost):
    with pytest.raises(ConfigurationError):
        Grid(domain, cells, n_ghost)


def test_derived_accessors():
    grid = Grid((0.0, 1.0, -1.0, 1.0), (4, 8), 2)
    assert grid.spacing == (0.25, 0.25)
    assert grid.shape_tot == (8, 12)
    assert grid.interior == (slice(2, 6), slice(2, 10))
    np.testing.assert_array_equal(grid.centers(1, include_ghosts=False),
                                  -1.0 + 0.25 * (np.arange(8) + 0.5))
    x, y = grid.centers(0), grid.centers(1)
    assert (x.size, y.size) == (8, 12)
    assert x[0] == -0.375 and y[-1] == 1.375
    # a 1-D interior is a plain slice, so data[c, grid.interior] indexes
    assert Grid((0.0, 1.0), (4,), 1).interior == slice(1, 5)
    with pytest.raises(ConfigurationError, match=r"\(8, 12\)"):
        CellField(grid, np.zeros((4, 8, 11)))


def test_run_names_fractional_cells():
    # a fractional n fails at the grid, not at a later shape check
    with pytest.raises(ConfigurationError, match=r"cells \(2\.5,\)"):
        run(make_scenario("isothermal-sin"), Scheme("la", 3), 2.5)
    assert Grid((0.0, 1.0), (np.int64(4),), 2).shape_tot == (8,)
