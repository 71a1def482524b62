"""The names the benchmark tracer (perfbench/spans.py) patches for the 2-D
operator, which is `operator1d.SpatialOperator`, the one spatial operator
of both dimensions."""

from .operator1d import SpatialOperator as SpatialOperator2D  # noqa: F401
# the solver never calls it (walls run in `FLUXES` calls), the tests'
# reference does
from .physics import wall_boundary_flux  # noqa: F401
