"""Scheme descriptors: reconstruction order, well-balancing variant, flux."""

from dataclasses import dataclass

from .errors import ConfigurationError
from .physics import get_flux
from .reconstruct import check_order

KINDS_1D = ("standard", "dwb", "dwb-s", "la", "la-s")
KINDS_2D = ("standard", "la", "la-s")


@dataclass(frozen=True)
class Scheme:
    """Spatial scheme selector.

    kind: 'standard' (no well-balancing), 'dwb'/'dwb-s' (piecewise equilibrium
    source over the stencil), 'la'/'la-s' (cell-local source extrapolated).
    The '-s' variants anchor the equilibrium pressure by direct EoS evaluation
    at the cell center instead of the cell-average matching solve.
    """

    kind: str = "standard"
    order: int = 3
    flux: str = "roe"

    def __post_init__(self):
        if self.kind not in KINDS_1D:
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")
        check_order(self.order)
        get_flux(self.flux)

    @property
    def radius(self):
        return (self.order - 1) // 2

    @property
    def well_balanced(self):
        return self.kind != "standard"

    @property
    def piecewise_source(self):
        return self.kind in ("dwb", "dwb-s")

    @property
    def simplified_anchor(self):
        return self.kind.endswith("-s")

    @property
    def n_quad(self):
        # per-cell Gauss nodes for equilibrium matching; order q = 2*n >= m
        return (self.order + 1) // 2

    @property
    def n_ghost(self):
        # widened layer for the piecewise source representation
        if self.piecewise_source:
            return self.order
        return self.radius + 1

    def validate_dimension(self, ndim):
        if ndim == 2 and self.kind not in KINDS_2D:
            raise ConfigurationError(
                f"scheme {self.kind!r} is not available in 2-D (only {KINDS_2D})")
        if ndim == 2 and self.order != 3:
            raise ConfigurationError("2-D schemes support order 3 only")

    @property
    def label(self):
        names = {"standard": "Std", "dwb": "DWB", "dwb-s": "DWB-S",
                 "la": "LA", "la-s": "LA-S"}
        return f"{names[self.kind]}-O{self.order}"
