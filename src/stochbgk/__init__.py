"""Numerical laboratory for scalar conservation laws with Brownian transport
noise: a kinetic BGK solver, independent reference oracles, and audits of the
solution properties (maximum principle, L1 growth, BV non-increase, defect
structure, energy-defect identity, entropy residual)."""

__version__ = "0.1.0"

from .bgk import (BGKConfig, Trajectory, accumulate_defect, picard_solve,
                  relax_substep, run_simulation, transport_substep)
from .brownian import (BrownianPath, levy_modulus_statistic, sample_path,
                       sample_paths)
from .errors import (ConfigurationError, GridMismatchError, NumericalAbortError,
                     RangeViolationError, StochBGKError, StructuralViolationError)
from .fields import (DensityField, KineticField, density_from_kinetic,
                     discrete_bv, entropy_pair, kinetic_l1, lift_density,
                     lp_norm, maxwellian_cell_average)
from .grids import SpatialGrid, VelocityGrid
from .problem import ProblemSpec

__all__ = ["BGKConfig", "Trajectory", "accumulate_defect", "picard_solve", "relax_substep",
           "run_simulation", "transport_substep", "BrownianPath", "levy_modulus_statistic",
           "sample_path", "sample_paths", "ConfigurationError", "GridMismatchError",
           "NumericalAbortError", "RangeViolationError", "StochBGKError",
           "StructuralViolationError", "DensityField", "KineticField", "density_from_kinetic",
           "discrete_bv", "entropy_pair", "kinetic_l1", "lift_density", "lp_norm",
           "maxwellian_cell_average", "SpatialGrid", "VelocityGrid", "ProblemSpec"]
