"""Numerical laboratory for scalar conservation laws with Brownian transport
noise: a kinetic BGK solver, independent reference oracles, and audits of the
solution properties (maximum principle, L1/BV bounds, defect structure,
comparison, Holder regularity, commutator decay)."""

__version__ = "0.1.0"

from .bgk import (BGKConfig, DefectAccumulator, Trajectory, accumulate_defect,
                  epsilon_continuation, picard_solve, relax_substep,
                  run_simulation, transport_substep)
from .brownian import (BrownianPath, levy_modulus_statistic, sample_path,
                       sample_paths)
from .csvio import export_path_csv, import_path_csv
from .errors import (ConfigurationError, GridMismatchError, NumericalAbortError,
                     RangeViolationError, StochBGKError, StructuralViolationError)
from .fields import (DensityField, KineticField, density_from_kinetic,
                     discrete_bv, entropy_pair, kinetic_l1, lift_density,
                     lp_norm, maxwellian_cell_average)
from .flow import FlowQuery, flow_forward, flow_inverse, jacobian_determinant
from .grids import SpatialGrid, VelocityGrid
from .problem import ProblemSpec

__all__ = [name for name in dir() if not name.startswith("_")]
