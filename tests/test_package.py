"""The package's public surface, and the analysis kept out of it."""

import importlib

import stochbgk

PUBLIC = [
    "BGKConfig", "BrownianPath", "ConfigurationError", "DensityField", "GridMismatchError",
    "KineticField", "NumericalAbortError", "ProblemSpec", "RangeViolationError",
    "SpatialGrid", "StochBGKError", "StructuralViolationError", "Trajectory", "VelocityGrid",
    "accumulate_defect", "density_from_kinetic", "discrete_bv", "entropy_pair",
    "kinetic_l1", "levy_modulus_statistic", "lift_density", "lp_norm",
    "maxwellian_cell_average", "picard_solve", "relax_substep", "run_simulation",
    "sample_path", "sample_paths", "transport_substep",
]

# analysis that only the acceptance criteria run; it lives in tests/experiments.py
CRITERION_ONLY = [
    "check_comparison", "fit_holder_exponent", "commutator_experiment",
    "cosine_kernel_moment", "_kernel_1d", "_smooth", "epsilon_continuation", "exact_flow",
    "_region_slices",
]


def test_public_surface_is_pinned():
    assert sorted(stochbgk.__all__) == PUBLIC
    assert all(hasattr(stochbgk, name) for name in PUBLIC)
    for module in ("audit", "bgk", "counterexample", "fields"):
        mod = importlib.import_module(f"stochbgk.{module}")
        assert [name for name in CRITERION_ONLY if hasattr(mod, name)] == []
