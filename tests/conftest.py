import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stochbgk.bgk import accumulate_defect, relax_substep, transport_substep
from stochbgk.fields import density_from_kinetic, kinetic_l1, lift_density
from stochbgk.grids import SpatialGrid, VelocityGrid

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _quiet_pad_warnings():
    # small desk grids trip the pad-width advisory; tests size boxes on purpose
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*padded box.*")
        warnings.filterwarnings("ignore", message=".*epsilon.*")
        yield


Replay = namedtuple("Replay", "rho u_l1 kinetic_snapshots final_u slab_mass min_entry "
                               "defect_fields")


def _full_box_run(spec, cfg, path):
    """run_simulation rebuilt from the public full-box substeps: transport,
    relaxation clipped to the sign range of rho0, the defect prefix, and
    slabs closed at the snapshot stride.  Besides what the engine returns
    (the snapshot densities, u_l1, the final state, the slab masses and the
    most negative raw prefix entry) it keeps the kinetic state at each
    snapshot and each slab's summed defect prefix field."""
    grid = SpatialGrid(dim=spec.dim, half_width=cfg.half_width, n=cfg.n)
    rho0 = spec.initial_field(grid)
    vg = VelocityGrid.for_density_bound(
        cfg.v_bound if cfg.v_bound is not None else rho0.linf(), cfg.n_v)
    bounds = (min(0.0, float(rho0.values.min())), max(0.0, float(rho0.values.max())))
    u = lift_density(rho0, vg)
    dt, eps = cfg.dt, cfg.epsilon
    rho, u_l1, u_snaps, fields, slab = [rho0.values], [kinetic_l1(u)], [u.values], [], 0.0
    slab_mass, min_entry = [], 0.0
    for k in range(cfg.n_steps):
        u_tilde = transport_substep(u, k * dt, dt, path, spec)
        u_next = relax_substep(u_tilde, eps, dt, bounds)
        prefix = accumulate_defect(u_tilde, u_next, eps, dt)
        # the prefix before accumulate_defect's clamp
        raw = vg.dv * np.cumsum(u_next.values - u_tilde.values, axis=-1)
        min_entry = min(min_entry, float(raw.min()))
        slab = slab + prefix
        u = u_next
        if (k + 1) % cfg.snapshot_stride == 0 or k + 1 == cfg.n_steps:
            slab_mass.append(float(slab.sum()) * grid.cell_volume * vg.dv)
            fields.append(slab)
            slab = 0.0
            rho.append(np.clip(density_from_kinetic(u_tilde).values, *bounds))
            u_l1.append(kinetic_l1(u))
            u_snaps.append(u.values)
    return Replay(np.asarray(rho), np.asarray(u_l1), np.asarray(u_snaps), u, slab_mass,
                  min_entry, np.asarray(fields))


@pytest.fixture(scope="session")
def full_box_run():
    """The replay of run_simulation from the public substeps, as a function
    of (spec, config, path) returning a Replay."""
    return _full_box_run
