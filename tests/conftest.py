import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stochbgk.bgk import accumulate_defect, transport_substep
from stochbgk.fields import KineticField, density_from_kinetic, kinetic_l1
from stochbgk.grids import SpatialGrid, VelocityGrid

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def clip_lift(rho, vgrid):
    """Cell averages of chi_rho by clipping the cell edges to [min(rho, 0),
    max(rho, 0)]: a reference for the solver's single-cell Maxwellian that
    shares no code with it.  It holds -0.0 in the cells of a negative
    density outside [rho, 0], where the solver's lift holds +0.0."""
    r = np.asarray(rho, dtype=float) / vgrid.dv  # exact: dv is a power of two
    w = np.arange(vgrid.n_v + 1, dtype=float) - vgrid.n_v // 2
    s = np.clip(w, np.minimum(r, 0.0)[..., None], np.maximum(r, 0.0)[..., None])
    frac = s[..., 1:] - s[..., :-1]
    return np.where((r >= 0)[..., None], frac, -frac)


Replay = namedtuple("Replay", "rho u_l1 kinetic_snapshots final_u slab_mass min_entry "
                               "defect_fields")


def _full_box_run(spec, cfg, path):
    """run_simulation rebuilt from the clip_lift of rho0 and the public
    full-box substeps: transport, relaxation toward the clip_lift of the
    density clipped to the sign range of rho0, the defect prefix, and slabs
    closed at the snapshot stride.  Besides what the engine returns (the
    snapshot densities, u_l1, the final state, the slab masses and the most
    negative raw prefix entry) it keeps the kinetic state at each snapshot
    and each slab's summed defect prefix field."""
    grid = SpatialGrid(dim=spec.dim, half_width=cfg.half_width, n=cfg.n)
    rho0 = spec.initial_field(grid)
    vg = VelocityGrid.for_density_bound(
        cfg.v_bound if cfg.v_bound is not None else rho0.linf(), cfg.n_v)
    bounds = (min(0.0, float(rho0.values.min())), max(0.0, float(rho0.values.max())))
    u = KineticField(grid, vg, clip_lift(rho0.values, vg))
    dt, alpha = cfg.dt, math.exp(-cfg.dt / cfg.epsilon)
    rho, u_l1, u_snaps, fields, slab = [rho0.values], [kinetic_l1(u)], [u.values], [], 0.0
    slab_mass, min_entry = [], 0.0
    for k in range(cfg.n_steps):
        u_tilde = transport_substep(u, k * dt, dt, path, spec)
        rho_tilde = np.clip(density_from_kinetic(u_tilde).values, *bounds)
        m = clip_lift(rho_tilde, vg)
        u_next = KineticField(grid, vg, m + alpha * (u_tilde.values - m))
        prefix = accumulate_defect(u_tilde, u_next, cfg.epsilon, dt)
        # the prefix before accumulate_defect's clamp
        raw = vg.dv * np.cumsum(u_next.values - u_tilde.values, axis=-1)
        min_entry = min(min_entry, float(raw.min()))
        slab = slab + prefix
        u = u_next
        if (k + 1) % cfg.snapshot_stride == 0 or k + 1 == cfg.n_steps:
            slab_mass.append(float(slab.sum()) * grid.cell_volume * vg.dv)
            fields.append(slab)
            slab = 0.0
            rho.append(rho_tilde)
            u_l1.append(kinetic_l1(u))
            u_snaps.append(u.values)
    return Replay(np.asarray(rho), np.asarray(u_l1), np.asarray(u_snaps), u, slab_mass,
                  min_entry, np.asarray(fields))


@pytest.fixture(scope="session")
def full_box_run():
    """The replay of run_simulation from the public substeps, as a function
    of (spec, config, path) returning a Replay."""
    return _full_box_run
