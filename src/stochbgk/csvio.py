"""Stable CSV emission and parsing for trajectories, tables, and reports.

All floats are written with repr-quality precision so that reruns of the
same seeded experiment produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Iterable

import numpy as np

from .bgk import Trajectory
from .errors import ConfigurationError


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_rows(fname, header, rows) -> None:
    with open(fname, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else fmt(v) for v in row])


def trajectory_rows(traj: Trajectory) -> Iterable[tuple]:
    dim = traj.sgrid.dim
    for s, t in enumerate(traj.times):
        field = traj.rho[s]
        if dim == 1:
            for i, v in enumerate(field):
                yield (t, i, v)
        else:
            for i in range(field.shape[0]):
                for j in range(field.shape[1]):
                    yield (t, i, j, field[i, j])


def write_trajectory_csv(traj: Trajectory, fname) -> None:
    header = ["t", "i", "rho"] if traj.sgrid.dim == 1 else ["t", "i", "j", "rho"]
    write_rows(fname, header, trajectory_rows(traj))


def write_defect_csv(traj: Trajectory, fname) -> None:
    rows = [(t0, t1, m) for (t0, t1), m in
            zip(traj.defect.slab_times, traj.defect.slab_mass)]
    write_rows(fname, ["t_slab_start", "t_slab_end", "mass"], rows)


def write_audit_csv(report, fname) -> None:
    write_rows(fname, ["check", "measured", "bound", "tol", "verdict"],
               [e.row() for e in report.entries])


def read_trajectory_csv(fname):
    """Returns (times array, snapshots array, dim) from a trajectory CSV."""
    with open(fname, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    dim = 1 if header == ["t", "i", "rho"] else 2
    if dim == 2 and header != ["t", "i", "j", "rho"]:
        raise ConfigurationError(f"unrecognized trajectory header {header}")
    times = sorted({float(r[0]) for r in body})
    t_index = {t: k for k, t in enumerate(times)}
    if dim == 1:
        n = max(int(r[1]) for r in body) + 1
        out = np.zeros((len(times), n))
        for r in body:
            out[t_index[float(r[0])], int(r[1])] = float(r[2])
    else:
        n = max(int(r[1]) for r in body) + 1
        out = np.zeros((len(times), n, n))
        for r in body:
            out[t_index[float(r[0])], int(r[1]), int(r[2])] = float(r[3])
    return np.asarray(times), out, dim


def file_sha256(fname) -> str:
    digest = hashlib.sha256()
    with open(fname, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, resolved_config: dict, seed: int, files) -> None:
    """Atomic bundle stamp: written last, hashes every produced file."""
    manifest = {
        "config": resolved_config,
        "config_sha256": hashlib.sha256(
            json.dumps(resolved_config, sort_keys=True).encode()).hexdigest(),
        "master_seed": seed,
        "code_version": __import__("stochbgk").__version__,
        "files": {os.path.basename(f): file_sha256(f) for f in files},
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def check_manifest(out_dir) -> dict:
    """Validate a bundle; raises ConfigurationError on partial/corrupt output."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise ConfigurationError(f"no manifest in {out_dir}: partial bundle")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("files"), dict)
            and isinstance(manifest.get("config"), dict)):
        raise ConfigurationError(f"{path}: not a bundle manifest")
    for name, digest in manifest["files"].items():
        full = os.path.join(out_dir, name)
        if not os.path.exists(full):
            raise ConfigurationError(f"bundle file missing: {name}")
        if file_sha256(full) != digest:
            raise ConfigurationError(f"bundle file corrupted: {name}")
    return manifest
