"""Stable CSV emission and parsing for trajectories, tables and reports.

All floats are written with repr-quality precision so that reruns of the
same seeded experiment produce byte-identical files.  The readers accept
only what the writers produce; anything else is a ConfigurationError.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings

import numpy as np

from .bgk import Trajectory
from .config import load_config
from .errors import ConfigurationError


# the one float format of every CSV: 17 significant digits round-trip every double
_FLOAT = ".17g"
# cells per % call of write_trajectory_csv: a 2D n = 1024 snapshot is 16 blocks
_BLOCK = 1 << 16


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), _FLOAT)


def write_rows(fname, header, rows) -> None:
    with open(fname, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else fmt(v) for v in row])


def _trajectory_header(dim: int) -> list:
    return ["t", *"ij"[:dim], "rho"]


def write_trajectory_csv(traj: Trajectory, fname) -> None:
    """Rows t, i[, j], rho: each snapshot's cells in C order, the bytes that
    write_rows would write.

    Each block of _BLOCK cells has one row template, '%s,i[,j],%.17g' lines
    built once per call; a snapshot fills it with its time and one %
    call over the block's values.
    """
    shape = traj.sgrid.shape
    size = math.prod(shape)
    templates = []
    for lo in range(0, size, _BLOCK):
        cells = zip(*(a.tolist() for a in np.unravel_index(
            np.arange(lo, min(lo + _BLOCK, size)), shape)))
        templates.append("".join(f"%s,{','.join(map(str, cell))},%{_FLOAT}\r\n"
                                 for cell in cells))
    with open(fname, "w", newline="") as fh:
        fh.write(",".join(_trajectory_header(len(shape))) + "\r\n")
        for t, field in zip(traj.times, traj.rho):
            stamp, flat = fmt(t), field.ravel()
            for lo, template in zip(range(0, size, _BLOCK), templates):
                fh.write(template.replace("%s", stamp) % tuple(flat[lo:lo + _BLOCK].tolist()))


def write_defect_csv(traj: Trajectory, fname) -> None:
    rows = [(t0, t1, m) for (t0, t1), m in
            zip(traj.slab_times, traj.slab_mass)]
    write_rows(fname, ["t_slab_start", "t_slab_end", "mass"], rows)


def write_audit_csv(report, fname) -> None:
    write_rows(fname, ["check", "measured", "bound", "tol", "verdict"],
               [e.row() for e in report.entries])


def _read_table(fname):
    """(d, float body) of a CSV written under _trajectory_header(d).

    Every row must have the header's field count and only finite numbers, and
    the body may not be empty.  Both \\r\\n and \\n line ends are read, but
    every line must end in one.  A pre-pass over binary chunks rejects what
    loadtxt alone would accept: blank lines and spaces or tabs around values.
    """
    lines = 0
    with open(fname, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if b" " in chunk or b"\t" in chunk:
                raise ConfigurationError(f"{fname}: a value is padded with spaces or tabs")
            lines += chunk.count(b"\n")
    try:
        with open(fname) as fh, warnings.catch_warnings():
            header = fh.readline().rstrip("\n").split(",")
            warnings.simplefilter("ignore")  # loadtxt warns on an empty body
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # a short row, a non-numeric value, bad UTF-8
        raise ConfigurationError(f"{fname}: {exc}") from exc
    dim = len(header) - len(_trajectory_header(0))
    if dim < 1 or header != _trajectory_header(dim):
        raise ConfigurationError(f"{fname}: unrecognized trajectory header {header}")
    if len(table) == 0 or table.shape[1] != len(header):
        raise ConfigurationError(f"{fname}: {len(table)} rows of {table.shape[1]} "
                                 f"fields under a header of {len(header)}")
    if lines != len(table) + 1:
        raise ConfigurationError(f"{fname}: {lines} line ends for a header and {len(table)} "
                                 "rows: a blank line or an unterminated last line")
    if not np.all(np.isfinite(table)):
        raise ConfigurationError(f"{fname}: a value is not finite")
    return dim, table


def read_trajectory_csv(fname):
    """Returns (times array, snapshots array, dim) from a trajectory CSV.

    Rows may come in any order, but each (t, cell) of the n^d grid, n one
    more than the largest index, must appear exactly once."""
    dim, table = _read_table(fname)
    times, t_index = np.unique(table[:, 0], return_inverse=True)
    cells = table[:, 1:-1]
    if not np.all((cells >= 0) & (cells == np.floor(cells))):
        raise ConfigurationError(f"{fname}: an index is not a non-negative integer")
    shape = (len(times),) + (int(cells.max()) + 1,) * dim
    if len(table) != math.prod(shape):
        raise ConfigurationError(f"{fname}: {len(table)} rows for the cells of {shape}")
    flat = np.ravel_multi_index((t_index, *cells.astype(np.intp).T), shape)
    if np.bincount(flat).max() > 1:
        raise ConfigurationError(f"{fname}: a cell is missing and another appears twice")
    rho = np.empty(len(flat))
    rho[flat] = table[:, -1]
    return times, rho.reshape(shape), dim


def file_sha256(fname) -> str:
    digest = hashlib.sha256()
    with open(fname, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_sha256(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def write_manifest(out_dir, resolved_config: dict, seed: int, files) -> None:
    """Atomic bundle stamp: written last, hashes the config and every
    produced file."""
    manifest = {
        "config": resolved_config,
        "config_sha256": _config_sha256(resolved_config),
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
    """Validate a bundle: the recorded config against its hash, every
    listed file against its hash, and a listed config_resolved.json against
    the recorded config.  Raises ConfigurationError on partial, corrupt or
    tampered output."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise ConfigurationError(f"no manifest in {out_dir}: partial bundle")
    manifest = load_config(path)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("files"), dict)
            and isinstance(manifest.get("config"), dict)):
        raise ConfigurationError(f"{path}: not a bundle manifest")
    if manifest.get("config_sha256") != _config_sha256(manifest["config"]):
        raise ConfigurationError(f"{path}: config does not match config_sha256")
    for name, digest in manifest["files"].items():
        full = os.path.join(out_dir, name)
        if not os.path.isfile(full):
            raise ConfigurationError(f"bundle file missing: {name}")
        if file_sha256(full) != digest:
            raise ConfigurationError(f"bundle file corrupted: {name}")
    resolved = os.path.join(out_dir, "config_resolved.json")
    if ("config_resolved.json" in manifest["files"]
            and _config_sha256(load_config(resolved)) != manifest["config_sha256"]):
        raise ConfigurationError(f"{resolved}: does not match the manifest's config")
    return manifest
