"""Coefficient file formats.

Two interchange formats are supported, both carrying the grid header
(boundary dimension n, system size m, points per axis G):

samples format (binary, extension-agnostic):
  one ASCII header line
      halfspace-coefficients samples n=<n> m=<m> G=<G>\n
  followed by raw little-endian float64 pairs (real, imaginary), one
  N x N matrix per grid point with N = m(1+n).  Index order: grid points
  row-major (first axis slowest), then matrix rows, then columns, with
  the real part preceding the imaginary part of each entry.

fourier format (JSON text):
  {"format": "fourier", "n": ..., "m": ..., "entries": [
      {"k": [k1, ...], "re": [[...]], "im": [[...]]}, ...]}
  a sparse list of integer frequencies with N x N matrices; the
  coefficients are sampled on the grid by summing the truncated series
  M(x) = sum_k entry(k) exp(i k . x).
"""

from __future__ import annotations

import json

import numpy as np

from .coefficients import CoefficientMatrix
from .grid import GridSpec

__all__ = ["load_coefficients", "save_coefficient_samples", "save_coefficient_fourier"]

_SAMPLES_MAGIC = "halfspace-coefficients samples"


class CoefficientFormatError(ValueError):
    pass


def save_coefficient_samples(path, A: CoefficientMatrix) -> None:
    grid = A.grid
    header = f"{_SAMPLES_MAGIC} n={grid.dim} m={grid.system_size} G={grid.points}\n"
    flat = np.empty(A.values.size * 2, dtype="<f8")
    flat[0::2] = A.values.real.reshape(-1)
    flat[1::2] = A.values.imag.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(flat.tobytes())


def save_coefficient_fourier(path, grid: GridSpec, entries: dict) -> None:
    """entries: {frequency tuple: N x N array}."""
    N = grid.channels
    out = {"format": "fourier", "n": grid.dim, "m": grid.system_size, "entries": []}
    for k, mat in entries.items():
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (N, N):
            raise CoefficientFormatError(f"matrix for k={k} has shape {mat.shape}")
        out["entries"].append(
            {
                "k": list(int(ki) for ki in np.atleast_1d(k)),
                "re": mat.real.tolist(),
                "im": mat.imag.tolist(),
            }
        )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)


def _load_samples(path, grid: GridSpec) -> CoefficientMatrix:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        blob = fh.read()
    try:
        fields = dict(
            part.split("=") for part in header.replace(_SAMPLES_MAGIC, "").split() if "=" in part
        )
        n, m, G = int(fields["n"]), int(fields["m"]), int(fields["G"])
    except (KeyError, ValueError) as exc:
        raise CoefficientFormatError(f"malformed samples header: {header!r}") from exc
    if (n, m, G) != (grid.dim, grid.system_size, grid.points):
        raise CoefficientFormatError(
            f"file grid (n={n}, m={m}, G={G}) does not match requested "
            f"(n={grid.dim}, m={grid.system_size}, G={grid.points})"
        )
    N = grid.channels
    expected = G**n * N * N * 2
    if len(blob) != 8 * expected:
        raise CoefficientFormatError(
            f"samples payload has {len(blob)} bytes, expected {expected} float64 values"
        )
    data = np.frombuffer(blob, dtype="<f8")
    values = (data[0::2] + 1j * data[1::2]).reshape(grid.shape + (N, N))
    return CoefficientMatrix(grid, values)


def _load_fourier(path, grid: GridSpec) -> CoefficientMatrix:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CoefficientFormatError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(doc, dict) or doc.get("format") != "fourier":
        raise CoefficientFormatError("not a JSON object with format tag 'fourier'")
    if (doc.get("n"), doc.get("m")) != (grid.dim, grid.system_size):
        raise CoefficientFormatError(
            f"file dimensions (n={doc.get('n')}, m={doc.get('m')}) do not match grid"
        )
    N = grid.channels
    coords = grid.coordinates()
    values = np.zeros(grid.shape + (N, N), dtype=complex)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise CoefficientFormatError("missing list of 'entries'")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"k", "re"} <= entry.keys():
            raise CoefficientFormatError(f"entry {i} needs keys 'k' and 're'")
        k = np.asarray(entry["k"])
        if k.shape != (grid.dim,) or k.dtype.kind not in "iu":
            raise CoefficientFormatError(f"frequency {entry['k']} is not {grid.dim} integers")
        try:
            mat = np.asarray(entry["re"], dtype=float) + 1j * np.asarray(
                entry.get("im", np.zeros((N, N))), dtype=float
            )
        except (TypeError, ValueError) as exc:
            raise CoefficientFormatError(f"entry {i} is not numeric: {exc}") from exc
        if mat.shape != (N, N):
            raise CoefficientFormatError(f"matrix for k={k} has shape {mat.shape}")
        phase = np.exp(1j * sum(kj * c for kj, c in zip(k, coords)))
        values += phase[..., None, None] * mat
    return CoefficientMatrix(grid, values)


def load_coefficients(path, grid: GridSpec) -> CoefficientMatrix:
    """Load coefficients in either format, validating against the grid.

    Construction validates finiteness; the scalar-slot invertibility is
    checked by the first-order transform downstream.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_SAMPLES_MAGIC))
    if head.decode("ascii", errors="replace") == _SAMPLES_MAGIC:
        return _load_samples(path, grid)
    return _load_fourier(path, grid)
