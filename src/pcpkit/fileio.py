"""JSON serialization of pairs, dense states, and certificates.

Scalar convention: a complex entry is a two-element array ``[re, im]``; bare
JSON numbers are accepted as reals.  Writers emit bare numbers whenever the
imaginary part is exactly zero, keeping fixtures human-diffable.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any

import numpy as np

from .cldui import extract_pair
from .errors import PcpkitError
from .pairs import PairXY, PcpDecomposition


def _parse_scalar(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(p, (int, float)) and not isinstance(p, bool) for p in value
    ):
        return complex(value[0], value[1])
    raise PcpkitError(f"{where}: expected a number or [re, im], got {value!r}")


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise PcpkitError(f"{where}: expected a non-empty list of rows")
    width = len(rows[0])
    out = np.zeros((len(rows), width), complex)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise PcpkitError(f"{where}: row {i + 1} has length {len(row)}, expected {width}")
        for j, value in enumerate(row):
            out[i, j] = _parse_scalar(value, f"{where}[{i + 1}][{j + 1}]")
    return out


def _parse_vector(entries, where: str) -> np.ndarray:
    """A list of scalars as a complex vector, converted by one array call when
    every entry has an exact JSON number type; otherwise scalar by scalar, which
    names the first malformed entry."""
    if not isinstance(entries, list) or not entries:
        raise PcpkitError(f"{where}: expected a non-empty list of entries")
    pairs = [e for e in entries if type(e) is list]
    # exact types: isinstance would take a bool for an int
    if set(map(type, entries)) <= {int, float, list} and set(map(len, pairs)) <= {2} and \
            set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        return np.array([complex(*e) if type(e) is list else e for e in entries], complex)
    return np.array([_parse_scalar(v, f"{where}[{k + 1}]") for k, v in enumerate(entries)])


def _emit_scalar(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _emit_matrix(M: np.ndarray):
    return [[_emit_scalar(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def _load_json(path) -> dict[str, Any]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PcpkitError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PcpkitError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PcpkitError(f"{path}: top level must be an object")
    return doc


def _write_json(path, doc: dict) -> None:
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        raise PcpkitError(f"cannot write {path}: {exc}") from exc


def load_pair_document(path) -> tuple[PairXY, dict[str, Any]]:
    """Read a pair file: ``{"n": int, "X": rows, "Y": rows}`` plus free metadata."""
    return _pair_document(_load_json(path), path)


def _pair_document(doc: dict[str, Any], path) -> tuple[PairXY, dict[str, Any]]:
    for key in ("n", "X", "Y"):
        if key not in doc:
            raise PcpkitError(f"{path}: missing required field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise PcpkitError(f"{path}: field 'n' must be a positive integer")
    X = _parse_matrix(doc["X"], f"{path}: X")
    Y = _parse_matrix(doc["Y"], f"{path}: Y")
    if X.shape != (n, n) or Y.shape != (n, n):
        raise PcpkitError(
            f"{path}: X is {X.shape} and Y is {Y.shape}, expected ({n}, {n}) for both"
        )
    meta = {k: v for k, v in doc.items() if k not in ("n", "X", "Y")}
    return PairXY(X, Y), meta


def save_pair_document(path, pair: PairXY, **meta) -> None:
    doc = {"n": pair.n, "X": _emit_matrix(pair.X), "Y": _emit_matrix(pair.Y)}
    doc.update(meta)
    _write_json(path, doc)


def _dense_state(doc: dict[str, Any], path) -> tuple[np.ndarray, int]:
    """A dense state document ``{"n": int, "rho": rows}`` with an n^2 x n^2 matrix."""
    for key in ("n", "rho"):
        if key not in doc:
            raise PcpkitError(f"{path}: missing required field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise PcpkitError(f"{path}: field 'n' must be a positive integer")
    rho = _parse_matrix(doc["rho"], f"{path}: rho")
    if rho.shape != (n * n, n * n):
        raise PcpkitError(f"{path}: rho is {rho.shape}, expected ({n * n}, {n * n})")
    return rho, n


def load_state(path) -> tuple[PairXY, str]:
    """Read a state file once: the coefficient pair of a dense state file (one
    with a ``rho`` field) and ``"dense"``, or of a pair file and ``"pair"``."""
    doc = _load_json(path)
    if "rho" in doc:
        return extract_pair(*_dense_state(doc, path)), "dense"
    return _pair_document(doc, path)[0], "pair"


def save_certificate(path, dec: PcpDecomposition, method: str,
                     permutation: tuple[int, ...] | None = None, **meta) -> None:
    doc = {
        "n": dec.n,
        "m": dec.m,
        "method": method,
        "permutation": list(permutation) if permutation is not None else None,
        "vs": [[_emit_scalar(z) for z in v] for v in dec.vs],
        "ws": [[_emit_scalar(z) for z in w] for w in dec.ws],
    }
    doc.update(meta)
    _write_json(path, doc)


def load_certificate(path) -> tuple[PcpDecomposition, dict[str, Any]]:
    doc = _load_json(path)
    for key in ("vs", "ws"):
        if key not in doc or not isinstance(doc[key], list) or not doc[key]:
            raise PcpkitError(f"{path}: missing or empty field {key!r}")
    vs = [_parse_vector(v, f"{path}: vs[{k + 1}]") for k, v in enumerate(doc["vs"])]
    ws = [_parse_vector(w, f"{path}: ws[{k + 1}]") for k, w in enumerate(doc["ws"])]
    n = len(vs[0])
    for key, vectors in (("vs", vs), ("ws", ws)):
        for k, v in enumerate(vectors):
            if len(v) != n:
                raise PcpkitError(f"{path}: {key}[{k + 1}] has {len(v)} entries, expected {n}")
    dec = PcpDecomposition.from_vectors(vs, ws)
    meta = {k: v for k, v in doc.items() if k not in ("vs", "ws")}
    return dec, meta
