"""Dense complex linear algebra on small matrices.

Matrices are 2-D numpy complex128 arrays in row-major order; scalars are
double precision throughout. Nothing here overloads operators: callers use
the named functions so that tolerances stay explicit.
"""
from __future__ import annotations

import cmath

import numpy as np

DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D complex128 array; a ValueError rejects NaN, infinite
    or non-numeric entries."""
    try:
        m = np.asarray(data, dtype=np.complex128)
    except TypeError as exc:
        raise ValueError(str(exc)) from None
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got array of shape {m.shape}")
    if m.size == 0:
        raise ValueError("matrix must be non-empty")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff m is square and m·m† and m†·m both equal the identity within
    tol (False when a product of huge finite entries overflows to inf or NaN)."""
    check_tol(tol)
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and is_unitary_square(m, tol)


def is_unitary_square(m: np.ndarray, tol: float) -> bool:
    """is_unitary on a square as_matrix result and a tol check_tol passed, checking neither again."""
    eye = np.eye(len(m), dtype=np.complex128)
    mh = m.conj().T
    return float(np.maximum(np.abs(m @ mh - eye), np.abs(mh @ m - eye)).max()) <= tol


def eigenvalues_2x2(m) -> tuple[complex, complex]:
    """Both roots of the characteristic polynomial of a 2x2 matrix.

    Closed form via the quadratic formula on lambda^2 - tr*lambda + det.
    The root taking the principal square root with '+' comes first.
    """
    m = as_matrix(m)
    if m.shape != (2, 2):
        raise ValueError(f"eigenvalues_2x2 needs a 2x2 matrix, got shape {m.shape}")
    tr = complex(m[0, 0] + m[1, 1])
    det = complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    root = cmath.sqrt(tr * tr - 4.0 * det)
    return (tr + root) / 2.0, (tr - root) / 2.0
