"""Geometry of the symmetric positive definite cone.

The metric is the affine-invariant one, ``<X, Y>_P = tr(X P^-1 Y P^-1)``,
under which the SPD matrices form a complete, simply connected manifold of
nonpositive sectional curvature.  Exponential and logarithm maps are exact
(no retraction approximations), and all operations broadcast over leading
axes: ``log_map(P, Q)`` with ``Q`` of shape ``(n, d, d)`` returns ``n``
tangent vectors in one call.

Tangent vectors at ``P`` are represented as plain symmetric matrices; the
base point is always passed explicitly.

Each map whitens once (:func:`_whiten`) and takes its matrix function
through :func:`spdsgd.symmat.spectral`.  Public functions validate their
operands and then decompose the base point once into its root pair
``(P^{1/2}, P^{-1/2})`` (:func:`_edge`).  The unchecked internals
``_exp_map``, ``_log_map``, ``_distance`` and ``_inner`` take that pair, so
a caller holding a point's roots (an objective summary) passes them on.  They
also take a stack of pairs, one base point per matrix of a stack operand.
"""

from __future__ import annotations

import numpy as np

from .symmat import DomainError, check_symmetric, spectral, symmetrize

# Sectional curvature of the SPD cone under this metric is bounded below
# by -1/2, independent of dimension.
SPD_CURVATURE_LOWER_BOUND = -0.5

_Roots = tuple[np.ndarray, np.ndarray]  # (P^{1/2}, P^{-1/2}), see sqrt_and_inv_sqrt


def validate_spd(p: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Check that ``p``, one matrix or a stack, is symmetric positive definite.

    One stacked ``eigvalsh`` checks every matrix; this is the package's only
    call to ``np.linalg.eigvalsh``.  Returns the validated float64 array.
    Raises ``ValueError``; when positivity fails, a :class:`DomainError`
    carrying the minimum eigenvalue and the (flat) index of the first bad
    matrix, which a stack's message also names.
    """
    p = check_symmetric(p, name=name)
    w = np.linalg.eigvalsh(symmetrize(p))[..., 0].ravel()
    bad = np.flatnonzero(~(w > 0.0))
    if bad.size:
        i = int(bad[0])
        where = f" at index {i}" if p.ndim > 2 else ""
        raise DomainError(
            f"{name}{where} is not positive definite (min eigenvalue {w[i]:.6e})",
            float(w[i]),
            index=i,
        )
    return p


def sqrt_and_inv_sqrt(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both ``P^{1/2}`` and ``P^{-1/2}`` from a single eigendecomposition."""
    (half, inv_half), _ = spectral(p, np.sqrt, lambda w: 1.0 / np.sqrt(w), positive=True)
    return symmetrize(half), symmetrize(inv_half)


def _whiten(roots: _Roots, q: np.ndarray) -> np.ndarray:
    """``P^{-1/2} Q P^{-1/2}``, left unsymmetrized: :func:`spectral`
    symmetrizes its input, and the Frobenius products take it as is."""
    _, inv_half = roots
    return inv_half @ q @ inv_half


def _unwhiten(roots: _Roots, s: np.ndarray) -> np.ndarray:
    """``P^{1/2} S P^{1/2}``, symmetrized: a whitened tangent back at ``P``."""
    half, _ = roots
    return symmetrize(half @ s @ half)


def _frobenius(a: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of each matrix in ``a``."""
    val = np.sqrt(np.einsum("...ij,...ij->...", a, a))
    return float(val) if val.ndim == 0 else val


def _check_operand(p: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    """Validate a symmetric operand (tangent or point) against the base ``p``."""
    x = check_symmetric(x, name=name)
    if x.shape[-1] != p.shape[-1]:
        raise ValueError(
            f"{name} dimension {x.shape[-1]} does not match base dimension {p.shape[-1]}"
        )
    return x


def _edge(p: np.ndarray, **operands: np.ndarray) -> tuple:
    """Validate the named operands against ``p``; return ``(roots of p, *operands)``."""
    p = np.asarray(p, dtype=np.float64)
    checked = [_check_operand(p, x, name) for name, x in operands.items()]
    return (sqrt_and_inv_sqrt(p), *checked)


def inner(p: np.ndarray, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Affine-invariant inner product ``tr(X P^-1 Y P^-1)`` at base point ``p``.

    Computed as the Frobenius inner product of the whitened tangents
    ``P^-1/2 X P^-1/2`` and ``P^-1/2 Y P^-1/2``, which is numerically
    symmetric in its arguments.
    """
    return _inner(*_edge(p, X=x, Y=y))


def _inner(roots: _Roots, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    val = np.einsum("...ij,...ij->...", _whiten(roots, x), _whiten(roots, y))
    return float(val) if val.ndim == 0 else val


def norm(p: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Norm induced by the affine-invariant metric at ``p``."""
    roots, x = _edge(p, X=x)
    return _frobenius(_whiten(roots, x))


def exp_map(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Geodesic endpoint ``P^{1/2} exp(P^{-1/2} X P^{-1/2}) P^{1/2}``.

    Maps a tangent vector at ``p`` to the manifold; always lands strictly
    inside the cone.
    """
    return _exp_map(*_edge(p, X=x))


def _exp_map(roots: _Roots, x: np.ndarray) -> np.ndarray:
    (e,), _ = spectral(_whiten(roots, x), np.exp)
    return _unwhiten(roots, e)


def _whitened_log(roots: _Roots, q: np.ndarray) -> np.ndarray:
    """``log(P^{-1/2} Q P^{-1/2})``; the relative spectrum must be positive."""
    (lw,), _ = spectral(_whiten(roots, q), np.log, positive=True)
    return lw


def log_map(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Inverse of :func:`exp_map`: the tangent at ``p`` pointing to ``q``.

    Closed form ``P^{1/2} log(P^{-1/2} Q P^{-1/2}) P^{1/2}``; globally
    defined because the cone has nonpositive curvature.
    """
    return _log_map(*_edge(p, Q=q))


def _log_map(roots: _Roots, q: np.ndarray) -> np.ndarray:
    return _unwhiten(roots, _whitened_log(roots, q))


def distance(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Geodesic distance ``||log(P^{-1/2} Q P^{-1/2})||_F``.

    Symmetric in its arguments and invariant under congruence by any
    invertible matrix.
    """
    return _distance(*_edge(p, Q=q))


def _distance(roots: _Roots, q: np.ndarray) -> float | np.ndarray:
    return _frobenius(_whitened_log(roots, q))


def parallel_transport(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Transport the tangent ``x`` at ``p`` along the geodesic to ``q``.

    Uses ``E X E^T`` with ``E = P^{1/2} (P^{-1/2} Q P^{-1/2})^{1/2} P^{-1/2}``,
    an isometry of the tangent spaces: the norm at ``q`` of the result equals
    the norm of ``x`` at ``p``.
    """
    q = validate_spd(q, name="Q")
    roots, x = _edge(p, X=x)
    half, inv_half = roots
    (s_half,), _ = spectral(_whiten(roots, q), np.sqrt, positive=True)
    e = half @ s_half @ inv_half
    return symmetrize(e @ x @ np.swapaxes(e, -1, -2))


def curvature_factor(kappa: float, c: float | np.ndarray) -> float | np.ndarray:
    """Comparison factor ``sqrt(|kappa|) c / tanh(sqrt(|kappa|) c)`` for
    geodesic triangles on a manifold with curvature bounded below by ``kappa``.

    Always >= 1; extended continuously to 1 at ``kappa == 0`` (the flat
    limit, where the law of cosines is exact).
    """
    if kappa > 0.0:
        raise ValueError(f"curvature lower bound must be <= 0, got {kappa}")
    c = np.asarray(c, dtype=np.float64)
    if not np.all(c > 0.0):
        raise ValueError("comparison length c must be positive")
    if kappa == 0.0:
        out = np.ones_like(c)
        return float(out) if out.ndim == 0 else out
    t = np.sqrt(-kappa) * c
    out = t / np.tanh(t)
    return float(out) if out.ndim == 0 else out
