"""Dense symmetric linear algebra: eigendecomposition and spectral functions.

Matrices are plain float64 arrays of shape ``(..., d, d)``; every function
broadcasts over leading axes, so a stack of matrices is handled in one call.
Eigenvalues are returned in descending order and eigenvector signs follow a
fixed convention (first nonzero component positive), which makes repeated
calls on identical input bit-identical even in the presence of degenerate
eigenvalues.

:func:`spectral` is the package's one spectral kernel: every matrix function
in this module, :mod:`spdsgd.manifold` and :mod:`spdsgd.objective` goes
through it, and its :func:`_eigh` is the only call to ``np.linalg.eigh``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class DomainError(ValueError):
    """An eigenvalue fell outside the domain of the requested scalar function;
    ``index``, when reported, is the offending matrix's flat position in a stack."""

    def __init__(self, message: str, eigenvalue: float, index: int | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.index = index


class NumericalError(RuntimeError):
    """The eigensolver failed to converge."""


class EigenDecomp(NamedTuple):
    """Spectral decomposition ``V @ diag(w) @ V.T`` of a symmetric matrix.

    ``eigenvalues`` has shape ``(..., d)`` in descending order;
    ``eigenvectors`` has shape ``(..., d, d)`` with column ``i`` paired with
    eigenvalue ``i``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2`` (transposing the last two axes)."""
    a = np.asarray(a, dtype=np.float64)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def check_symmetric(a: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a finite, square, (numerically) symmetric array.

    Returns the array as float64. Asymmetry beyond a small multiple of each
    matrix's own scale is an input error, and a stack's message names the
    first offender; exact storage symmetry is not required because
    downstream code symmetrizes.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1))).ravel()
    skew = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1)).ravel()
    bad = np.flatnonzero(skew > 1e-10 * scale)
    if bad.size:
        i = int(bad[0])
        where = f" at index {i}" if a.ndim > 2 else ""
        raise ValueError(f"{name}{where} is not symmetric (asymmetry {skew[i]:.3e})")
    return a


def _eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigh of the symmetrized input, without sign normalization."""
    try:
        w, v = np.linalg.eigh(symmetrize(s))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}") from exc
    return w[..., ::-1], v[..., ::-1]


def sym_eigen(s: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix (or stack of them).

    Output is deterministic for bit-identical input: eigenvalues descending,
    and each eigenvector scaled so its first nonzero component is positive.
    """
    s = check_symmetric(s, name="input")
    w, v = _eigh(s)
    # Fix column signs: first nonzero component of each eigenvector positive.
    nonzero = v != 0.0
    first = np.argmax(nonzero, axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)[..., 0, :]
    v = v * np.where(lead < 0.0, -1.0, 1.0)[..., None, :]
    return EigenDecomp(w, v)


def spectral(
    s: np.ndarray, *fns: Callable[[np.ndarray], np.ndarray], positive: bool = False
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The spectral kernel: ``V @ diag(f(w)) @ V.T`` for each ``f`` in ``fns``.

    ``V diag(w) V.T`` is the descending eigendecomposition of the symmetrized
    input, computed once for all ``fns``.  With ``positive``, every
    eigenvalue must be strictly positive; the first offender is reported in
    a :class:`DomainError`.  Returns ``(matrices, spectra)``: one matrix
    ``V @ diag(f(w)) @ V.T`` and one spectrum ``f(w)`` per function.  The
    input is not validated and the matrices are not symmetrized.
    """
    w, v = _eigh(s)
    if positive and not np.all(w > 0.0):
        bad = float(w[~(w > 0.0)].ravel()[0])
        raise DomainError(f"eigenvalue {bad:.6e} is not positive", bad)
    spectra = [f(w) for f in fns]
    return [np.einsum("...ik,...k,...jk->...ij", v, fw, v) for fw in spectra], spectra


def sym_apply_fn(
    s: np.ndarray, fn: Callable[[np.ndarray], np.ndarray], *, positive: bool = False
) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Returns ``V @ diag(fn(w)) @ V.T``, symmetric, so the eigenvalues of the
    output are exactly ``fn`` of the eigenvalues of the input.  With
    ``positive``, every eigenvalue must be strictly positive; the first
    offender is reported in a :class:`DomainError`.
    """
    s = check_symmetric(s, name="input")
    (out,), _ = spectral(s, fn, positive=positive)
    return symmetrize(out)


def congruence(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Congruence transform ``G @ S @ G.T`` of a symmetric matrix.

    ``g`` must be invertible (not checked); the result is symmetrized.  By
    Sylvester's law of inertia this preserves positive definiteness.
    """
    g = np.asarray(g, dtype=np.float64)
    s = check_symmetric(s, name="S")
    if g.shape[-1] != s.shape[-2]:
        raise ValueError(
            f"dimension mismatch: G has shape {g.shape}, S has shape {s.shape}"
        )
    return symmetrize(g @ s @ np.swapaxes(g, -1, -2))
