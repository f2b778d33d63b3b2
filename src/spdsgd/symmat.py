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
``eigh`` reads the lower triangle of an input that callers have validated
as symmetric, or built so up to rounding (a whitened ``P^-1/2 Q P^-1/2``).

``_eigh`` hands out its eigenvalues C-contiguous, so an elementwise function
of a spectrum gives each matrix the same floats alone, in a stack or in a
piece (numpy's ``exp`` and ``log`` take a scalar loop on a lone reversed
view, which differs in the last ulp from the vector loop on contiguous data).

``_eigh`` splits a stack of at least 4096 matrices into contiguous pieces
of at most 256 rows and hands them to a module-level thread pool, started
on first use with one thread per usable CPU; each free thread takes the
next piece from the pool's queue, so a core that runs slower meanwhile
decomposes fewer rows instead of holding the others up, and the calling
thread waits.  numpy's ``eigh`` releases the GIL and decomposes each matrix
on its own, so every float, every positivity report and every error is the
serial call's.  Smaller stacks, and any stack on one CPU, never start a
thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
    """Return the symmetric part ``a / 2 + a.T / 2`` (transposing the last two axes).

    Halving before adding cannot overflow; away from overflow and underflow
    the floats are those of ``(a + a.T) / 2``.
    """
    a = np.asarray(a, dtype=np.float64)
    return 0.5 * a + 0.5 * np.swapaxes(a, -1, -2)


def check_symmetric(a: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a finite, square, (numerically) symmetric array.

    Returns the array as float64. Asymmetry beyond a small multiple of each
    matrix's own scale is an input error, and a stack's message names the
    first offender; exact storage symmetry is not required, because the
    eigensolver reads one triangle.
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


# Fewest matrices in a stack that is split.  Splitting N = 256 stacks and
# batches slowed the sweep workloads, and below 4096 matrices a split paid
# only while the other cores were idle.
_SPLIT_ROWS = 4096
# Most rows in one piece of a split stack.  On a shared 2-vCPU host, where
# either core often ran at half speed for seconds, two threads decomposed
# 4096 5 x 5 matrices in a median 10.5 ms as halves, 7 ms as 256-row pieces.
_PIECE_ROWS = 256
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    """The module's worker pool, created on first use with one thread per
    usable CPU; its tasks never submit to it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_usable_cpus(),
                                       thread_name_prefix="spdsgd-eigh")
        return _pool


def _by_rows(fn: Callable[[np.ndarray], tuple], s: np.ndarray) -> tuple:
    """``fn(s)``, split over contiguous row pieces of a large ``(n, d, d)`` stack.

    On more than one usable CPU, a stack of at least ``_SPLIT_ROWS``
    matrices is cut into near-equal pieces of at most ``_PIECE_ROWS`` rows,
    each submitted to the pool while the calling thread waits.  ``fn`` must
    treat each matrix on its own and return a tuple of row-aligned arrays,
    which are concatenated in row order, so the result equals ``fn(s)``
    float for float.  An exception (the first in row order) is raised only
    after every piece has finished.
    """
    if s.ndim != 3 or len(s) < _SPLIT_ROWS or _usable_cpus() < 2:
        return fn(s)
    pieces = -(-len(s) // _PIECE_ROWS)
    bounds = [len(s) * i // pieces for i in range(pieces + 1)]
    pool = _executor()
    futures = [pool.submit(fn, s[a:b]) for a, b in zip(bounds, bounds[1:])]
    wait(futures)
    return tuple(np.concatenate(rows) for rows in zip(*(f.result() for f in futures)))


def _eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigh, without sign normalization, of an input that callers
    have validated as symmetric: ``eigh`` reads only its lower triangle.

    Large stacks are split over the worker pool (:func:`_by_rows`); the
    output is the serial call's, bit for bit.
    """
    s = np.asarray(s, dtype=np.float64)
    try:
        w, v = _by_rows(lambda a: np.linalg.eigh(a), s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}") from exc
    return np.ascontiguousarray(w[..., ::-1]), v[..., ::-1]


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
) -> list[np.ndarray]:
    """The spectral kernel: ``V @ diag(f(w)) @ V.T`` for each ``f`` in ``fns``.

    ``V diag(w) V.T`` is the descending eigendecomposition of the input,
    computed once for all ``fns``; ``eigh`` reads its lower triangle and the
    input is not validated, so callers pass one validated as symmetric.
    With ``positive``, every eigenvalue must be strictly positive; the first
    offender is reported in a :class:`DomainError`.  Returns one matrix per
    function, in order; the matrices are not symmetrized.
    """
    w, v = eigen_stack(s, positive=positive)
    return [compose(v, f(w)) for f in fns]


def eigen_stack(s: np.ndarray, *, positive: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spectral` without the composition: ``(w, V)``, checked as it checks them."""
    w, v = _eigh(s)
    if positive and not np.all(w > 0.0):
        bad = float(w[~(w > 0.0)].ravel()[0])
        raise DomainError(f"eigenvalue {bad:.6e} is not positive", bad)
    return w, v


def compose(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """``V @ diag(fw) @ V.T`` per matrix of a stack."""
    return np.einsum("...ik,...k,...jk->...ij", v, fw, v)

