"""Dataset creation and persistence.

Three sources of SPD matrix sets:

  - synthetic clouds around a chosen center, via the exponential map;
  - covariance descriptors of grayscale texture images, one 5x5 matrix per
    non-overlapping pixel cell;
  - a plain-text matrix-set file format (human-diffable, lossless for
    float64).

The matrix-set format is: a header line ``d N``, then ``N`` blocks of ``d``
lines with ``d`` decimal numbers each, printed with 17 significant digits.
Lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import re

import numpy as np

from . import manifold
from .objective import Dataset
from .symmat import DomainError


class FormatError(ValueError):
    """A file does not conform to its declared format; carries a byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DataError(ValueError):
    """A well-formed file contains invalid data; carries the matrix index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def generate_synthetic(
    rng: np.random.Generator,
    n: int,
    dim: int,
    center: np.ndarray,
    spread: float,
) -> Dataset:
    """Sample a cloud of SPD matrices around ``center``.

    Each point is ``exp_map(center, E)`` with ``E`` the symmetric part of a
    matrix of i.i.d. Gaussian entries with standard deviation ``spread``.
    SPD by construction and a pure function of the generator state.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < spread < np.inf:
        raise ValueError(f"spread must be finite and positive, got {spread}")
    center = manifold.validate_spd(center, name="center")
    if center.shape != (dim, dim):
        raise ValueError(f"center shape {center.shape} does not match dim {dim}")
    raw = rng.standard_normal((n, dim, dim)) * spread
    tangents = 0.5 * (raw + raw.transpose(0, 2, 1))
    return Dataset(manifold.exp_map(center, tangents))


# ---------------------------------------------------------------------------
# PGM (binary P5) reading
# ---------------------------------------------------------------------------


def _pgm_tokens(blob: bytes, start: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` whitespace-separated integer tokens, skipping comments."""
    tokens: list[int] = []
    pos = start
    while len(tokens) < count:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(blob):
            raise FormatError("unexpected end of header", pos)
        if blob[pos : pos + 1] == b"#":
            nl = blob.find(b"\n", pos)
            if nl < 0:
                raise FormatError("unterminated comment in header", pos)
            pos = nl + 1
            continue
        end = pos
        while end < len(blob) and not blob[end : end + 1].isspace():
            end += 1
        word = blob[pos:end]
        if not word.isdigit():
            raise FormatError(f"expected integer, found {word!r}", pos)
        tokens.append(int(word))
        pos = end
    return tokens, pos


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) grayscale image with 8-bit depth.

    Returns a ``(height, width)`` uint8 array of intensities.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise FormatError(f"bad magic {blob[:2]!r}, expected b'P5'", 0)
    (width, height, maxval), pos = _pgm_tokens(blob, 2, 3)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255", pos)
    if width < 1 or height < 1:
        raise FormatError(f"image is {width}x{height}, expected at least 1x1", pos)
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after maxval", pos)
    pos += 1
    expected = width * height
    payload = blob[pos : pos + expected]
    if len(payload) != expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, found {len(payload)}",
            pos + len(payload),
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a ``(height, width)`` array of 0-255 intensities as binary P5."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("image must be 2-d")
    arr = image.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# ---------------------------------------------------------------------------
# Covariance descriptors
# ---------------------------------------------------------------------------


def pixel_features(image: np.ndarray) -> np.ndarray:
    """Per-pixel feature vectors: intensity and absolute derivatives.

    Channels: ``[I, |dI/du|, |dI/dv|, |d2I/du2|, |d2I/dv2|]`` where ``u`` is
    the row axis and ``v`` the column axis.  Derivatives use central
    differences with replicated borders.  The channels are written into one
    preallocated ``(h, w, 5)`` float64 array, 40 bytes per pixel.
    """
    img = np.asarray(image, dtype=np.float64)
    feats = np.empty(img.shape + (5,))
    feats[..., 0] = img
    pad_u = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    pad_v = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    np.abs(0.5 * (pad_u[2:, :] - pad_u[:-2, :]), out=feats[..., 1])
    np.abs(0.5 * (pad_v[:, 2:] - pad_v[:, :-2]), out=feats[..., 2])
    np.abs(pad_u[2:, :] - 2.0 * img + pad_u[:-2, :], out=feats[..., 3])
    np.abs(pad_v[:, 2:] - 2.0 * img + pad_v[:, :-2], out=feats[..., 4])
    return feats


def _feature_ridge(feats: np.ndarray) -> float:
    mean_var = float(np.mean(np.var(feats.reshape(-1, 5), axis=0)))
    return 1e-6 * mean_var if mean_var > 0 else 1e-6


def default_regularization(image: np.ndarray) -> float:
    """Scale-aware ridge: 1e-6 times the mean feature variance over the image
    (absolute 1e-6 for degenerate images with no variation)."""
    return _feature_ridge(pixel_features(image))


# Feature bytes per band of cell rows in covariance_descriptors; the band's
# tiled copy and its centered copy are the only temporaries of that size.
_BAND_BYTES = 1 << 18


def covariance_descriptors(
    image: np.ndarray,
    cell: int,
    regularization: float | None = None,
) -> Dataset:
    """One 5x5 covariance descriptor per ``cell x cell`` tile of a grayscale image.

    Each cell's descriptor is the sample covariance of its per-pixel feature
    vectors plus ``regularization`` times the identity; a 128x128 image with
    4x4 cells yields 1024 descriptors.  With zero regularization, a cell of
    constant features has a singular covariance and is rejected by name.

    The features are computed once, and the default ridge is read from
    them.  Working memory is about two feature arrays (80 bytes per pixel,
    while the ridge's variance is taken) plus the ``(cells, 5, 5)`` output:
    the covariances are built one band of cell rows at a time, with two
    band-sized (256 KiB) temporaries.  At ``cell = 4`` the traced peak is
    5.4 MB for a 256x256 image and 336 MB for a 2048x2048 one.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("image must be 2-d")
    h, w = img.shape
    if cell < 2:
        raise ValueError(f"cell size {cell} is below 2: a one-pixel cell has no sample covariance")
    if w % cell or h % cell:
        raise ValueError(f"cell size {cell} does not divide image {w}x{h}")
    feats = pixel_features(img)
    if regularization is None:
        regularization = _feature_ridge(feats)
    if not 0 <= regularization < np.inf:
        raise ValueError(f"regularization must be finite and nonnegative, got {regularization}")

    rows, cols = h // cell, w // cell
    covs = np.empty((rows * cols, 5, 5))
    band = max(1, _BAND_BYTES // feats[:cell].nbytes)
    for top in range(0, rows, band):
        stop = min(top + band, rows)
        # (rows of cells, cell, cols of cells, cell, 5) -> (cells, pixels-per-cell, 5)
        tiled = feats[top * cell : stop * cell].reshape(stop - top, cell, cols, cell, 5)
        cells = tiled.transpose(0, 2, 1, 3, 4).reshape(-1, cell * cell, 5)
        centered = cells - cells.mean(axis=1, keepdims=True)
        np.einsum("cpi,cpj->cij", centered, centered, out=covs[top * cols : stop * cols])
    covs /= cell * cell - 1
    covs += regularization * np.eye(5)
    try:
        return Dataset(covs)
    except DomainError as exc:
        raise DataError(
            f"descriptor for cell {exc.index} is not positive definite "
            f"(min eigenvalue {exc.eigenvalue:.3e}); increase regularization",
            index=exc.index,
        ) from exc


# ---------------------------------------------------------------------------
# Matrix-set files
# ---------------------------------------------------------------------------


# Matrices formatted per write in write_matrix_set.
_WRITE_CHUNK = 256


def write_matrix_set(path, data: Dataset) -> None:
    """Write a dataset in the plain-text matrix-set format (17 significant
    digits, lossless for float64).

    The matrices are formatted and written 256 at a time, so only one
    chunk's text is held: writing 4096 5x5 matrices (a 2.1 MB file) peaks
    at 0.41 MB traced.
    """
    row = " ".join(["%.17g"] * data.dim) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{data.dim} {data.n}\n")
        for start in range(0, data.n, _WRITE_CHUNK):
            chunk = data.points[start : start + _WRITE_CHUNK]
            fh.write((row * (len(chunk) * data.dim)) % tuple(chunk.ravel().tolist()))


def read_matrix_set(path) -> Dataset:
    """Read a matrix-set file, validating symmetry and positive definiteness.

    Symmetry is checked here to 1e-12 of each matrix's scale, stricter than
    :class:`Dataset`; positive definiteness is the dataset's one stacked
    check.  Raises :class:`FormatError` for structural problems (a non-ASCII
    byte, bad header, wrong counts) and :class:`DataError`, with the matrix
    index, for entries that are not finite, symmetric and positive definite.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            rows = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk; the file offset needs the bytes.
        with open(path, "rb") as fh:
            found = re.search(rb"[\x80-\xff]", fh.read())
        raise FormatError(f"non-ASCII byte {exc.object[exc.start]:#04x}",
                          found.start() if found else None) from exc
    if not rows:
        raise FormatError("empty matrix-set file")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'd N', got {rows[0]!r}")
    try:
        dim, count = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {rows[0]!r}") from exc
    if dim < 1 or count < 1:
        raise FormatError(f"header values must be positive, got {rows[0]!r}")
    body = rows[1:]
    if len(body) != count * dim:
        raise FormatError(
            f"header promises {count} matrices of {dim} rows "
            f"({count * dim} lines), found {len(body)}"
        )
    values = np.empty((count, dim, dim))
    for i in range(count):
        for r in range(dim):
            parts = body[i * dim + r].split()
            if len(parts) != dim:
                raise FormatError(
                    f"matrix {i} row {r} has {len(parts)} entries, expected {dim}"
                )
            try:
                values[i, r] = [float(p) for p in parts]
            except ValueError as exc:
                raise FormatError(f"matrix {i} row {r}: non-numeric entry") from exc
    del rows, body  # the text lines outweigh the values: release them before the checks
    with np.errstate(invalid="ignore"):  # nan and inf entries are rejected below
        scale = np.maximum(1.0, np.max(np.abs(values), axis=(1, 2)))
        skew = np.max(np.abs(values - values.transpose(0, 2, 1)), axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(values).all(axis=(1, 2)) | (skew > 1e-12 * scale))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"matrix {i} is not symmetric or not finite", index=i)
    try:
        return Dataset(values)
    except DomainError as exc:
        raise DataError(str(exc), index=exc.index) from exc
