import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdsgd import manifold
from spdsgd.dataio import (
    _BAND_BYTES,
    _WRITE_CHUNK,
    DataError,
    FormatError,
    covariance_descriptors,
    default_regularization,
    generate_synthetic,
    pixel_features,
    read_matrix_set,
    read_pgm,
    write_matrix_set,
    write_pgm,
)
from spdsgd.objective import Dataset
from spdsgd.rsgd import reference_centroid

from conftest import random_spd


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def one_shot_descriptors(img: np.ndarray, g: int, reg: float | None) -> np.ndarray:
    """The descriptors as one whole-image formula: stacked features, one tile
    reshape of the whole image, one einsum, then the ridge (by default 1e-6
    times the mean feature variance)."""
    pad_u = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    pad_v = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    feats = np.stack([img,
                      np.abs(0.5 * (pad_u[2:, :] - pad_u[:-2, :])),
                      np.abs(0.5 * (pad_v[:, 2:] - pad_v[:, :-2])),
                      np.abs(pad_u[2:, :] - 2.0 * img + pad_u[:-2, :]),
                      np.abs(pad_v[:, 2:] - 2.0 * img + pad_v[:, :-2])], axis=-1)
    if reg is None:
        mean_var = float(np.mean(np.var(feats.reshape(-1, 5), axis=0)))
        reg = 1e-6 * mean_var if mean_var > 0 else 1e-6
    h, w = img.shape
    cells = feats.reshape(h // g, g, w // g, g, 5).transpose(0, 2, 1, 3, 4).reshape(-1, g * g, 5)
    centered = cells - cells.mean(axis=1, keepdims=True)
    covs = np.einsum("cpi,cpj->cij", centered, centered) / (g * g - 1)
    return covs + reg * np.eye(5)


class TestGenerateSynthetic:
    def test_tiny_spread_stays_at_center(self, rng):
        center = random_spd(rng, 4)
        data = generate_synthetic(rng, 20, 4, center, 1e-12)
        for a in data.points:
            assert np.linalg.norm(a - center) <= 1e-8

    def test_deterministic_per_seed(self):
        c = np.eye(3)
        d1 = generate_synthetic(np.random.default_rng(5), 10, 3, c, 0.5)
        d2 = generate_synthetic(np.random.default_rng(5), 10, 3, c, 0.5)
        np.testing.assert_array_equal(d1.points, d2.points)

    def test_centroid_recovers_center(self):
        # Law of large numbers: the solved centroid approaches the sampling
        # center; at N=256 it should sit well within half the spread.
        center = np.eye(5)
        spread = 0.5
        dists = []
        for seed in range(5):
            data = generate_synthetic(np.random.default_rng(seed), 256, 5, center, spread)
            star = reference_centroid(data, 1e-8)
            dists.append(manifold.distance(star, center))
        assert np.mean(dists) < spread / 2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            generate_synthetic(rng, 0, 3, np.eye(3), 0.5)
        with pytest.raises(ValueError):
            generate_synthetic(rng, 4, 3, np.eye(3), 0.0)
        with pytest.raises(ValueError):
            generate_synthetic(rng, 4, 2, np.eye(3), 0.5)

    @pytest.mark.parametrize("spread", [np.nan, np.inf])
    def test_non_finite_spread(self, rng, spread):
        with pytest.raises(ValueError, match="spread must be finite"):
            generate_synthetic(rng, 4, 3, np.eye(3), spread)


class TestPgm:
    def test_reads_known_bytes(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_pgm(path)
        np.testing.assert_array_equal(img, [[0, 255], [128, 64]])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        np.testing.assert_array_equal(read_pgm(path), [[7, 9]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="expected 4 bytes, found 3"):
            read_pgm(path)

    @pytest.mark.parametrize("size", ["0 0", "0 3", "3 0"])
    def test_empty_image(self, tmp_path, size):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n" + size.encode() + b"\n255\n")
        with pytest.raises(FormatError, match="expected at least 1x1"):
            read_pgm(path)

    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(6, 8)).astype(np.uint8)
        path = tmp_path / "rt.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)


class TestDescriptors:
    def test_constant_image_gives_ridge_only(self):
        img = np.full((8, 8), 130.0)
        data = covariance_descriptors(img, 4, regularization=1e-6)
        for a in data.points:
            np.testing.assert_array_equal(a, 1e-6 * np.eye(5))

    def test_cell_count(self, rng):
        img = rng.integers(0, 256, size=(12, 20)).astype(float)
        data = covariance_descriptors(img, 4, regularization=1e-6)
        assert data.n == (12 // 4) * (20 // 4)

    def test_linear_ramp_interior_cell(self):
        # I(u, v) = u: away from borders, |dI/du| = 1 and all second
        # derivatives vanish, so only the intensity feature varies.
        u = np.arange(12, dtype=float)
        img = np.tile(u[:, None], (1, 12))
        reg = 1e-9
        data = covariance_descriptors(img, 4, regularization=reg)
        interior = data.points[4]  # second row of cells, away from u borders
        expected = np.zeros((5, 5))
        expected[0, 0] = np.var([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3], ddof=1)
        np.testing.assert_allclose(interior, expected + reg * np.eye(5), atol=1e-15)

    def test_hand_computed_cell_covariance(self, rng):
        img = rng.integers(0, 256, size=(8, 8)).astype(float)
        g = 4
        data = covariance_descriptors(img, g, regularization=0.0)
        feats = pixel_features(img)
        cell = feats[0:g, 4:8].reshape(-1, 5)  # cell (0, 1) in row-major order
        manual = np.zeros((5, 5))
        mean = cell.mean(axis=0)
        for row in cell:
            manual += np.outer(row - mean, row - mean)
        manual /= g * g - 1
        np.testing.assert_allclose(data.points[1], manual, rtol=1e-12, atol=1e-12)

    def test_zero_variance_cell_without_ridge(self):
        img = np.full((4, 4), 9.0)
        with pytest.raises(DataError, match="cell 0"):
            covariance_descriptors(img, 4, regularization=0.0)

    def test_grid_must_divide(self):
        with pytest.raises(ValueError, match="does not divide"):
            covariance_descriptors(np.zeros((8, 10)), 4)
        with pytest.raises(ValueError, match="below 2"):
            covariance_descriptors(np.zeros((8, 8)), 1)

    @pytest.mark.parametrize("reg", [np.nan, np.inf, -1.0])
    def test_ridge_must_be_finite_and_nonnegative(self, reg):
        with pytest.raises(ValueError, match="regularization must be finite and nonnegative"):
            covariance_descriptors(np.zeros((8, 8)), 4, regularization=reg)

    def test_translation_consistency(self, rng):
        # A texture with the cell period is invariant under a one-cell
        # shift; interior cells of a two-cell-periodic texture permute.
        g = 4
        tile = rng.integers(0, 256, size=(g, g)).astype(float)
        img = np.tile(tile, (6, 6))
        shifted = np.roll(img, g, axis=1)
        a = covariance_descriptors(img, g, regularization=1e-8)
        b = covariance_descriptors(shifted, g, regularization=1e-8)
        np.testing.assert_allclose(
            np.sort(a.points.reshape(a.n, -1), axis=0),
            np.sort(b.points.reshape(b.n, -1), axis=0),
            atol=1e-10,
        )

        tile2 = rng.integers(0, 256, size=(2 * g, 2 * g)).astype(float)
        img2 = np.tile(tile2, (4, 4))
        shifted2 = np.roll(img2, g, axis=1)
        a2 = covariance_descriptors(img2, g, regularization=1e-8)
        b2 = covariance_descriptors(shifted2, g, regularization=1e-8)
        ncols = img2.shape[1] // g
        keep = [
            i for i in range(a2.n) if i % ncols not in (0, ncols - 1)
        ]  # drop cells touching the shifted border
        np.testing.assert_allclose(
            np.sort(a2.points[keep].reshape(len(keep), -1), axis=0),
            np.sort(b2.points[keep].reshape(len(keep), -1), axis=0),
            atol=1e-10,
        )

    def test_default_regularization_positive(self, rng):
        img = rng.integers(0, 256, size=(8, 8)).astype(float)
        assert default_regularization(img) > 0
        assert default_regularization(np.zeros((8, 8))) == 1e-6

    def test_outputs_are_spd(self, rng):
        img = rng.integers(0, 256, size=(16, 16)).astype(float)
        data = covariance_descriptors(img, 4)
        assert np.all(np.linalg.eigvalsh(data.points)[:, 0] > 0)

    # Without a ridge a 2x2 cell's covariance has rank 3 of 5 and is rejected.
    @pytest.mark.parametrize("g, reg", [(g, reg) for g in (2, 3, 4, 5, 16)
                                        for reg in (None, 0.0, 0.25) if (g, reg) != (2, 0.0)])
    @pytest.mark.parametrize("shape", ["one_row", "rectangular", "several_bands"])
    def test_every_float_matches_one_shot_formula(self, rng, g, shape, reg):
        cols = 3
        rows = {"one_row": 1, "rectangular": 7,
                "several_bands": 2 * (_BAND_BYTES // (g * g * cols * 5 * 8)) + 1}[shape]
        img = rng.integers(0, 256, size=(rows * g, cols * g)).astype(float)
        img[0, 0] = 1e5 * rng.standard_normal()  # entries of mixed scale
        data = covariance_descriptors(img, g, reg)
        assert np.array_equal(data.points, one_shot_descriptors(img, g, reg))
        if reg is None:
            pipeline = one_shot_descriptors(img, g, default_regularization(img))
            assert np.array_equal(data.points, pipeline)

    def test_working_memory_is_about_two_feature_arrays(self, rng):
        img = rng.integers(0, 256, size=(256, 256)).astype(float)
        data, peak = traced_peak(covariance_descriptors, img, 4)
        feature_bytes = img.size * 5 * 8
        assert peak <= 2.2 * feature_bytes + data.points.nbytes


class TestMatrixSetFile:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        data = Dataset(np.stack([random_spd(rng, 3) for _ in range(3)]))
        path = tmp_path / "set.msf"
        write_matrix_set(path, data)
        back = read_matrix_set(path)
        np.testing.assert_array_equal(back.points, data.points)

    def test_bytes_match_per_value_format(self, tmp_path, rng):
        # Each write chunk is one %-format call; the file's bytes are those
        # of format(x, ".17g") per value, for every kind of float64 entry,
        # with one chunk and with a file that spans three.
        d = 4
        for n in (40, 2 * _WRITE_CHUNK + 3):
            off = rng.standard_normal((n, d, d)) * 10.0 ** rng.uniform(-8, 8, (n, d, d))
            kind = rng.integers(0, 5, (n, d, d))
            off = np.select([kind == 0, kind == 1, kind == 2],
                            [np.round(off), np.sign(off) * 1e-300, np.sign(off) * 5e-324], off)
            off = np.triu(off, 1)
            off = off + off.transpose(0, 2, 1)
            diag = np.ceil(np.abs(off).sum(axis=2)) + rng.integers(1, 100, (n, d))
            diag[0] = 1e308
            off[0] = -np.triu(np.full((d, d), 1e306), 1) - np.tril(np.full((d, d), 1e306), -1)
            data = Dataset(off + diag[:, :, None] * np.eye(d))
            path = tmp_path / "set.msf"
            write_matrix_set(path, data)
            lines = [f"{d} {n}"] + [" ".join(format(x, ".17g") for x in row)
                                    for a in data.points for row in a]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
            np.testing.assert_array_equal(read_matrix_set(path).points, data.points)

    def test_writer_holds_one_chunk(self, tmp_path, rng):
        data = Dataset(np.stack([random_spd(rng, 5) for _ in range(4096)]))
        path = tmp_path / "set.msf"
        _, peak = traced_peak(write_matrix_set, path, data)
        assert peak <= path.stat().st_size / 2

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.msf"
        path.write_text("# header comment\n2 1\n# matrix follows\n2 0\n0 3\n")
        data = read_matrix_set(path)
        np.testing.assert_array_equal(data.points[0], np.diag([2.0, 3.0]))

    def test_non_symmetric_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.msf"
        path.write_text("2 2\n1 0\n0 1\n1 0.5\n0 1\n")
        with pytest.raises(DataError) as err:
            read_matrix_set(path)
        assert err.value.index == 1

    def test_non_spd_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.msf"
        path.write_text("2 1\n1 0\n0 -1\n")
        with pytest.raises(DataError, match="positive definite"):
            read_matrix_set(path)

    def test_non_finite_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.msf"
        for row in ("nan 0", "inf 0", "1 inf"):
            path.write_text(f"2 2\n1 0\n0 1\n{row}\n0 1\n")
            with pytest.raises(DataError, match="not finite") as err:
                read_matrix_set(path)
            assert err.value.index == 1

    def test_non_spd_matrix_index_reported(self, tmp_path):
        path = tmp_path / "bad.msf"
        path.write_text("2 3\n1 0\n0 1\n2 0\n0 -1\n1 0\n0 -1\n")
        with pytest.raises(DataError, match="index 1 is not positive definite") as err:
            read_matrix_set(path)
        assert err.value.index == 1

    @pytest.mark.filterwarnings("error")  # an overflow warning fails the case
    def test_entries_near_the_float_limit_accepted(self, tmp_path):
        # Symmetrizing by (a + a.T) / 2 overflowed here and reported "min eigenvalue nan".
        path = tmp_path / "big.msf"
        path.write_text("2 1\n1e308 0\n0 1e308\n")
        np.testing.assert_array_equal(read_matrix_set(path).points[0], np.diag([1e308, 1e308]))

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "short.msf"
        path.write_text("2 2\n1 0\n0 1\n")
        with pytest.raises(FormatError, match="promises 2 matrices"):
            read_matrix_set(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.msf"
        path.write_text("two matrices\n")
        with pytest.raises(FormatError):
            read_matrix_set(path)

    def test_non_numeric_entry_names_its_row(self, tmp_path):
        path = tmp_path / "n.msf"
        path.write_text("2 1\n1 0\n0 abc\n")
        with pytest.raises(FormatError, match="matrix 0 row 1: non-numeric entry"):
            read_matrix_set(path)

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "w.msf"
        path.write_text("2 1\n1 0 0\n0 1\n")
        with pytest.raises(FormatError, match="entries"):
            read_matrix_set(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "nl.msf"
        path.write_bytes(newline.join(["2 1", "2 0", "0 3", ""]).encode())
        np.testing.assert_array_equal(read_matrix_set(path).points[0], np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("comments", [0, 5000])  # past the text reader's first chunk
    def test_non_ascii_byte_is_format_error(self, tmp_path, comments):
        path = tmp_path / "u.msf"
        path.write_bytes(b"# c\n" * comments + b"2 1\n1 0\n0 \xff1\n")
        with pytest.raises(FormatError, match="non-ASCII byte 0xff") as err:
            read_matrix_set(path)
        assert err.value.offset == 4 * comments + 10


# Fuzzing: whatever the bytes, a reader raises FormatError or DataError.
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read_rejects_cleanly(reader, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        reader(path)
    except (FormatError, DataError):
        pass


_entry = st.one_of(
    st.floats(width=64).map(lambda x: format(x, ".17g")),
    st.sampled_from(["0", "1", "-1", "1e308", "-1e308", "1e-320", "nan", "x", "1_0", "0x1"]),
)


@st.composite
def _matrix_set_text(draw) -> bytes:
    """A near-valid matrix-set file: a header, then rows whose width and
    entries may be wrong, with a few bytes possibly overwritten."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = [draw(st.sampled_from([f"{d} {n}", f"{d} {n + 1}", f"{d}", "0 1", "# c"]))]
    for _ in range(draw(st.integers(0, n * d + 1))):
        width = draw(st.sampled_from([d, d, d, d - 1, d + 1]))
        lines.append(" ".join(draw(_entry) for _ in range(width)))
    blob = bytearray("\n".join(lines).encode() + b"\n")
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 255)), max_size=2)):
        blob[pos] = byte
    return bytes(blob)


class TestReaderFuzz:
    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_matrix_set_random_bytes(self, fuzz_file, blob):
        _read_rejects_cleanly(read_matrix_set, fuzz_file, blob)

    @_FUZZ
    @given(blob=_matrix_set_text())
    def test_matrix_set_near_valid(self, fuzz_file, blob):
        _read_rejects_cleanly(read_matrix_set, fuzz_file, blob)

    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_pgm_random_bytes(self, fuzz_file, blob):
        _read_rejects_cleanly(read_pgm, fuzz_file, blob)

    @_FUZZ
    @given(
        header=st.lists(st.sampled_from([b"P5", b" ", b"\n", b"#c\n", b"#", b"2", b"3",
                                         b"255", b"0", b"-1", b"x", b"\xff"]), max_size=12),
        payload=st.binary(max_size=12),
    )
    def test_pgm_near_valid(self, fuzz_file, header, payload):
        _read_rejects_cleanly(read_pgm, fuzz_file, b"P5" + b"".join(header) + payload)
