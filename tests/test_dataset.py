"""PGM codec, preprocessing geometry, splits, and synthetic corpus checks."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import cbirnet.data
import conftest
from cbirnet.data import (
    PreprocessedImages,
    Sample,
    generate_synthetic_corpus,
    ingest_directory,
    list_directory,
    preprocess_image,
    read_pgm,
    split_dataset,
    write_corpus,
    write_pgm,
)
from cbirnet.errors import InputError
from cbirnet.network import Network, build_architecture
from conftest import bilinear_resize

RNG = np.random.default_rng(31415)
# Fixed examples, so the suite tests the same rasters on every run.
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
OUT_SIZES = (1, 8, 16, 64, 224)
SIDES = st.integers(2, 400)


def rasters_of(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, shape, dtype=np.uint8) for shape in shapes]


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def bilinear_reference(img, out_h, out_w):
    """Scalar-loop resampler with the same half-pixel-center mapping."""
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for d_y in range(out_h):
        for d_x in range(out_w):
            sy = min(max((d_y + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((d_x + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[d_y, d_x] = top * (1 - fy) + bot * fy
    return out


class TestPGM:
    def test_p5_round_trip(self, tmp_path):
        img = RNG.integers(0, 256, size=(7, 5), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        npt.assert_array_equal(read_pgm(path), img)

    def test_p2_round_trip(self, tmp_path):
        img = RNG.integers(0, 256, size=(4, 6), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n6 4\n255\n" + b"".join(
            b" ".join(b"%d" % v for v in row) + b"\n" for row in img))
        npt.assert_array_equal(read_pgm(path), img)

    def test_p2_with_comments_and_odd_whitespace(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(
            b"P2 # magic\n# a comment line\n  3\t2 # dims\n255\n"
            b"0 1 2\n250 251 252\n")
        npt.assert_array_equal(read_pgm(path),
                               [[0, 1, 2], [250, 251, 252]])

    def test_p5_pixel_255_not_comment(self, tmp_path):
        # 0x23 is '#'; inside the raster it is data, not a comment.
        img = np.full((2, 2), ord("#"), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        npt.assert_array_equal(read_pgm(path), img)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(InputError):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(InputError):
            read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        for data, counts in [
                (b"P5\n4 4\n255\n" + bytes(7), r"7 of 16 bytes"),
                (b"P2\n3 1\n255\n1 2 # 3\n", r"2 of 3 values")]:
            path.write_bytes(data)
            with pytest.raises(InputError,
                               match=rf"raster truncated \({counts}\)$"):
                read_pgm(path)

    def test_p2_value_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 1\n100\n50 101\n")
        with pytest.raises(InputError):
            read_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P2\n1 1\n255\n-5\n",
        b"P2\n1 1\n255\n+7\n",
        b"P2\n1 1\n255\n1_0\n",
        b"P5\n+2 1\n255\n\x01\x02",
        b"P5\n2 1_0\n255\n" + bytes(20),
        # A comment straight after maxval: its bytes are not the raster.
        b"P5\n2 1\n255#x\n",
        b"P2\n1 1\n255#x\n7\n",
        b" P5\n1 1\n255\n\x01",
    ], ids=["negative-value", "plus-value", "underscore-value",
            "plus-width", "underscore-height", "P5-comment-after-maxval",
            "P2-comment-after-maxval", "space-before-magic"])
    def test_off_grammar_input_rejected(self, tmp_path, data):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(InputError):
            read_pgm(path)

    @pytest.mark.parametrize("digits", [10, 20, 5000])
    @pytest.mark.parametrize("magic, field", [
        (b"P5", 0), (b"P5", 1), (b"P5", 2),
        (b"P2", 0), (b"P2", 1), (b"P2", 2), (b"P2", 3)])
    def test_overlong_number_rejected(self, tmp_path, magic, field, digits):
        # 20 digits overflow int64; 5000 pass int()'s default digit limit.
        for lead in (b"0", b"9"):
            fields = [b"1", b"1", b"255", b"7"]
            fields[field] = lead * (digits - 1) + b"1"
            if magic == b"P5":
                fields[3] = b"\x07"
            path = tmp_path / "img.pgm"
            path.write_bytes(magic + b"\n" + b" ".join(fields) + b"\n")
            with pytest.raises(InputError):
                read_pgm(path)


WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    """One file that each example of a fuzz test overwrites."""
    return tmp_path_factory.mktemp("pgm") / "img.pgm"


def decoded(path, data):
    """read_pgm of a file holding data; None where it raises InputError."""
    path.write_bytes(data)
    try:
        raster = read_pgm(path)
    except InputError:
        return None
    assert raster.dtype == np.uint8 and raster.ndim == 2
    return raster


def separators(min_size=1):
    """Runs of whitespace bytes and of # comments ended by a newline."""
    comment = st.binary(max_size=6).map(
        lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
    return st.lists(st.sampled_from(WHITESPACE) | comment,
                    min_size=min_size, max_size=4).map(b"".join)


def decimal(value):
    """value in ASCII digits, with leading zeros up to nine digits."""
    text = str(value).encode()
    return st.integers(0, 9 - len(text)).map(lambda n: b"0" * n + text)


@st.composite
def pgm_files(draw):
    """(file bytes, raster) of a P2 or P5 file in the accepted grammar."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.integers(1, 255))
    raster = np.array(draw(st.lists(st.integers(0, maxval), min_size=h * w,
                                    max_size=h * w)), np.uint8).reshape(h, w)
    binary = draw(st.booleans())
    parts = [b"P5" if binary else b"P2"]
    for value in (w, h, maxval):
        parts += [draw(separators()), draw(decimal(value))]
    parts.append(draw(st.sampled_from(WHITESPACE)))
    if binary:
        parts.append(raster.tobytes())
    else:
        for i, value in enumerate(raster.flat):
            parts += [draw(separators(min_size=int(i > 0))),
                      draw(decimal(value))]
        parts.append(draw(separators()))
    parts.append(draw(st.binary(max_size=8)))  # ignored after the raster
    return b"".join(parts), raster


class TestPGMFuzz:
    @EXAMPLES
    @given(file=pgm_files())
    def test_grammar_files_decode_to_their_raster(self, pgm_path, file):
        data, raster = file
        got = decoded(pgm_path, data)
        assert got is not None and same_bytes(got, raster)

    @EXAMPLES
    @given(data=st.sampled_from([b"", b"P2", b"P5", b"P2 3 2 255\n",
                                 b"P5 3 2 255\n"])
           .flatmap(lambda head: st.binary(max_size=64)
                    .map(lambda tail: head + tail)))
    def test_arbitrary_bytes_decode_or_raise(self, pgm_path, data):
        decoded(pgm_path, data)

    @EXAMPLES
    @given(file=pgm_files(), data=st.data())
    def test_mutated_file_decodes_or_raises(self, pgm_path, file, data):
        raw = bytearray(file[0])
        inserts = st.sampled_from([b"-", b"+", b"_", b"#", b"\n", b" ", b"0",
                                   b"\x00", b"\xff", b"9" * 5000])
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(raw)))
            edit = data.draw(st.sampled_from(["flip", "insert", "delete",
                                              "truncate"]))
            if edit == "flip" and pos < len(raw):
                raw[pos] ^= data.draw(st.integers(1, 255))
            elif edit == "insert":
                raw[pos:pos] = data.draw(inserts)
            elif edit == "delete":
                del raw[pos:pos + data.draw(st.integers(1, 4))]
            else:
                del raw[pos:]
        decoded(pgm_path, bytes(raw))


class TestBilinearResize:
    def test_identity_when_same_size(self):
        img = RNG.random((9, 7))
        npt.assert_array_equal(bilinear_resize(img, 9, 7), img)

    def test_matches_scalar_reference(self):
        img = RNG.random((11, 8)) * 255
        for out in [(5, 5), (23, 17), (11, 16)]:
            npt.assert_allclose(bilinear_resize(img, *out),
                                bilinear_reference(img, *out),
                                rtol=1e-12, atol=1e-12)

    def test_constant_image_stays_constant(self):
        img = np.full((10, 10), 37.0)
        out = bilinear_resize(img, 27, 13)
        npt.assert_allclose(out, 37.0, rtol=1e-12)

    def test_downsample_two_to_one_averages(self):
        # 2x downsample with half-pixel centers lands exactly between
        # source pixels, so each output is the mean of a 2x2 block.
        img = RNG.random((8, 8))
        out = bilinear_resize(img, 4, 4)
        blocks = img.reshape(4, 2, 4, 2).mean(axis=(1, 3))
        npt.assert_allclose(out, blocks, rtol=1e-12)

    def test_range_preserved(self):
        img = RNG.random((16, 16)) * 255
        out = bilinear_resize(img, 40, 9)
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9


class TestPreprocessImage:
    def test_constant_255_becomes_ones(self):
        raw = np.full((100, 100), 255, dtype=np.uint8)
        out = preprocess_image(raw)
        assert out.shape == (1, 224, 224)
        npt.assert_allclose(out, 1.0, rtol=1e-12)

    def test_256_input_resize_is_identity_crop_offset_16(self):
        raw = RNG.integers(0, 256, size=(256, 256), dtype=np.uint8)
        out = preprocess_image(raw)
        npt.assert_allclose(out[0], raw[16:240, 16:240] / 255.0, rtol=1e-12)

    def test_bright_pixel_lands_at_center(self):
        # Source (256,256) of a 512-grid maps through the 2x downsample to
        # destination 128 (weight 0.5), then the crop shifts it to 112.
        raw = np.zeros((512, 512), dtype=np.uint8)
        raw[256, 256] = 255
        out = preprocess_image(raw)[0]
        peak = np.unravel_index(np.argmax(out), out.shape)
        assert abs(peak[0] - 112) <= 1 and abs(peak[1] - 112) <= 1

    def test_values_in_unit_interval(self):
        raw = RNG.integers(0, 256, size=(37, 61), dtype=np.uint8)
        out = preprocess_image(raw, out_size=64)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_small_out_size_keeps_ratio(self):
        # 64 * 256 / 224 = 73.14 -> resize to 73, crop offset 4.
        raw = RNG.integers(0, 256, size=(80, 80), dtype=np.uint8)
        out = preprocess_image(raw, out_size=64)
        assert out.shape == (1, 64, 64)
        resized = bilinear_resize(raw.astype(float), 73, 73)
        npt.assert_allclose(out[0], resized[4:68, 4:68] / 255.0, rtol=1e-12)

    def test_degenerate_input_rejected(self):
        with pytest.raises(InputError):
            preprocess_image(np.zeros((1, 5), dtype=np.uint8))


class TestBatchedPreprocess:
    """preprocess_image on stacks, byte for byte the per-image path."""

    @EXAMPLES
    @given(h=SIDES, w=SIDES, out_size=st.sampled_from(OUT_SIZES),
           n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_per_image_reference(self, h, w, out_size, n, seed):
        stack = np.stack(rasters_of([(h, w)] * n, seed))
        got = preprocess_image(stack, out_size=out_size)
        assert got.dtype == np.float64
        assert got.shape == (n, 1, out_size, out_size)
        for raw, image in zip(stack, got):
            assert same_bytes(image,
                              conftest.preprocess_reference(raw, out_size))
        assert same_bytes(preprocess_image(stack[0], out_size=out_size),
                          got[0])

    @pytest.mark.parametrize("out_size", OUT_SIZES[1:])
    def test_identity_resize(self, out_size):
        # The side that resizes to itself: 9, 18, 73 and 256.
        side = round(out_size * 256 / 224)
        raw = rasters_of([(side, side)], out_size)[0]
        assert same_bytes(preprocess_image(raw, out_size=out_size),
                          conftest.preprocess_reference(raw, out_size))
        off = (side - out_size) // 2
        npt.assert_array_equal(
            preprocess_image(raw, out_size=out_size)[0] * 255.0,
            raw[off:off + out_size, off:off + out_size])

    @EXAMPLES
    @given(shapes=st.lists(st.tuples(st.integers(2, 40), st.integers(2, 40)),
                           max_size=12),
           out_size=st.sampled_from(OUT_SIZES[:4]),
           bounds=st.tuples(st.integers(-13, 13), st.integers(-13, 13)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_view_slices_of_mixed_sizes(self, shapes, out_size, bounds,
                                        seed):
        rasters = rasters_of(shapes, seed)
        view = PreprocessedImages(rasters, out_size)
        assert len(view) == len(rasters)
        got = view[slice(*bounds)]
        want = [conftest.preprocess_reference(raw, out_size)
                for raw in rasters[slice(*bounds)]]
        assert got.shape == (len(want), 1, out_size, out_size)
        for image, ref in zip(got, want):
            assert same_bytes(image, ref)

    def test_classify_over_view_across_chunk_boundaries(self):
        net = Network.from_spec(build_architecture(
            input_shape=(1, 64, 64), num_classes=4, scale=0.1))
        net.initialize(3, weight_std=0.15)
        c = net.chunk_size
        shapes = [(64, 64), (80, 50), (37, 61), (73, 73), (256, 256)]
        for n in (1, c - 1, c, c + 1):
            rasters = rasters_of([shapes[i % 5] for i in range(n)], n)
            got = net.classify(PreprocessedImages(rasters, 64))
            want = net.classify([conftest.preprocess_reference(raw, 64)
                                 for raw in rasters])
            assert same_bytes(got[0], want[0])
            npt.assert_array_equal(got[1], want[1])
            for name in want[2]:
                assert same_bytes(got[2][name], want[2][name])

    def test_view_reads_only_the_slice(self, monkeypatch):
        seen = []
        real = preprocess_image

        def counted(raw, out_size=224):
            seen.append(len(raw))
            return real(raw, out_size)

        monkeypatch.setattr(cbirnet.data, "preprocess_image", counted)
        view = PreprocessedImages(rasters_of([(8, 8)] * 5 + [(9, 7)] * 5, 0),
                                  8)
        view[3:7]
        assert sorted(seen) == [2, 2]

    def test_bad_raster_or_size_rejected(self):
        for stack in (np.zeros((3, 1, 5), np.uint8), np.zeros((2, 2, 2, 2))):
            with pytest.raises(InputError):
                preprocess_image(stack, out_size=8)
        with pytest.raises(InputError):
            PreprocessedImages([np.zeros((8, 8), np.uint8)], 0)


def make_samples(per_class, num_classes=2, size=8):
    samples = []
    for c in range(num_classes):
        for i in range(per_class):
            img = np.full((1, size, size), c / max(1, num_classes - 1))
            samples.append(Sample(image=img, label=c,
                                  source_id=f"cls{c}/{i:03d}.pgm"))
    return samples


class TestSplitDataset:
    def test_stratified_floor(self):
        samples = make_samples(10, num_classes=3)
        split = split_dataset(samples, ("a", "b", "c"), train_fraction=0.7,
                              rng_seed=1)
        for c in range(3):
            assert sum(1 for s in split.train if s.label == c) == 7
            assert sum(1 for s in split.test if s.label == c) == 3

    def test_disjoint_and_exhaustive(self):
        samples = make_samples(9)
        split = split_dataset(samples, ("a", "b"), rng_seed=5)
        train_ids = {s.source_id for s in split.train}
        test_ids = {s.source_id for s in split.test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {s.source_id for s in samples}

    def test_same_seed_same_split(self):
        samples = make_samples(20)
        a = split_dataset(samples, ("a", "b"), rng_seed=3)
        b = split_dataset(samples, ("a", "b"), rng_seed=3)
        assert [s.source_id for s in a.train] == [s.source_id for s in b.train]
        assert [s.source_id for s in a.test] == [s.source_id for s in b.test]

    def test_different_seed_different_split(self):
        samples = make_samples(50)
        a = split_dataset(samples, ("a", "b"), rng_seed=3)
        b = split_dataset(samples, ("a", "b"), rng_seed=4)
        assert [s.source_id for s in a.train] != [s.source_id for s in b.train]

    def test_fraction_bounds_rejected(self):
        samples = make_samples(10)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InputError):
                split_dataset(samples, ("a", "b"), train_fraction=bad)

    def test_class_too_small_rejected(self):
        samples = make_samples(1)
        with pytest.raises(InputError):
            split_dataset(samples, ("a", "b"), train_fraction=0.7)

    def test_fraction_for_fifty_fifty_quarters(self):
        # floor(70 * 0.715) = 50: yields a 50/20 per-class split from 70.
        samples = make_samples(70)
        split = split_dataset(samples, ("a", "b"), train_fraction=0.715,
                              rng_seed=0)
        assert sum(1 for s in split.train if s.label == 0) == 50
        assert sum(1 for s in split.test if s.label == 0) == 20


class TestSyntheticCorpus:
    def test_counts_labels_names(self):
        samples, names = generate_synthetic_corpus(6, 12, 32, rng_seed=0)
        assert len(samples) == 72
        assert names == ("c00_grating", "c01_polygon", "c02_blobs",
                         "c03_checker", "c04_grating", "c05_polygon")
        assert sorted({s.label for s in samples}) == list(range(6))
        assert list(names) == sorted(names)  # sorted ingestion keeps ids

    def test_deterministic(self):
        a, _ = generate_synthetic_corpus(4, 10, 24, rng_seed=9)
        b, _ = generate_synthetic_corpus(4, 10, 24, rng_seed=9)
        for sa, sb in zip(a, b):
            npt.assert_array_equal(sa.image, sb.image)

    def test_values_in_unit_interval(self):
        samples, _ = generate_synthetic_corpus(4, 10, 24, rng_seed=2)
        for s in samples:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.image.shape == (1, 24, 24)

    def test_intra_class_variance_nonzero(self):
        samples, _ = generate_synthetic_corpus(4, 10, 32, rng_seed=3)
        for c in range(4):
            cls = [s.image for s in samples if s.label == c]
            assert np.std(np.stack(cls), axis=0).max() > 0.01

    def test_class_means_distinct(self):
        samples, _ = generate_synthetic_corpus(4, 20, 32, rng_seed=4)
        means = [np.mean([s.image for s in samples if s.label == c], axis=0)
                 for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 0.5

    def test_pixel_space_nearest_neighbor_separable(self):
        # Sanity: a 1-NN classifier on raw pixels should beat 70% easily,
        # otherwise the corpus is too hard for the desk-scale network.
        samples, names = generate_synthetic_corpus(4, 30, 32, rng_seed=5)
        split = split_dataset(samples, names, train_fraction=0.7, rng_seed=0)
        train_x = np.stack([s.image.ravel() for s in split.train])
        train_y = np.array([s.label for s in split.train])
        hits = 0
        for s in split.test:
            d = np.linalg.norm(train_x - s.image.ravel(), axis=1)
            hits += int(train_y[np.argmin(d)] == s.label)
        assert hits / len(split.test) >= 0.70

    def test_too_few_classes_or_samples_rejected(self):
        with pytest.raises(InputError):
            generate_synthetic_corpus(1, 10, 32, 0)
        with pytest.raises(InputError):
            generate_synthetic_corpus(4, 5, 32, 0)


class TestCorpusRoundTrip:
    def test_write_then_ingest(self, tmp_path):
        samples, names = generate_synthetic_corpus(4, 10, 64, rng_seed=7)
        manifest = write_corpus(samples, names, tmp_path, extra={"seed": 7})
        assert manifest["num_files"] == 40
        assert manifest["seed"] == 7
        assert sum(manifest["class_counts"].values()) == 40
        listed, listed_names = list_directory(tmp_path)
        loaded, skipped = ingest_directory(tmp_path, listed)
        assert skipped == 0
        assert listed_names == names
        assert len(loaded) == 40
        assert [s.source_id for s in loaded] == sorted(
            s.source_id for s in samples)

    def test_manifest_checksum_stable(self, tmp_path):
        for sub in ("a", "b"):
            samples, names = generate_synthetic_corpus(2, 10, 16, rng_seed=1)
            write_corpus(samples, names, tmp_path / sub)
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb

    def test_undecodable_file_skipped_with_warning(self, tmp_path, caplog):
        samples, names = generate_synthetic_corpus(2, 10, 16, rng_seed=1)
        write_corpus(samples, names, tmp_path)
        (tmp_path / names[0] / "broken.pgm").write_bytes(b"not a pgm")
        loaded, skipped = ingest_directory(tmp_path,
                                           list_directory(tmp_path)[0])
        assert skipped == 1
        assert len(loaded) == 20

    def test_unpreprocessable_file_skipped_and_split_unchanged(self,
                                                              tmp_path):
        samples, names = generate_synthetic_corpus(2, 10, 16, rng_seed=1)
        write_corpus(samples, names, tmp_path / "clean")
        write_corpus(samples, names, tmp_path / "dirty")
        thin = tmp_path / "dirty" / names[1] / "0003a.pgm"
        write_pgm(thin, np.zeros((1, 16), dtype=np.uint8))
        assert read_pgm(thin).shape == (1, 16)  # decodes, too thin to resize
        clean, clean_skipped = ingest_directory(
            tmp_path / "clean", list_directory(tmp_path / "clean")[0])
        dirty, skipped = ingest_directory(
            tmp_path / "dirty", list_directory(tmp_path / "dirty")[0])
        assert (clean_skipped, skipped) == (0, 1)
        assert [s.source_id for s in dirty] == [s.source_id for s in clean]
        for a, b in zip(dirty, clean):
            assert a.image.dtype == np.uint8 and a.image.shape == (16, 16)
            npt.assert_array_equal(a.image,
                                   read_pgm(tmp_path / "clean" / b.source_id))
        for side in ("train", "test"):
            assert ([s.source_id for s in getattr(
                        split_dataset(dirty, names, rng_seed=4), side)]
                    == [s.source_id for s in getattr(
                        split_dataset(clean, names, rng_seed=4), side)])

    def test_listing_matches_path_sorted_oracle(self, tmp_path):
        samples, names = generate_synthetic_corpus(3, 10, 16, rng_seed=2)
        write_corpus(samples, names, tmp_path)
        first, second = tmp_path / names[0], tmp_path / names[1]
        # Names whose string order differs from a numeric or case-folded one.
        for name in ("B.pgm", "a10.pgm", "a9.pgm", "_x.pgm", "Z"):
            write_pgm(first / name, RNG.integers(0, 256, (16, 16), np.uint8))
        (first / "nested").mkdir()
        write_pgm(first / "nested" / "deep.pgm",
                  np.zeros((16, 16), dtype=np.uint8))
        (first / "link.pgm").symlink_to(second / "0003.pgm")
        (first / "dangling.pgm").symlink_to(tmp_path / "missing.pgm")
        (first / "loop_a").symlink_to(first / "loop_b")
        (first / "loop_b").symlink_to(first / "loop_a")
        (first / "notes.txt").write_text("not an image")
        # P5 at maxval 200 holding a 250: skipped only once decoded.
        (second / "over.pgm").write_bytes(b"P5\n4 4\n200\n"
                                          + bytes([250] + [0] * 15))
        (tmp_path / "linked_class").symlink_to(second)
        listed, listed_names = list_directory(tmp_path)
        got = ingest_directory(tmp_path, listed)
        want = conftest.ingest_directory_reference(tmp_path)
        assert (listed_names, got[1]) == want[1:]
        assert listed_names == (*names, "linked_class")
        assert got[1] == 3  # notes.txt, and over.pgm in two classes
        ids = [(s.source_id, s.label) for s in got[0]]
        assert ids == [(s.source_id, s.label) for s in want[0]]
        assert (f"{names[0]}/link.pgm", 0) in ids
        assert not any("deep" in sid or "loop" in sid or "dangling" in sid
                       for sid, _ in ids)
        assert all(same_bytes(a.image, b.image)
                   for a, b in zip(got[0], want[0]))
        for side in ("train", "test"):
            assert ([s.source_id for s in getattr(
                        split_dataset(got[0], listed_names, rng_seed=3),
                        side)]
                    == [s.source_id for s in getattr(
                        split_dataset(want[0], want[1], rng_seed=3), side)])

    def test_listing_decodes_nothing_and_keeps_every_file(self, tmp_path,
                                                          monkeypatch):
        samples, names = generate_synthetic_corpus(2, 10, 16, rng_seed=1)
        write_corpus(samples, names, tmp_path)
        (tmp_path / names[0] / "notes.txt").write_text("not an image")
        read = []
        monkeypatch.setattr(cbirnet.data, "read_pgm",
                            lambda path: read.append(path) or read_pgm(path))
        listed, listed_names = list_directory(tmp_path)
        assert read == []
        assert listed_names == names
        assert all(s.image is None for s in listed)
        # A non-image file takes its slot in the listing, and so in the
        # split; ingest then drops it.
        ids = [(s.source_id, s.label) for s in listed]
        assert (f"{names[0]}/notes.txt", 0) in ids
        loaded, skipped = ingest_directory(tmp_path, listed)
        assert skipped == 1
        assert [(s.source_id, s.label) for s in loaded] == [
            i for i in ids if not i[0].endswith("notes.txt")]

    def test_broken_file_drops_out_of_its_side_only(self, tmp_path):
        samples, names = generate_synthetic_corpus(2, 10, 16, rng_seed=1)
        write_corpus(samples, names, tmp_path / "clean")
        write_corpus(samples, names, tmp_path / "dirty")
        splits = {
            tree: split_dataset(*list_directory(tmp_path / tree), rng_seed=4)
            for tree in ("clean", "dirty")}
        broken = splits["dirty"].train[3].source_id
        (tmp_path / "dirty" / broken).write_bytes(b"not a pgm")
        for side in ("train", "test"):
            got = {}
            for tree, split in splits.items():
                loaded, skipped = ingest_directory(tmp_path / tree,
                                                   getattr(split, side))
                got[tree] = ([s.source_id for s in loaded], skipped)
            clean_ids = got["clean"][0]
            assert got["dirty"] == (
                [i for i in clean_ids if i != broken],
                int(broken in clean_ids))
            assert clean_ids == [s.source_id
                                 for s in getattr(splits["clean"], side)]

    def test_listed_class_without_usable_file_rejected(self, tmp_path):
        samples, names = generate_synthetic_corpus(2, 10, 16, rng_seed=1)
        write_corpus(samples, names, tmp_path)
        split = split_dataset(*list_directory(tmp_path), rng_seed=4)
        for s in split.test:
            if s.label == 1:
                (tmp_path / s.source_id).write_bytes(b"not a pgm")
        assert len(ingest_directory(tmp_path, split.train)[0]) == 14
        with pytest.raises(InputError,
                           match=re.escape(str(tmp_path / names[1]))):
            ingest_directory(tmp_path, split.test)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        write_pgm(tmp_path / "a" / "x.pgm",
                  np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(InputError, match=re.escape(str(tmp_path / "b"))):
            ingest_directory(tmp_path, list_directory(tmp_path)[0])
        with pytest.raises(InputError, match=re.escape(str(tmp_path / "b"))):
            list_directory(tmp_path)

    def test_no_class_dirs_rejected(self, tmp_path):
        with pytest.raises(InputError):
            ingest_directory(tmp_path, list_directory(tmp_path)[0])
