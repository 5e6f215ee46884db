"""Corpus ingestion, preprocessing, splits, and synthetic image generation.

On-disk corpora are directory-per-class trees of 8-bit PGM files, read as
P2 or P5 and written as P5 without any imaging dependency; class ids come
from sorted directory names so every filesystem yields the same labeling.
list_directory lists a tree without decoding it, and split_dataset splits
that listing, so membership of each side follows the sorted file names,
not which files decode: every file takes a slot in its class's shuffle,
and a file that fails to decode drops out of its own side only.
ingest_directory then decodes exactly the listed files it is handed (the
side a command uses) and keeps each as its uint8 raster (4 KB at 64 px).

The network reads (1, H, W) float64 tensors in [0, 1], which
preprocess_image makes from a stack of equal-size rasters at once;
PreprocessedImages hands rasters to Network.classify so that they are
preprocessed one chunk at a time, and only the rasters a command uses are
preprocessed at all.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .layers import DTYPE

log = logging.getLogger(__name__)

SYNTHETIC_FAMILIES = ("grating", "polygon", "blobs", "checker")


@dataclass
class Sample:
    # (1, H, W) in [0, 1], a 2-D uint8 raster as ingested, or None as listed
    image: np.ndarray
    label: int
    source_id: str


@dataclass
class DatasetSplit:
    train: list
    test: list
    class_names: tuple


# ---------------------------------------------------------------------------
# PGM codec
#
# read_pgm accepts a subset of netpbm's PGM: the magic P2 or P5, then
# width, height and maxval as runs of 1 to 9 ASCII digits, each after
# whitespace or # comments (a comment runs to the end of its line), then
# exactly one whitespace byte. A P5 raster is the next width*height bytes;
# a P2 raster is the next width*height such digit runs, split by whitespace
# and comments. Anything after the raster is ignored.

_HEADER = re.compile(
    rb"P([25])" + 3 * rb"(?:\s|#[^\n]*\n)+(\d{1,9})" + rb"\s")
_COMMENT = re.compile(rb"#[^\n]*")


def read_pgm(path):
    """Decode a P2 (ASCII) or P5 (binary) PGM into a 2-D uint8 array."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise InputError(f"cannot read image {path}: {exc}") from exc
    header = _HEADER.match(buf)
    if header is None:
        if buf[:2] not in (b"P2", b"P5"):
            raise InputError(f"{path}: not a PGM file (magic {buf[:2]!r})")
        raise InputError(f"{path}: malformed PGM header")
    magic, width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise InputError(f"{path}: empty raster {width}x{height}")
    if not 1 <= maxval <= 255:
        raise InputError(
            f"{path}: only 8-bit PGM supported, maxval {maxval}")
    count = width * height
    start = header.end()
    if magic == 5:
        got = len(buf) - start
        if got < count:
            raise InputError(
                f"{path}: raster truncated ({got} of {count} bytes)")
        pixels = np.frombuffer(buf, np.uint8, count=count, offset=start)
    else:
        values = _COMMENT.sub(b" ", buf[start:]).split()[:count]
        if len(values) < count:
            raise InputError(f"{path}: raster truncated "
                             f"({len(values)} of {count} values)")
        # Bounded before int(), so no value can overflow int64.
        if not b"".join(values).isdigit() or max(map(len, values)) > 9:
            raise InputError(f"{path}: P2 pixel values must be runs of 1 "
                             f"to 9 digits")
        pixels = np.fromiter(map(int, values), np.int64, count)
    # A P5 byte cannot exceed 255; every other raster is checked.
    if (magic == 2 or maxval < 255) and pixels.max(initial=0) > maxval:
        raise InputError(f"{path}: pixel value exceeds maxval {maxval}")
    return pixels.astype(np.uint8).reshape(height, width)


def write_pgm(path, image):
    """Write a 2-D uint8 array as a binary (P5) PGM."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise InputError(f"PGM image must be 2-D, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise InputError(f"PGM image must be uint8, got {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


# ---------------------------------------------------------------------------
# Preprocessing

def _check_raster(shape):
    """Raise InputError unless shape is 2-D and at least 2x2."""
    if len(shape) != 2 or shape[0] < 2 or shape[1] < 2:
        raise InputError(
            f"raw image must be 2-D and at least 2x2, got shape {tuple(shape)}")


@functools.lru_cache(maxsize=64)
def _resize_plan(in_h, in_w, out_size):
    """Source indices and weights of each pixel preprocess_image keeps.

    Per axis: the low and high source index and the weights (1 - w, w) of
    the bilinear resize to round(out_size * 256 / 224), restricted to the
    central out_size crop. Destination d samples source coordinate
    (d + 0.5)*in/target - 0.5, clamped at the borders.
    """
    target = round(out_size * 256 / 224)
    kept = np.arange(out_size) + (target - out_size) // 2

    def axis(n):
        src = np.clip((kept + 0.5) * (n / target) - 0.5, 0.0, n - 1.0)
        lo = np.floor(src).astype(np.intp)
        w = src - lo
        plan = (lo, np.minimum(lo + 1, n - 1), 1.0 - w, w)
        for a in plan:
            a.flags.writeable = False  # shared by every caller of the cache
        return plan

    return axis(in_h), axis(in_w)


def preprocess_image(raw, out_size=224):
    """Resize, center-crop, and scale 8-bit grids to [0,1] tensors.

    raw is one 2-D raster, giving a (1, out_size, out_size) tensor, or a
    stack (N, H, W) of equal-size rasters, giving (N, 1, out_size,
    out_size). The resize target keeps the stock 256:224 ratio for any
    out_size, so out_size=224 resizes to 256 and keeps rows/cols
    16..239; smaller networks get the same proportional margin. Only the
    kept pixels are interpolated, each as top*(1-wy) + bot*wy of its
    row-interpolated neighbours, then divided by 255.
    """
    raw = np.asarray(raw)
    _check_raster(raw.shape[1:] if raw.ndim == 3 else raw.shape)
    if out_size < 1:
        raise InputError(f"out_size must be >= 1, got {out_size}")
    stack = raw.reshape(-1, *raw.shape[-2:])
    (y0, y1, vy, wy), (x0, x1, vx, wx) = _resize_plan(*raw.shape[-2:],
                                                       out_size)
    rows0, rows1 = stack[:, y0], stack[:, y1]
    top = rows0[:, :, x0] * vx
    top += rows0[:, :, x1] * wx
    bot = rows1[:, :, x0] * vx
    bot += rows1[:, :, x1] * wx
    top *= vy[:, None]
    bot *= wy[:, None]
    top += bot
    top /= 255.0
    return top.reshape(*raw.shape[:-2], 1, out_size, out_size)


class PreprocessedImages:
    """Rasters that are preprocessed a slice at a time, on indexing.

    Network.classify reads its images a chunk (a slice) at a time, so
    over this view only one chunk of float64 tensors exists at once. A
    slice preprocesses its rasters one stack per raster shape and returns
    an (n, 1, out_size, out_size) array.
    """

    def __init__(self, rasters, out_size):
        if out_size < 1:
            raise InputError(f"out_size must be >= 1, got {out_size}")
        self.rasters = list(rasters)
        self.out_size = out_size

    def __len__(self):
        return len(self.rasters)

    def __getitem__(self, key):
        rasters = self.rasters[key]  # a slice
        groups = {}
        for i, raw in enumerate(rasters):
            groups.setdefault(np.shape(raw), []).append(i)
        if len(groups) == 1:
            return preprocess_image(np.stack(rasters), self.out_size)
        out = np.empty((len(rasters), 1, self.out_size, self.out_size), DTYPE)
        for idx in groups.values():
            out[idx] = preprocess_image(np.stack([rasters[i] for i in idx]),
                                        self.out_size)
        return out


# ---------------------------------------------------------------------------
# Ingestion and splitting

def list_directory(root):
    """List a directory-per-class tree without decoding any file.

    Returns (samples, class_names): one image-less Sample per file,
    ordered by (class, sorted filename), with source_id the path relative
    to root. Every file is listed, whatever it holds, so the listing (and
    the split made from it) does not depend on which files decode. A
    missing root, a root without class directories and a class directory
    without files are an InputError.
    """
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"{root} is not a directory")
    class_names = _listing(root, "is_dir")
    if not class_names:
        raise InputError(f"{root} contains no class directories")
    samples = []
    for label, name in enumerate(class_names):
        files = _listing(root / name, "is_file")
        if not files:
            raise InputError(f"class directory {root / name} has no files")
        samples.extend(Sample(image=None, label=label,
                              source_id=f"{name}/{file_name}")
                       for file_name in files)
    return samples, class_names


def ingest_directory(root, listed):
    """Decode the listed files of a directory-per-class PGM tree.

    listed holds samples as list_directory lists them, narrowed to the
    ones to decode (say, one side of split_dataset). Returns (samples,
    skipped): the samples that decoded, in listing order, each holding
    its 2-D uint8 raster, and the count of files that failed to decode or
    are not 2-D and at least 2x2; each failure is logged once, naming its
    file, and the file skipped. A class whose listed files all fail is an
    InputError naming its directory.
    """
    samples = []
    skipped = 0
    for s in listed:
        path = os.path.join(root, s.source_id)
        try:
            raw = read_pgm(path)
            _check_raster(raw.shape)
        except InputError as exc:
            # read_pgm's messages name the file; _check_raster's do not.
            reason = str(exc)
            log.warning("skipping %s", reason if path in reason
                        else f"{path}: {reason}")
            skipped += 1
            continue
        samples.append(Sample(image=raw, label=s.label, source_id=s.source_id))
    empty = {s.label for s in listed} - {s.label for s in samples}
    if empty:
        label = min(empty)
        ids = [s.source_id for s in listed if s.label == label]
        # A class's directory is the first part of each of its source ids.
        raise InputError(
            f"class directory {Path(root) / ids[0].split('/')[0]} has no "
            f"usable image among the {len(ids)} listed")
    return samples, skipped


def _listing(directory, kind):
    """Sorted names of the entries of directory that are of kind.

    kind is "is_dir" or "is_file", asked of each os.DirEntry: one scandir
    pass, with no stat per entry on most filesystems. Both follow
    symlinks, as the Path methods do; where the entry raises (a symlink
    loop, say), the Path method answers instead.
    """
    def keep(entry):
        try:
            return getattr(entry, kind)()
        except OSError:
            return getattr(Path(entry.path), kind)()

    with os.scandir(directory) as entries:
        return tuple(sorted(e.name for e in entries if keep(e)))


def split_dataset(samples, class_names, train_fraction=0.7, rng_seed=0):
    """Stratified train/test split: floor(n * fraction) per class to train.

    The per-class shuffle is seeded, so equal seeds give equal splits.
    Both sides must be nonempty for every class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InputError(
            f"train_fraction must be in (0, 1), got {train_fraction}")
    by_class = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    rng = np.random.default_rng(rng_seed)
    train_idx, test_idx = [], []
    for label in sorted(by_class):
        idx = np.asarray(by_class[label])
        n = idx.size
        n_train = math.floor(n * train_fraction)
        if n_train < 1 or n - n_train < 1:
            raise InputError(
                f"class {label} has {n} samples; fraction {train_fraction} "
                f"leaves an empty side")
        perm = rng.permutation(n)
        train_idx.extend(idx[perm[:n_train]].tolist())
        test_idx.extend(idx[perm[n_train:]].tolist())
    return DatasetSplit(
        train=[samples[i] for i in train_idx],
        test=[samples[i] for i in test_idx],
        class_names=tuple(class_names),
    )


# ---------------------------------------------------------------------------
# Synthetic corpus

def _grating(u, v, variant, rng):
    angle = np.deg2rad(30.0 + 37.0 * variant)
    freq = 4.0 + 3.0 * variant
    phase = rng.uniform(0.0, 2.0 * np.pi)
    wave = np.sin(2.0 * np.pi * freq
                  * (u * np.cos(angle) + v * np.sin(angle)) + phase)
    return 0.5 + 0.45 * wave


def _polygon(u, v, variant, rng):
    k = 3 + variant
    cx, cy = rng.uniform(-0.08, 0.08, size=2)
    rot = rng.uniform(0.0, 2.0 * np.pi)
    radius = 0.28 + rng.uniform(-0.03, 0.03)
    angles = rot + 2.0 * np.pi * np.arange(k) / k
    px = cx + radius * np.cos(angles)
    py = cy + radius * np.sin(angles)
    inside = np.ones_like(u, dtype=bool)
    for i in range(k):
        j = (i + 1) % k
        # sign of the cross product against edge i->j, vectorized over grid
        cross = ((px[j] - px[i]) * (v - py[i])
                 - (py[j] - py[i]) * (u - px[i]))
        inside &= cross >= 0
    return np.where(inside, 0.85, 0.15)


def _blobs(u, v, variant, rng, centers):
    img = np.zeros_like(u)
    for bx, by in centers:
        jx = bx + rng.uniform(-0.05, 0.05)
        jy = by + rng.uniform(-0.05, 0.05)
        sigma = 0.06 + rng.uniform(-0.01, 0.01)
        img += np.exp(-((u - jx) ** 2 + (v - jy) ** 2) / (2.0 * sigma ** 2))
    return np.clip(img, 0.0, 1.0)


def _checker(size, variant, rng):
    period = max(2, size // (4 + 2 * variant))
    ox = int(rng.integers(0, period))
    oy = int(rng.integers(0, period))
    yy, xx = np.mgrid[0:size, 0:size]
    cells = ((xx + ox) // period + (yy + oy) // period) % 2
    return 0.2 + 0.6 * cells.astype(DTYPE)


def generate_synthetic_corpus(num_classes, per_class, image_size, rng_seed):
    """Procedural multi-class grayscale corpus for desk-scale experiments.

    Class c draws from family c % 4 (oriented grating, filled convex
    polygon, Gaussian blob constellation, checkerboard) with parameters
    stepped by c // 4, so classes are visually separable while per-sample
    phase, position, and noise keep intra-class variance nonzero.
    Returns (samples, class_names); everything is determined by rng_seed.
    """
    if num_classes < 2:
        raise InputError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 10:
        raise InputError(f"per_class must be >= 10, got {per_class}")
    if image_size < 8:
        raise InputError(f"image_size must be >= 8, got {image_size}")
    rng = np.random.default_rng(rng_seed)
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    u = (xx + 0.5) / image_size - 0.5
    v = (yy + 0.5) / image_size - 0.5
    samples = []
    class_names = []
    for c in range(num_classes):
        family = c % 4
        variant = c // 4
        name = f"c{c:02d}_{SYNTHETIC_FAMILIES[family]}"
        class_names.append(name)
        if family == 2:
            # Blob constellation geometry is fixed per class.
            count = 2 + variant
            base_angle = rng.uniform(0.0, 2.0 * np.pi)
            angles = base_angle + 2.0 * np.pi * np.arange(count) / count
            centers = [(0.3 * np.cos(a), 0.3 * np.sin(a)) for a in angles]
        for i in range(per_class):
            if family == 0:
                img = _grating(u, v, variant, rng)
            elif family == 1:
                img = _polygon(u, v, variant, rng)
            elif family == 2:
                img = _blobs(u, v, variant, rng, centers)
            else:
                img = _checker(image_size, variant, rng)
            img = np.clip(img + rng.normal(0.0, 0.04, img.shape), 0.0, 1.0)
            samples.append(Sample(image=img[None, :, :].astype(DTYPE),
                                  label=c,
                                  source_id=f"{name}/{i:04d}.pgm"))
    return samples, tuple(class_names)


def write_corpus(samples, class_names, root, extra=None):
    """Write samples as a directory-per-class PGM tree plus a manifest.

    Pixels are quantized to uint8. The manifest records per-class counts,
    the image size, and a sha256 over every file (paths and bytes, in
    sorted path order), so byte-identical corpora hash identically.
    extra entries (say, the generator seed) are merged into the manifest.
    """
    root = Path(root)
    counts = {name: 0 for name in class_names}
    for name in class_names:
        (root / name).mkdir(parents=True, exist_ok=True)
    for s in samples:
        img8 = np.round(s.image[0] * 255.0).astype(np.uint8)
        write_pgm(root / s.source_id, img8)
        counts[class_names[s.label]] += 1
    digest = hashlib.sha256()
    for s in sorted(samples, key=lambda s: s.source_id):
        digest.update(s.source_id.encode("utf-8"))
        digest.update((root / s.source_id).read_bytes())
    manifest = {
        "class_counts": counts,
        "image_size": int(samples[0].image.shape[-1]) if samples else 0,
        "num_files": len(samples),
        "sha256": digest.hexdigest(),
    }
    if extra:
        manifest.update(extra)
    with open(root / "manifest.json", "w") as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
