"""Shared primitives for the versioned binary container files.

Both persisted artifacts (checkpoint, feature index) share one envelope:
an 8-byte magic, a little-endian u32 format version, a u32 header length,
and a UTF-8 JSON header with sorted keys, followed by format-specific
binary payload. Readers fail loudly: wrong magic, a version this build
does not read, unreadable header, or short reads each raise their own
error type. Writers go through atomic_write, so a crash mid-write leaves
any earlier file in place.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import struct

from .errors import FormatError, TruncatedFileError, VersionMismatchError


@contextlib.contextmanager
def atomic_write(path):
    """Binary file beside path that os.replace moves onto it on success.

    If the block raises, the partial file is removed and path is left
    untouched. There is no fsync: this guards against a crashed process,
    not against power loss.
    """
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def header_value(obj, key, kind, what):
    """obj[key] if obj is a dict holding a kind there, else FormatError.

    JSON decodes to exact types, so true and false never pass for int.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{what} has no {key!r} field")
    value = obj[key]
    if type(value) is not kind:
        raise FormatError(
            f"{what} field {key!r} is a {type(value).__name__}, "
            f"not a {kind.__name__}")
    return value


def read_exact(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(
            f"file ends inside {what}: wanted {n} bytes, got {len(buf)}")
    return buf


def check_payload_size(f, size, what):
    """Check that exactly size bytes follow the header, reading nothing.

    A file that holds fewer raises TruncatedFileError, more FormatError.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left != size:
        raise (TruncatedFileError if left < size else FormatError)(
            f"{what} should be {size} bytes, but the file holds {left} "
            f"after the header")


def read_into(f, array, what):
    """Fill the C-contiguous array with its size in bytes from f.

    A file that ends first raises TruncatedFileError, as read_exact does.
    """
    view = memoryview(array).cast("B")
    got = f.readinto(view)
    if got != len(view):
        raise TruncatedFileError(
            f"file ends inside {what}: wanted {len(view)} bytes, got {got}")


def write_container_header(f, magic, version, header_obj):
    header_bytes = json.dumps(header_obj, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<I", version))
    f.write(struct.pack("<I", len(header_bytes)))
    f.write(header_bytes)


def read_container_header(f, magic, version, kind):
    """The JSON header of a kind file, if it holds format version version.

    A build reads exactly one version of each format; any other raises
    VersionMismatchError before the header is read.
    """
    lead = f.read(len(magic))
    if lead != magic:
        raise FormatError(
            f"not a {kind} file: expected magic {magic!r}, found {lead!r}")
    (stored,) = struct.unpack("<I", read_exact(f, 4, "format version"))
    if stored != version:
        raise VersionMismatchError(
            f"{kind} format version {stored} is not supported "
            f"(this build reads version {version})")
    (hlen,) = struct.unpack("<I", read_exact(f, 4, "header length"))
    raw = read_exact(f, hlen, "JSON header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(
            f"{kind} header is a JSON {type(header).__name__}, not an object")
    return header
