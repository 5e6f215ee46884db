"""Corrupt checkpoint and index files: each reader loads them or raises.

Every truncation, single-byte flips in the container header and in the
tensor rank/dims bytes, arbitrary JSON in place of any header field, and
an index that shrinks while it is read. load_checkpoint and load_index
must either load the file or raise a CbirError, and when either refuses
it, `cbirnet query` over it must exit with the input-error code rather
than a traceback.
"""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
from cbirnet import cli, retrieval
from cbirnet.data import Sample, write_pgm
from cbirnet.errors import CbirError, FormatError
from cbirnet.network import (
    ConvSpec,
    FCSpec,
    LogSoftmaxSpec,
    MaxPoolSpec,
    Network,
    NetworkSpec,
    ReLUSpec,
    load_checkpoint,
    save_checkpoint,
)
from cbirnet.retrieval import build_index, load_index, save_index

SPEC = NetworkSpec(input_shape=(1, 8, 8), layers=(
    ConvSpec(2, 3, 3, padding=1), ReLUSpec(), MaxPoolSpec(2, 2),
    FCSpec(3, bias_init=1.0), ReLUSpec(), FCSpec(2), LogSoftmaxSpec(2)))
LOADERS = {cli.CHECKPOINT_NAME: load_checkpoint, cli.INDEX_NAME: load_index}
# Fixed examples, so the suite tests the same files on every run.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=5)
DELETE = object()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A query-ready output directory over a tiny network."""
    root = tmp_path_factory.mktemp("fuzz")
    net = Network.from_spec(SPEC)
    net.initialize(0, weight_std=0.5)
    rng = np.random.default_rng(0)
    samples = [Sample(rng.random((1, 8, 8)), i % 2, f"s{i}")
               for i in range(4)]
    save_checkpoint(root / cli.CHECKPOINT_NAME, net, metadata={
        "class_names": ["a", "b"], "image_size": 8})
    save_index(build_index(net, samples, [s.image for s in samples]),
               root / cli.INDEX_NAME)
    cli.write_run_config(cli.RunConfig(output_dir=str(root), image_size=8,
                                       k=3))
    write_pgm(root / "query.pgm",
              rng.integers(0, 256, (10, 10), dtype=np.uint8))
    return root


def query_exit_code(root):
    return cli.main(["query", "--out", str(root),
                     "--image", str(root / "query.pgm")])


def check_corrupted(root, name, corrupt):
    """corrupt(path) the named artifact; its reader and the CLI must cope."""
    path = root / name
    original = path.read_bytes()
    try:
        corrupt(path)
        try:
            LOADERS[name](path)
            loaded = True
        except CbirError:
            loaded = False
        code = query_exit_code(root)
    finally:
        path.write_bytes(original)
    assert code == cli.EXIT_INPUT or (loaded and code == cli.EXIT_OK)


def header_end(raw):
    (hlen,) = struct.unpack("<I", raw[12:16])
    return 16 + hlen


def tensor_heads(raw):
    """(rank byte position, head length) of each tensor in a checkpoint."""
    heads, pos = [], header_end(raw)
    while pos < len(raw):
        dims = struct.unpack_from(f"<{raw[pos]}I", raw, pos + 1)
        heads.append((pos, 1 + 4 * len(dims)))
        pos += 1 + 4 * len(dims) + 8 * math.prod(dims)
    return heads


def header_paths(node, prefix=()):
    """Path of every node of a JSON header, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from header_paths(child, prefix + (key,))


def replaced(node, path, value):
    """node with the value at path set to value, or removed for DELETE."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    if value is DELETE and len(path) == 1:
        del copy[path[0]]
    else:
        copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


def test_intact_files_query_cleanly(run_dir):
    assert query_exit_code(run_dir) == cli.EXIT_OK


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_truncation_rejected(run_dir, tmp_path, name):
    whole = (run_dir / name).read_bytes()
    path = tmp_path / name
    for size in range(len(whole)):
        path.write_bytes(whole[:size])
        with pytest.raises(CbirError):
            LOADERS[name](path)


@FUZZ
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_truncated_query_is_input_error(run_dir, name, data):
    whole = (run_dir / name).read_bytes()
    size = data.draw(st.integers(0, len(whole) - 1))
    check_corrupted(run_dir, name,
                    lambda path: path.write_bytes(whole[:size]))


@FUZZ
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data(),
       xor=st.integers(1, 255))
def test_flipped_byte(run_dir, name, data, xor):
    raw = bytearray((run_dir / name).read_bytes())
    positions = list(range(header_end(raw)))
    if name == cli.CHECKPOINT_NAME:
        positions += [pos + i for pos, n in tensor_heads(raw)
                      for i in range(n)]
    raw[data.draw(st.sampled_from(positions))] ^= xor
    check_corrupted(run_dir, name, lambda path: path.write_bytes(raw))


def test_flipped_rank_byte_is_format_error(run_dir, tmp_path):
    raw = (run_dir / cli.CHECKPOINT_NAME).read_bytes()
    path = tmp_path / cli.CHECKPOINT_NAME
    heads = tensor_heads(raw)
    assert len(heads) == 6
    for pos, _ in heads:
        for rank in {0, 1, 2, 4, 5, 255} - {raw[pos]}:
            path.write_bytes(raw[:pos] + bytes([rank]) + raw[pos + 1:])
            with pytest.raises(FormatError):
                load_checkpoint(path)


@FUZZ
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data(),
       value=st.just(DELETE) | JSON)
def test_mangled_header_field(run_dir, name, data, value):
    raw = (run_dir / name).read_bytes()
    header = json.loads(raw[16:header_end(raw)])
    path = data.draw(st.sampled_from(list(header_paths(header))))
    if value is DELETE and not path:
        value = None
    check_corrupted(run_dir, name, lambda p: conftest.rewrite_container_header(
        p, lambda h: replaced(h, path, value)))


def test_index_shrinking_while_read_is_input_error(run_dir, tmp_path,
                                                   monkeypatch, capsys):
    # The index loses its tail after load_index checked its size, so the
    # payload read comes up short. 3000 records put the payload's end
    # beyond what the reader buffers with the header.
    for name in (cli.CHECKPOINT_NAME, "query.pgm"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    net = load_checkpoint(run_dir / cli.CHECKPOINT_NAME)[0]
    rng = np.random.default_rng(1)
    samples = [Sample(rng.random((1, 8, 8)), i % 2, f"s{i}")
               for i in range(3000)]
    save_index(build_index(net, samples, [s.image for s in samples]),
               tmp_path / cli.INDEX_NAME)
    cli.write_run_config(cli.RunConfig(output_dir=str(tmp_path), image_size=8,
                                       k=3))
    assert query_exit_code(tmp_path) == cli.EXIT_OK
    path = tmp_path / cli.INDEX_NAME
    check = retrieval.check_payload_size

    def check_then_shrink(f, size, what):
        check(f, size, what)
        os.truncate(path, path.stat().st_size - 8)

    monkeypatch.setattr(retrieval, "check_payload_size", check_then_shrink)
    capsys.readouterr()
    assert query_exit_code(tmp_path) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "file ends inside feature payload" in err
    assert "Traceback" not in err
