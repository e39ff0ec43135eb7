"""Weight-container round-trips must be bit-exact."""

import hashlib
import io
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padre.block import (
    Grid,
    Seq1d,
    WMode,
    block_from_records,
    block_to_records,
    build_conv_instance,
    iter_parameters,
    load_block,
    random_block,
    save_block,
)
from padre.rational import (
    iter_rational_parameters,
    load_rational,
    random_rational_block,
    rational_from_records,
    rational_to_records,
    save_rational,
)
from padre.tensor import (
    MAGIC,
    MANIFEST_TAG,
    RAW_TENSOR_TAG,
    SerializationError,
    mixer_from_record,
    read_records,
    write_records,
    raw_tensor_record,
    raw_tensor_from_record,
)

BLOCK_FIELD_INDEX = {name: i + 1 for i, name in enumerate(
    ["degree", "n_tokens", "n_channels", "w_mode", "normalize_y", "degree_mask", "has_bias",
     "has_resize", "grid", "grid_h", "grid_w"])}
RATIONAL_FIELD_INDEX = {name: i + 1 for i, name in enumerate(
    ["num_degree", "den_degree", "n_tokens", "n_channels", "epsilon", "square_denominator"])}


def container_bytes(records) -> bytes:
    buf = io.BytesIO()
    write_records(buf, records)
    return buf.getvalue()


def with_manifest_value(records, index, value):
    kind, side, dim, man = records[0]
    man = man.copy()
    man[index] = value
    return [(kind, side, dim, man)] + records[1:]


def pinned_records():
    """A seeded set of containers covering every manifest field value."""
    out = []
    for w_mode in WMode:
        for d in (1, 2, 3, 4):
            for bias in (False, True):
                block = random_block(9, 4, d, seed=10 * d + int(w_mode), w_mode=w_mode,
                                     with_bias=bias, normalize_y=(d + bias) % 2 == 1,
                                     degree_mask=frozenset({1, d}) if d > 2 else None)
                if d == 2:
                    rng = np.random.default_rng(d)
                    block.resize_left = rng.uniform(-1, 1, (3, 9))
                    block.resize_right = rng.uniform(-1, 1, (4, 5))
                out.append(block_to_records(block))
            if d > 1:
                out.append(block_to_records(build_conv_instance(
                    16, 3, d, Grid(4, 4), seed=d, w_mode=w_mode)))
                out.append(block_to_records(build_conv_instance(
                    12, 3, d, Seq1d(), seed=d, w_mode=w_mode)))
    for e in range(4):
        for square in (False, True):
            out.append(rational_to_records(random_rational_block(
                6, 3, 2, e, seed=e, square_denominator=square)))
    return out


def assert_params_identical(a_params, b_params):
    assert len(a_params) == len(b_params)
    for (la, a), (lb, b) in zip(a_params, b_params):
        assert la == lb
        assert a.shape == b.shape
        assert np.array_equal(a, b), la


class TestBlockContainer:
    @pytest.mark.parametrize("builder", [
        lambda: build_conv_instance(16, 4, 3, Grid(4, 4), seed=0),
        lambda: build_conv_instance(12, 3, 2, Seq1d(), seed=1),
        lambda: random_block(9, 4, 4, seed=2, with_bias=True, normalize_y=True),
    ])
    def test_round_trip_bit_exact(self, builder, tmp_path):
        block = builder()
        path = str(tmp_path / "w.bin")
        save_block(block, path)
        loaded = load_block(path)
        assert loaded.degree == block.degree
        assert loaded.degree_mask == block.degree_mask
        assert loaded.w_mode == block.w_mode
        assert loaded.normalize_y == block.normalize_y
        assert type(loaded.layout) is type(block.layout)
        assert_params_identical(iter_parameters(block), iter_parameters(loaded))
        kinds = lambda b: [(m.kind, m.side, m.padding) for m in
                           b.token_mixers + b.channel_mixers
                           + b.inter_token + b.inter_channel]
        assert kinds(loaded) == kinds(block)

    def test_round_trip_with_resize(self, rng, tmp_path):
        block = random_block(6, 4, 2, seed=3)
        block.resize_left = rng.uniform(-1, 1, (3, 6))
        block.resize_right = rng.uniform(-1, 1, (4, 2))
        path = str(tmp_path / "w.bin")
        save_block(block, path)
        loaded = load_block(path)
        assert np.array_equal(loaded.resize_left, block.resize_left)
        assert np.array_equal(loaded.resize_right, block.resize_right)


class TestRationalContainer:
    @pytest.mark.parametrize("e", [0, 2])
    def test_round_trip_bit_exact(self, e, tmp_path):
        block = random_rational_block(6, 3, 2, e, seed=4, square_denominator=bool(e))
        path = str(tmp_path / "r.bin")
        save_rational(block, path)
        loaded = load_rational(path)
        assert loaded.num_degree == 2 and loaded.den_degree == e
        assert loaded.epsilon == block.epsilon
        assert loaded.square_denominator == block.square_denominator
        assert_params_identical(iter_rational_parameters(block),
                                iter_rational_parameters(loaded))


class TestContainerFormat:
    def test_magic_bytes(self, tmp_path):
        path = str(tmp_path / "m.bin")
        write_records(path, [raw_tensor_record(np.eye(2))])
        with open(path, "rb") as f:
            assert f.read(8) == MAGIC

    def test_bad_magic_rejected(self):
        buf = io.BytesIO(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(SerializationError):
            read_records(buf)

    def test_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "t.bin")
        write_records(path, [raw_tensor_record(np.eye(3))])
        with open(path, "rb") as f:
            blob = f.read()
        with pytest.raises(SerializationError):
            read_records(io.BytesIO(blob[:-4]))

    def test_raw_tensor_values_bit_exact(self, rng):
        a = rng.uniform(-1, 1, (5, 7)) * 1e-300   # subnormal-adjacent values too
        rec = raw_tensor_record(a)
        buf = io.BytesIO()
        write_records(buf, [rec])
        buf.seek(0)
        back = raw_tensor_from_record(read_records(buf)[0])
        assert np.array_equal(back, a)
        assert back.dtype == np.float64

    @pytest.mark.parametrize("load", [load_block, load_rational])
    def test_huge_declared_payload_in_a_file_rejected(self, load, tmp_path):
        # one record declaring 2**32 - 1 values, followed by two: read from a
        # file, the payload must not be allocated at its declared size
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<I", 1)
                         + struct.pack("<BBII", MANIFEST_TAG, 0, 0, 0xFFFFFFFF) + bytes(16))
        with pytest.raises(SerializationError):
            load(str(path))

    def test_truncated_record_count_rejected(self):
        with pytest.raises(SerializationError):
            read_records(io.BytesIO(MAGIC + b"\x01\x00"))

    def test_unknown_mixer_kind_tag_rejected(self):
        with pytest.raises(SerializationError):
            mixer_from_record((99, 0, 2, np.zeros(0)))

    def test_block_loader_rejects_rational_container(self, tmp_path):
        path = str(tmp_path / "r.bin")
        save_rational(random_rational_block(6, 3, 2, 1, seed=0), path)
        with pytest.raises(SerializationError):
            load_block(path)

    def test_rational_loader_rejects_block_container(self, tmp_path):
        path = str(tmp_path / "b.bin")
        save_block(random_block(4, 3, 2, seed=0), path)
        with pytest.raises(SerializationError):
            load_rational(path)

    @pytest.mark.parametrize("drop", [1, 3])
    def test_block_with_missing_records_rejected(self, drop):
        records = block_to_records(random_block(4, 3, 2, seed=0))
        with pytest.raises(SerializationError):
            block_from_records(records[:-drop])

    def test_rational_with_missing_record_rejected(self):
        records = rational_to_records(random_rational_block(4, 3, 2, 1, seed=0))
        with pytest.raises(SerializationError):
            rational_from_records(records[:-1])

    @pytest.mark.parametrize("field, value", [
        ("degree", 2.0 ** 40), ("degree", 0.0), ("degree", -1.0), ("degree", 2.5),
        ("degree", np.nan), ("degree", np.inf),
        ("n_tokens", np.inf), ("n_tokens", np.nan), ("n_tokens", 0.0), ("n_tokens", 5.0),
        ("n_channels", np.inf), ("n_channels", np.nan), ("n_channels", 0.0),
        ("n_channels", 1e6),
        ("w_mode", 7.0), ("normalize_y", 2.0), ("has_bias", -0.0),
        ("degree_mask", 0.0), ("degree_mask", 4.0),
        ("grid", 2.0), ("grid", 1.0), ("grid_h", 2.0),
    ])
    def test_block_with_corrupt_degree_rejected(self, field, value):
        # a degree of 2**40 used to spin in the degree-mask decode instead of failing;
        # the block is a 4-token sequence, so grid 1 (extents 0x0) and extent 2 without
        # the grid flag are both corrupt
        records = block_to_records(random_block(4, 3, 2, seed=0))
        with pytest.raises(SerializationError):
            block_from_records(with_manifest_value(records, BLOCK_FIELD_INDEX[field], value))

    @pytest.mark.parametrize("field, value", [
        ("n_tokens", np.nan), ("n_tokens", np.inf), ("n_tokens", 0.0),
        ("n_channels", 1e6), ("epsilon", np.nan), ("epsilon", -1.0),
        ("square_denominator", 2.0),
    ])
    def test_rational_with_corrupt_manifest_rejected(self, field, value):
        records = rational_to_records(random_rational_block(4, 3, 2, 1, seed=0))
        with pytest.raises(SerializationError):
            rational_from_records(with_manifest_value(records, RATIONAL_FIELD_INDEX[field], value))

    @pytest.mark.parametrize("index, record", [
        pytest.param(1, (1, 0, 4, [1.0, 2.0]), id="diagonal-2-of-4-values"),
        pytest.param(1, (5, 0, 4, [0.0]), id="identity-with-payload"),
        pytest.param(1, (3, 0, 4, [0.0, 2.0, 1.0, 1.0, 9.0]), id="conv1d-trailing-value"),
        pytest.param(1, (3, 0, 4, [5.0, 2.0, 1.0, 1.0]), id="conv1d-pad-tag-5"),
        pytest.param(1, (2, 0, 4, [np.nan] + [1.0] * 8), id="low-rank-rank-nan"),
        pytest.param(1, (3, 0, 4, [0.0, np.nan, 1.0]), id="conv1d-kernel-size-nan"),
        pytest.param(1, (4, 0, 4, [0.0, 0.0, 2.0, 2.0, 2.0]), id="conv2d-kernel-0x2"),
        pytest.param(1, (4, 0, 4, [0.0, 2.0, 0.0, 2.0, 2.0]), id="conv2d-kernel-2x0"),
        pytest.param(-1, (RAW_TENSOR_TAG, 0, 12, [2.0, 1.0]), id="weights-1-of-24-values"),
        pytest.param(-1, (RAW_TENSOR_TAG, 1, 12, None), id="weights-side-1"),
        pytest.param(-1, (MANIFEST_TAG, 0, 12, None), id="weights-tagged-manifest"),
        pytest.param(0, (MANIFEST_TAG, 1, 0, None), id="manifest-side-1"),
        pytest.param(0, (MANIFEST_TAG, 0, 1, None), id="manifest-dim-1"),
    ])
    def test_malformed_record_rejected(self, index, record):
        # a 4-token, 3-channel degree-2 block: record 1 is the first token mixer,
        # the last one the 12 x 2 combine weights; a None payload keeps the saved one
        records = block_to_records(random_block(4, 3, 2, seed=0))
        kind, side, dim, params = record
        params = records[index][3] if params is None else np.array(params)
        records[index] = (kind, side, dim, params)
        with pytest.raises(SerializationError):
            block_from_records(records)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["weights", "bias", "resize_left", "resize_right"])
    def test_block_with_non_finite_tensor_rejected(self, field, value, tmp_path):
        block = random_block(4, 3, 2, seed=0, with_bias=True)
        block.resize_left, block.resize_right = np.eye(2, 4), np.eye(3, 2)
        getattr(block, field).flat[0] = value
        path = str(tmp_path / "b.bin")
        save_block(block, path)
        with pytest.raises(SerializationError):
            load_block(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("field", ["w_num", "bias_num", "w_den", "bias_den"])
    def test_rational_with_non_finite_tensor_rejected(self, field, value, tmp_path):
        block = random_rational_block(4, 3, 2, 1, seed=0)
        getattr(block, field).flat[0] = value
        path = str(tmp_path / "r.bin")
        save_rational(block, path)
        with pytest.raises(SerializationError):
            load_rational(path)

    def test_trailing_bytes_rejected(self):
        blob = container_bytes(block_to_records(random_block(4, 3, 2, seed=0)))
        with pytest.raises(SerializationError):
            read_records(io.BytesIO(blob + b"\x00"))

    def test_truncated_manifest_rejected(self):
        records = block_to_records(random_block(4, 3, 2, seed=0))
        kind, side, dim, man = records[0]
        with pytest.raises(SerializationError):
            block_from_records([(kind, side, dim, man[:-1])] + records[1:])


#: sha256 of every ``pinned_records`` container written back to back, as the
#: format wrote them before the codec moved into ``padre.tensor``
PINNED_SHA256 = "48bb8c3aa88b614fdeefccdfe9711368563bc635b5c699afdcefccbc09a8cdf0"


class TestPinnedBytes:
    def test_bytes_unchanged(self):
        digest = hashlib.sha256(b"".join(map(container_bytes, pinned_records())))
        assert digest.hexdigest() == PINNED_SHA256

    def test_pinned_containers_load_and_save_back(self):
        for records in pinned_records():
            blob = container_bytes(records)
            loaded = read_records(io.BytesIO(blob))
            if loaded[0][3][0] == 1.0:
                again = block_to_records(block_from_records(loaded))
            else:
                again = rational_to_records(rational_from_records(loaded))
            assert container_bytes(again) == blob


FUZZ_CONTAINERS = [
    (block_from_records, block_to_records,
     container_bytes(block_to_records(random_block(4, 3, 3, seed=5, with_bias=True)))),
    (block_from_records, block_to_records,
     container_bytes(block_to_records(build_conv_instance(16, 3, 2, Grid(4, 4), seed=0)))),
    (rational_from_records, rational_to_records,
     container_bytes(rational_to_records(random_rational_block(4, 3, 2, 1, seed=0)))),
]


class TestContainerFuzz:
    @settings(max_examples=1500, deadline=timedelta(milliseconds=500), derandomize=True,
              database=None)
    @given(data=st.data())
    def test_bit_flip_or_truncation_round_trips_or_raises(self, data):
        decode, encode, blob = data.draw(st.sampled_from(FUZZ_CONTAINERS))
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            corrupt = bytearray(blob)
            corrupt[bit // 8] ^= 1 << bit % 8
        else:
            corrupt = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        try:
            loaded = decode(read_records(io.BytesIO(bytes(corrupt))))
        except SerializationError:
            return
        assert container_bytes(encode(loaded)) == bytes(corrupt)

    @settings(max_examples=1500, deadline=timedelta(milliseconds=500), derandomize=True,
              database=None)
    @given(data=st.data())
    def test_mutated_bytes_load_as_a_block_or_raise(self, data):
        """Bytes overwritten, inserted or deleted anywhere in a saved block: the
        container loads as a block that saves back to the same bytes, or fails
        with ``SerializationError``; no other exception escapes."""
        _, _, blob = data.draw(st.sampled_from(FUZZ_CONTAINERS[:2]))
        corrupt = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4), label="edits")):
            at = data.draw(st.integers(0, len(corrupt)), label="at")
            new = data.draw(st.binary(min_size=0, max_size=12), label="bytes")
            cut = data.draw(st.integers(0, 12), label="cut")
            corrupt[at:at + cut] = new
        try:
            loaded = block_from_records(read_records(io.BytesIO(bytes(corrupt))))
        except SerializationError:
            return
        assert container_bytes(block_to_records(loaded)) == bytes(corrupt)
