"""Weight-container round-trips must be bit-exact."""

import io

import numpy as np
import pytest

from padre.block import (
    Grid,
    Seq1d,
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
    save_rational,
)
from padre.tensor import (
    MAGIC,
    SerializationError,
    mixer_from_record,
    read_records,
    write_records,
    raw_tensor_record,
    raw_tensor_from_record,
)


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
