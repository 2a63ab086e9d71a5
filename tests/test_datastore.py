"""Synthetic generation, binary round-trips, checksums, report writers."""

import hashlib
import os
import re
import stat
import struct

import numpy as np
import pytest
import yaml

from cssl.cli import cli_main

from cssl.datastore import (
    accuracy_csv,
    aggregate_metrics,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    metrics_json,
    save_checkpoint,
    save_dataset,
    stack_bytes,
    write_text,
)
from cssl.continual import LabeledDataset, TrainConfig
from cssl.errors import CorruptFile, CsslError
from cssl.evaluate import AccuracyMatrix, ProbeConfig, linear_probe
from cssl.model import EncoderStack, init_stack
from cssl.numerics import Rng, fnv1a64


class TestGenSynthetic:
    def test_sigma_zero_samples_equal_means(self):
        ds = gen_synthetic(4, 8, 10, 1.0, 0.0, seed=1)
        for c in range(4):
            block = ds.x[ds.y == c]
            assert np.max(np.abs(block - block[0])) == 0.0
            assert np.linalg.norm(block[0]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        a = gen_synthetic(5, 16, 20, 2.0, 0.5, seed=9)
        b = gen_synthetic(5, 16, 20, 2.0, 0.5, seed=9)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(a, str(pa))
        save_dataset(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_mean_separation_enforced(self):
        ds = gen_synthetic(10, 32, 1, 1.0, 0.0, seed=3)
        means = ds.x
        min_sep = 1.0 / np.sqrt(10)
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(means[i] - means[j]) >= min_sep

    def test_rejection_exhausted(self):
        # 40 means on a 2-sphere with separation r/sqrt(40) is impossible
        with pytest.raises(CsslError, match="could not place 500 means"):
            gen_synthetic(500, 2, 1, 1.0, 0.0, seed=1)

    def test_bad_parameter_named(self):
        with pytest.raises(CsslError, match="^input_dim must be >= 2$"):
            gen_synthetic(4, 1, 10, 1.0, 0.5, seed=1)

    def test_separability_oracle(self):
        ds = gen_synthetic(10, 32, 200, 1.0, 0.3, seed=42)
        _w, _b, acc = linear_probe(ds.x, ds.y, Rng(1).permutation(2000),
                                   ProbeConfig())
        assert acc >= 0.95


class TestDatasetFile:
    def test_round_trip_bitwise(self, tmp_path):
        ds = gen_synthetic(3, 6, 10, 1.0, 0.4, seed=2)
        path = tmp_path / "ds.bin"
        save_dataset(ds, str(path))
        loaded = load_dataset(str(path))
        np.testing.assert_array_equal(loaded.x, ds.x)
        np.testing.assert_array_equal(loaded.y, ds.y)
        path2 = tmp_path / "ds2.bin"
        save_dataset(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_format_pinned(self, tmp_path):
        # Exactly representable values, so the bytes need no platform libm.
        x = np.array([[1.0, -2.0], [0.5, 3.0], [0.25, -0.125]])
        ds = LabeledDataset(x, np.array([0, 2, 1]))
        path = tmp_path / "pin.bin"
        save_dataset(ds, str(path))
        raw = path.read_bytes()
        assert len(raw) == 96
        # Header M, D, C and the reserved word.
        assert struct.unpack("<4I", raw[12:28]) == (3, 2, 3, 0xFFFFFFFF)
        assert hashlib.sha256(raw).hexdigest() == (
            "2d198277c441be942cc1bf43094679cd88587f4398b7e0bd5ccba1798e9dc61c")
        path2 = tmp_path / "pin2.bin"
        save_dataset(load_dataset(str(path)), str(path2))
        assert path2.read_bytes() == raw

    def test_flipped_byte_fails_checksum(self, tmp_path):
        ds = gen_synthetic(3, 6, 10, 1.0, 0.4, seed=2)
        path = tmp_path / "ds.bin"
        save_dataset(ds, str(path))
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF  # inside the float payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="dataset checksum mismatch"):
            load_dataset(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(CorruptFile, match="not a dataset file"):
            load_dataset(str(path))

    def test_truncated(self, tmp_path):
        ds = gen_synthetic(3, 6, 10, 1.0, 0.4, seed=2)
        path = tmp_path / "ds.bin"
        save_dataset(ds, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CorruptFile, match="but the header implies"):
            load_dataset(str(path))

    def test_bytes_after_checksum_rejected(self, tmp_path):
        ds = gen_synthetic(3, 6, 10, 1.0, 0.4, seed=2)
        path = tmp_path / "ds.bin"
        save_dataset(ds, str(path))
        path.write_bytes(path.read_bytes() + b"\0" * 22)
        with pytest.raises(CorruptFile, match="but the header implies"):
            load_dataset(str(path))


def _dataset_bytes(tmp_path) -> bytes:
    path = tmp_path / "ds.bin"
    save_dataset(gen_synthetic(3, 6, 10, 1.0, 0.4, seed=2), str(path))
    return path.read_bytes()


def _checkpoint_bytes(tmp_path) -> bytes:
    path = tmp_path / "s.ckpt"
    save_checkpoint(init_stack(Rng(4), [4, 4], [4, 4], [4, 4]), str(path))
    return path.read_bytes()


@pytest.mark.parametrize("make, load", [(_dataset_bytes, load_dataset),
                                        (_checkpoint_bytes, load_checkpoint)])
def test_envelope_checks_magic_then_version_then_length(tmp_path, make, load):
    raw = make(tmp_path)
    path = tmp_path / "f.bin"
    short = "bytes early|but the header implies"
    magic = "not a (dataset|checkpoint) file"
    version = "version 2 unsupported"
    for data, message in ((raw[:5], short),
                          (b"X" + raw[1:10], magic),
                          (raw[:8] + b"\2" + raw[9:10], short),
                          (raw[:8] + b"\2" + raw[9:12], version),
                          (raw[:8] + b"\2" + raw[9:], version),
                          (raw[:19], short)):
        path.write_bytes(data)
        with pytest.raises(CorruptFile, match=message):
            load(str(path))


def _write_checkpoint(path, payload: bytes) -> None:
    """A checkpoint file around ``payload`` with a valid checksum."""
    path.write_bytes(b"CSSLCKP\0" + struct.pack("<I", 1) + payload
                     + struct.pack("<Q", fnv1a64(payload)))


def _zero_payload(*mlps) -> bytes:
    """A checkpoint payload of zero parameters; each MLP is given as its
    list of (out, in) layer shapes."""
    chunks = []
    for shapes in mlps:
        chunks.append(struct.pack("<I", len(shapes)))
        for out_dim, in_dim in shapes:
            chunks += [struct.pack("<II", out_dim, in_dim),
                       bytes(8 * out_dim * (in_dim + 1))]
    return b"".join(chunks)


DIM_KEYS = ("encoder_dims", "projector_dims", "predictor_dims")


@pytest.mark.parametrize("dims", [
    ([32], [8, 8], [8, 8]),  # too few widths
    ([32, 0, 8], [8, 8], [8, 8]),  # a zero width
    ([32, 32, 8], [4, 8], [8, 8]),  # the projector does not chain
    ([32, 32, 8], [8, 8], [8, 4]),  # the predictor is not square
])
def test_one_geometry_rule_set(tmp_path, capsys, dims):
    """TrainConfig, ``cssl train``, init_stack and a checkpoint file reject
    each geometry rule with the same text, which starts with the config key
    at fault."""
    with pytest.raises(CsslError) as err:
        TrainConfig(**dict(zip(DIM_KEYS, dims)))
    message = str(err.value)
    rule = message.split(", got")[0]
    assert rule.split()[0] in DIM_KEYS
    with pytest.raises(CsslError) as err:
        init_stack(Rng(1), *dims)
    assert str(err.value) == message

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"model": dict(zip(DIM_KEYS, dims))}))
    assert cli_main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "d.bin"), "--out-dir",
                     str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"config error: model.{message}\n"

    # A file holds no MLP of one width: [32] is written as zero layers.
    path = tmp_path / "s.ckpt"
    _write_checkpoint(path, _zero_payload(*(list(zip(d[1:], d))
                                            for d in dims)))
    with pytest.raises(CorruptFile) as err:
        load_checkpoint(str(path))
    assert str(err.value).startswith(f"{path}: {rule}")


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_files_get_the_mode_open_gives(tmp_path, umask):
    """Atomic writes leave the mode that ``open(path, "wb")`` would."""
    saved = os.umask(umask)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        save_dataset(gen_synthetic(3, 6, 10, 1.0, 0.4, seed=2),
                     str(tmp_path / "ds.bin"))
        write_text(str(tmp_path / "m.json"), "{}\n")
    finally:
        os.umask(saved)
    want = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert want == 0o666 & ~umask
    for name in ("ds.bin", "m.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == want


class TestCheckpointFile:
    def test_round_trip_bitwise(self, tmp_path):
        stack = init_stack(Rng(4), [8, 12, 6], [6, 10, 6], [6, 6])
        path = tmp_path / "s.ckpt"
        save_checkpoint(stack, str(path))
        loaded = load_checkpoint(str(path))
        assert stack_bytes(loaded) == stack_bytes(stack)
        path2 = tmp_path / "s2.ckpt"
        save_checkpoint(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_format_pinned(self, tmp_path):
        # Exactly representable values, so the bytes need no platform libm.
        # Per layer, the weight (row-major) and then the bias.
        stack = EncoderStack(((2, 3, 1), (1, 1), (1, 1)), np.array(
            [1, 2, 3, 4, 5, 6, 0.5, -0.5, 0, 1, 0, -1, 2,  # encoder
             3, -1,  # projector
             0.25, 0]))  # predictor
        path = tmp_path / "pin.ckpt"
        save_checkpoint(stack, str(path))
        raw = path.read_bytes()
        assert len(raw) == 200
        assert hashlib.sha256(raw).hexdigest() == (
            "cf909a038e919401b94717730b359f4c99b091b291614cd6648b1236cb5f6598")
        path2 = tmp_path / "pin2.ckpt"
        save_checkpoint(load_checkpoint(str(path)), str(path2))
        assert path2.read_bytes() == raw

    def test_corruption_detected(self, tmp_path):
        stack = init_stack(Rng(4), [4, 4], [4, 4], [4, 4])
        path = tmp_path / "s.ckpt"
        save_checkpoint(stack, str(path))
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="checkpoint checksum mismatch"):
            load_checkpoint(str(path))

    def test_payload_holds_three_mlps_exactly(self, tmp_path):
        # Each payload carries a valid checksum, so only parsing rejects it.
        payload = stack_bytes(init_stack(Rng(4), [4, 4], [4, 4], [4, 4]))
        path = tmp_path / "s.ckpt"
        for bad, message in ((payload + b"\0" * 8, "trailing bytes"),
                             (payload[:-8], "ended 8 bytes early")):
            _write_checkpoint(path, bad)
            with pytest.raises(CorruptFile, match=message):
                load_checkpoint(str(path))

    def test_layers_chain_and_values_are_finite(self, tmp_path):
        # Only a file can break the chain inside an MLP; both checks run
        # behind a valid checksum and name the file.
        path = tmp_path / "s.ckpt"
        _write_checkpoint(path, _zero_payload([(4, 4), (4, 3)], [(4, 4)],
                                              [(4, 4)]))
        with pytest.raises(CorruptFile, match=re.escape(
                f"{path}: encoder layer 1: in 3 != previous out 4")):
            load_checkpoint(str(path))
        stack = init_stack(Rng(4), [4, 4], [4, 4], [4, 4])
        stack.flat[5] = np.nan
        _write_checkpoint(path, stack_bytes(stack))
        with pytest.raises(CorruptFile, match=re.escape(
                f"{path}: parameters: contains NaN")):
            load_checkpoint(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WHATEVER" + b"\0" * 32)
        with pytest.raises(CorruptFile, match="not a checkpoint file"):
            load_checkpoint(str(path))


class TestReports:
    def test_accuracy_csv_layout(self):
        am = AccuracyMatrix(np.array([[0.5, 0.25], [0.75, 1.0]]),
                            ft=np.array([0.5, 0.5]))
        text = accuracy_csv(am)
        lines = text.strip().split("\n")
        assert lines[0] == "task,after_task_1,after_task_2,ft"
        assert lines[1] == "task_1,0.5,0.25,0.5"

    def test_reports_reproducible(self):
        am = AccuracyMatrix(np.array([[0.123456789012345, 0.2],
                                      [0.3, 0.4]]))
        assert accuracy_csv(am) == accuracy_csv(am)
        m = {"A_5": 0.123456789, "S": 0.01}
        assert metrics_json(m) == metrics_json(dict(reversed(list(m.items()))))

    def test_aggregate_mean_std(self):
        rows = [{"A_5": 0.8, "S": 0.1}, {"A_5": 0.6, "S": 0.3}]
        text = aggregate_metrics(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "metric,mean,std,n"
        a5 = lines[1].split(",")
        assert a5[0] == "A_5"
        assert float(a5[1]) == pytest.approx(0.7)
        assert float(a5[2]) == pytest.approx(np.std([0.8, 0.6], ddof=1))
