import dataclasses
import re
import struct
import zlib

import numpy as np
import pytest

import helpers
import v1_checkpoints as v1
from midisynth import acoustic, formats, nsf
from midisynth.dsp import FeatureMatrix, WaveSignal
from midisynth.errors import CorruptCheckpoint, FileFormatError, MidiSynthError
from midisynth.midi_io import PianoRoll


def build_wav(path, payload, channels=1, rate=24000, bits=16, audio_format=1):
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels,
                                    rate, rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


# --- WAV ----------------------------------------------------------------------


def test_wav_round_trip(tmp_path, rng):
    wave = WaveSignal(rng.uniform(-0.9, 0.9, 1000), 24000)
    path = tmp_path / "x.wav"
    formats.write_wav(path, wave)
    back = formats.read_wav(path)
    assert back.sample_rate == 24000
    expected = formats.quantize_pcm16(wave.samples) / 32768.0
    assert np.array_equal(back.samples, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_wav_refuses_non_finite_samples(tmp_path, bad):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="non-finite"):
        formats.write_wav(path, WaveSignal(np.array([0.0, bad, 0.5]), 24000))
    assert not path.exists()


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    build_wav(path, b"\x00\x00" * 8, channels=2)
    with pytest.raises(FileFormatError):
        formats.read_wav(path)


def test_wav_rejects_non_pcm16(tmp_path):
    path = tmp_path / "f32.wav"
    build_wav(path, b"\x00" * 16, bits=32, audio_format=3)
    with pytest.raises(FileFormatError):
        formats.read_wav(path)
    path8 = tmp_path / "u8.wav"
    build_wav(path8, b"\x00" * 8, bits=8)
    with pytest.raises(FileFormatError):
        formats.read_wav(path8)


def test_wav_skips_extra_chunks(tmp_path):
    samples = struct.pack("<4h", 0, 1000, -1000, 32767)
    block = 2
    body = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size padded
    body += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 24000, 24000 * block,
                                  block, 16)
    body += b"data" + struct.pack("<I", len(samples)) + samples
    path = tmp_path / "extra.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    wave = formats.read_wav(path)
    assert len(wave) == 4
    assert wave.samples[3] == pytest.approx(32767 / 32768)


def test_wav_rejects_bad_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNKxxxxyyyy")
    with pytest.raises(FileFormatError):
        formats.read_wav(path)


def test_quantize_pcm16_bounds():
    out = formats.quantize_pcm16(np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]))
    assert out.dtype == np.int16
    assert out.tolist() == [-32768, -32768, 0, 16384, 32767, 32767]


# --- feature files ----------------------------------------------------------


def test_feature_file_round_trip_byte_exact(tmp_path, rng):
    feat = FeatureMatrix(rng.standard_normal((7, 80)).astype(np.float32),
                         "mel-fb", 0.012, 24000.0)
    p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
    formats.write_feature_file(p1, feat)
    back = formats.read_feature_file(p1)
    assert back.kind == "mel-fb"
    assert back.frame_shift == 0.012
    assert back.sample_rate == 24000.0
    assert np.array_equal(back.values, feat.values.astype(np.float32))
    formats.write_feature_file(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_feature_file_header_layout(tmp_path):
    feat = FeatureMatrix(np.zeros((3, 5)), "midi-fb", 0.01, 24000.0)
    path = tmp_path / "h.feat"
    formats.write_feature_file(path, feat)
    blob = path.read_bytes()
    assert blob[:4] == b"MFB1"
    version, n, d, kind = struct.unpack_from("<IIII", blob, 4)
    shift, rate = struct.unpack_from("<dd", blob, 20)
    assert (n, d) == (3, 5)
    assert kind == 1
    assert shift == 0.01 and rate == 24000.0
    assert len(blob) == 36 + 3 * 5 * 4


def test_feature_file_kind_codes(tmp_path):
    codes = {"mel-fb": 0, "midi-fb": 1, "linear-spec": 2, "piano-roll": 3}
    for kind, code in codes.items():
        feat = FeatureMatrix(np.zeros((2, 4)), kind, 0.012, 24000.0)
        path = tmp_path / f"{code}.feat"
        formats.write_feature_file(path, feat)
        assert struct.unpack_from("<I", path.read_bytes(), 16)[0] == code
        assert formats.read_feature_file(path).kind == kind


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(FileFormatError):
        formats.read_feature_file(path)


def test_feature_file_truncated(tmp_path):
    feat = FeatureMatrix(np.zeros((3, 5)), "mel-fb", 0.012, 24000.0)
    path = tmp_path / "t.feat"
    formats.write_feature_file(path, feat)
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(FileFormatError):
        formats.read_feature_file(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader", ["read_wav", "read_feature_file"])
def test_mutants_load_or_raise_package_errors(tmp_path, reader):
    path = tmp_path / "x.bin"
    if reader == "read_wav":
        formats.write_wav(path, WaveSignal(np.linspace(-0.5, 0.5, 16), 24000))
    else:
        feat = FeatureMatrix(np.linspace(-2.0, 2.0, 12).reshape(3, 4), "mel-fb",
                             0.012, 24000.0)
        formats.write_feature_file(path, feat)
    blob = path.read_bytes()
    for data in helpers.mutants(blob, 3000, seed=7):
        path.write_bytes(data)
        try:
            getattr(formats, reader)(path)
        except MidiSynthError:
            pass


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", ["nsf", "am"])
def test_checkpoint_mutants_load_or_raise_package_errors(tmp_path, model):
    # each mutant gets a fresh CRC, so the parser sees the damaged fields
    path = tmp_path / "x.ckpt"
    if model == "nsf":
        cfg = helpers.tiny_nsf_cfg()
        nsf.save_checkpoint(path, nsf.nsf_init(cfg, seed=1), cfg)
        load = nsf.load_checkpoint
    else:
        cfg = helpers.tiny_am_cfg(output_dim=2, encoder_channels=2, decoder_state_dim=2,
                                  prenet_widths=(2, 2), postnet_channels=2)
        acoustic.am_save_checkpoint(path, acoustic.am_init(cfg, seed=1), cfg)
        load = acoustic.am_load_checkpoint
    body = path.read_bytes()[:-4]
    for data in helpers.mutants(body, 1500, seed=11):
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        try:
            load(path)
        except MidiSynthError:
            pass


def test_roll_feature_round_trip(tmp_path, rng):
    values = rng.random((6, 128))
    roll = PianoRoll(values, 0.012)
    feat = formats.feature_from_roll(roll)
    assert feat.kind == "piano-roll"
    path = tmp_path / "roll.mfb"
    formats.write_feature_file(path, feat)
    back = formats.read_feature_file(path)
    assert back.kind == "piano-roll"
    assert np.array_equal(back.values, values.astype(np.float32))
    assert back.frame_shift == pytest.approx(0.012)


# --- checkpoint containers ----------------------------------------------------


def sample_tensors(rng):
    return {"b.weight": rng.standard_normal((3, 4)),
            "a.bias": rng.standard_normal(4),
            "c.weight": rng.standard_normal((2, 2, 3))}


CONFIG = {"b": 2, "a": [1, 2], "c": "taco2", "d": 0.5}


def test_container_round_trip_byte_exact(tmp_path, rng):
    tensors = sample_tensors(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    formats.write_container(p1, b"NSF1", CONFIG, tensors)
    config, back = formats.read_container(p1, b"NSF1", 3)
    assert config == CONFIG
    assert sorted(back) == sorted(tensors)
    for name, v in tensors.items():
        assert np.array_equal(back[name], v)
    formats.write_container(p2, b"NSF1", config, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_v3_header_layout(tmp_path, rng):
    path = tmp_path / "h.ckpt"
    tensors = sample_tensors(rng)
    formats.write_container(path, b"NSF1", CONFIG, tensors)
    blob = path.read_bytes()
    version, size = struct.unpack_from("<II", blob, 4)
    assert version == 3
    assert blob[12 : 12 + size] == b'{"a":[1,2],"b":2,"c":"taco2","d":0.5}'
    assert struct.unpack_from("<I", blob, 12 + size)[0] == 3
    # the first tensor in name order: u16 name length, name, u8 ndim, u32
    # per dimension, then float64 data
    head = struct.pack("<H", 6) + b"a.bias" + struct.pack("<BI", 1, 4)
    data = tensors["a.bias"].astype("<f8").tobytes()
    pos = 16 + size
    assert blob[pos : pos + len(head) + len(data)] == head + data


def test_container_write_is_atomic(tmp_path, rng, monkeypatch):
    path = tmp_path / "w.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    before = path.read_bytes()

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(formats, "open",
                        lambda p, mode: HalfWriter(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        formats.write_container(path, b"NSF1", {"a": 1}, sample_tensors(rng))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert formats.read_container(path, b"NSF1", 1)[0] == CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.ckpt"]


def test_container_names_stored_sorted(tmp_path, rng):
    path = tmp_path / "s.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    blob = path.read_bytes()
    assert blob.index(b"a.bias") < blob.index(b"b.weight") < blob.index(b"c.weight")


def test_container_wrong_magic(tmp_path, rng):
    path = tmp_path / "m.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    with pytest.raises(CorruptCheckpoint):
        formats.read_container(path, b"ACM1", 1)


@pytest.mark.parametrize("version", [0, 4])
def test_container_unknown_version_is_corrupt(tmp_path, rng, version):
    path = tmp_path / "v.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", body, 4, version)
    path.write_bytes(v1.with_crc(bytes(body)))
    with pytest.raises(CorruptCheckpoint, match=f"checkpoint version {version}"):
        formats.read_container(path, b"NSF1", 1)


def test_container_crc_detects_flip(tmp_path, rng):
    path = tmp_path / "c.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        formats.read_container(path, b"NSF1", 1)


def test_container_truncation_and_trailing_bytes(tmp_path, rng):
    path = tmp_path / "t.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CorruptCheckpoint):
        formats.read_container(path, b"NSF1", 1)
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(CorruptCheckpoint):
        formats.read_container(path, b"NSF1", 1)


# --- stored model configs ---------------------------------------------------

NSF_FIELDS = dataclasses.asdict(v1.NSF_V1_CFG)
AM_FIELDS = dataclasses.asdict(v1.am_v1_cfg("taco2"))


def nsf_v2(**changes):
    return v1.as_v2(v1.NSF_V1, 6, {**NSF_FIELDS, **changes})


def am_v2(**changes):
    return v1.as_v2(v1.AM_TACO2_V1, 9, {**AM_FIELDS, **changes})


BAD_CONFIGS = {
    "v1-nsf-feature-dim-0": (nsf, lambda: v1.patch_v1_field(v1.NSF_V1, 0, 0)),
    "v1-am-downsample-3": (acoustic, lambda: v1.patch_v1_field(v1.AM_TACO2_V1, 3, 3)),
    "v1-am-variant-0": (acoustic, lambda: v1.patch_v1_field(v1.AM_TACO2_V1, 0, 0)),
    "v2-malformed-json": (nsf, lambda: v1.as_v2(v1.NSF_V1, 6, b'{"feature_dim": 2,')),
    "v2-not-utf8": (nsf, lambda: v1.as_v2(v1.NSF_V1, 6, b"\xff\xfe")),
    "v2-not-an-object": (nsf, lambda: v1.as_v2(v1.NSF_V1, 6, [2, 4, 1, 1, 1, 2])),
    "v2-unknown-key": (nsf, lambda: nsf_v2(dilation=2)),
    "v2-missing-required-key": (nsf, lambda: v1.as_v2(
        v1.NSF_V1, 6, {k: v for k, v in NSF_FIELDS.items() if k != "feature_dim"})),
    "v2-missing-defaulted-key": (acoustic, lambda: v1.as_v2(
        v1.AM_TACO2_V1, 9, {k: v for k, v in AM_FIELDS.items() if k != "output_kind"})),
    "v2-nsf-channels-0": (nsf, lambda: nsf_v2(channels=0)),
    "v2-nsf-string-width": (nsf, lambda: nsf_v2(feature_dim="2")),
    "v2-am-dropout-1.5": (acoustic, lambda: am_v2(prenet_dropout=1.5)),
    "v2-am-output-kind": (acoustic, lambda: am_v2(output_kind="linear-spec")),
    "v2-am-widths-not-a-list": (acoustic, lambda: am_v2(prenet_widths=5)),
    "v2-am-string-dim": (acoustic, lambda: am_v2(output_dim="1")),
}


def load_any(model, path):
    if model is nsf:
        return nsf.load_checkpoint(path)
    return acoustic.am_load_checkpoint(path)


def test_stored_config_fixtures_load(tmp_path):
    path = tmp_path / "ok.ckpt"
    for model, blob, cfg in ((nsf, nsf_v2(), v1.NSF_V1_CFG),
                             (acoustic, am_v2(), v1.am_v1_cfg("taco2"))):
        path.write_bytes(blob)
        assert load_any(model, path)[1] == cfg


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_stored_config_is_corrupt(tmp_path, case):
    model, build = BAD_CONFIGS[case]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(build())
    with pytest.raises(CorruptCheckpoint):
        load_any(model, path)


@pytest.mark.parametrize("model, build", [
    (nsf, lambda: nsf_v2(channels=10 ** 9)),
    (acoustic, lambda: am_v2(decoder_state_dim=10 ** 9)),
], ids=["nsf-channels", "am-decoder-state"])
def test_stored_config_over_size_bound_is_corrupt(tmp_path, model, build):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(build())
    with pytest.raises(CorruptCheckpoint,
                       match=f"^{re.escape(str(path))}: invalid stored config "
                             f"\\(the model has \\d+ parameters"):
        load_any(model, path)
