import dataclasses
import os
import re
import stat
import struct
import threading
import zlib

import numpy as np
import pytest

import helpers
from midisynth import acoustic, cli, formats, nsf
from midisynth.dsp import FeatureMatrix, WaveSignal
from midisynth.errors import FileFormatError, MidiSynthError, TooLarge
from midisynth.midi_io import PianoRoll
from midisynth.params import MAX_TENSORS, adam_update


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


def test_write_wav_refuses_a_rate_its_header_cannot_hold(tmp_path):
    path = tmp_path / "x.wav"
    for rate in (2 ** 31, 2.2e9, 0.4):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            formats.write_wav(path, WaveSignal(np.zeros(3), rate))
        assert not path.exists()
    assert formats.MAX_WAV_RATE == 2 ** 31 - 1
    formats.write_wav(path, WaveSignal(np.zeros(3), 2 ** 31 - 1))  # byte rate 2^32 - 2
    assert formats.read_wav(path).sample_rate == 2 ** 31 - 1


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
MAX_TABLE = 3 * MAX_TENSORS + 1  # the bound params.load_model passes


def test_container_round_trip_byte_exact(tmp_path, rng):
    tensors = sample_tensors(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    formats.write_container(p1, b"NSF1", CONFIG, tensors)
    config, back = formats.read_container(p1, b"NSF1", MAX_TABLE)
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


def test_container_refuses_a_name_stored_twice(tmp_path, rng):
    path = tmp_path / "twice.ckpt"
    tensors = sample_tensors(rng)
    formats.write_container(path, b"NSF1", CONFIG, tensors)
    blob = path.read_bytes()
    for bad, match in (
            (helpers.with_tensor_entry(blob, "b.weight", tensors["b.weight"]),
             "tensor 'b.weight' stored twice"),
            (helpers.with_config_block(blob, b'{"a": [1, 2], "b": 2, "b": 2}'),
             "duplicate key 'b'")):
        path.write_bytes(bad)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: .*{match}"):
            formats.read_container(path, b"NSF1", MAX_TABLE)
    # the entry builder writes what write_container writes
    path.write_bytes(helpers.with_tensor_entry(blob, "0.extra", np.ones((2, 1))))
    back = formats.read_container(path, b"NSF1", MAX_TABLE)[1]
    assert np.array_equal(back.pop("0.extra"), np.ones((2, 1)))
    assert back.keys() == tensors.keys()


class HalfWriter:
    """A file opened for formats whose write stores half its bytes, then
    fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


def test_container_write_is_atomic(tmp_path, rng, monkeypatch):
    path = tmp_path / "w.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    before = path.read_bytes()
    monkeypatch.setattr(formats, "open",
                        lambda p, mode: HalfWriter(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        formats.write_container(path, b"NSF1", {"a": 1}, sample_tensors(rng))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert formats.read_container(path, b"NSF1", MAX_TABLE)[0] == CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.ckpt"]


# One call of each writer of a file the package leaves behind
WRITERS = {
    "checkpoint": lambda path: nsf.save_checkpoint(
        path, nsf.nsf_init(helpers.tiny_nsf_cfg(), seed=1), helpers.tiny_nsf_cfg()),
    "wav": lambda path: formats.write_wav(path, WaveSignal(np.full(50, 0.25), 24000)),
    "mfb": lambda path: formats.write_feature_file(
        path, FeatureMatrix(np.ones((3, 4)), "mel-fb", 0.012, 24000.0)),
    "loss.csv": lambda path: cli._write_csv(path, ("step", "loss"), [(1, "0.500000")]),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "out"
    path.write_bytes(b"earlier bytes")
    monkeypatch.setattr(formats, "open",
                        lambda p, mode: HalfWriter(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[kind](path)
    monkeypatch.undo()
    assert path.read_bytes() == b"earlier bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_write_leaves_files_named_like_its_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out"
    taken = [tmp_path / "out.tmp", tmp_path / "out.00000000.tmp"]
    for other in taken:
        other.write_bytes(b"a user's file")
    draws = iter([bytes(4), bytes(4), bytes([0, 0, 0, 1])])  # two taken names first
    monkeypatch.setattr(formats.os, "urandom", lambda n: next(draws))
    formats.write_file(path, b"new bytes")
    monkeypatch.undo()
    assert path.read_bytes() == b"new bytes"
    assert [other.read_bytes() for other in taken] == [b"a user's file"] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.00000000.tmp",
                                                          "out.tmp"]


def drain(path):
    """A started thread that reads the FIFO at path to its end, and the
    list its bytes go to."""
    got = []

    def read():
        with open(path, "rb") as fh:
            got.append(fh.read())

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread, got


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writers_write_into_a_fifo_in_place(tmp_path, kind):
    WRITERS[kind](tmp_path / "file")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    thread, got = drain(fifo)
    WRITERS[kind](fifo)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [(tmp_path / "file").read_bytes()]


def test_gl_writes_into_a_fifo_in_place(tmp_path):
    mfb = tmp_path / "in.mfb"
    formats.write_feature_file(mfb, FeatureMatrix(np.ones((4, 128)), "midi-fb",
                                                  0.012, 24000.0))
    assert cli.main(["gl", str(mfb), str(tmp_path / "out.wav"), "--iters", "2"]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    thread, got = drain(fifo)
    assert cli.main(["gl", str(mfb), str(fifo), "--iters", "2"]) == 0
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [(tmp_path / "out.wav").read_bytes()]


def test_container_refuses_a_table_over_max_tensors(tmp_path, rng):
    path = tmp_path / "n.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    assert len(formats.read_container(path, b"NSF1", 3)[1]) == 3
    with pytest.raises(TooLarge, match=f"^{re.escape(str(path))}: 3 tensors, the limit is 2$"):
        formats.read_container(path, b"NSF1", 2)


def test_container_names_stored_sorted(tmp_path, rng):
    path = tmp_path / "s.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    blob = path.read_bytes()
    assert blob.index(b"a.bias") < blob.index(b"b.weight") < blob.index(b"c.weight")


def test_container_wrong_magic(tmp_path, rng):
    path = tmp_path / "m.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    with pytest.raises(FileFormatError, match="bad magic"):
        formats.read_container(path, b"ACM1", MAX_TABLE)


@pytest.mark.parametrize("version", [0, 1, 2, 4])
def test_container_unknown_version_is_corrupt(tmp_path, rng, version):
    path = tmp_path / "v.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", body, 4, version)
    path.write_bytes(helpers.with_crc(bytes(body)))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: unsupported "
                                              f"checkpoint version {version}$"):
        formats.read_container(path, b"NSF1", MAX_TABLE)


def test_container_crc_detects_flip(tmp_path, rng):
    path = tmp_path / "c.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="CRC mismatch"):
        formats.read_container(path, b"NSF1", MAX_TABLE)


def test_container_truncation_and_trailing_bytes(tmp_path, rng):
    path = tmp_path / "t.ckpt"
    formats.write_container(path, b"NSF1", CONFIG, sample_tensors(rng))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(FileFormatError, match="CRC mismatch"):
        formats.read_container(path, b"NSF1", MAX_TABLE)
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(FileFormatError, match="CRC mismatch"):
        formats.read_container(path, b"NSF1", MAX_TABLE)


# --- stored model configs ---------------------------------------------------

# The tiny models whose stored config the cases below rewrite
MODELS = {nsf: (helpers.tiny_nsf_cfg(), nsf.nsf_init, nsf.save_checkpoint),
          acoustic: (helpers.tiny_am_cfg("taco2"), acoustic.am_init,
                     acoustic.am_save_checkpoint)}
NSF_FIELDS = dataclasses.asdict(MODELS[nsf][0])
AM_FIELDS = dataclasses.asdict(MODELS[acoustic][0])


def with_stored_config(tmp_path, model, config):
    """The bytes of a CRC-valid checkpoint of model's tiny config whose
    config block holds config: a JSON value, or raw bytes for the block."""
    cfg, init, save = MODELS[model]
    path = tmp_path / "fixture.ckpt"
    save(path, init(cfg, seed=3), cfg)
    return helpers.with_config_block(path.read_bytes(), config)


# The cases keep the "v2-" of the JSON config block that version 2
# introduced; every blob is version 3.
BAD_CONFIGS = {
    "v2-malformed-json": (nsf, b'{"feature_dim": 2,'),
    "v2-not-utf8": (nsf, b"\xff\xfe"),
    "v2-not-an-object": (nsf, [2, 4, 1, 1, 1, 2]),
    "v2-unknown-key": (nsf, {**NSF_FIELDS, "dilation": 2}),
    "v2-missing-required-key": (nsf, {k: v for k, v in NSF_FIELDS.items()
                                      if k != "feature_dim"}),
    "v2-missing-defaulted-key": (acoustic, {k: v for k, v in AM_FIELDS.items()
                                            if k != "output_kind"}),
    "v2-nsf-channels-0": (nsf, {**NSF_FIELDS, "channels": 0}),
    "v2-nsf-string-width": (nsf, {**NSF_FIELDS, "feature_dim": "2"}),
    "v2-am-dropout-1.5": (acoustic, {**AM_FIELDS, "prenet_dropout": 1.5}),
    "v2-am-output-kind": (acoustic, {**AM_FIELDS, "output_kind": "linear-spec"}),
    "v2-am-widths-not-a-list": (acoustic, {**AM_FIELDS, "prenet_widths": 5}),
    "v2-am-string-dim": (acoustic, {**AM_FIELDS, "output_dim": "1"}),
}


def load_any(model, path):
    if model is nsf:
        return nsf.load_checkpoint(path)
    return acoustic.am_load_checkpoint(path)


def test_stored_config_fixtures_load(tmp_path):
    path = tmp_path / "ok.ckpt"
    for model, fields in ((nsf, NSF_FIELDS), (acoustic, AM_FIELDS)):
        path.write_bytes(with_stored_config(tmp_path, model, fields))
        assert load_any(model, path)[1] == MODELS[model][0]


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_stored_config_is_corrupt(tmp_path, case):
    model, config = BAD_CONFIGS[case]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(with_stored_config(tmp_path, model, config))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
        load_any(model, path)


@pytest.mark.parametrize("model, config", [
    (nsf, {**NSF_FIELDS, "channels": 10 ** 9}),
    (acoustic, {**AM_FIELDS, "decoder_state_dim": 10 ** 9}),
], ids=["nsf-channels", "am-decoder-state"])
def test_stored_config_over_size_bound_is_corrupt(tmp_path, model, config):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(with_stored_config(tmp_path, model, config))
    with pytest.raises(FileFormatError,
                       match=f"^{re.escape(str(path))}: invalid stored config "
                             f"\\(the model has \\d+ parameters"):
        load_any(model, path)


# --- stored tensor tables ---------------------------------------------------

# Each fault edits the tensor table of a model after one Adam step, whose
# first tensor by name is `first`; the file stays CRC-valid.
TABLE_FAULTS = {
    "missing-tensor": lambda t, first: t.pop(first),
    "unexpected-name": lambda t, first: t.update({"extra.weight": np.zeros(2)}),
    "wrong-shape": lambda t, first: t.update({first: np.zeros(t[first].shape + (1,))}),
    "adam-m-unknown": lambda t, first: t.update({"adam.m.extra.weight": np.zeros(2)}),
    "adam-v-unknown": lambda t, first: t.update({"adam.v.extra.weight": np.zeros(2)}),
    "adam-m-shape": lambda t, first: t.update({f"adam.m.{first}": np.zeros(3)}),
    "adam-v-shape": lambda t, first: t.update({f"adam.v.{first}": np.zeros(3)}),
    "adam-m-missing": lambda t, first: t.pop(f"adam.m.{first}"),
    "adam-v-missing": lambda t, first: t.pop(f"adam.v.{first}"),
    "adam-v-all-missing": lambda t, first: [t.pop(n) for n in list(t)
                                            if n.startswith("adam.v.")],
    "step-missing": lambda t, first: t.pop("adam.step"),
}


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
@pytest.mark.parametrize("model", [nsf, acoustic], ids=["nsf", "am"])
def test_tensor_table_that_does_not_fit_the_config_is_corrupt(tmp_path, model, fault):
    if model is nsf:
        cfg, magic = helpers.tiny_nsf_cfg(), nsf.NSF_MAGIC
        params, save = nsf.nsf_init(cfg, seed=1), nsf.save_checkpoint
    else:
        cfg, magic = helpers.tiny_am_cfg(), acoustic.AM_MAGIC
        params, save = acoustic.am_init(cfg, seed=1), acoustic.am_save_checkpoint
    adam_update(params, {k: np.ones_like(v) for k, v in params.tensors.items()}, lr=1e-2,
                beta1=0.9, beta2=0.999)
    path = tmp_path / "model.ckpt"
    save(path, params, cfg)
    config, tensors = formats.read_container(path, magic, MAX_TABLE)
    formats.write_container(path, magic, config, tensors)
    assert load_any(model, path)[0].step == 1  # the table as written loads
    TABLE_FAULTS[fault](tensors, min(params.tensors))
    formats.write_container(path, magic, config, tensors)
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
        load_any(model, path)
