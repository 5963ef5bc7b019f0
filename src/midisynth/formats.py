"""Binary file formats: PCM16 WAV, feature matrices, model checkpoints.

All multi-byte fields are little-endian.  The feature file and the
checkpoint container are layouts described field by field in the
writer docstrings; readers validate magic numbers, declared sizes, and
(for checkpoints) a trailing CRC32 before trusting any payload.  Only
the checkpoint version written, 3, is read.  Every file the package
writes goes through write_file: a temp file beside the target, then a
rename, except onto a device or a pipe.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .dsp import FeatureMatrix, WaveSignal
from .errors import FileFormatError, TooLarge

FEATURE_MAGIC = b"MFB1"
FEATURE_VERSION = 1
# The highest sample rate a WAV header holds: its u32 byte rate is 2 x rate
MAX_WAV_RATE = 0xFFFFFFFF // 2


def write_file(path, data: bytes) -> None:
    """Write data to a new temp file beside path, <path>.<8 hex digits>.tmp,
    then rename it over path, so a failed write leaves an earlier file at
    path intact and no temp file.  A path that is not a regular file, a
    FIFO or a device, say, is written in place: the rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    while True:
        tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
        try:
            fh = open(tmp, "xb")
            break
        except FileExistsError:
            pass
        except OSError as exc:  # name the output, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# --- WAV ------------------------------------------------------------------


def read_wav(path) -> WaveSignal:
    """Read a PCM16 mono RIFF/WAVE file; anything else is rejected."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FileFormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FileFormatError(f"{path}: chunk {tag!r} overruns end of file")
        if tag == b"fmt ":
            if size < 16:
                raise FileFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif tag == b"data" and payload is None:
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise FileFormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _align, bits = fmt
    if audio_format != 1:
        raise FileFormatError(f"{path}: audio format {audio_format}, only PCM handled")
    if channels != 1:
        raise FileFormatError(f"{path}: {channels} channels, only mono handled")
    if bits != 16:
        raise FileFormatError(f"{path}: {bits}-bit samples, only 16-bit handled")
    if rate == 0:
        raise FileFormatError(f"{path}: sample rate is 0")
    ints = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2")
    return WaveSignal(ints.astype(np.float64) / 32768.0, float(rate))


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Round float samples to int16 with saturation at full scale."""
    scaled = np.rint(np.clip(samples, -1.0, 1.0) * 32768.0)
    return np.clip(scaled, -32768, 32767).astype("<i2")


def check_wav_rate(rate, name) -> None:
    """Refuse, naming name, a sample rate outside 1 to MAX_WAV_RATE Hz."""
    if not 1 <= rate <= MAX_WAV_RATE:
        try:
            shown = f"of {rate:.10g} Hz"
        except OverflowError:  # an int past the float range
            shown = f"above the {MAX_WAV_RATE} Hz limit" if rate > 0 else "below 1 Hz"
        raise ValueError(f"{name}: a WAV header cannot hold a sample rate {shown}")


def write_wav(path, wave: WaveSignal) -> None:
    """Write a PCM16 mono RIFF/WAVE file; non-finite samples are refused,
    and so is a rate that check_wav_rate refuses."""
    if not np.isfinite(wave.samples).all():
        raise ValueError(f"{path}: refusing to write non-finite samples")
    check_wav_rate(wave.sample_rate, path)
    rate = int(round(wave.sample_rate))
    payload = quantize_pcm16(wave.samples).tobytes()
    # RIFF size, then a 16-byte PCM fmt chunk: mono, 2-byte frames, 16 bits
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16, b"data", len(payload))
    write_file(path, header + payload)


# --- feature matrices -----------------------------------------------------


def write_feature_file(path, feat: FeatureMatrix) -> None:
    """Write a feature matrix.

    Layout: magic "MFB1", u32 version, u32 n_frames, u32 dim, u32 kind
    code (the kind's index in FeatureMatrix.KINDS: 0 mel-fb, 1 midi-fb,
    2 linear-spec, 3 piano-roll), f64 frame_shift seconds, f64
    sample_rate, then float32 values row-major.
    """
    header = FEATURE_MAGIC + struct.pack(
        "<IIIIdd", FEATURE_VERSION, feat.n_frames, feat.dim,
        FeatureMatrix.KINDS.index(feat.kind), feat.frame_shift, feat.sample_rate)
    write_file(path, header + feat.values.astype("<f4").tobytes())


def read_feature_file(path) -> FeatureMatrix:
    data = Path(path).read_bytes()
    if len(data) < 36 or data[:4] != FEATURE_MAGIC:
        raise FileFormatError(f"{path}: not a feature file")
    version, n, d, kind_code, shift, rate = struct.unpack("<IIIIdd", data[4:36])
    if version != FEATURE_VERSION:
        raise FileFormatError(f"{path}: unsupported feature file version {version}")
    if kind_code >= len(FeatureMatrix.KINDS):
        raise FileFormatError(f"{path}: unknown feature kind code {kind_code}")
    expected = 36 + 4 * n * d
    if len(data) < expected:
        raise FileFormatError(f"{path}: truncated payload, "
                              f"expected {expected} bytes, have {len(data)}")
    values = np.frombuffer(data[36:expected], dtype="<f4").reshape(n, d)
    if not np.isfinite(values).all():  # before the cast, which warns on NaN
        raise FileFormatError(f"{path}: payload holds non-finite values")
    try:
        return FeatureMatrix(values.astype(np.float64), FeatureMatrix.KINDS[kind_code],
                             shift, rate)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def feature_from_roll(roll: FeatureMatrix) -> FeatureMatrix:
    """The roll itself, which is already the piano-roll FeatureMatrix.
    No program path calls this; it stays because guarantee 06 does."""
    return roll


# --- checkpoint container ---------------------------------------------------


CHECKPOINT_VERSION = 3


def unique_keys(pairs):
    """A JSON object's pairs as a dict, refusing a key written twice: the
    object_pairs_hook of the train config and the checkpoint config block."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def write_container(path, magic: bytes, config: dict, tensors) -> None:
    """Write a version-3 checkpoint container.

    Layout: 4-byte magic, u32 version, u32 byte length of the config
    block, the config block (the config dict as compact sorted-key JSON,
    UTF-8), u32 tensor count, then per tensor in sorted name order: u16
    name length, UTF-8 name, u8 ndim, u32 per dimension, float64 data
    row-major.  A CRC32 of everything before it closes the file.
    """
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray(magic + struct.pack("<II", CHECKPOINT_VERSION, len(block)) + block)
    out += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
        out += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        out += arr.tobytes()
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    write_file(path, out)


def read_container(path, magic: bytes, max_tensors: int):
    """Read a container written by write_container.  Returns (config dict,
    dict of float64 tensors).  Any structural defect, bad magic, short read,
    malformed config block, a config key or tensor name stored twice,
    non-finite tensor value, or CRC mismatch raises FileFormatError, and so
    does any version but 3.  A table over max_tensors tensors is TooLarge.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != magic:
        raise FileFormatError(f"{path}: bad magic, expected {magic!r}")
    if len(data) < 12:
        raise FileFormatError(f"{path}: file shorter than fixed header")
    body = data[:-4]
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise FileFormatError(f"{path}: CRC mismatch, file is corrupt")
    (version,) = struct.unpack("<I", body[4:8])
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {version}")
    tensors = {}
    try:
        (size,) = struct.unpack_from("<I", body, 8)
        pos = 12 + size
        config = json.loads(body[12:pos].decode("utf-8"), object_pairs_hook=unique_keys)
        if not isinstance(config, dict):
            raise FileFormatError(f"{path}: config block is not a JSON object")
        (count,) = struct.unpack_from("<I", body, pos)
        if count > max_tensors:
            raise TooLarge(f"{path}: {count} tensors, the limit is {max_tensors}")
        pos += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, pos)
            name = body[pos + 2 : pos + 2 + name_len].decode("utf-8")
            if name in tensors:
                raise FileFormatError(f"{path}: tensor {name!r} stored twice")
            pos += 2 + name_len
            ndim = body[pos]
            shape = struct.unpack_from(f"<{ndim}I", body, pos + 1)
            pos += 1 + 4 * ndim
            n_bytes = 8 * int(np.prod(shape, dtype=np.int64))
            if pos + n_bytes > len(body):
                raise FileFormatError(f"{path}: tensor {name!r} overruns payload")
            value = np.frombuffer(body[pos : pos + n_bytes], dtype="<f8").reshape(shape)
            if not np.isfinite(value).all():
                raise FileFormatError(f"{path}: tensor {name!r} is not finite")
            tensors[name] = value.astype(np.float64)
            pos += n_bytes
    except (struct.error, IndexError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: malformed header or tensor table "
                              f"({exc})") from exc
    if pos != len(body):
        raise FileFormatError(f"{path}: {len(body) - pos} unexpected trailing bytes")
    return config, tensors
