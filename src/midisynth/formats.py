"""Binary file formats: PCM16 WAV, feature matrices, model checkpoints.

All multi-byte fields are little-endian.  The feature file and the
checkpoint container are layouts described field by field in the
writer docstrings; readers validate magic numbers, declared sizes, and
(for checkpoints) a trailing CRC32 before trusting any payload.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .dsp import FeatureMatrix, WaveSignal
from .errors import CorruptCheckpoint, FileFormatError

FEATURE_MAGIC = b"MFB1"
FEATURE_VERSION = 1
KIND_CODES = {"mel-fb": 0, "midi-fb": 1, "linear-spec": 2, "piano-roll": 3}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


# --- WAV ------------------------------------------------------------------


def read_wav(path) -> WaveSignal:
    """Read a PCM16 mono RIFF/WAVE file; anything else is rejected."""
    with open(path, "rb") as fh:
        data = fh.read()
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


def write_wav(path, wave: WaveSignal) -> None:
    """Write a PCM16 mono RIFF/WAVE file; non-finite samples are refused."""
    if not np.isfinite(wave.samples).all():
        raise ValueError(f"{path}: refusing to write non-finite samples")
    rate = int(round(wave.sample_rate))
    payload = quantize_pcm16(wave.samples).tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


# --- feature matrices -----------------------------------------------------


def write_feature_file(path, feat: FeatureMatrix) -> None:
    """Write a feature matrix.

    Layout: magic "MFB1", u32 version, u32 n_frames, u32 dim, u32 kind
    code (0 mel-fb, 1 midi-fb, 2 linear-spec, 3 piano-roll), f64
    frame_shift seconds, f64 sample_rate, then float32 values row-major.
    """
    header = FEATURE_MAGIC + struct.pack(
        "<IIIIdd", FEATURE_VERSION, feat.n_frames, feat.dim,
        KIND_CODES[feat.kind], feat.frame_shift, feat.sample_rate)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(feat.values.astype("<f4").tobytes())


def read_feature_file(path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 36 or data[:4] != FEATURE_MAGIC:
        raise FileFormatError(f"{path}: not a feature file")
    version, n, d, kind_code, shift, rate = struct.unpack("<IIIIdd", data[4:36])
    if version != FEATURE_VERSION:
        raise FileFormatError(f"{path}: unsupported feature file version {version}")
    if kind_code not in KIND_NAMES:
        raise FileFormatError(f"{path}: unknown feature kind code {kind_code}")
    expected = 36 + 4 * n * d
    if len(data) < expected:
        raise FileFormatError(f"{path}: truncated payload, "
                              f"expected {expected} bytes, have {len(data)}")
    values = np.frombuffer(data[36:expected], dtype="<f4").reshape(n, d)
    if not np.isfinite(values).all():  # before the cast, which warns on NaN
        raise FileFormatError(f"{path}: payload holds non-finite values")
    try:
        return FeatureMatrix(values.astype(np.float64), KIND_NAMES[kind_code],
                             shift, rate)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def feature_from_roll(roll: FeatureMatrix) -> FeatureMatrix:
    """The roll itself, which is already the piano-roll FeatureMatrix.
    No program path calls this; it stays because guarantee 06 does."""
    return roll


# --- checkpoint container ---------------------------------------------------


CHECKPOINT_VERSION = 3
TENSOR_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f4"), 3: np.dtype("<f8")}


def write_container(path, magic: bytes, config: dict, tensors) -> None:
    """Write a version-3 checkpoint container.

    Layout: 4-byte magic, u32 version, u32 byte length of the config
    block, the config block (the config dict as compact sorted-key JSON,
    UTF-8), u32 tensor count, then per tensor in sorted name order: u16
    name length, UTF-8 name, u8 ndim, u32 per dimension, float64 data
    row-major.  A CRC32 of everything before it closes the file.  The
    bytes go to a temporary file that then replaces path, so a failed
    write leaves an earlier file at path intact.
    """
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += magic
    out += struct.pack("<II", CHECKPOINT_VERSION, len(block))
    out += block
    out += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
        out += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        out += arr.tobytes()
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(out)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_container(path, magic: bytes, n_config_fields: int):
    """Read a container written by write_container, or of version 1 or 2.

    Versions 1 and 2 store float32 data, and version 1 has n_config_fields
    u32 values where later versions have the JSON block.  Returns (config,
    dict of float64 tensors), where config is the JSON object of a later
    version or the tuple of u32 fields of a version-1 file.  Any
    structural defect, bad magic, short read, malformed config block,
    non-finite tensor value, or CRC mismatch raises CorruptCheckpoint.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != magic:
        raise CorruptCheckpoint(f"{path}: bad magic, expected {magic!r}")
    if len(data) < 12:
        raise CorruptCheckpoint(f"{path}: file shorter than fixed header")
    body = data[:-4]
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CorruptCheckpoint(f"{path}: CRC mismatch, file is corrupt")
    (version,) = struct.unpack("<I", body[4:8])
    if version not in TENSOR_DTYPES:
        raise CorruptCheckpoint(f"{path}: unsupported checkpoint version {version}")
    dtype = TENSOR_DTYPES[version]
    tensors = {}
    try:
        if version == 1:
            config = struct.unpack_from(f"<{n_config_fields}I", body, 8)
            pos = 8 + 4 * n_config_fields
        else:
            (size,) = struct.unpack_from("<I", body, 8)
            pos = 12 + size
            config = json.loads(body[12:pos].decode("utf-8"))
            if not isinstance(config, dict):
                raise CorruptCheckpoint(f"{path}: config block is not a JSON object")
        (count,) = struct.unpack_from("<I", body, pos)
        pos += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, pos)
            pos += 2
            name = body[pos : pos + name_len].decode("utf-8")
            pos += name_len
            ndim = body[pos]
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", body, pos)
            pos += 4 * ndim
            n_bytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if pos + n_bytes > len(body):
                raise CorruptCheckpoint(f"{path}: tensor {name!r} overruns payload")
            flat = np.frombuffer(body[pos : pos + n_bytes], dtype=dtype)
            if not np.isfinite(flat).all():  # before the cast, which warns on NaN
                raise CorruptCheckpoint(f"{path}: tensor {name!r} is not finite")
            tensors[name] = flat.astype(np.float64).reshape(shape)
            pos += n_bytes
    except (struct.error, IndexError, ValueError, RecursionError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed header or tensor table "
                                f"({exc})") from exc
    if pos != len(body):
        raise CorruptCheckpoint(f"{path}: {len(body) - pos} unexpected trailing bytes")
    return config, tensors
