"""Shared builders for the test suite.

The SMF byte builders here are written from the file-format definition,
independently of midi_io.write_midi, so parser tests have a second
implementation to check against.
"""
import json
import struct
import zlib

import numpy as np

from midisynth import acoustic, formats, nsf
from midisynth.dsp import WaveSignal
from midisynth.midi_io import NoteEventList


# --- raw SMF bytes ------------------------------------------------------------


def vlq(value: int) -> bytes:
    """Variable-length quantity used for SMF delta times."""
    if value < 0:
        raise ValueError("negative delta")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def smf_header(fmt: int = 0, n_tracks: int = 1, division: int = 480) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, n_tracks, division)


def track_chunk(payload: bytes) -> bytes:
    return b"MTrk" + struct.pack(">I", len(payload)) + payload


def eot(delta: int = 0) -> bytes:
    return vlq(delta) + b"\xff\x2f\x00"


def tempo_meta(delta: int, us_per_quarter: int) -> bytes:
    return vlq(delta) + b"\xff\x51\x03" + us_per_quarter.to_bytes(3, "big")


def single_track_smf(events, fmt: int = 0, division: int = 480,
                     append_eot: bool = True) -> bytes:
    payload = b"".join(events) + (eot() if append_eot else b"")
    return smf_header(fmt, 1, division) + track_chunk(payload)


def many_notes_smf(n_notes, ons_first=False):
    """One track of n_notes notes of pitch 60, two ticks each and one after
    another, in 6 bytes a note.  With ons_first, every note-on comes at
    tick 0 and every note-off at tick 1, so all n_notes are open at once."""
    if ons_first:
        events = bytes([0, 0x90, 60, 100]) + bytes([0, 60, 100]) * (n_notes - 1) \
            + bytes([1, 60, 0]) + bytes([0, 60, 0]) * (n_notes - 1)
    else:
        events = bytes([0, 0x90, 60, 100, 2, 60, 0]) \
            + bytes([0, 60, 100, 2, 60, 0]) * (n_notes - 1)
    return single_track_smf([events])


def note_smf(notes, division: int = 480, tempo_us=None) -> bytes:
    """Build a one-track SMF from (on_tick, off_tick, pitch, velocity) tuples."""
    items = []
    for on, off, pitch, vel in notes:
        # offs sort before ons at the same tick
        items.append((off, 0, bytes([0x80, pitch, 0x40])))
        items.append((on, 1, bytes([0x90, pitch, vel])))
    items.sort(key=lambda t: (t[0], t[1]))
    payload = b"" if tempo_us is None else tempo_meta(0, tempo_us)
    now = 0
    for tick, _, data in items:
        payload += vlq(tick - now) + data
        now = tick
    return smf_header(0, 1, division) + track_chunk(payload + eot())


# Division 1, the slowest tempo, then one delta of the largest encodable
# tick count: 36 bytes that declare about 4.5e9 seconds.
LONG_SMF = smf_header(0, 1, 1) + track_chunk(
    tempo_meta(0, 0xFFFFFF) + eot(0x0FFFFFFF))


# Format 1, two tracks.  The first holds a tempo, a text event and a tempo
# change; the second notes with running status, a velocity-0 note-off, a
# program change, a sysex and the sustain pedal.  Mutation tests start here.
FUZZ_SMF = smf_header(1, 2, 480) + track_chunk(
    tempo_meta(0, 500000) + vlq(0) + b"\xff\x01\x04tune"
    + tempo_meta(960, 250000) + eot()
) + track_chunk(
    vlq(0) + bytes([0x90, 60, 90]) + vlq(120) + bytes([64, 70])
    + vlq(0) + bytes([0xC0, 5]) + vlq(0) + b"\xf0\x03\x7e\x09\xf7"
    + vlq(0) + bytes([0xB0, 64, 100]) + vlq(240) + bytes([0x90, 60, 0])
    + vlq(0) + bytes([0x80, 64, 0]) + vlq(480) + bytes([0xB0, 64, 0]) + eot())


def mutants(blob, count, seed):
    """Copies of blob with 1-4 bytes from a random offset set to random
    values or to zero, so whole fields can also come out as 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(blob)
        pos = int(rng.integers(len(data)))
        width = min(int(rng.integers(1, 5)), len(data) - pos)
        fill = rng.integers(0, 256, width) if rng.random() < 0.5 else np.zeros(width)
        data[pos:pos + width] = fill.astype(np.uint8).tobytes()
        yield bytes(data)


# --- note lists ---------------------------------------------------------------


def make_notes(specs, duration=None, pedal=()) -> NoteEventList:
    """specs: (onset, offset, pitch, velocity) tuples in seconds; pedal:
    (time, CC64 value) pairs."""
    columns = zip(*((p, o, f, v) for o, f, p, v in specs))
    return NoteEventList(*columns, duration=duration, pedal=tuple(pedal))


def random_notes(rng, n_notes: int, lo: int = 48, hi: int = 84) -> NoteEventList:
    """Non-overlapping random notes, one after another."""
    specs = []
    t = 0.05
    for _ in range(n_notes):
        dur = float(rng.uniform(0.1, 0.3))
        pitch = int(rng.integers(lo, hi + 1))
        vel = int(rng.integers(40, 120))
        specs.append((t, t + dur, pitch, vel))
        t += dur + float(rng.uniform(0.0, 0.05))
    return make_notes(specs)


# --- tiny model configs ---------------------------------------------------


def tiny_nsf_cfg(feature_dim=3, upsample=8, channels=2, blocks=1, convs=2, kernel=3):
    return nsf.NsfConfig(feature_dim=feature_dim, upsample_factor=upsample,
                         n_blocks=blocks, convs_per_block=convs,
                         channels=channels, kernel=kernel)


def tiny_am_cfg(variant="taco2", **kw):
    base = dict(output_dim=6, encoder_channels=8, decoder_state_dim=8,
                prenet_widths=(12, 8), postnet_channels=8)
    base.update(kw)
    return acoustic.AmConfig(variant=variant, **base)


def write_zero_nsf_ckpt(path, feature_dim=128, upsample=288, channels=4,
                        blocks=1, convs=2):
    cfg = nsf.NsfConfig(feature_dim=feature_dim, upsample_factor=upsample,
                        n_blocks=blocks, convs_per_block=convs,
                        channels=channels)
    nsf.save_checkpoint(path, nsf.nsf_zero(cfg), cfg)
    return cfg


def write_tiny_am_ckpt(path, variant="taco2", output_dim=128, seed=0,
                       output_kind="midi-fb"):
    cfg = acoustic.AmConfig(variant=variant, output_dim=output_dim, output_kind=output_kind,
                            encoder_channels=8, decoder_state_dim=8,
                            prenet_widths=(16, 8), postnet_channels=8)
    acoustic.am_save_checkpoint(path, acoustic.am_init(cfg, seed=seed), cfg)
    return cfg


def with_crc(body: bytes) -> bytes:
    """body closed by its CRC32, as a checkpoint container ends."""
    return body + struct.pack("<I", zlib.crc32(body))


def with_config_block(blob: bytes, config) -> bytes:
    """The checkpoint blob with its config block replaced by config (a JSON
    value, or raw bytes for the block) and its CRC recomputed."""
    block = config if isinstance(config, bytes) else json.dumps(config).encode()
    (size,) = struct.unpack_from("<I", blob, 8)
    return with_crc(blob[:8] + struct.pack("<I", len(block)) + block
                    + blob[12 + size : -4])


def with_tensor_entry(blob: bytes, name: str, value) -> bytes:
    """The checkpoint blob with one more tensor entry, name and value, at
    the head of its table, and its CRC recomputed; write_container, which
    takes a dict, cannot store a name twice."""
    pos = 12 + struct.unpack_from("<I", blob, 8)[0]
    (count,) = struct.unpack_from("<I", blob, pos)
    value = np.asarray(value, dtype="<f8")
    encoded = name.encode("utf-8")
    entry = (struct.pack(f"<H{len(encoded)}sB{value.ndim}I", len(encoded), encoded,
                         value.ndim, *value.shape) + value.tobytes())
    return with_crc(blob[:pos] + struct.pack("<I", count + 1) + entry + blob[pos + 4 : -4])


# --- misc -----------------------------------------------------------------


def tone_wav(path, freq=440.0, seconds=1.0, rate=24000, amp=0.5):
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    wave = WaveSignal(amp * np.sin(2 * np.pi * freq * t), rate)
    formats.write_wav(path, wave)
    return wave


def rel_err(analytic, numeric, floor=1e-6):
    denom = max(abs(analytic), abs(numeric), floor)
    return abs(analytic - numeric) / denom
