"""Seeded input generator for the benchmark.

Everything a workload feeds the program is written here from the
workload seed alone: MIDI pieces (tempo changes, sustain pedal, 1-16
voices), paired audio rendered by a small additive synthesizer that
shares no code with the program, model checkpoints with seeded weights,
and training configs.  The same seed gives byte-identical files; another
seed gives different ones.

The length, polyphony and mode of each input are fixed tables that do
not depend on the seed; the seed chooses the notes, tempi, pedalling,
weights and noise.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE = 24000
SHIFT = 288  # samples per frame, the program's default hop
TPQ = 480

NSF_SEGMENT_S = 1.0
NSF_BATCH = 5
AM_SEGMENT_FRAMES = 200
AM_BATCH = 4
GL_ITERS = 60


@dataclass
class Op:
    """One CLI call: its argv, the audio seconds it processes, and how to
    check what it wrote."""

    kind: str
    argv: list
    audio_s: float
    check: dict


# --- MIDI ---------------------------------------------------------------------


def _varint(v):
    out = [v & 0x7F]
    v >>= 7
    while v:
        out.append(0x80 | (v & 0x7F))
        v >>= 7
    return bytes(reversed(out))


class TempoMap:
    """Piecewise-constant tempo: converts between ticks and seconds."""

    def __init__(self, changes):
        self.ticks = [t for t, _ in changes]
        self.tempi = [us for _, us in changes]
        self.starts = [0.0]
        for i in range(1, len(changes)):
            span = self.ticks[i] - self.ticks[i - 1]
            self.starts.append(self.starts[-1] + span * self.tempi[i - 1] / (TPQ * 1e6))

    def seconds(self, tick):
        i = max(j for j, t in enumerate(self.ticks) if t <= tick)
        return self.starts[i] + (tick - self.ticks[i]) * self.tempi[i] / (TPQ * 1e6)

    def tick_at(self, sec):
        i = max(j for j, s in enumerate(self.starts) if s <= sec)
        return self.ticks[i] + int(round((sec - self.starts[i]) * TPQ * 1e6 / self.tempi[i]))


@dataclass
class Piece:
    midi: bytes
    notes: list  # (pitch, onset_s, offset_s, velocity)
    duration: float

    @property
    def n_frames(self):
        return math.ceil(self.duration * RATE / SHIFT)


def make_piece(rng, length_s, voices):
    """A format-0 SMF of about length_s seconds with `voices` note lines,
    a tempo change every two bars and a few sustain-pedal presses."""
    changes, tick = [], 0
    while True:
        changes.append((tick, int(rng.integers(400_000, 667_000))))  # 90-150 bpm
        tick += 8 * TPQ
        if TempoMap(changes).seconds(tick) >= length_s:
            break
    tempo = TempoMap(changes)
    end = tempo.tick_at(length_s)
    # keep the end clear of a frame boundary so every frame count is unambiguous
    while abs(tempo.seconds(end) * RATE / SHIFT % 1.0 - 0.5) > 0.4:
        end += 1
    events = [(t, 0, b"\xff\x51\x03" + us.to_bytes(3, "big")) for t, us in changes]
    notes = []
    for _ in range(voices):
        t = int(rng.integers(0, TPQ))
        low = int(rng.integers(36, 80))
        while True:
            dur = int(rng.choice([120, 240, 360, 480, 720, 960]))
            if t + dur > end:
                break
            pitch = low + int(rng.integers(0, 17))
            vel = int(rng.integers(30, 121))
            events.append((t, 2, bytes([0x90, pitch, vel])))
            events.append((t + dur, 1, bytes([0x80, pitch, 0])))
            notes.append((pitch, tempo.seconds(t), tempo.seconds(t + dur), vel))
            t += dur + int(rng.choice([0, 0, 60, 120]))
    t = int(rng.integers(0, 2 * TPQ))
    while t + 2 * TPQ < end:
        up = t + int(rng.integers(TPQ, 4 * TPQ))
        if up >= end:
            break
        events.append((t, 1, bytes([0xB0, 64, 127])))
        events.append((up, 0, bytes([0xB0, 64, 0])))
        t = up + int(rng.integers(2 * TPQ, 8 * TPQ))
    events.sort(key=lambda e: (e[0], e[1]))
    events.append((end, 3, b"\xff\x2f\x00"))
    body, prev = bytearray(), 0
    for t, _, payload in events:
        body += _varint(t - prev) + payload
        prev = t
    midi = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TPQ) \
        + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
    return Piece(midi, notes, tempo.seconds(end))


# --- audio and checkpoints -------------------------------------------------------


def render_audio(piece, rng):
    """Additive synthesis of the notes: four decaying harmonics each, plus
    a little seeded noise.  Length is round(duration * RATE) samples."""
    n = int(round(piece.duration * RATE))
    out = np.zeros(n)
    for pitch, onset, offset, vel in piece.notes:
        lo, hi = int(onset * RATE), min(n, int(offset * RATE))
        t = np.arange(hi - lo) / RATE
        f0 = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
        env = np.minimum(1.0, t / 0.005) * np.exp(-3.0 * t) * (vel / 127.0)
        tone = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 5)
                   if k * f0 < RATE / 2)
        out[lo:hi] += env * tone
    out += 0.001 * rng.standard_normal(n)
    peak = np.abs(out).max()
    return out * (0.8 / peak) if peak > 0 else out


def wav_bytes(samples):
    pcm = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, RATE, RATE * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt \
        + b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_checkpoints(seed, out_dir):
    """Default-size NSF and taco2 checkpoints with seeded weights.

    nsf_init zeroes the output projections, which would make the model
    the identity on its excitation; they are drawn non-zero here so the
    convolutions shape the output.  At +-0.1 the filter adds a fifth to a
    third of the excitation's level and the output rarely clips.
    """
    from midisynth import acoustic, nsf

    cfg = nsf.NsfConfig(feature_dim=128)
    params = nsf.nsf_init(cfg, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for name in sorted(params.tensors):
        if ".out." in name:
            params.tensors[name] = rng.uniform(-0.1, 0.1, params.tensors[name].shape)
    nsf.save_checkpoint(out_dir / "nsf.ckpt", params, cfg)
    am_cfg = acoustic.AmConfig()
    acoustic.am_save_checkpoint(out_dir / "am.ckpt",
                                acoustic.am_init(am_cfg, seed=seed + 1), am_cfg)


# --- workloads -------------------------------------------------------------------
#
# A workload is one fixed pass of operations.  Sizes are fixed here and
# the seed chooses the content, so every pass measures the same mix.  A
# pass takes 7-12 s on a 2-core machine and holds 12-18 operations, so a
# 35 s run repeats each operation two to four times.  Most operations of
# a pass take about the same time, so the median and the tail percentile
# fall inside one cluster of operations rather than in a gap between two.
# Time per second of audio is not constant: the 30 s piece costs about
# twice as much per second as a 2 s one.

RENDER_LENGTHS = (2.0, 2.0, 2.0, 2.0, 30.0, 2.0, 2.5, 2.0, 2.5,
                  2.0, 6.0, 2.0, 2.5, 2.0, 2.5, 2.0, 2.5, 2.0)
NSF_SEGMENTS = (1, 2, 2, 2, 2, 2)
AM_SEGMENTS = (2, 3, 3, 3, 3, 3)
INVERT_LENGTHS = (2.0, 3.0, 2.5, 3.5, 2.0, 3.0)


def _write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def render_ops(seed, root):
    """synth on 14 pieces of 2-30 s and 1-16 voices; modes alternate
    direct / am+nsf and excitation sine / noise.  The first four ops cover
    every mode x excitation pair on short pieces and are the warm-ups; the
    30 s piece sets peak memory."""
    write_checkpoints(seed, root)
    ops = []
    for i, length in enumerate(RENDER_LENGTHS):
        rng = np.random.default_rng([seed, 10, i])
        piece = make_piece(rng, length, 1 + (7 * i) % 16)
        mid = root / f"piece{i:02d}.mid"
        _write(mid, piece.midi)
        mode = ("direct", "am+nsf")[i % 2]
        exc = ("sine", "noise")[(i // 2) % 2]
        argv = ["synth", str(mid), str(root / f"out{i:02d}.wav"),
                "--nsf-ckpt", str(root / "nsf.ckpt"), "--mode", mode,
                "--excitation", exc, "--seed", str(int(rng.integers(1 << 30)))]
        if mode == "am+nsf":
            argv += ["--am-ckpt", str(root / "am.ckpt")]
        check = {"wav": argv[2], "samples": piece.n_frames * SHIFT}
        if i == 0:  # direct, sine: compared with a reference of the model
            check["reference"] = {"midi": str(mid), "nsf": str(root / "nsf.ckpt")}
        ops.append(Op(f"synth-{mode}-{exc}", argv, piece.n_frames * SHIFT / RATE, check))
    return ops, [0, 1, 2, 3]


def _pair_set(seed, tag, i, data_dir, clip_lengths):
    """Paired .mid/.wav clips; returns their frame counts at the default hop."""
    frames = []
    for k, length in enumerate(clip_lengths):
        rng = np.random.default_rng([seed, tag, i, k])
        piece = make_piece(rng, length, 1 + int(rng.integers(0, 4)))
        _write(data_dir / f"clip{k}.mid", piece.midi)
        _write(data_dir / f"clip{k}.wav", wav_bytes(render_audio(piece, rng)))
        frames.append(piece.n_frames)
    return frames


def train_ops(seed, root):
    """Alternating `train nsf` and `train am` (taco4) runs of one epoch,
    on two one-second NSF segments or three AM segments of 200 frames,
    which take about the same time.  The first two, on one and two
    segments, are the warm-ups.

    Each clip is half a segment longer than a whole number of segments,
    which fixes the segment count, and with it the number of logged
    steps, by construction.
    """
    per_nsf = round(NSF_SEGMENT_S * RATE / SHIFT)
    ops = []
    for i in range(2 * len(NSF_SEGMENTS)):
        data, out = root / f"set{i}", root / f"run{i}"
        if i % 2 == 0:
            kind, per, batch = "nsf", per_nsf, NSF_BATCH
            n_seg = NSF_SEGMENTS[i // 2]
            config = {"model": {}, "data": {"features": "piano-roll",
                                            "excitation": "sine"},
                      "train": {"epochs": 1, "segment_seconds": NSF_SEGMENT_S,
                                "batch_size": NSF_BATCH, "seed": seed}}
        else:
            kind, per, batch = "am", AM_SEGMENT_FRAMES, AM_BATCH
            n_seg = AM_SEGMENTS[i // 2]
            config = {"model": {"variant": "taco4"}, "data": {"bank": "midi"},
                      "train": {"epochs": 1, "segment_frames": AM_SEGMENT_FRAMES,
                                "batch_size": AM_BATCH, "seed": seed}}
        frames = _pair_set(seed, 20, i, data, [(n_seg + 0.5) * per * SHIFT / RATE])
        segs = sum(max(1, f // per) for f in frames)
        cfg_path = root / f"config{i}.json"
        _write(cfg_path, json.dumps(config, sort_keys=True).encode())
        argv = ["train", kind, str(data), str(out), "--config", str(cfg_path)]
        ops.append(Op(f"train-{kind}", argv, segs * per * SHIFT / RATE,
                      {"train": kind, "out": str(out),
                       "steps": math.ceil(segs / batch)}))
    return ops, [0, 1]


def invert_ops(seed, root):
    """feat -> gl -> pitch-ce chains on 6 clips of 2-3.5 s, the feature
    bank cycling midi / mel / linear.  The warm-ups are the first chain
    (2 s) and the feat ops of the next two, one op of each kind."""
    ops = []
    for i, length in enumerate(INVERT_LENGTHS):
        rng = np.random.default_rng([seed, 30, i])
        piece = make_piece(rng, length, 1 + i % 4)
        mid, wav = root / f"clip{i}.mid", root / f"clip{i}.wav"
        _write(mid, piece.midi)
        samples = render_audio(piece, rng)
        _write(wav, wav_bytes(samples))
        n_frames = -(-len(samples) // SHIFT)
        bank = ("midi", "mel", "linear")[i % 3]
        mfb, recon = root / f"feat{i}.mfb", root / f"recon{i}.wav"
        dim = {"midi": 128, "mel": 80, "linear": 1025}[bank]
        ops += [
            Op(f"feat-{bank}", ["feat", str(wav), str(mfb), "--bank", bank], 0.0,
               {"mfb": str(mfb), "frames": n_frames, "dim": dim}),
            Op("gl", ["gl", str(mfb), str(recon), "--iters", str(GL_ITERS)],
               n_frames * SHIFT / RATE, {"wav": str(recon), "samples": n_frames * SHIFT}),
            Op("pitch-ce", ["pitch-ce", str(recon), str(mid)], 0.0, {"ce": True}),
        ]
    return ops, [0, 1, 2, 3, 6]


WORKLOADS = {"render": render_ops, "train": train_ops, "invert": invert_ops}


def generate(workload, seed, root):
    """Write every input of `workload` under root.

    Returns (ops, warm): one pass of operations, and the indices, in run
    order, of the ops that make up the warm-up (one of each kind).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, root)
