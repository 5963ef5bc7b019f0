"""Output checks for one benchmark operation.

Each check reads what the operation wrote with code of its own (the
stdlib `wave` reader, a struct parse of the feature header) except the
checkpoint round trip, which is a property of the program's own loader.
One `direct` synth op is also compared with a NumPy reference of the
waveform model.  A check returns a problem string, or None, plus a
digest of the output bytes so a repeated operation can be compared with
its first run.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
import wave
from pathlib import Path

import numpy as np

from inputs import RATE, SHIFT


def nsf_reference(t, feats, source, cfg):
    """The waveform model written out in plain NumPy, apart from the
    program's autograd layer: condition affine, linear upsampling with
    held endpoints, then per block an input projection, dilated causal
    tanh-residual convolutions and an output projection; clipped."""
    n, total = len(feats), len(source)
    frame = feats @ t["cond.weight"] + t["cond.bias"]
    pos = np.arange(total) * (n - 1) / (total - 1) if n > 1 and total > 1 \
        else np.zeros(total)
    cond = np.stack([np.interp(pos, np.arange(n), col) for col in frame.T], axis=1)
    x = source[:, None]
    for b in range(cfg.n_blocks):
        h = x @ t[f"block{b}.in.weight"] + t[f"block{b}.in.bias"] + cond
        for j in range(cfg.convs_per_block):
            w = t[f"block{b}.conv{j}.weight"]
            conv = t[f"block{b}.conv{j}.bias"] + sum(
                np.pad(h, ((k * 2 ** j, 0), (0, 0)))[:total] @ w[k]
                for k in range(cfg.kernel))
            h = h + np.tanh(conv)
        x = x + h @ t[f"block{b}.out.weight"] + t[f"block{b}.out.bias"]
    return np.clip(x[:, 0], -1.0, 1.0)


def _reference(wav_path, ref):
    """Compares a direct-mode, sine-excitation synth output with
    nsf_reference, to one PCM step.  Roll and excitation come from the
    program; this check is about the model."""
    from midisynth import excitation, midi_io, nsf

    params, cfg = nsf.load_checkpoint(ref["nsf"])
    notes = midi_io.apply_sustain_pedal(midi_io.parse_midi(Path(ref["midi"]).read_bytes()))
    roll = midi_io.to_piano_roll(notes, SHIFT / RATE, RATE)
    source = excitation.fit_length(excitation.sine_excitation(notes, RATE),
                                   roll.n_frames * SHIFT)
    want = nsf_reference(params.tensors, roll.values, source.samples, cfg)
    want = np.clip(np.rint(want * 32768.0), -32768, 32767)
    with wave.open(wav_path, "rb") as w:
        got = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    if len(got) != len(want) or np.abs(got - want).max() > 1:
        return f"{wav_path}: differs from the reference waveform model"
    return None


def _wav(path, expected):
    with wave.open(path, "rb") as w:
        shape = (w.getnchannels(), w.getsampwidth(), w.getframerate())
        n = w.getnframes()
        pcm = np.frombuffer(w.readframes(n), dtype="<i2")
    if shape != (1, 2, RATE):
        return f"{path}: format {shape}, want mono 16-bit {RATE} Hz"
    if n != expected or len(pcm) != expected:
        return f"{path}: {n} samples, want n_frames * frame_shift = {expected}"
    return None


def _mfb(path, frames, dim):
    data = Path(path).read_bytes()
    if data[:4] != b"MFB1":
        return f"{path}: not a feature file"
    _version, n, d, _kind, _shift, _rate = struct.unpack("<IIIIdd", data[4:36])
    if (n, d) != (frames, dim):
        return f"{path}: {n} x {d} features, want {frames} x {dim}"
    values = np.frombuffer(data[36:36 + 4 * n * d], dtype="<f4")
    if len(values) != n * d or not np.isfinite(values).all():
        return f"{path}: feature values truncated or not finite"
    return None


def _train(check):
    from midisynth import acoustic, nsf

    out = Path(check["out"])
    with open(out / "loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != check["steps"]:
        return f"{out}/loss.csv: {len(rows)} steps, want {check['steps']}"
    if not all(math.isfinite(float(loss)) for _step, loss in rows):
        return f"{out}/loss.csv: non-finite loss"
    if check["train"] == "nsf":
        nsf.load_checkpoint(out / "nsf.ckpt", nsf.NsfConfig(feature_dim=128))
    else:
        acoustic.am_load_checkpoint(out / "am.ckpt", acoustic.AmConfig(variant="taco4"))
    return None


def check_op(op, stdout):
    """Returns (problem or None, digest of the operation's output)."""
    c = op.check
    digest = hashlib.sha256()
    if "wav" in c:
        problem = _wav(c["wav"], c["samples"])
        if problem is None and "reference" in c:
            problem = _reference(c["wav"], c["reference"])
        digest.update(Path(c["wav"]).read_bytes())
    elif "mfb" in c:
        problem = _mfb(c["mfb"], c["frames"], c["dim"])
        digest.update(Path(c["mfb"]).read_bytes())
    elif "train" in c:
        try:
            problem = _train(c)
        except Exception as exc:  # a checkpoint that fails to load back
            problem = f"{c['out']}: {type(exc).__name__}: {exc}"
        for name in ("loss.csv", f"{c['train']}.ckpt"):
            path = Path(c["out"]) / name
            digest.update(path.read_bytes() if path.exists() else b"")
    else:
        text = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        try:
            ok = math.isfinite(float(text))
        except ValueError:
            ok = False
        problem = None if ok else f"pitch-ce printed {text!r}, want a finite number"
        digest.update(text.encode())
    return problem, digest.hexdigest()
