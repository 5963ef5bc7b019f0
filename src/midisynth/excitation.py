"""Excitation signals driving the waveform model.

Sine excitation renders each note as a sinusoid at its equal-tempered
frequency, velocity-scaled and edged with short linear fades; notes sum
where they overlap.  Noise excitation is seeded Gaussian noise.
"""

from __future__ import annotations

import math

import numpy as np

from .dsp import WaveSignal, midi_center_freq
from .midi_io import NoteEventList

FADE_SECONDS = 0.005
NOISE_STD = 0.1
_EDGE_EPS = 1e-9
# Most samples an excitation may hold: 1 GiB of float64, 93 minutes at
# 24 kHz.  A huge sample rate would otherwise size it without bound.
MAX_SAMPLES = 2 ** 27


def sine_excitation(notes: NoteEventList, sample_rate: int = 24000,
                    gain: float = 1.0) -> WaveSignal:
    """Sum of per-note sinusoids over ceil(duration * sample_rate) samples.

    Each note contributes (velocity / 127) * sin(2 pi f (t - onset)) for
    t in [onset, offset), shaped by 5 ms linear fade-in/out ramps.  After
    summing and applying gain, the mix is scaled down to peak 0.89 only
    if it clips, as it does when gain times the mix overflows float64.
    """
    n_total = max(0, math.ceil(notes.duration * sample_rate - _EDGE_EPS))
    out = np.zeros(n_total)
    for note in notes.notes:
        freq = midi_center_freq(note.pitch)
        if freq >= sample_rate / 2:
            raise ValueError(
                f"note {note.pitch} at {freq:.1f} Hz needs a rate above "
                f"{2 * freq:.0f} Hz, have {sample_rate}")
        lo = max(0, math.ceil(note.onset * sample_rate - _EDGE_EPS))
        hi = min(n_total, math.ceil(note.offset * sample_rate - _EDGE_EPS))
        if hi <= lo:
            continue
        t = np.arange(lo, hi) / sample_rate - note.onset
        envelope = np.minimum(1.0, np.minimum(t, note.offset - note.onset - t)
                              / FADE_SECONDS)
        envelope = np.clip(envelope, 0.0, 1.0)
        out[lo:hi] += (note.velocity / 127.0) * envelope \
            * np.sin(2.0 * np.pi * freq * t)
    peak = float(np.abs(out).max()) if out.size else 0.0
    if math.isinf(peak * gain):  # the gained mix would overflow float64
        out *= math.copysign(0.89 / peak, gain)
    else:
        out *= gain
        peak *= abs(gain)  # rounds as the max of the gained samples does
        if peak > 1.0:
            out *= 0.89 / peak
    return WaveSignal(out, sample_rate)


def noise_excitation(n_samples: int, seed: int,
                     sample_rate: int = 24000) -> WaveSignal:
    """Seeded Gaussian noise (PCG64) of std NOISE_STD, clipped to [-1, 1]."""
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    rng = np.random.default_rng(seed)
    samples = np.clip(rng.standard_normal(n_samples) * NOISE_STD, -1.0, 1.0)
    return WaveSignal(samples, sample_rate)


def fit_length(wave: WaveSignal, n_samples: int) -> WaveSignal:
    """Truncate or zero-pad to exactly n_samples, keeping the sample rate."""
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    cur = len(wave)
    if cur == n_samples:
        return wave
    if cur > n_samples:
        return WaveSignal(wave.samples[:n_samples], wave.sample_rate)
    out = np.zeros(n_samples)
    out[:cur] = wave.samples
    return WaveSignal(out, wave.sample_rate)
