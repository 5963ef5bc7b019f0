import math

import numpy as np
import pytest

import helpers
from midisynth import excitation, formats
from midisynth.dsp import WaveSignal, midi_center_freq


def test_sine_single_note_frequency():
    notes = helpers.make_notes([(0.0, 1.0, 69, 127)])
    wave = excitation.sine_excitation(notes, 24000)
    assert len(wave) == 24000
    spectrum = np.abs(np.fft.rfft(wave.samples))
    peak_hz = np.argmax(spectrum) * 24000 / len(wave)
    assert peak_hz == pytest.approx(440.0, abs=1.5)


def test_sine_amplitude_tracks_velocity():
    notes = helpers.make_notes([(0.0, 1.0, 60, 64)])
    wave = excitation.sine_excitation(notes, 24000)
    mid = wave.samples[8000:16000]
    assert np.abs(mid).max() == pytest.approx(64 / 127, rel=1e-3)


def test_sine_fade_ramps():
    notes = helpers.make_notes([(0.0, 1.0, 60, 127)])
    wave = excitation.sine_excitation(notes, 24000)
    fade = int(0.005 * 24000)
    head = np.abs(wave.samples[: fade // 2]).max()
    tail = np.abs(wave.samples[-fade // 2 :]).max()
    body = np.abs(wave.samples[fade : len(wave) - fade]).max()
    assert head < 0.6 * body
    assert tail < 0.6 * body


def test_sine_chord_sums_and_normalizes():
    notes = helpers.make_notes([(0.0, 0.5, 60, 127), (0.0, 0.5, 64, 127),
                                (0.0, 0.5, 67, 127)])
    wave = excitation.sine_excitation(notes, 24000)
    assert np.abs(wave.samples).max() == pytest.approx(0.89, rel=1e-6)


def test_sine_no_normalize_when_quiet():
    notes = helpers.make_notes([(0.0, 0.5, 60, 40)])
    wave = excitation.sine_excitation(notes, 24000)
    assert np.abs(wave.samples).max() <= 40 / 127 + 1e-9


def test_sine_rejects_notes_at_or_above_nyquist():
    notes = helpers.make_notes([(0.0, 0.2, 127, 90)])
    with pytest.raises(ValueError, match="needs a rate above"):
        excitation.sine_excitation(notes, 24000)
    # same note is fine at a higher rate
    wave = excitation.sine_excitation(notes, 48000)
    assert len(wave) == 9600


def test_sine_silence_outside_notes():
    notes = helpers.make_notes([(0.2, 0.3, 60, 100)], duration=0.5)
    wave = excitation.sine_excitation(notes, 24000)
    assert len(wave) == 12000
    assert np.abs(wave.samples[: int(0.19 * 24000)]).max() == 0.0
    assert np.abs(wave.samples[int(0.31 * 24000) :]).max() == 0.0


def test_noise_statistics_and_seeding():
    a = excitation.noise_excitation(1_000_000, seed=7)
    b = excitation.noise_excitation(1_000_000, seed=7)
    c = excitation.noise_excitation(1_000_000, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.samples.std() == pytest.approx(0.1, rel=0.01)
    assert np.abs(a.samples).max() <= 1.0
    assert a.sample_rate == 24000


def test_noise_length_and_std():
    wave = excitation.noise_excitation(500, seed=0)
    assert len(wave) == 500
    assert wave.samples.std() == pytest.approx(excitation.NOISE_STD, rel=0.2)


def test_fit_length_truncates_and_pads():
    wave = WaveSignal(np.ones(10), 24000)
    shorter = excitation.fit_length(wave, 6)
    assert np.array_equal(shorter.samples, np.ones(6))
    longer = excitation.fit_length(wave, 14)
    assert np.array_equal(longer.samples[:10], np.ones(10))
    assert np.array_equal(longer.samples[10:], np.zeros(4))
    same = excitation.fit_length(wave, 10)
    assert np.array_equal(same.samples, wave.samples)


def closed_form_sine(notes, rate):
    """Each note as (velocity / 127) * envelope * sin(2 pi f (t - onset)),
    one sin per sample, on the grid sine_excitation uses."""
    n_total = math.ceil(notes.duration * rate - 1e-9)
    out = np.zeros(n_total)
    for note in notes.notes:
        lo = max(0, math.ceil(note.onset * rate - 1e-9))
        hi = min(n_total, math.ceil(note.offset * rate - 1e-9))
        t = np.arange(lo, hi) / rate - note.onset
        envelope = np.clip(np.minimum(t, note.offset - note.onset - t)
                           / excitation.FADE_SECONDS, 0.0, 1.0)
        out[lo:hi] += (note.velocity / 127) * envelope \
            * np.sin(2 * np.pi * midi_center_freq(note.pitch) * t)
    return out


def top_pitch(rate):
    return max(p for p in range(128) if midi_center_freq(p) < rate / 2)


@pytest.mark.parametrize("rate, specs", [
    # one to a few blocks of about sqrt(n) samples each: lengths at, just
    # under and just over a square, so the last block is whole or cut short
    (24000, [(k / 24000, (k + n) / 24000, 60 + n % 20, 9)
             for k, n in zip(range(0, 24000, 1000),
                             (1, 2, 3, 4, 5, 15, 16, 17, 99, 100, 101, 241,
                              242, 243, 1023, 1024, 1025, 4095, 4096, 4097))]),
    # fractional-sample onsets and offsets, overlapping notes
    (24000, [(0.1234567891, 0.9876543211, 64, 40), (0.33333333333, 1.4142135, 71, 50),
             (1e-7, 0.0100003, 48, 30), (0.5 + 0.3 / 24000, 1.2 + 0.7 / 24000, 81, 20)]),
    # a 90 s note: no phase drift from block to block
    (24000, [(0.05, 90.05, 57, 127)]),
    # the highest pitch under Nyquist
    (24000, [(0.01, 2.01, top_pitch(24000), 100)]),
    (48000, [(0.01, 2.01, top_pitch(48000), 100)]),
], ids=["block-edges", "fractional-onsets", "90-s-note", "top-pitch-24k",
        "top-pitch-48k"])
def test_sine_matches_the_closed_form(rate, specs):
    notes = helpers.make_notes(specs)
    wave = excitation.sine_excitation(notes, rate)
    want = closed_form_sine(notes, rate)
    assert np.abs(want).max() <= 1.0  # so the mix is not scaled down
    assert len(wave) == len(want)
    assert np.abs(wave.samples - want).max() <= 1e-10


def test_sine_gives_the_pcm16_bytes_of_the_closed_form(rng):
    notes = helpers.random_notes(rng, 60, lo=21, hi=108)
    want = formats.quantize_pcm16(closed_form_sine(notes, 24000))
    got = formats.quantize_pcm16(excitation.sine_excitation(notes, 24000).samples)
    assert np.array_equal(got, want)
