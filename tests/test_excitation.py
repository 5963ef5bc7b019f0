import warnings

import numpy as np
import pytest

import helpers
from midisynth import excitation
from midisynth.dsp import WaveSignal


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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sine_overflowing_gain_clips_like_any_other(sign):
    # 1.7e308 times the chord overflows float64; the mix is still scaled
    # to peak 0.89, as at a gain that does not overflow, with no warning
    notes = helpers.make_notes([(0.0, 0.5, 60, 127), (0.0, 0.5, 64, 127),
                                (0.0, 0.5, 67, 127)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wave = excitation.sine_excitation(notes, 24000, sign * 1.7e308)
    assert np.abs(wave.samples).max() == pytest.approx(0.89, rel=1e-12)
    clipped = excitation.sine_excitation(notes, 24000, sign * 1e300)
    np.testing.assert_allclose(wave.samples, clipped.samples, rtol=1e-12,
                               atol=1e-15)


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
