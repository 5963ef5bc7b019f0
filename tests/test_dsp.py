import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from midisynth import dsp
from midisynth.dsp import FeatureMatrix, StftConfig, WaveSignal
from midisynth.errors import TooLarge

# every row whose triangle covers no FFT bin at 24 kHz / 2048, plus the
# above-Nyquist top note
EMPTY_MIDI_ROWS = [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                   20, 21, 22, 23, 24, 27, 28, 29, 32, 33, 36, 41, 127]


# --- note frequencies ---------------------------------------------------------


def test_center_freq_reference_points():
    assert dsp.midi_center_freq(69) == 440.0
    assert dsp.midi_center_freq(60) == pytest.approx(261.6255653005986, rel=1e-12)


def test_center_freq_octave_doubling():
    for d in range(0, 116):
        assert dsp.midi_center_freq(d + 12) == pytest.approx(
            2.0 * dsp.midi_center_freq(d), rel=1e-9)


def test_center_freq_domain():
    with pytest.raises(ValueError):
        dsp.midi_center_freq(-1)
    with pytest.raises(ValueError):
        dsp.midi_center_freq(128)


# --- filter banks -------------------------------------------------------------


# sha256 prefixes of the float64 bank weights.  The MIDI bank's first and
# last rows have a degenerate edge, so they pin its half triangles too.
FROZEN_BANKS = {(24000, 2048, "midi-fb"): "76cd06ee53f6e118",
                (24000, 2048, "mel-fb"): "6c327ad76188efbc",
                (16000, 512, "midi-fb"): "413103c306d9c4b0",
                (16000, 512, "mel-fb"): "dfcca024bd28494a",
                (48000, 4096, "midi-fb"): "2f8e76f0f6628fdc",
                (48000, 4096, "mel-fb"): "843481d56f03c2d2"}


@pytest.mark.parametrize("rate, fft, kind", sorted(FROZEN_BANKS))
def test_filter_banks_frozen(rate, fft, kind):
    cfg = StftConfig(sample_rate=rate, frame_length=fft, frame_shift=fft // 4,
                     fft_size=fft)
    weights = dsp.filter_bank(kind, cfg, dsp.N_MELS).weights
    assert hashlib.sha256(weights.tobytes()).hexdigest()[:16] == \
        FROZEN_BANKS[rate, fft, kind]


def test_midi_bank_shape_and_kind(stft_cfg):
    bank = dsp.midi_filter_bank(stft_cfg)
    assert bank.weights.shape == (128, stft_cfg.n_bins)
    assert bank.kind == "midi-fb"


def test_midi_bank_empty_rows_frozen(stft_cfg):
    bank = dsp.midi_filter_bank(stft_cfg)
    empty = np.flatnonzero(~bank.weights.any(axis=1))
    assert empty.tolist() == EMPTY_MIDI_ROWS


def test_midi_bank_row69_peaks_near_440(stft_cfg):
    bank = dsp.midi_filter_bank(stft_cfg)
    assert int(np.argmax(bank.weights[69])) == 38
    assert dsp.midi_center_freq(69) == 440.0


def test_midi_bank_support_between_neighbor_centers(stft_cfg):
    bank = dsp.midi_filter_bank(stft_cfg)
    freqs = np.arange(stft_cfg.n_bins) * stft_cfg.sample_rate / stft_cfg.fft_size
    for d in (40, 57, 69, 90, 110):
        row = bank.weights[d]
        lo = dsp.midi_center_freq(d - 1)
        hi = dsp.midi_center_freq(d + 1)
        outside = (freqs <= lo) | (freqs >= hi)
        assert np.all(row[outside] == 0.0)
        assert row.max() <= 1.0
        assert row.max() > 0.0


def test_midi_bank_above_nyquist_rows_zero(stft_cfg):
    bank = dsp.midi_filter_bank(stft_cfg)
    nyquist = stft_cfg.sample_rate / 2
    for d in range(128):
        if dsp.midi_center_freq(d) >= nyquist:
            assert not bank.weights[d].any()


def test_mel_bank_properties(stft_cfg):
    bank = dsp.mel_filter_bank(stft_cfg, 80)
    assert bank.weights.shape == (80, stft_cfg.n_bins)
    assert bank.kind == "mel-fb"
    assert (bank.weights >= 0.0).all() and (bank.weights <= 1.0).all()
    # no empty mel filters at this resolution
    assert bank.weights.any(axis=1).all()
    # peaks ascend and stay below the Nyquist bin
    peaks = bank.weights.argmax(axis=1)
    assert np.all(np.diff(peaks) > 0)
    assert peaks[-1] < stft_cfg.n_bins - 1


def test_hz_mel_round_trip():
    freqs = np.array([20.0, 261.63, 440.0, 4000.0, 11999.0])
    assert dsp.mel_to_hz(dsp.hz_to_mel(freqs)) == pytest.approx(freqs, rel=1e-12)
    assert dsp.hz_to_mel(0.0) == 0.0


# --- framing / STFT -----------------------------------------------------------


def test_frame_count_ceiling():
    assert dsp.frame_count(1200, 288) == 5
    assert dsp.frame_count(24000, 288) == 84
    assert dsp.frame_count(288, 288) == 1
    assert dsp.frame_count(289, 288) == 2
    assert dsp.frame_count(1, 288) == 1
    assert dsp.frame_count(0, 288) == 0


def test_stft_shape_and_rate_check(stft_cfg, rng):
    wave = WaveSignal(rng.standard_normal(24000) * 0.1, 24000)
    spec = dsp.stft(wave, stft_cfg)
    assert spec.shape == (84, stft_cfg.n_bins)
    with pytest.raises(ValueError, match="signal at 16000 Hz, config expects"):
        dsp.stft(WaveSignal(wave.samples, 16000), stft_cfg)


def test_spectrogram_size_limit(stft_cfg, monkeypatch):
    # stft, istft and the filter-bank inverse all hold frames x bins to
    # the limit; here it is lowered to three frames
    monkeypatch.setattr(dsp, "MAX_SPECTROGRAM_ENTRIES", 3 * stft_cfg.n_bins)
    shift = stft_cfg.frame_shift
    assert dsp.stft(WaveSignal(np.zeros(3 * shift), 24000), stft_cfg).shape[0] == 3
    with pytest.raises(TooLarge, match="spectrogram entries"):
        dsp.stft(WaveSignal(np.zeros(3 * shift + 1), 24000), stft_cfg)
    with pytest.raises(TooLarge, match="spectrogram entries"):
        dsp.istft(np.zeros((4, stft_cfg.n_bins), complex), stft_cfg)
    feat = FeatureMatrix(np.zeros((4, 128)), "midi-fb", 0.012, 24000.0)
    with pytest.raises(TooLarge, match="spectrogram entries"):
        dsp.pseudo_inverse_magnitude(feat, stft_cfg)


def test_filter_bank_size_limit(stft_cfg, monkeypatch):
    # both banks check bands x bins before allocating; here the limit is
    # lowered to 80 bands of the default 1025 bins
    monkeypatch.setattr(dsp, "MAX_FILTER_BANK_ENTRIES", 80 * stft_cfg.n_bins)
    assert dsp.mel_filter_bank(stft_cfg, 80).weights.shape == (80, stft_cfg.n_bins)
    with pytest.raises(TooLarge, match="filter-bank entries"):
        dsp.mel_filter_bank(stft_cfg, 81)
    with pytest.raises(TooLarge, match="filter-bank entries"):
        dsp.midi_filter_bank(stft_cfg)


def test_stft_istft_interior_exact(stft_cfg, rng):
    wave = WaveSignal(rng.standard_normal(24000) * 0.3, 24000)
    out = dsp.istft(dsp.stft(wave, stft_cfg), stft_cfg)
    n = dsp.frame_count(len(wave), stft_cfg.frame_shift)
    assert len(out) == n * stft_cfg.frame_shift
    # the first few samples carry almost no analysis-window energy
    err = np.abs(out.samples[8:24000] - wave.samples[8:24000])
    assert err.max() < 1e-9 * np.abs(wave.samples).max()


def test_istft_pads_final_frame(stft_cfg, rng):
    # length that is not a multiple of the shift still round-trips
    wave = WaveSignal(rng.standard_normal(10000) * 0.3, 24000)
    out = dsp.istft(dsp.stft(wave, stft_cfg), stft_cfg)
    n = dsp.frame_count(10000, stft_cfg.frame_shift)
    assert len(out) == n * stft_cfg.frame_shift
    err = np.abs(out.samples[8:10000] - wave.samples[8:10000])
    assert err.max() < 1e-9


# --- features -----------------------------------------------------------------


def overlap_add_loop(frames, shift):
    n, length = frames.shape
    out = np.zeros((n - 1) * shift + length if n else 0)
    for i in range(n):
        out[i * shift : i * shift + length] += frames[i]
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("length,shift", [(12, 12), (12, 4), (12, 5), (12, 1),
                                          (1200, 288), (7, 3)])
def test_overlap_add_matches_per_frame_loop(rng, n, length, shift):
    frames = rng.standard_normal((n, length)) * 10.0 ** rng.integers(-8, 8, (n, 1))
    out = dsp._overlap_add(frames, shift)
    assert np.array_equal(out, overlap_add_loop(frames, shift))


def test_extract_features_shape_and_floor(stft_cfg):
    wave = WaveSignal(np.zeros(4800), 24000)
    bank = dsp.midi_filter_bank(stft_cfg)
    feat = dsp.extract_features(wave, bank, stft_cfg)
    assert feat.values.shape == (dsp.frame_count(4800, 288), 128)
    assert np.allclose(feat.values, -5.0)  # log10 of the 1e-5 floor
    assert feat.kind == "midi-fb"
    assert feat.frame_shift == pytest.approx(288 / 24000)


def test_linear_spectrogram_kind(stft_cfg, rng):
    wave = WaveSignal(rng.standard_normal(4800) * 0.2, 24000)
    feat = dsp.linear_spectrogram(wave, stft_cfg)
    assert feat.kind == "linear-spec"
    assert feat.values.shape == (17, stft_cfg.n_bins)


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[np.nan]]), "mel-fb", 0.012, 24000)
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((2, 3)), "bogus", 0.012, 24000)


# --- Griffin-Lim ----------------------------------------------------------------


def test_griffin_lim_error_non_increasing(stft_cfg, rng):
    t = np.arange(24000) / 24000
    wave = 0.5 * np.sin(2 * np.pi * 440 * t) + 0.2 * np.sin(2 * np.pi * 660 * t)
    mag = np.abs(dsp.stft(WaveSignal(wave, 24000), stft_cfg))
    out, history = dsp.griffin_lim(mag, stft_cfg, n_iters=16, return_history=True)
    assert len(history) == 16
    diffs = np.diff(history)
    assert (diffs <= 1e-6).all()
    assert np.abs(out.samples).max() <= 1.0
    assert len(out) == mag.shape[0] * stft_cfg.frame_shift


def test_griffin_lim_random_magnitudes(stft_cfg, rng):
    for _ in range(3):
        mag = rng.random((10, stft_cfg.n_bins))
        _, history = dsp.griffin_lim(mag, stft_cfg, n_iters=8,
                                     return_history=True)
        assert (np.diff(history) <= 1e-6).all()


@pytest.mark.filterwarnings("error")
def test_griffin_lim_keeps_magnitude_where_reanalysis_is_zero(stft_cfg, rng,
                                                              monkeypatch):
    mag = rng.random((6, stft_cfg.n_bins))
    mag[4] = 0.0
    stft, istft = dsp.stft, dsp.istft
    analyses, resyntheses = [], []

    def zeroed_stft(wave, cfg):
        spec = stft(wave, cfg)
        spec[2] = 0.0
        spec[:, 7] = 0.0
        analyses.append(spec.copy())
        return spec

    def recording_istft(spec, cfg):
        resyntheses.append(spec.copy())
        return istft(spec, cfg)

    monkeypatch.setattr(dsp, "stft", zeroed_stft)
    monkeypatch.setattr(dsp, "istft", recording_istft)
    dsp.griffin_lim(mag, stft_cfg, n_iters=3)
    assert len(analyses) == 3 and len(resyntheses) == 4
    assert np.array_equal(resyntheses[0], mag)
    for spec, analysis in zip(resyntheses[1:], analyses):
        assert np.array_equal(spec[2], mag[2]) and np.array_equal(spec[:, 7], mag[:, 7])
        np.testing.assert_allclose(spec, mag * np.exp(1j * np.angle(analysis)),
                                   rtol=0, atol=1e-15)


def test_griffin_lim_working_memory(stft_cfg, rng):
    mag = rng.random((120, stft_cfg.n_bins))
    tracemalloc.start()
    try:
        dsp.griffin_lim(mag, stft_cfg, n_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * mag.astype(np.complex128).nbytes


def test_griffin_lim_input_validation(stft_cfg):
    with pytest.raises(ValueError):
        dsp.griffin_lim(-np.ones((4, stft_cfg.n_bins)), stft_cfg)
    with pytest.raises(ValueError):
        dsp.griffin_lim(np.ones((4, 7)), stft_cfg)
    with pytest.raises(ValueError):
        dsp.griffin_lim(np.ones((4, stft_cfg.n_bins)), stft_cfg, n_iters=0)


def test_pseudo_inverse_magnitude_shape(stft_cfg, rng):
    wave = WaveSignal(rng.standard_normal(4800) * 0.2, 24000)
    bank = dsp.mel_filter_bank(stft_cfg, 80)
    feat = dsp.extract_features(wave, bank, stft_cfg)
    mag = dsp.pseudo_inverse_magnitude(feat, stft_cfg)
    assert mag.shape == (feat.n_frames, stft_cfg.n_bins)
    assert (mag >= 0.0).all()


def test_filter_bank_by_kind(stft_cfg):
    midi = dsp.filter_bank("midi-fb", stft_cfg, 80)
    assert np.array_equal(midi.weights, dsp.midi_filter_bank(stft_cfg).weights)
    mel = dsp.filter_bank("mel-fb", stft_cfg, 40)
    assert np.array_equal(mel.weights, dsp.mel_filter_bank(stft_cfg, 40).weights)
    for kind in ("linear-spec", "piano-roll"):
        with pytest.raises(ValueError, match="no filter bank"):
            dsp.filter_bank(kind, stft_cfg, 80)


def test_pseudo_inverse_of_linear_spectra_and_refusals(stft_cfg, rng):
    wave = WaveSignal(rng.standard_normal(4800) * 0.2, 24000)
    linear = dsp.linear_spectrogram(wave, stft_cfg)
    assert np.array_equal(dsp.pseudo_inverse_magnitude(linear, stft_cfg),
                          10.0 ** linear.values)
    roll = FeatureMatrix(np.zeros((4, 128)), "piano-roll", 0.012, 24000.0)
    with pytest.raises(ValueError, match="cannot invert"):
        dsp.pseudo_inverse_magnitude(roll, stft_cfg)
    for kind, dim in (("linear-spec", 513), ("midi-fb", 80)):
        feat = FeatureMatrix(np.zeros((4, dim)), kind, 0.012, 24000.0)
        with pytest.raises(ValueError, match=f"{dim} dims"):
            dsp.pseudo_inverse_magnitude(feat, stft_cfg)


@pytest.mark.parametrize("kind, dim", [("linear-spec", 1025), ("midi-fb", 128),
                                       ("mel-fb", 80)])
def test_pseudo_inverse_magnitude_limit(stft_cfg, kind, dim):
    # at the limit, in both signs, the inverse and every Griffin-Lim sum
    # stay finite with no numpy warning; one step above it is refused
    limit = dsp.MAX_LOG10_MAGNITUDE
    for value in (limit, -limit):
        feat = FeatureMatrix(np.full((40, dim), value), kind, 0.012, 24000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mag = dsp.pseudo_inverse_magnitude(feat, stft_cfg)
            wave, history = dsp.griffin_lim(mag, stft_cfg, 3, return_history=True)
        assert np.isfinite(mag).all() and np.isfinite(wave.samples).all()
        assert np.isfinite(history).all()
    feat = FeatureMatrix(np.full((40, dim), np.nextafter(limit, np.inf)), kind,
                         0.012, 24000.0)
    with pytest.raises(ValueError, match="exceed the limit"):
        dsp.pseudo_inverse_magnitude(feat, stft_cfg)


# --- multi-resolution loss -------------------------------------------------------


def small_resolutions():
    make = lambda n, s: StftConfig(sample_rate=24000, frame_length=n,
                                   frame_shift=s, fft_size=n)
    return (make(64, 16), make(128, 32))


def test_mr_stft_loss_zero_on_identical(rng):
    x = WaveSignal(rng.standard_normal(600) * 0.3, 24000)
    loss, grad = dsp.mr_stft_loss(x, x, small_resolutions())
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_mr_stft_loss_positive_when_different(rng):
    x = WaveSignal(rng.standard_normal(600) * 0.3, 24000)
    y = WaveSignal(rng.standard_normal(600) * 0.3, 24000)
    loss, grad = dsp.mr_stft_loss(x, y, small_resolutions())
    assert loss > 0.0
    assert grad.shape == (600,)


def test_mr_stft_gradient_matches_finite_differences(rng):
    pred = WaveSignal(rng.standard_normal(300) * 0.3, 24000)
    target = WaveSignal(rng.standard_normal(300) * 0.3, 24000)
    res = small_resolutions()
    _, grad = dsp.mr_stft_loss(pred, target, res)
    eps = 1e-5
    for idx in rng.choice(300, size=12, replace=False):
        bumped = pred.samples.copy()
        bumped[idx] += eps
        up, _ = dsp.mr_stft_loss(WaveSignal(bumped, 24000), target, res)
        bumped[idx] -= 2 * eps
        down, _ = dsp.mr_stft_loss(WaveSignal(bumped, 24000), target, res)
        fd = (up - down) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("fft", [13, 15, 17])
def test_mr_stft_gradient_matches_finite_differences_at_odd_fft_sizes(rng, fft):
    # an odd size has no lone Nyquist bin, so the rfft adjoint halves its last bin too
    res = (StftConfig(sample_rate=24000, frame_length=fft, frame_shift=4, fft_size=fft),)
    pred = rng.standard_normal(60) * 0.3
    target = WaveSignal(rng.standard_normal(60) * 0.3, 24000)
    _, grad = dsp.mr_stft_loss(WaveSignal(pred, 24000), target, res)
    eps = 1e-6
    fd = np.empty_like(pred)
    for idx in range(len(pred)):
        bumped = pred.copy()
        bumped[idx] += eps
        up, _ = dsp.mr_stft_loss(WaveSignal(bumped, 24000), target, res)
        bumped[idx] -= 2 * eps
        down, _ = dsp.mr_stft_loss(WaveSignal(bumped, 24000), target, res)
        fd[idx] = (up - down) / (2 * eps)
    assert grad == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_mr_stft_loss_gradient_of_short_signals(rng):
    # fewer samples than one frame, and exactly one frame
    for n in (1, 100, 128):
        pred = WaveSignal(rng.standard_normal(n), 24000)
        target = WaveSignal(rng.standard_normal(n), 24000)
        loss, grad = dsp.mr_stft_loss(pred, target, small_resolutions())
        assert np.isfinite(loss) and grad.shape == (n,) and np.isfinite(grad).all()


def test_mr_stft_loss_checks(rng):
    x = WaveSignal(rng.standard_normal(600), 24000)
    short = WaveSignal(rng.standard_normal(500), 24000)
    with pytest.raises(Exception):
        dsp.mr_stft_loss(x, short, small_resolutions())
    with pytest.raises(ValueError):
        dsp.mr_stft_loss(x, x, ())


# --- config / signal types ----------------------------------------------------


def test_stft_config_validation():
    cfg = StftConfig(sample_rate=24000, frame_length=1200, frame_shift=288,
                     fft_size=2048)
    assert cfg.n_bins == 1025
    with pytest.raises(ValueError):
        StftConfig(sample_rate=24000, frame_length=1200, frame_shift=0,
                   fft_size=2048)
    with pytest.raises(ValueError):
        StftConfig(sample_rate=24000, frame_length=4096, frame_shift=288,
                   fft_size=2048)


def test_wave_signal_validation():
    with pytest.raises(ValueError):
        WaveSignal(np.zeros((2, 2)), 24000)
    with pytest.raises(ValueError):
        WaveSignal(np.zeros(4), 0)
    w = WaveSignal([0.0, 0.5], 24000)
    assert w.samples.dtype == np.float64
    assert len(w) == 2
