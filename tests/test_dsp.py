import collections
import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

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


def triangle_rows_reference(cfg, lefts, centers, rights):
    """The banks' rows from separate left, center and right edge arrays."""
    bin_freqs = np.arange(cfg.n_bins) * cfg.sample_rate / cfg.fft_size
    rows = np.zeros((len(centers), len(bin_freqs)))
    for k, (lo, c, hi) in enumerate(zip(lefts, centers, rights)):
        if c > cfg.sample_rate / 2:
            continue
        row = rows[k]
        m = (bin_freqs > lo) & (bin_freqs < c)
        row[m] = (bin_freqs[m] - lo) / (c - lo)
        m = (bin_freqs > c) & (bin_freqs < hi)
        row[m] = (hi - bin_freqs[m]) / (hi - c)
        row[bin_freqs == c] = 1.0
    return rows


@pytest.mark.parametrize("cfg", [StftConfig(),
                                 StftConfig(frame_length=16, frame_shift=4, fft_size=16),
                                 StftConfig(48000, 8192, 2048, 8192)])
def test_filter_banks_equal_the_separate_edge_reference(cfg):
    centers = np.array([dsp.midi_center_freq(d) for d in range(128)])
    lefts = np.concatenate(([centers[0]], centers[:-1]))
    rights = np.concatenate((centers[1:], [centers[-1]]))
    assert np.array_equal(dsp.midi_filter_bank(cfg).weights,
                          triangle_rows_reference(cfg, lefts, centers, rights))
    for n_filters in (1, 2, 80, 128):
        edges = dsp.mel_to_hz(np.linspace(0.0, float(dsp.hz_to_mel(cfg.sample_rate / 2)),
                                          n_filters + 2))
        want = triangle_rows_reference(cfg, edges[:-2], edges[1:-1], edges[2:])
        assert np.array_equal(dsp.mel_filter_bank(cfg, n_filters).weights, want)


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


def test_griffin_lim_calls_stft_per_iteration_and_istft_once_more(stft_cfg, monkeypatch):
    """The traced bench's self_check in perfbench/run.py wants the invert
    workload's dsp.istft_calls, counted by its wrappers on the module-level
    dsp.stft and dsp.istft, to be the gl ops times GL_ITERS + 1."""
    calls = collections.Counter()

    def counting(name, transform):
        def call(*args):
            calls[name] += 1
            return transform(*args)
        return call

    for name in ("stft", "istft"):
        monkeypatch.setattr(dsp, name, counting(name, getattr(dsp, name)))
    for k in (1, 4):
        calls.clear()
        dsp.griffin_lim(np.ones((3, stft_cfg.n_bins)), stft_cfg, n_iters=k)
        assert calls == {"stft": k, "istft": k + 1}


def test_istft_reads_a_real_spectrum_as_zero_phase(stft_cfg, rng):
    # so griffin_lim starts from the magnitude without a complex copy
    mag = rng.random((250, stft_cfg.n_bins))
    assert np.array_equal(dsp.istft(mag, stft_cfg).samples,
                          dsp.istft(mag.astype(np.complex128), stft_cfg).samples)


def test_griffin_lim_history_is_the_same_at_one_and_two_blas_threads():
    code = ("import numpy as np\n"
            "from midisynth import dsp\n"
            "mag = np.random.default_rng(0).random((250, 1025))\n"
            "_, history = dsp.griffin_lim(mag, dsp.StftConfig(), 3, return_history=True)\n"
            "print(' '.join(v.hex() for v in history))\n")
    src = str(Path(dsp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    histories = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        histories.append(proc.stdout.split())
    assert len(histories[0]) == 3
    assert histories[0] == histories[1]


def test_griffin_lim_working_memory(stft_cfg, rng):
    # One complex spectrogram alive at a time: 2.33-2.40x its bytes here.
    # A second one alive across the next analysis read 2.73x.
    mag = rng.random((120, stft_cfg.n_bins))
    tracemalloc.start()
    try:
        dsp.griffin_lim(mag, stft_cfg, n_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * mag.astype(np.complex128).nbytes


def test_griffin_lim_input_validation(stft_cfg):
    with pytest.raises(ValueError):
        dsp.griffin_lim(-np.ones((4, stft_cfg.n_bins)), stft_cfg)
    with pytest.raises(ValueError):
        dsp.griffin_lim(np.ones((4, 7)), stft_cfg)
    with pytest.raises(ValueError):
        dsp.griffin_lim(np.ones((4, stft_cfg.n_bins)), stft_cfg, n_iters=0)


# --- frame chunks on two threads ------------------------------------------------

CHUNK = dsp._CHUNK_ROWS
# every frame count around the chunk edges: one chunk, a part chunk,
# and the caller and the worker each holding several
CHUNKED_FRAMES = [1, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
                  5 * CHUNK + 3]


def reference_stft(x, cfg):
    frames = dsp._frame_signal(x, cfg) * dsp._window_values(cfg)
    return np.fft.rfft(frames, n=cfg.fft_size, axis=1)


def reference_istft(spec, cfg):
    w = dsp._window_values(cfg)
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.frame_length] * w
    den = overlap_add_loop(np.tile(w * w, (len(spec), 1)), cfg.frame_shift)
    out = overlap_add_loop(frames, cfg.frame_shift) / np.maximum(den, 1e-8)
    return out[: len(spec) * cfg.frame_shift]


def reference_griffin_lim(mag, cfg, n_iters):
    x = reference_istft(mag.astype(complex), cfg)
    for _ in range(n_iters):
        spec = reference_stft(x, cfg)
        size = np.abs(spec)
        live = size > 0
        spec = np.where(live, spec * (mag / np.where(live, size, 1.0)), mag)
        x = reference_istft(spec, cfg)
    peak = np.abs(x).max(initial=0.0)
    return x * (0.99 / peak) if peak > 1.0 else x


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    if request.param == 1:
        monkeypatch.setattr(dsp, "_pool", None)  # no task may be submitted
        monkeypatch.setattr(dsp, "ThreadPoolExecutor", None)
    return request.param


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("n", CHUNKED_FRAMES)
def test_chunked_transforms_equal_whole_matrix_reference(stft_cfg, rng, cpus, n):
    shift = stft_cfg.frame_shift
    x = rng.standard_normal(n * shift - shift // 2) * 0.3
    wave = WaveSignal(x, 24000)
    spec = dsp.stft(wave, stft_cfg)
    assert spec.shape == (n, stft_cfg.n_bins)
    assert np.array_equal(spec, reference_stft(x, stft_cfg))
    assert np.array_equal(dsp.stft_magnitude(wave, stft_cfg), np.abs(spec))
    assert np.array_equal(dsp.istft(spec, stft_cfg).samples, reference_istft(spec, stft_cfg))
    mag = rng.random((n, stft_cfg.n_bins)) * 4.0
    mag[:, 5] = 0.0
    assert np.array_equal(dsp.griffin_lim(mag, stft_cfg, n_iters=3).samples,
                          reference_griffin_lim(mag, stft_cfg, 3))


def reference_project(spec, mag):
    size = np.abs(spec)
    live = size > 0
    return np.where(live, spec * (mag / np.where(live, size, 1.0)), mag)


@pytest.mark.filterwarnings("error")  # dividing by a zero |spec| warns
def test_projection_takes_the_masked_passes_only_in_a_chunk_with_a_zero(stft_cfg, rng,
                                                                        cpus, monkeypatch):
    """70 frames are three chunks, and the re-analysis is zeroed in the
    middle one only, so each projection runs the masked passes there and
    the zero-free path on the other two."""
    mag = rng.random((2 * CHUNK + 6, stft_cfg.n_bins)) * 4.0
    stft, istft = dsp.stft, dsp.istft
    analyses, resyntheses = [], []

    def zeroed_stft(wave, cfg):
        spec = stft(wave, cfg)
        spec[CHUNK + 3] = 0.0
        spec[CHUNK + 9, 7] = 0.0
        analyses.append(spec.copy())
        return spec

    def recording_istft(spec, cfg):
        resyntheses.append(spec.copy())
        return istft(spec, cfg)

    monkeypatch.setattr(dsp, "stft", zeroed_stft)
    monkeypatch.setattr(dsp, "istft", recording_istft)
    dsp.griffin_lim(mag, stft_cfg, n_iters=3)
    assert len(analyses) == 3 and len(resyntheses) == 4
    for spec, analysis in zip(resyntheses[1:], analyses):
        assert set(np.flatnonzero((analysis == 0).any(axis=1)) // CHUNK) == {1}
        assert np.array_equal(spec, reference_project(analysis, mag))


@pytest.mark.parametrize("length, shift", [(1200, 288), (512, 128), (1024, 256), (8, 3),
                                           (6, 6), (5, 2), (7, 7), (9, 4)])
def test_window_sum_repeats_its_steady_row(length, shift):
    cfg = StftConfig(frame_length=length, frame_shift=shift, fft_size=length)
    w2 = dsp._window_values(cfg) ** 2
    for n in range(1, 15):
        whole = dsp._overlap_add(np.broadcast_to(w2, (n, length)), shift)[: n * shift]
        assert np.array_equal(dsp._window_sum(w2, n, shift), np.maximum(whole, 1e-8)), n


def worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("dsp_")]


def test_caller_runs_every_chunk_when_no_worker_starts(stft_cfg, rng, monkeypatch, two_cpus):
    x = rng.standard_normal(3 * CHUNK * stft_cfg.frame_shift) * 0.3
    want = reference_stft(x, stft_cfg)
    assert np.array_equal(dsp.stft(WaveSignal(x, 24000), stft_cfg), want)
    # a pool that can no longer take tasks, as at interpreter shutdown
    dsp._pool.shutdown()
    assert worker_threads() == []
    assert np.array_equal(dsp.stft(WaveSignal(x, 24000), stft_cfg), want)
    assert dsp._pool is None
    # a new pool whose thread cannot start, as under a tight RLIMIT_AS
    with monkeypatch.context() as patch:
        def refuse(thread):
            raise RuntimeError("can't start new thread")
        patch.setattr(threading.Thread, "start", refuse)
        assert np.array_equal(dsp.stft(WaveSignal(x, 24000), stft_cfg), want)
    assert np.array_equal(dsp.stft(WaveSignal(x, 24000), stft_cfg), want)
    assert len(worker_threads()) == 1


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_chunk_error_propagates_after_both_threads_stop(stft_cfg, rng, two_cpus, failing):
    caller = threading.get_ident()
    worker_started = threading.Event()
    running = []

    def work(lo, hi, scratch):
        thread = "caller" if threading.get_ident() == caller else "worker"
        if thread == "worker":
            worker_started.set()
        else:
            assert worker_started.wait(timeout=10)
        running.append(thread)
        time.sleep(0.02)
        running.remove(thread)
        if thread == failing:
            raise ValueError(f"chunk {lo} failed")

    with pytest.raises(ValueError, match="chunk .* failed"):
        dsp._in_chunks(6 * CHUNK, work, (4, np.float64))
    assert running == []
    x = rng.standard_normal(3 * CHUNK * stft_cfg.frame_shift) * 0.3
    assert np.array_equal(dsp.stft(WaveSignal(x, 24000), stft_cfg), reference_stft(x, stft_cfg))
    assert len(worker_threads()) == 1


def test_concurrent_callers_share_one_worker(stft_cfg, rng, monkeypatch, two_cpus):
    monkeypatch.setattr(dsp, "_pool", None)
    before = set(worker_threads())
    waves = [rng.standard_normal((2 * CHUNK + k) * stft_cfg.frame_shift) * 0.3
             for k in range(4)]
    want = [reference_stft(x, stft_cfg) for x in waves]
    failures, workers = [], []

    def caller(x, spec):
        for _ in range(5):
            if not np.array_equal(dsp.stft(WaveSignal(x, 24000), stft_cfg), spec):
                failures.append(len(x))
            workers.append(len(set(worker_threads()) - before))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=pair) for pair in zip(waves, want)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert failures == []
    assert max(workers) == 1
    dsp._pool.shutdown()


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


@pytest.mark.parametrize("which", ["pred", "target"])
def test_mr_stft_loss_refuses_a_signal_at_another_rate(rng, which):
    waves = {name: WaveSignal(rng.standard_normal(600) * 0.3, 24000)
             for name in ("pred", "target")}
    waves[which] = WaveSignal(waves[which].samples, 22050)
    with pytest.raises(ValueError, match="22050") as refused:
        dsp.mr_stft_loss(waves["pred"], waves["target"], small_resolutions())
    assert "24000" in str(refused.value)


def reference_mr_stft_loss(pred, target, resolutions):
    """The loss with the rfft adjoint as fft_size * irfft of the gradient
    spectrum with every mirrored bin halved, then windowed and
    overlap-added (even FFT sizes)."""
    total_loss, total_grad = 0.0, np.zeros(len(pred))
    for cfg in resolutions:
        spec_p = reference_stft(pred, cfg)
        abs_p = np.abs(spec_p)
        mag_p = np.maximum(abs_p, dsp.MAG_FLOOR)
        mag_t = np.maximum(np.abs(reference_stft(target, cfg)), dsp.MAG_FLOOR)
        diff = mag_p - mag_t
        sc_num, sc_den = np.linalg.norm(diff), np.linalg.norm(mag_t)
        log_diff = np.log(mag_p) - np.log(mag_t)
        total_loss += sc_num / sc_den + np.abs(log_diff).mean()
        grad_mag = np.sign(log_diff) / (log_diff.size * mag_p)
        if sc_num > 0:
            grad_mag = grad_mag + diff / (sc_num * sc_den)
        grad_mag = np.where(abs_p > dsp.MAG_FLOOR, grad_mag, 0.0)
        g = grad_mag * (spec_p / np.maximum(abs_p, np.finfo(np.float64).tiny))
        g[:, 1:-1] *= 0.5
        full = cfg.fft_size * np.fft.irfft(g, n=cfg.fft_size, axis=1)
        frames = full[:, : cfg.frame_length] * dsp._window_values(cfg)
        total_grad += overlap_add_loop(frames, cfg.frame_shift)[: len(pred)]
    return total_loss / len(resolutions), total_grad / len(resolutions)


@pytest.mark.parametrize("resolutions", [dsp.default_loss_resolutions(), (
    StftConfig(24000, 16, 4, 16), StftConfig(24000, 32, 8, 32))], ids=["default", "16-32"])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_mr_stft_loss_equals_the_irfft_adjoint_reference(rng, cpus, resolutions, n):
    # n frames at the coarsest hop, and more at the finer ones
    shift = max(cfg.frame_shift for cfg in resolutions)
    pred, target = (rng.standard_normal(n * shift - shift // 2) * 0.3 for _ in range(2))
    loss, grad = dsp.mr_stft_loss(WaveSignal(pred, 24000), WaveSignal(target, 24000),
                                  resolutions)
    want_loss, want_grad = reference_mr_stft_loss(pred, target, resolutions)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


def test_mr_stft_loss_working_memory(rng):
    # 112-113 bytes a sample at the default resolutions: 14.0-14.2 MiB here
    n = 2 ** 17
    pred = WaveSignal(rng.standard_normal(n) * 0.1, 24000)
    target = WaveSignal(rng.standard_normal(n) * 0.1, 24000)
    tracemalloc.start()
    try:
        dsp.mr_stft_loss(pred, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * n


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
