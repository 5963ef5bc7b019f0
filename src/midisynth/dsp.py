"""Spectral processing: filter banks, STFT, features, Griffin-Lim, losses.

Everything runs on float64 numpy.  The STFT uses a periodic Hann window,
hop-aligned frames starting at n * frame_shift, right zero padding up to
the FFT size, and a one-sided spectrum.  The inverse is weighted
overlap-add normalized by the summed squared window, floored at 1e-8, so
reconstruction is exact wherever the window sum is healthy; the first
few samples of a Hann-analyzed signal carry almost no window energy and
come back attenuated.  Overlap-add runs one whole-array pass per
frame_shift-wide column slice, last slice first, so each output sample
still sums its frames oldest first, as a per-frame loop would.

Every FFT is in _spectra (forward, for stft and stft_magnitude) or
_synthesis_frames (inverse, for istft and the loss's adjoint).  Their
per-frame loops and the Griffin-Lim projection run on two threads:
chunks of _CHUNK_ROWS frames, claimed in turn by the caller and one
worker thread started on first use.  numpy releases the GIL inside its
FFTs and ufunc loops, so both cores work.  The bytes do not change:
each row's window product, FFT and projection is computed on its own,
whatever chunk holds it, and overlap-add stays serial in frame order.
The caller allocates every buffer, one chunk of scratch per thread, so
the worker only fills slices.  A busy second core never makes a call
slower than serial: once the caller has claimed the last chunk it
cancels a worker task that has not started (OpenBLAS threads spin on a
core for 100-200 ms after a BLAS call).  With one CPU, or one chunk,
the caller works alone.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TooLarge

MAG_FLOOR = 1e-5
_WOLA_FLOOR = 1e-8
# Most frames x bins a spectrogram may hold: 2 GiB of complex128, 26
# minutes at a 288-sample hop, 24 kHz and 2048 FFT points.  A tiny hop
# would otherwise give every input sample a frame of its own.
MAX_SPECTROGRAM_ENTRIES = 2 ** 27
# Most bands x bins a filter bank may hold: 128 MiB of float64, 128 bands
# up to a 2^17-point FFT.  A bank is built before any spectrogram, so a
# huge --fft or --n-mels would otherwise allocate it first.
MAX_FILTER_BANK_ENTRIES = 2 ** 24
# Largest log10 magnitude a feature may hold to be inverted.  Squares of
# 1e100 summed over MAX_SPECTROGRAM_ENTRIES stay finite, so neither the
# 10 ** value nor any sum inside Griffin-Lim can overflow float64.
MAX_LOG10_MAGNITUDE = 100.0
# Default mel band count and Griffin-Lim iteration count
N_MELS = 80
GL_ITERS = 60


@dataclass(frozen=True)
class StftConfig:
    sample_rate: int = 24000
    frame_length: int = 1200
    frame_shift: int = 288
    fft_size: int = 2048

    def __post_init__(self):
        if min(self.sample_rate, self.frame_length, self.frame_shift) <= 0:
            raise ValueError("sample_rate, frame_length, frame_shift must be positive")
        if self.frame_shift > self.frame_length:
            raise ValueError("frame_shift may not exceed frame_length")
        if self.fft_size < self.frame_length:
            raise ValueError("fft_size must be at least frame_length")

    @property
    def n_bins(self):
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class WaveSignal:
    """A mono waveform with its sample rate.

    Samples are float64; the canonical pipeline keeps them within
    [-1, 1] but intermediates (inverse transforms, unnormalized
    reconstructions) may exceed that, so no bound is enforced here.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {s.shape}")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", s)

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """Frame-rate features: values is (N, D), kind names the feature space."""

    values: np.ndarray
    kind: str
    frame_shift: float
    sample_rate: float

    # A kind's index here is its code in a feature file, so the order is fixed.
    KINDS = ("mel-fb", "midi-fb", "linear-spec", "piano-roll")

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature matrix contains non-finite entries")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if not (0 < self.frame_shift < math.inf and 0 < self.sample_rate < math.inf):
            raise ValueError("frame_shift and sample_rate must be positive and finite")
        object.__setattr__(self, "values", v)

    @property
    def n_frames(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class FilterBank:
    """Triangular filters over FFT bins: weights is (n_filters, n_bins)."""

    weights: np.ndarray
    kind: str  # the feature kind it gives: "midi-fb" or "mel-fb"


def midi_center_freq(d) -> float:
    """Equal-tempered frequency of MIDI note d, with A4 = note 69 = 440 Hz."""
    d = int(d)
    if not 0 <= d <= 127:
        raise ValueError(f"MIDI note {d} outside 0..127")
    return 440.0 * 2.0 ** ((d - 69) / 12.0)


def _check_bank_size(n_bands, cfg):
    if n_bands * cfg.n_bins > MAX_FILTER_BANK_ENTRIES:
        raise TooLarge(
            f"{n_bands} bands of {cfg.n_bins} bins exceed the limit of "
            f"{MAX_FILTER_BANK_ENTRIES} filter-bank entries")


def _triangle_bank(edges, cfg, kind):
    """Triangular rows over cfg's FFT bins, row k rising from edges[k] to
    1.0 at edges[k + 1] and falling back to zero at edges[k + 2].

    A degenerate edge (equal to its center) selects no bin, dropping that
    slope and leaving a half triangle.  Centers above Nyquist produce
    all-zero rows.
    """
    bin_freqs = np.arange(cfg.n_bins) * cfg.sample_rate / cfg.fft_size
    rows = np.zeros((len(edges) - 2, cfg.n_bins))
    for row, lo, c, hi in zip(rows, edges, edges[1:], edges[2:]):
        if c > cfg.sample_rate / 2:
            continue
        m = (bin_freqs > lo) & (bin_freqs < c)
        row[m] = (bin_freqs[m] - lo) / (c - lo)
        m = (bin_freqs > c) & (bin_freqs < hi)
        row[m] = (hi - bin_freqs[m]) / (hi - c)
        row[bin_freqs == c] = 1.0
    return FilterBank(rows, kind)


def midi_filter_bank(cfg: StftConfig) -> FilterBank:
    """128 triangular filters centered on the equal-tempered MIDI pitches.

    Each filter reaches zero at its neighbors' centers.  At low indices
    the triangles are narrower than an FFT bin, so many rows have no bin
    under their support and stay all-zero; rows whose center exceeds the
    Nyquist frequency are all-zero by construction.
    """
    _check_bank_size(128, cfg)
    edges = np.array([midi_center_freq(d) for d in (0, *range(128), 127)])
    return _triangle_bank(edges, cfg, "midi-fb")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filter_bank(cfg: StftConfig, n_filters: int = N_MELS) -> FilterBank:
    """Triangular filters on a mel-spaced grid from 0 Hz to Nyquist."""
    if n_filters < 1:
        raise ValueError("n_filters must be positive")
    _check_bank_size(n_filters, cfg)
    edges = mel_to_hz(np.linspace(0.0, float(hz_to_mel(cfg.sample_rate / 2)),
                                  n_filters + 2))
    return _triangle_bank(edges, cfg, "mel-fb")


def filter_bank(kind: str, cfg: StftConfig, n_filters: int) -> FilterBank:
    """The bank behind midi-fb or mel-fb features; n_filters sizes a mel bank."""
    if kind == "midi-fb":
        return midi_filter_bank(cfg)
    if kind == "mel-fb":
        return mel_filter_bank(cfg, n_filters)
    raise ValueError(f"no filter bank gives {kind!r} features")


# --- frame chunks on two threads --------------------------------------------

# Rows per chunk of the per-frame loops.  At 2048 FFT points, 32 rows
# keep each thread's iSTFT scratch at 512 KiB; 16 rows ran Griffin-Lim
# about 8% slower, and 64 no faster.
_CHUNK_ROWS = 32
_pool = None  # the one worker thread beside the caller, started on first use
_pool_lock = threading.Lock()


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _in_chunks(n_rows, work, *scratch):
    """Run work(lo, hi, *buffers) on every _CHUNK_ROWS-row chunk of [0, n_rows).

    scratch holds a (width, dtype) pair per buffer.  Each thread gets its
    own chunk of rows of each, allocated here by the caller so that the
    worker allocates nothing large, and work gets them cut to the chunk.
    Given two chunks and two CPUs, the caller and the worker claim chunks
    from one iterator.  Once the caller has claimed the last chunk it
    cancels the worker's task if that has not started, so a worker held
    off a busy core never makes the call slower than serial.  If no
    worker can start (the interpreter is exiting, or no thread can be
    created) the caller runs every chunk.  An exception from either
    thread propagates once both have stopped.
    """
    global _pool
    threads = 2 if n_rows > _CHUNK_ROWS and _cpus() > 1 else 1
    rows = min(n_rows, _CHUNK_ROWS)
    buffers = [[np.empty((rows, width), dtype) for width, dtype in scratch]
               for _ in range(threads)]
    starts = iter(range(0, n_rows, _CHUNK_ROWS))
    # The worker reaches the arrays only through this list, which the
    # caller empties before it returns, so the caller frees them: had the
    # pool's task released them after the caller moved on, the heap would
    # fill in a different order from run to run.
    shared = [work, buffers]

    def claim(slot):
        work, buffers = shared
        for lo in starts:
            hi = min(lo + _CHUNK_ROWS, n_rows)
            work(lo, hi, *(buffer[: hi - lo] for buffer in buffers[slot]))

    task = None
    if threads > 1:
        with _pool_lock:
            try:
                if _pool is None:
                    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dsp")
                task = _pool.submit(claim, 1)
            except RuntimeError:
                _pool.shutdown(wait=False, cancel_futures=True)  # drop the queued task
                _pool = None
    try:
        claim(0)
    finally:
        for _ in starts:  # after a failure in the caller, leave the worker no chunk
            pass
        if task is not None and not task.cancel():
            wait([task])
    shared.clear()
    if task is not None and not task.cancelled():
        task.result()


# --- transforms ---------------------------------------------------------


def _window_values(cfg: StftConfig) -> np.ndarray:
    n = cfg.frame_length
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, frame_shift: int) -> int:
    return -(-n_samples // frame_shift)


def _check_spectrogram_size(n_frames, cfg):
    if n_frames * cfg.n_bins > MAX_SPECTROGRAM_ENTRIES:
        raise TooLarge(
            f"{n_frames} frames of {cfg.n_bins} bins exceed the limit of "
            f"{MAX_SPECTROGRAM_ENTRIES} spectrogram entries")


def _frame_signal(x, cfg):
    n = frame_count(len(x), cfg.frame_shift)
    _check_spectrogram_size(n, cfg)
    if n == 0:
        return np.zeros((0, cfg.frame_length))
    padded = np.zeros((n - 1) * cfg.frame_shift + cfg.frame_length)
    padded[: len(x)] = x
    return sliding_window_view(padded, cfg.frame_length)[:: cfg.frame_shift]


def _overlap_add(frames, shift):
    """Sum (n, L) frames placed every shift samples; length (n - 1) * shift + L.

    Pass k adds column slice [k * shift, (k + 1) * shift) of every frame
    to output blocks k .. k + n - 1.  Running k from the last slice down
    adds each output sample's frames in increasing frame order.
    """
    n, length = frames.shape
    if n == 0:
        return np.zeros(0)
    n_slices = -(-length // shift)
    out = np.zeros((n + n_slices - 1) * shift)
    blocks = out.reshape(-1, shift)
    for k in reversed(range(n_slices)):
        lo = k * shift
        width = min(shift, length - lo)
        blocks[k : k + n, :width] += frames[:, lo : lo + width]
    return out[: (n - 1) * shift + length]


def _spectra(wave, cfg, keep_phase):
    """Every frame's one-sided spectrum, or with keep_phase False its magnitude."""
    if wave.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"signal at {wave.sample_rate} Hz, config expects {cfg.sample_rate} Hz")
    frames = _frame_signal(wave.samples, cfg)
    w = _window_values(cfg)
    n = len(frames)
    out = np.empty((n, cfg.n_bins), np.complex128 if keep_phase else np.float64)

    def analyze(lo, hi, windowed, spec=None):
        np.multiply(frames[lo:hi], w, out=windowed)
        if keep_phase:
            np.fft.rfft(windowed, n=cfg.fft_size, axis=1, out=out[lo:hi])
        else:
            np.abs(np.fft.rfft(windowed, n=cfg.fft_size, axis=1, out=spec), out=out[lo:hi])

    scratch = [(cfg.frame_length, np.float64)]
    if not keep_phase:
        scratch.append((cfg.n_bins, np.complex128))
    _in_chunks(n, analyze, *scratch)
    return out


def stft(wave: WaveSignal, cfg: StftConfig) -> np.ndarray:
    """One-sided STFT, shape (N, fft_size // 2 + 1) with N = ceil(T / shift)."""
    return _spectra(wave, cfg, keep_phase=True)


def stft_magnitude(wave: WaveSignal, cfg: StftConfig) -> np.ndarray:
    """np.abs(stft(wave, cfg)), built without holding the complex spectrogram."""
    return _spectra(wave, cfg, keep_phase=False)


def _window_sum(w2, n, shift):
    """The first n * shift samples of n overlap-added copies of w2, floored.

    Output block j sums window slices j, j - 1, ..., 0; from block
    ceil(L / shift) - 1 on it sums all of them in that one order.  So the
    head comes from _overlap_add over that many frames, and every later
    block repeats its last block bit for bit.
    """
    m = min(n, -(-len(w2) // shift))
    head = _overlap_add(np.broadcast_to(w2, (m, len(w2))), shift)
    den = np.empty((n, shift))
    den[:m] = head[: m * shift].reshape(m, shift)
    if n > m:
        den[m:] = den[m - 1]
    return np.maximum(den, _WOLA_FLOOR, out=den).reshape(-1)


def _synthesis_frames(spec, cfg, w):
    """Every row's inverse FFT cut to frame_length and windowed: (N, L)."""
    frames = np.empty((len(spec), cfg.frame_length))

    def synthesize(lo, hi, full):
        np.fft.irfft(spec[lo:hi], n=cfg.fft_size, axis=1, out=full)
        np.multiply(full[:, : cfg.frame_length], w, out=frames[lo:hi])

    _in_chunks(len(spec), synthesize, (cfg.fft_size, np.float64))
    return frames


def istft(spec: np.ndarray, cfg: StftConfig) -> WaveSignal:
    """Weighted overlap-add inverse; output length is exactly N * frame_shift."""
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != cfg.n_bins:
        raise ValueError(f"spectrogram must be (N, {cfg.n_bins}), got {spec.shape}")
    n = spec.shape[0]
    _check_spectrogram_size(n, cfg)
    w = _window_values(cfg)
    out = _overlap_add(_synthesis_frames(spec, cfg, w), cfg.frame_shift)[: n * cfg.frame_shift]
    out /= _window_sum(w * w, n, cfg.frame_shift)
    return WaveSignal(out, cfg.sample_rate)


def extract_features(wave: WaveSignal, bank: FilterBank, cfg: StftConfig) -> FeatureMatrix:
    """Log10 filter-bank energies of the magnitude spectrogram, floored at 1e-5."""
    if bank.weights.shape[1] != cfg.n_bins:
        raise ValueError(
            f"filter bank built for {bank.weights.shape[1]} bins, config has {cfg.n_bins}")
    values = np.log10(np.maximum(stft_magnitude(wave, cfg) @ bank.weights.T, MAG_FLOOR))
    return FeatureMatrix(values, bank.kind,
                         cfg.frame_shift / cfg.sample_rate, cfg.sample_rate)


def linear_spectrogram(wave: WaveSignal, cfg: StftConfig) -> FeatureMatrix:
    """Log10 magnitude spectrogram as a FeatureMatrix of kind linear-spec."""
    values = np.log10(np.maximum(stft_magnitude(wave, cfg), MAG_FLOOR))
    return FeatureMatrix(values, "linear-spec",
                         cfg.frame_shift / cfg.sample_rate, cfg.sample_rate)


def _project(spec, magnitude):
    """Set spec to magnitude * spec / |spec| in place, or to magnitude where |spec| is 0.

    The real and imaginary parts are multiplied by the float ratio, the
    same bits as a complex product with it, without a complex cast buffer.
    """
    def project(lo, hi, ratio, live):
        s, m = spec[lo:hi], magnitude[lo:hi]
        np.abs(s, out=ratio)
        np.greater(ratio, 0.0, out=live)
        np.divide(m, ratio, out=ratio, where=live)
        s.real *= ratio
        s.imag *= ratio
        np.logical_not(live, out=live)
        np.copyto(s.real, m, where=live)
        np.copyto(s.imag, 0.0, where=live)

    _in_chunks(len(spec), project, (spec.shape[1], np.float64), (spec.shape[1], bool))


def griffin_lim(magnitude: np.ndarray, cfg: StftConfig, n_iters: int = GL_ITERS,
                return_history: bool = False):
    """Reconstruct a waveform from a magnitude spectrogram.

    Phase starts at zero; each iteration resynthesizes with the current
    phase and takes the phase of the re-analysis, projected in place as
    S * (M / |S|), or M with phase 0 where the re-analysis is exactly
    zero.  The returned history holds the spectral consistency error
    || |STFT(x_i)| - M ||_F per iteration, which is non-increasing up to
    normalization-floor noise.
    The final waveform is peak-normalized to 0.99 only if it exceeds
    unit range.
    """
    magnitude = np.asarray(magnitude, dtype=np.float64)
    if magnitude.ndim != 2 or magnitude.shape[1] != cfg.n_bins:
        raise ValueError(f"magnitude must be (N, {cfg.n_bins}), got {magnitude.shape}")
    if magnitude.min(initial=0.0) < 0:
        raise ValueError("magnitude entries must be non-negative")
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    history = []
    x = istft(magnitude, cfg)  # irfft reads a real spectrum as zero phase
    for _ in range(n_iters):
        spec = stft(x, cfg)
        if return_history:
            # numpy's own sum, not BLAS: the same bits at any thread count
            history.append(float(np.sqrt(np.square(np.abs(spec) - magnitude).sum())))
        _project(spec, magnitude)
        x = istft(spec, cfg)
    samples = x.samples
    peak = np.abs(samples).max(initial=0.0)
    if peak > 1.0:
        samples = samples * (0.99 / peak)
    out = WaveSignal(samples, cfg.sample_rate)
    return (out, history) if return_history else out


def pseudo_inverse_magnitude(feat: FeatureMatrix, cfg: StftConfig) -> np.ndarray:
    """Estimate the linear magnitude spectrogram behind log10 features.

    Inverts the log10 compression.  A linear spectrum is then the
    magnitude itself; filter-bank energies map back to bins with the
    Moore-Penrose pseudo-inverse of their bank, clipped to non-negative
    values.  A value above MAX_LOG10_MAGNITUDE is refused, so the result
    and every Griffin-Lim sum over it stay finite.
    """
    if feat.kind == "piano-roll":
        raise ValueError(f"cannot invert features of kind {feat.kind!r}")
    if feat.kind == "linear-spec":
        bank, width = None, cfg.n_bins
    else:
        bank = filter_bank(feat.kind, cfg, feat.dim)
        width = bank.weights.shape[0]
    if feat.dim != width:
        raise ValueError(f"{feat.kind} features have {feat.dim} dims, want {width}")
    _check_spectrogram_size(feat.n_frames, cfg)
    if feat.values.max(initial=0.0) > MAX_LOG10_MAGNITUDE:
        raise ValueError(f"log10 magnitudes exceed the limit of {MAX_LOG10_MAGNITUDE:g}")
    linear = 10.0 ** feat.values
    if bank is None:
        return linear
    return np.clip(linear @ np.linalg.pinv(bank.weights.T), 0.0, None)


# --- multi-resolution STFT loss ------------------------------------------


def default_loss_resolutions(sample_rate: int = StftConfig.sample_rate):
    """Three analysis settings spanning coarse to fine time resolution."""
    make = lambda n, s: StftConfig(sample_rate=sample_rate, frame_length=n,
                                   frame_shift=s, fft_size=n)
    return (make(512, 128), make(1024, 256), make(2048, 512))


def _single_resolution_loss(pred, target, cfg):
    spec_p = stft(pred, cfg)
    mag_p = np.maximum(np.abs(spec_p), MAG_FLOOR)
    mag_t = np.maximum(stft_magnitude(target, cfg), MAG_FLOOR)

    diff = mag_p - mag_t
    sc_num = np.linalg.norm(diff)
    sc_den = np.linalg.norm(mag_t)
    log_diff = np.log(mag_p) - np.log(mag_t)
    loss = sc_num / sc_den + np.abs(log_diff).mean()

    grad_mag = np.sign(log_diff) / (log_diff.size * mag_p)
    if sc_num > 0:
        grad_mag += diff / (sc_num * sc_den)
    grad_mag = np.where(mag_p > MAG_FLOOR, grad_mag, 0.0)
    grad_spec = grad_mag * (spec_p / mag_p)  # mag_p is |spec_p| wherever grad_mag is not 0

    # The adjoint of the frame-wise rfft is fft_size * irfft with every
    # bin that has a mirror halved: DC and, at an even size, Nyquist have none.
    grad_spec *= cfg.fft_size
    grad_spec[:, 1 : (cfg.fft_size + 1) // 2] *= 0.5
    frames = _synthesis_frames(grad_spec, cfg, _window_values(cfg))
    return loss, _overlap_add(frames, cfg.frame_shift)[: len(pred)]


def mr_stft_loss(pred: WaveSignal, target: WaveSignal, resolutions=None):
    """Multi-resolution spectral loss and its gradient w.r.t. pred samples.

    Per resolution: spectral convergence ||Mp - Mt||_F / ||Mt||_F plus
    the mean absolute difference of natural-log magnitudes, both on
    floored magnitudes.  Returns (loss, grad) averaged over resolutions.
    The STFT refuses a signal at another rate than a resolution's.
    """
    if resolutions is None:
        resolutions = default_loss_resolutions(int(pred.sample_rate))
    if len(resolutions) == 0:
        raise ValueError("need at least one resolution")
    if len(pred) != len(target):
        raise ValueError(f"pred has {len(pred)} samples, target {len(target)}")
    total_loss = 0.0
    total_grad = np.zeros(len(pred))
    for cfg in resolutions:
        loss, grad = _single_resolution_loss(pred, target, cfg)
        total_loss += loss
        total_grad += grad
    r = len(resolutions)
    return total_loss / r, total_grad / r
