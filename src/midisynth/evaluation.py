"""Objective and subjective evaluation.

Objective: a deterministic frame-level pitch estimate (normalized MIDI
filter-bank energies) scored against the reference piano roll with a
multi-hot cross-entropy, so lower means the audio carries the written
pitches.

Subjective: listening-test scores compared pairwise with the two-sided
Mann-Whitney U test (exact enumeration for small tie-free samples,
normal approximation with tie and continuity corrections otherwise) and
Holm-Bonferroni correction across all pairs.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from itertools import combinations

import numpy as np

from .dsp import StftConfig, WaveSignal, midi_filter_bank, stft_magnitude
from .errors import FileFormatError, TooLarge
from .midi_io import PianoRoll

PROB_EPS = 1e-4
SILENCE_ENERGY = 1e-6
EXACT_LIMIT = 12
ALPHA = 0.05  # default significance level
MAX_SYSTEMS = 64  # most systems a scores file holds; stats tests all 2016 pairs


def pitch_probability(wave: WaveSignal, cfg: StftConfig) -> np.ndarray:
    """Frame-wise pitch salience from MIDI filter-bank energies: (frames, 128).

    Each frame's energies are scaled by their own maximum and clamped to
    [eps, 1 - eps]; frames whose peak energy falls under a silence floor
    get the minimum probability everywhere.
    """
    bank = midi_filter_bank(cfg)
    energy = stft_magnitude(wave, cfg) @ bank.weights.T
    peaks = energy.max(axis=1, keepdims=True)
    voiced = peaks >= SILENCE_ENERGY
    scaled = np.divide(energy, peaks, out=np.zeros_like(energy), where=voiced)
    return np.clip(scaled, PROB_EPS, 1.0 - PROB_EPS)


def pitch_cross_entropy(probs: np.ndarray, roll: PianoRoll,
                        weight_by_velocity: bool = False) -> float:
    """Multi-hot cross-entropy of note activity under the pitch estimate.

    CE = -(1/N) sum_n sum_d x[n, d] * ln p[n, d], with x the binarized
    (or velocity-weighted) roll.  When the two inputs disagree on frame
    count both are truncated to the shorter and a warning is emitted.
    """
    n = min(len(probs), roll.n_frames)
    if len(probs) != roll.n_frames:
        warnings.warn(
            f"frame counts differ (probs {len(probs)}, roll "
            f"{roll.n_frames}); truncating to {n}", stacklevel=2)
    if n == 0:
        raise ValueError("no overlapping frames to score")
    x = roll.values[:n]
    if not weight_by_velocity:
        x = (x > 0).astype(np.float64)
    return float(-(x * np.log(probs[:n])).sum() / n)


# --- listening-test statistics ------------------------------------------------


def load_scores_csv(path) -> dict:
    """Read a listening-test CSV with header system,sample_id,listener_id,score.

    Returns {system: [score, ...]}, systems in sorted order and each
    system's scores in file order.  A file that is not UTF-8 text, or that
    the csv module cannot parse, is refused naming the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}: line {line}: not UTF-8 text "
                              f"({exc.reason})") from None
    pools = {}
    try:
        header = next(reader, None)
        if header is None:
            raise FileFormatError(f"{path}: empty file")
        expected = ["system", "sample_id", "listener_id", "score"]
        if [h.strip() for h in header] != expected:
            raise FileFormatError(
                f"{path}: header must be {','.join(expected)}, got {','.join(header)}")
        for row in reader:
            lineno = reader.line_num  # a quoted field may span lines
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise FileFormatError(f"{path}: line {lineno}: expected 4 fields, "
                                      f"got {len(row)}")
            system, _, _, score_text = (c.strip() for c in row)
            try:
                score = int(score_text)
            except ValueError:
                raise FileFormatError(f"{path}: line {lineno}: score "
                                      f"{score_text!r} is not an integer") from None
            if not 1 <= score <= 5:
                raise FileFormatError(f"{path}: line {lineno}: score {score} "
                                      f"outside 1..5")
            pools.setdefault(system, []).append(score)
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise FileFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(pools) > MAX_SYSTEMS:
        raise TooLarge(f"{path}: {len(pools)} systems, the limit is {MAX_SYSTEMS}")
    return {system: pools[system] for system in sorted(pools)}


def _exact_two_sided(n_a, n_b, u_obs):
    """Tie-free exact p by enumerating all rank assignments to group a."""
    n = n_a + n_b
    offset = n_a * (n_a + 1) // 2
    total = math.comb(n, n_a)
    at_most = 0
    at_least = 0
    for combo in combinations(range(1, n + 1), n_a):
        u = sum(combo) - offset
        at_most += u <= u_obs
        at_least += u >= u_obs
    return min(1.0, 2.0 * min(at_most / total, at_least / total))


def mann_whitney_u(a, b):
    """Two-sided Mann-Whitney U test.

    Returns (U of the first sample, p).  With n_a + n_b <= 12 and no
    ties anywhere the p-value is exact by enumeration; otherwise it uses
    the normal approximation with midranks, tie-corrected variance, and
    a 0.5 continuity correction.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    pooled = np.array(a + b)
    if not np.isfinite(pooled).all():
        raise ValueError("samples must be finite")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    _, group, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # a group of k equal values ending at 1-based position c has midrank c - (k - 1) / 2
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u_a = float(ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0)
    if n <= EXACT_LIMIT and len(counts) == n:
        return u_a, _exact_two_sided(n_a, n_b, round(u_a))

    tie_term = float((counts ** 3 - counts).sum())
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return u_a, 1.0  # all observations identical
    z = (abs(u_a - n_a * n_b / 2.0) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    return u_a, min(1.0, math.erfc(z / math.sqrt(2.0)))


def holm_bonferroni(p_values, alpha: float = ALPHA):
    """Step-down Holm correction.

    Returns (reject flags, adjusted p-values), both in input order.  The
    sorted p-values are rejected while p_(i) <= alpha / (m - i) for
    0-based i, stopping at the first failure; adjusted values are the
    running maximum of (m - i) * p_(i), capped at 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p_values = [float(p) for p in p_values]
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    reject = [False] * m
    adjusted = [0.0] * m
    running = 0.0
    still_rejecting = True
    for rank, idx in enumerate(order):
        p = p_values[idx]
        running = max(running, (m - rank) * p)
        adjusted[idx] = min(1.0, running)
        if still_rejecting and p <= alpha / (m - rank):
            reject[idx] = True
        else:
            still_rejecting = False
    return reject, adjusted


def pairwise_significance(pools: dict, alpha: float = ALPHA) -> list:
    """Pairwise Mann-Whitney U over pooled ratings, Holm-corrected jointly.

    pools maps each system to its scores.  Returns one (system_a,
    system_b, u, p_raw, p_adjusted, significant) row per pair of
    systems, pairs in sorted name order.
    """
    if len(pools) < 2:
        raise ValueError("need at least two systems to compare")
    pairs = list(combinations(sorted(pools), 2))
    tests = [mann_whitney_u(pools[a], pools[b]) for a, b in pairs]
    reject, adjusted = holm_bonferroni([p for _, p in tests], alpha)
    return [(a, b, u, p, p_adj, significant) for (a, b), (u, p), p_adj, significant
            in zip(pairs, tests, adjusted, reject)]


def mos_summary(pools: dict) -> list:
    """Per-system score summaries sorted by system name.

    Returns one (system, count, mean, median, q1, q3) row per system,
    the quartiles by linear interpolation.
    """
    if not pools:
        raise ValueError("score table is empty")
    out = []
    for system in sorted(pools):
        scores = np.array(pools[system], dtype=np.float64)
        out.append((system, int(scores.size), float(scores.mean()),
                    float(np.median(scores)), float(np.percentile(scores, 25)),
                    float(np.percentile(scores, 75))))
    return out
