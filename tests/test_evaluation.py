import math
from itertools import combinations

import numpy as np
import pytest

import helpers
from midisynth import evaluation, excitation, midi_io
from midisynth.dsp import StftConfig, WaveSignal
from midisynth.errors import FileFormatError, TooLarge
from midisynth.evaluation import (holm_bonferroni, mann_whitney_u, mos_summary,
                                  pairwise_significance, pitch_cross_entropy,
                                  pitch_probability)
from midisynth.midi_io import PianoRoll

EPS = 1e-4
CFG = StftConfig()


def oracle_two_sided_p(a_ranks_sum, n_a, n_b):
    """Enumerate every assignment of ranks 1..n to the first sample."""
    n = n_a + n_b
    u_obs = a_ranks_sum - n_a * (n_a + 1) / 2
    us = [sum(c) - n_a * (n_a + 1) / 2 for c in combinations(range(1, n + 1), n_a)]
    total = len(us)
    p_le = sum(u <= u_obs for u in us) / total
    p_ge = sum(u >= u_obs for u in us) / total
    return min(1.0, 2 * min(p_le, p_ge))


# --- pitch probability ---------------------------------------------------------


def test_pure_tone_peaks_at_its_note():
    t = np.arange(24000) / 24000
    wave = WaveSignal(0.5 * np.sin(2 * np.pi * 440.0 * t), 24000)
    probs = pitch_probability(wave, CFG)
    peaks = probs.argmax(axis=1)
    # edge frames see a partial window; the interior must be unanimous
    assert (peaks[2:-2] == 69).all()
    assert (np.count_nonzero(peaks == 69) / len(peaks)) >= 0.9


def test_silence_gets_floor_everywhere():
    probs = pitch_probability(WaveSignal(np.zeros(2880), 24000), CFG)
    assert np.all(probs == EPS)


def test_two_tone_favors_both_notes():
    t = np.arange(24000) / 24000
    wave = WaveSignal(0.4 * np.sin(2 * np.pi * 261.6255653 * t)
                      + 0.4 * np.sin(2 * np.pi * 391.99543598 * t), 24000)
    mean = pitch_probability(wave, CFG)[2:-2].mean(axis=0)
    others = [k for k in range(128) if abs(k - 60) > 1 and abs(k - 67) > 1]
    assert mean[60] > mean[others].max()
    assert mean[67] > mean[others].max()


def test_pitch_probability_rate_check():
    with pytest.raises(ValueError, match="config expects"):
        pitch_probability(WaveSignal(np.zeros(1000), 16000), CFG)


def test_values_strictly_inside_unit_interval(rng):
    wave = WaveSignal(rng.standard_normal(4800) * 0.2, 24000)
    probs = pitch_probability(wave, CFG)
    assert probs.shape == (17, 128) and probs.dtype == np.float64
    assert probs.min() >= EPS
    assert probs.max() <= 1 - EPS


# --- cross entropy -------------------------------------------------------------


def test_ce_single_frame_half_probability():
    probs = np.full((1, 128), EPS)
    probs[0, 60] = 0.5
    roll_values = np.zeros((1, 128))
    roll_values[0, 60] = 1.0
    ce = pitch_cross_entropy(probs, PianoRoll(roll_values, 0.012))
    assert ce == pytest.approx(math.log(2.0), rel=1e-12)


def test_ce_near_zero_when_matched():
    probs = np.full((3, 128), EPS)
    roll_values = np.zeros((3, 128))
    for n, k in ((0, 60), (1, 64), (2, 67)):
        probs[n, k] = 1 - EPS
        roll_values[n, k] = 0.8
    ce = pitch_cross_entropy(probs, PianoRoll(roll_values, 0.012))
    assert 0.0 < ce <= 128 * EPS


def test_ce_matched_below_transposed():
    notes = helpers.make_notes([(0.0, 0.4, 60, 100), (0.4, 0.8, 67, 100)])
    wave = excitation.sine_excitation(notes, 24000)
    shift = 288 / 24000
    roll = midi_io.to_piano_roll(notes, shift)
    probs = pitch_probability(wave, CFG)
    matched = pitch_cross_entropy(probs, roll)
    moved = pitch_cross_entropy(probs, midi_io.transpose_roll(roll, 2))
    assert matched < moved


def test_ce_truncates_with_warning():
    probs = np.full((5, 128), EPS)
    roll = PianoRoll(np.zeros((3, 128)), 0.012)
    with pytest.warns(UserWarning):
        ce = pitch_cross_entropy(probs, roll)
    assert ce == 0.0


def test_ce_velocity_weighting_changes_value():
    probs = np.full((2, 128), EPS)
    probs[:, 60] = 0.4
    roll_values = np.zeros((2, 128))
    roll_values[:, 60] = 0.5  # velocity 64-ish
    roll = PianoRoll(roll_values, 0.012)
    plain = pitch_cross_entropy(probs, roll)
    weighted = pitch_cross_entropy(probs, roll, weight_by_velocity=True)
    assert plain == pytest.approx(-math.log(0.4))
    assert weighted == pytest.approx(0.5 * -math.log(0.4))


def test_ce_empty_inputs_rejected():
    probs = np.full((0, 128), 0.5)
    with pytest.raises(ValueError, match="no overlapping frames"):
        pitch_cross_entropy(probs, PianoRoll(np.zeros((0, 128)), 0.012))


# --- Mann-Whitney ---------------------------------------------------------------


def test_worked_example_exact():
    u, p = mann_whitney_u([3.2, 3.5, 3.8], [2.1, 2.2])
    assert u == 6.0
    assert p == pytest.approx(0.2, rel=1e-12)


def test_u_identity(rng):
    for _ in range(20):
        a = rng.integers(1, 6, size=rng.integers(2, 10)).tolist()
        b = rng.integers(1, 6, size=rng.integers(2, 10)).tolist()
        u_a, _ = mann_whitney_u(a, b)
        u_b, _ = mann_whitney_u(b, a)
        assert u_a + u_b == pytest.approx(len(a) * len(b))


def test_u_with_ties_matches_midrank_definition(rng):
    for _ in range(200):
        a = rng.integers(1, 6, size=rng.integers(1, 15)).tolist()
        b = rng.integers(1, 6, size=rng.integers(1, 15)).tolist()
        pooled = a + b
        # the values below, plus the mean of the positions its equals share
        rank = {v: sum(w < v for w in pooled) + (pooled.count(v) + 1) / 2
                for v in pooled}
        u, _ = mann_whitney_u(a, b)
        assert u == sum(rank[v] for v in a) - len(a) * (len(a) + 1) / 2


def test_identical_multisets_give_p_one():
    scores = [3, 3, 4, 4, 5, 5, 2, 2]
    _, p = mann_whitney_u(scores, list(scores))
    assert p == 1.0


def test_one_value_repeated_has_zero_variance_and_p_one():
    # 14 tied values take the normal approximation, whose variance is 0
    assert mann_whitney_u([3] * 7, [3] * 7) == (24.5, 1.0)


def test_monotone_transform_invariance(rng):
    a = rng.normal(3.0, 1.0, size=8).tolist()
    b = rng.normal(3.5, 1.0, size=9).tolist()
    _, p_raw = mann_whitney_u(a, b)
    _, p_exp = mann_whitney_u([math.exp(v) for v in a],
                              [math.exp(v) for v in b])
    _, p_aff = mann_whitney_u([5 * v + 2 for v in a], [5 * v + 2 for v in b])
    assert p_exp == pytest.approx(p_raw, rel=1e-12)
    assert p_aff == pytest.approx(p_raw, rel=1e-12)


def test_exact_matches_enumeration_oracle(rng):
    for _ in range(30):
        n_a = int(rng.integers(1, 6))
        n_b = int(rng.integers(1, 6))
        pool = rng.permutation(100)[: n_a + n_b] + 1.0
        a, b = pool[:n_a].tolist(), pool[n_a:].tolist()
        _, p = mann_whitney_u(a, b)
        ranks = {v: i + 1 for i, v in enumerate(sorted(a + b))}
        rank_sum = sum(ranks[v] for v in a)
        assert p == pytest.approx(oracle_two_sided_p(rank_sum, n_a, n_b),
                                  rel=1e-12)


def test_exact_p_equals_the_enumeration_oracle_bit_for_bit():
    for n_a in range(1, evaluation.EXACT_LIMIT):
        for n_b in range(1, evaluation.EXACT_LIMIT - n_a + 1):
            for u in range(-1, n_a * n_b + 2):
                got = evaluation._exact_two_sided(n_a, n_b, u)
                want = oracle_two_sided_p(u + n_a * (n_a + 1) // 2, n_a, n_b)
                assert type(got) is float and got.hex() == want.hex(), (n_a, n_b, u)


def test_exact_and_normal_branches_agree(rng, monkeypatch):
    worst = 0.0
    for trial in range(40):
        pool = (rng.permutation(200)[:12] + 1.0).tolist()
        a, b = pool[:6], pool[6:]
        _, p_exact = mann_whitney_u(a, b)
        monkeypatch.setattr(evaluation, "EXACT_LIMIT", 0)
        _, p_normal = mann_whitney_u(a, b)
        monkeypatch.setattr(evaluation, "EXACT_LIMIT", 12)
        worst = max(worst, abs(p_exact - p_normal))
    assert worst <= 0.02


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [])
    with pytest.raises(ValueError, match="finite"):
        mann_whitney_u([1.0, math.nan], [2.0])


# --- Holm-Bonferroni --------------------------------------------------------------


def test_holm_all_rejected():
    reject, adjusted = holm_bonferroni([0.01, 0.02, 0.04], alpha=0.05)
    assert reject == [True, True, True]
    assert adjusted == pytest.approx([0.03, 0.04, 0.04])


def test_holm_stops_at_first_failure():
    reject, _ = holm_bonferroni([0.03, 0.04], alpha=0.05)
    assert reject == [False, False]


def test_holm_empty():
    assert holm_bonferroni([], alpha=0.05) == ([], [])


def test_holm_rejects_invalid_p():
    with pytest.raises(ValueError):
        holm_bonferroni([0.5, 1.2])
    with pytest.raises(ValueError):
        holm_bonferroni([-0.1])
    with pytest.raises(ValueError):
        holm_bonferroni([float("nan")])
    for alpha in (7.0, math.nan, 0.0, 1.0, -1.0):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            holm_bonferroni([0.5], alpha)


def test_holm_contains_bonferroni_never_above_alpha(rng):
    alpha = 0.05
    for _ in range(50):
        m = int(rng.integers(1, 9))
        pvals = rng.random(m).tolist()
        reject, adjusted = holm_bonferroni(pvals, alpha)
        for p, flag in zip(pvals, reject):
            if p <= alpha / m:  # plain Bonferroni
                assert flag
            if p > alpha:
                assert not flag
        assert all(0.0 <= q <= 1.0 for q in adjusted)


def test_holm_definitional_oracle(rng):
    alpha = 0.05
    for _ in range(100):
        m = int(rng.integers(1, 8))
        pvals = rng.random(m).tolist()
        reject, adjusted = holm_bonferroni(pvals, alpha)
        order = sorted(range(m), key=lambda i: pvals[i])
        expect_reject = [False] * m
        for i, idx in enumerate(order):
            if pvals[idx] <= alpha / (m - i):
                expect_reject[idx] = True
            else:
                break
        assert reject == expect_reject
        for i, idx in enumerate(order):
            want = min(1.0, max((m - j) * pvals[order[j]]
                                for j in range(i + 1)))
            assert adjusted[idx] == pytest.approx(want, rel=1e-12)


def holm_reference(p_values, alpha):
    """Holm's step-down procedure as one loop over the sorted p-values."""
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


def test_holm_equals_the_loop_reference_bit_for_bit(rng):
    cases = [[], [-0.0, 0.0, 1.0], [0.0, -0.0], [1.0, 1.0]]
    for _ in range(2000):
        m = int(rng.integers(0, 12))
        pvals = rng.random(m)
        tied = rng.random(m) < 0.4
        pvals[tied] = np.round(pvals[tied], int(rng.integers(1, 3)))
        cases.append(pvals.tolist())
    for pvals in cases:
        alpha = float(rng.choice([0.01, 0.05, 0.2]))
        reject, adjusted = holm_bonferroni(pvals, alpha)
        want_reject, want_adjusted = holm_reference(pvals, alpha)
        assert reject == want_reject
        assert [type(v) for v in reject] == [bool] * len(pvals)
        assert [type(v) for v in adjusted] == [float] * len(pvals)
        assert [v.hex() for v in adjusted] == [v.hex() for v in want_adjusted]


# --- pairwise significance ----------------------------------------------------


def test_identical_systems_not_significant():
    rows = pairwise_significance({"a": [3, 4, 5, 3], "b": [3, 4, 5, 3]})
    assert not any(row[5] for row in rows)


def test_extreme_difference_significant():
    (row,) = pairwise_significance({"good": [5] * 30, "bad": [1] * 30})
    assert row[:2] == ("bad", "good")
    assert row[5] is True
    assert row[4] < 0.05


def test_one_row_per_pair_in_sorted_order(rng):
    pools = {name: rng.integers(1, 6, 12).tolist() for name in ("c", "a", "b")}
    rows = pairwise_significance(pools)
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    assert [row[:2] for row in rows] == pairs
    tests = [mann_whitney_u(pools[a], pools[b]) for a, b in pairs]
    reject, adjusted = holm_bonferroni([p for _, p in tests])
    assert [row[2:4] for row in rows] == tests
    assert [row[4] for row in rows] == adjusted
    assert [row[5] for row in rows] == reject


def test_matrix_label_order_invariance(rng):
    x = rng.integers(1, 6, 10).tolist()
    y = rng.integers(1, 6, 10).tolist()
    fwd = pairwise_significance({"x": x, "y": y})
    assert pairwise_significance({"y": y[::-1], "x": x[::-1]}) == fwd


def test_matrix_needs_two_systems():
    with pytest.raises(ValueError):
        pairwise_significance({"only": [3, 4]})


# --- MOS summaries ------------------------------------------------------------


def test_mos_summary_basic():
    # (system, count, mean, median, q1, q3)
    assert mos_summary({"sys": [1, 2, 3, 4, 5]}) == [("sys", 5, 3.0, 3.0, 2.0, 4.0)]


def test_mos_summary_single_score():
    assert mos_summary({"sys": [4]}) == [("sys", 1, 4.0, 4.0, 4.0, 4.0)]


def test_mos_summary_order_invariant(rng):
    scores = rng.integers(1, 6, 20).tolist()
    a = mos_summary({"sys": scores})
    b = mos_summary({"sys": list(reversed(scores))})
    assert a == b


def test_mos_summary_empty_table():
    with pytest.raises(ValueError):
        mos_summary({})


# --- CSV loading -----------------------------------------------------------------


def test_load_scores_csv(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("system,sample_id,listener_id,score\n"
                    "a,s1,l1,4\n"
                    "\n"
                    "b,s1,l1,2\n")
    assert evaluation.load_scores_csv(path) == {"a": [4], "b": [2]}


def test_load_scores_csv_sorts_systems_and_keeps_file_order(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("system,sample_id,listener_id,score\n"
                    "b,s1,l1,2\n"
                    "a,s1,l1,4\n"
                    "a,s2,l2,3\n")
    pools = evaluation.load_scores_csv(path)
    assert list(pools) == ["a", "b"]
    assert pools["a"] == [4, 3]


def test_load_scores_csv_refuses_systems_over_the_limit(tmp_path):
    path = tmp_path / "scores.csv"
    rows = [f"s{i},x,l1,3\n" for i in range(evaluation.MAX_SYSTEMS + 1)]
    path.write_text("system,sample_id,listener_id,score\n" + "".join(rows[:-1]))
    assert len(evaluation.load_scores_csv(path)) == evaluation.MAX_SYSTEMS == 64
    path.write_text("system,sample_id,listener_id,score\n" + "".join(rows))
    with pytest.raises(TooLarge, match=f"^{path}: 65 systems, the limit is 64$"):
        evaluation.load_scores_csv(path)


def test_load_scores_csv_bad_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sys,sample,listener,score\na,s,l,3\n")
    with pytest.raises(FileFormatError):
        evaluation.load_scores_csv(path)


def test_load_scores_csv_bad_rows_report_line(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("system,sample_id,listener_id,score\na,s1,l1,9\n")
    with pytest.raises(FileFormatError, match="line 2"):
        evaluation.load_scores_csv(path)
    path.write_text("system,sample_id,listener_id,score\na,s1,l1,4\nb,s1,l1\n")
    with pytest.raises(FileFormatError, match="line 3"):
        evaluation.load_scores_csv(path)
    path.write_text("system,sample_id,listener_id,score\na,s1,l1,x\n")
    with pytest.raises(FileFormatError, match="line 2"):
        evaluation.load_scores_csv(path)
    # a quoted field over two lines: the bad score is on line 4
    path.write_text('system,sample_id,listener_id,score\n"a\nb",s1,l1,4\nb,s2,l1,9\n')
    with pytest.raises(FileFormatError, match="line 4"):
        evaluation.load_scores_csv(path)
    # a byte that is not UTF-8, after a byte-order mark that does not count
    path.write_bytes(b"\xef\xbb\xbfsystem,sample_id,listener_id,score\n"
                     b"a,s1,l1,4\nb,s1,l1,\xff\n")
    with pytest.raises(FileFormatError, match="line 3: not UTF-8"):
        evaluation.load_scores_csv(path)
