"""End-to-end tests for the command line interface.

Most cases drive cli.main(argv) in process and inspect files plus captured
stdout/stderr.  The truncation-warning case shells out because pytest's
warning capture would otherwise swallow the message, the forged-step
resume case so that a hang ends in a timeout, and the config, mutation
and size sweeps so that they run under resource limits.
"""

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import os
import pkgutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import helpers
import midisynth
from midisynth import (acoustic, cli, dsp, errors, evaluation, excitation, formats,
                       midi_io, nsf)
from midisynth.params import MAX_TENSORS, Domain, FitConfig


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def run_cli_process(*argv, timeout=None):
    """cli.main(argv) in a child process that imports this same package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from midisynth import cli; sys.exit(cli.main(sys.argv[1:]))",
         *map(str, argv)],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path})


def write_midi_file(path, specs, duration=None):
    notes = helpers.make_notes(specs, duration=duration)
    path.write_bytes(midi_io.write_midi(notes))
    return notes


# --- roll / feat / excite -------------------------------------------------


def test_roll_writes_piano_roll_feature_file(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    notes = write_midi_file(midi, [(0.0, 0.5, 60, 100)])
    out = tmp_path / "roll.mfb"
    assert run_cli("roll", midi, out) == 0
    captured = capsys.readouterr()
    assert "42 frames at 12.0 ms" in captured.out

    feat = formats.read_feature_file(out)
    assert feat.kind == "piano-roll"
    assert feat.values.shape == (42, 128)
    # the file stores float32, so compare at that precision
    roll = midi_io.to_piano_roll(notes, 0.012, 24000)
    np.testing.assert_array_equal(feat.values, roll.values.astype(np.float32))


def test_roll_missing_input_exits_2(tmp_path, capsys):
    assert run_cli("roll", tmp_path / "nope.mid", tmp_path / "out.mfb") == 2
    assert "error:" in capsys.readouterr().err


def test_roll_custom_shift(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.5, 60, 100)])
    out = tmp_path / "roll.mfb"
    assert run_cli("roll", midi, out, "--shift", "0.05") == 0
    assert formats.read_feature_file(out).n_frames == 10


def test_roll_warns_once_of_a_dangling_note_on(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    midi.write_bytes(helpers.single_track_smf(
        [helpers.vlq(0) + bytes([0x90, 60, 90]), helpers.eot(480)], append_eot=False))
    assert run_cli("roll", midi, tmp_path / "roll.mfb") == 0
    assert capsys.readouterr().err == (
        f"warning: {midi}: 1 dangling note-on event(s) closed at end of file\n")


def test_feat_midi_bank_dims(tmp_path, capsys):
    wav = tmp_path / "tone.wav"
    helpers.tone_wav(wav, freq=440.0, seconds=1.0)
    out = tmp_path / "feat.mfb"
    assert run_cli("feat", wav, out) == 0
    assert "84 x 128 (midi-fb)" in capsys.readouterr().out
    feat = formats.read_feature_file(out)
    assert feat.kind == "midi-fb"
    assert feat.values.shape == (84, 128)


def test_feat_mel_bank_dims(tmp_path):
    wav = tmp_path / "tone.wav"
    helpers.tone_wav(wav, freq=440.0, seconds=0.5)
    out = tmp_path / "feat.mfb"
    assert run_cli("feat", wav, out, "--bank", "mel") == 0
    assert formats.read_feature_file(out).dim == 80


def test_feat_rejects_stereo(tmp_path, capsys):
    import struct

    data = struct.pack("<4hh", 0, 0, 0, 0, 0)[: 4 * 2 * 2]
    body = (b"WAVEfmt " + struct.pack("<IHHIIHH", 16, 1, 2, 24000,
                                      24000 * 4, 4, 16)
            + b"data" + struct.pack("<I", len(data)) + data)
    wav = tmp_path / "stereo.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert run_cli("feat", wav, tmp_path / "feat.mfb") == 2
    assert "error:" in capsys.readouterr().err


def test_excite_sine_tone_peak(tmp_path, capsys):
    midi = tmp_path / "a4.mid"
    write_midi_file(midi, [(0.0, 1.0, 69, 127)])
    out = tmp_path / "sine.wav"
    assert run_cli("excite", midi, out) == 0
    assert "(sine)" in capsys.readouterr().out
    wave = formats.read_wav(out)
    spectrum = np.abs(np.fft.rfft(wave.samples))
    peak_hz = np.argmax(spectrum) * wave.sample_rate / len(wave.samples)
    assert abs(peak_hz - 440.0) < 2.0


def test_excite_noise_seed_reproducible(tmp_path):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 60, 90)])
    out_a = tmp_path / "a.wav"
    out_b = tmp_path / "b.wav"
    assert run_cli("excite", midi, out_a, "--kind", "noise", "--seed", "5") == 0
    assert run_cli("excite", midi, out_b, "--kind", "noise", "--seed", "5") == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    out_c = tmp_path / "c.wav"
    assert run_cli("excite", midi, out_c, "--kind", "noise", "--seed", "6") == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_excite_bogus_kind_exits_2(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 60, 90)])
    assert run_cli("excite", midi, tmp_path / "x.wav", "--kind", "square") == 2
    capsys.readouterr()


def test_excite_has_no_gain_option(tmp_path, capsys):
    # the source level is fixed: the one every model is trained on
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 60, 90)])
    assert run_cli("excite", midi, tmp_path / "x.wav", "--gain", "2") == 2
    assert "--gain" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_excite_skips_a_note_that_starts_and_ends_between_two_samples(tmp_path, capsys):
    # at division 7 and 120 bpm one tick is 1/14 s: 1714.29 samples at 24 kHz
    midi = tmp_path / "clip.mid"
    midi.write_bytes(helpers.single_track_smf(
        [helpers.vlq(1) + bytes([0x90, 69, 100]), helpers.vlq(0) + bytes([0x80, 69, 64])],
        division=7))
    assert run_cli("excite", midi, tmp_path / "x.wav") == 0
    assert capsys.readouterr().err == ""
    samples = formats.read_wav(tmp_path / "x.wav").samples
    assert len(samples) == 1715 and not samples.any()


def test_excite_into_a_missing_directory_names_the_output(tmp_path, capsys, monkeypatch):
    write_midi_file(tmp_path / "clip.mid", [(0.0, 0.3, 60, 90)])
    monkeypatch.chdir(tmp_path)
    assert run_cli("excite", "clip.mid", "nodir/x.wav") == 2
    err = capsys.readouterr().err
    assert "'nodir/x.wav'" in err and ".tmp" not in err


# --- synth ----------------------------------------------------------------


def test_synth_direct_zero_model_passes_excitation(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    notes = write_midi_file(midi, [(0.0, 0.15, 69, 100), (0.15, 0.3, 72, 100)])
    ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(ckpt)
    out = tmp_path / "synth.wav"
    assert run_cli("synth", midi, out, "--nsf-ckpt", ckpt) == 0
    assert "(direct mode, sine excitation)" in capsys.readouterr().out

    n_frames = midi_io.to_piano_roll(notes, 288 / 24000, 24000).n_frames
    source = excitation.fit_length(
        excitation.sine_excitation(notes, 24000), n_frames * 288)
    expected = formats.quantize_pcm16(source.samples) / 32768.0
    wave = formats.read_wav(out)
    assert len(wave) == n_frames * 288
    np.testing.assert_array_equal(wave.samples, expected)


def test_synth_am_mode_output_length(tmp_path):
    midi = tmp_path / "clip.mid"
    notes = write_midi_file(midi, [(0.0, 0.3, 64, 110)])
    nsf_ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(nsf_ckpt)
    am_ckpt = tmp_path / "am.ckpt"
    helpers.write_tiny_am_ckpt(am_ckpt)
    out = tmp_path / "synth.wav"
    assert run_cli("synth", midi, out, "--nsf-ckpt", nsf_ckpt,
                   "--mode", "am+nsf", "--am-ckpt", am_ckpt,
                   "--excitation", "noise") == 0
    n_frames = midi_io.to_piano_roll(notes, 288 / 24000, 24000).n_frames
    assert len(formats.read_wav(out)) == n_frames * 288


def test_synth_abs_mode_tracks_reference_length(tmp_path):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 64, 110)])
    ref = tmp_path / "ref.wav"
    helpers.tone_wav(ref, freq=330.0, seconds=0.31)
    nsf_ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(nsf_ckpt)
    out = tmp_path / "synth.wav"
    assert run_cli("synth", midi, out, "--nsf-ckpt", nsf_ckpt,
                   "--mode", "abs", "--ref-wav", ref) == 0
    ref_frames = dsp.frame_count(int(0.31 * 24000), 288)
    assert len(formats.read_wav(out)) == ref_frames * 288


def test_synth_requires_nsf_ckpt(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 64, 110)])
    assert run_cli("synth", midi, tmp_path / "x.wav") == 2
    capsys.readouterr()


def test_synth_am_mode_requires_am_ckpt(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 64, 110)])
    ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(ckpt)
    assert run_cli("synth", midi, tmp_path / "x.wav", "--nsf-ckpt", ckpt,
                   "--mode", "am+nsf") == 2
    assert "--am-ckpt" in capsys.readouterr().err


def test_synth_abs_mode_requires_ref_wav(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 64, 110)])
    ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(ckpt)
    assert run_cli("synth", midi, tmp_path / "x.wav", "--nsf-ckpt", ckpt,
                   "--mode", "abs") == 2
    assert capsys.readouterr().err == "error: --ref-wav is required with --mode abs\n"


@pytest.mark.parametrize("command", ["train", "synth-abs"])
def test_a_wav_at_another_rate_is_named(tmp_path, capsys, command):
    """A reference WAV sampled at 16 kHz under the default --rate, or a
    training WAV at 16 kHz after a 24 kHz one in name order, is refused in
    one line that names it."""
    data = make_pair(tmp_path / "data")
    wav = data / ("later.wav" if command == "train" else "clip.wav")
    write_midi_file(wav.with_suffix(".mid"), [(0.0, 0.2, 69, 100)])
    helpers.tone_wav(wav, seconds=0.2, rate=16000)
    if command == "train":
        argv = ["train", "nsf", data, tmp_path / "out", "--config", nsf_config(tmp_path)]
    else:
        ckpt = tmp_path / "nsf.ckpt"
        helpers.write_zero_nsf_ckpt(ckpt)
        argv = ["synth", data / "clip.mid", tmp_path / "x.wav", "--nsf-ckpt", ckpt,
                "--mode", "abs", "--ref-wav", wav]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: {wav}: sampled at 16000 Hz, expected 24000\n")


# --- gl -------------------------------------------------------------------


def test_gl_recovers_tone_frequency(tmp_path):
    wav = tmp_path / "tone.wav"
    helpers.tone_wav(wav, freq=440.0, seconds=1.0)
    feat = tmp_path / "spec.mfb"
    assert run_cli("feat", wav, feat, "--bank", "linear") == 0
    out = tmp_path / "gl.wav"
    assert run_cli("gl", feat, out, "--iters", "16") == 0
    wave = formats.read_wav(out)
    spectrum = np.abs(np.fft.rfft(wave.samples))
    peak_hz = np.argmax(spectrum) * wave.sample_rate / len(wave.samples)
    assert abs(peak_hz - 440.0) < 15.0


def test_gl_more_iterations_not_worse(tmp_path):
    wav = tmp_path / "tone.wav"
    helpers.tone_wav(wav, freq=523.25, seconds=0.5)
    feat_path = tmp_path / "spec.mfb"
    assert run_cli("feat", wav, feat_path, "--bank", "linear") == 0
    out1 = tmp_path / "gl1.wav"
    out16 = tmp_path / "gl16.wav"
    assert run_cli("gl", feat_path, out1, "--iters", "1") == 0
    assert run_cli("gl", feat_path, out16, "--iters", "16") == 0

    feat = formats.read_feature_file(feat_path)
    target = 10.0 ** feat.values
    cfg = dsp.StftConfig(sample_rate=24000, frame_length=1200,
                         frame_shift=288, fft_size=2048)

    def consistency_error(path):
        wave = formats.read_wav(path)
        return float(np.linalg.norm(np.abs(dsp.stft(wave, cfg)) - target))

    # PCM16 quantization adds a little noise, hence the slack.
    assert consistency_error(out16) <= consistency_error(out1) * 1.001 + 1e-3


def test_gl_rejects_piano_roll_features(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.3, 60, 90)])
    feat = tmp_path / "roll.mfb"
    assert run_cli("roll", midi, feat) == 0
    capsys.readouterr()
    assert run_cli("gl", feat, tmp_path / "x.wav") == 2
    assert "cannot invert" in capsys.readouterr().err


# --- pitch-ce -------------------------------------------------------------


def test_pitch_ce_silence_scores_floor(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 0.5, 60, 100)])
    wav = tmp_path / "silence.wav"
    formats.write_wav(wav, dsp.WaveSignal(np.zeros(12000), 24000))
    assert run_cli("pitch-ce", wav, midi) == 0
    ce = float(capsys.readouterr().out.strip())
    # every active frame lands on the probability floor 1e-4
    assert abs(ce - (-np.log(1e-4))) < 1e-4


def test_pitch_ce_matched_below_transposed(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    notes = write_midi_file(midi, [(0.0, 0.25, 69, 100), (0.25, 0.5, 72, 100)])
    wav = tmp_path / "sine.wav"
    formats.write_wav(wav, excitation.sine_excitation(notes, 24000))

    assert run_cli("pitch-ce", wav, midi) == 0
    matched = float(capsys.readouterr().out.strip())
    assert run_cli("pitch-ce", wav, midi, "--transpose", "7") == 0
    transposed = float(capsys.readouterr().out.strip())
    assert matched < transposed


def test_pitch_ce_truncation_warns_on_stderr(tmp_path):
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, 1.0, 60, 100)])
    wav = tmp_path / "short.wav"
    helpers.tone_wav(wav, freq=261.63, seconds=0.3)
    proc = run_cli_process("pitch-ce", wav, midi)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) >= 0.0
    assert "truncat" in proc.stderr.lower()
    # one line in the form _load_notes gives MIDI warnings, not Python's two
    assert proc.stderr.startswith(f"warning: {wav}: ") and proc.stderr.count("\n") == 1, \
        proc.stderr


def test_pitch_ce_velocity_weights(tmp_path, capsys):
    midi = tmp_path / "clip.mid"
    notes = write_midi_file(midi, [(0.0, 1.0, 60, 100)])
    wav = tmp_path / "tone.wav"
    helpers.tone_wav(wav, freq=261.63, seconds=1.0)
    probs = evaluation.pitch_probability(formats.read_wav(wav), dsp.StftConfig())
    roll = midi_io.to_piano_roll(notes, 288 / 24000, 24000)
    printed = []
    for flags, weighted in (((), False), (("--velocity-weights",), True)):
        assert run_cli("pitch-ce", wav, midi, *flags) == 0
        printed.append(capsys.readouterr().out)
        ce = evaluation.pitch_cross_entropy(probs, roll, weight_by_velocity=weighted)
        assert printed[-1] == f"{ce:.6f}\n"
    assert printed[0] != printed[1]


def test_feat_and_pitch_ce_analyze_at_the_rate_of_the_wav(tmp_path, capsys):
    rate = 16000
    midi = tmp_path / "clip.mid"
    notes = write_midi_file(midi, [(0.0, 1.0, 69, 100)])
    wav = tmp_path / "tone.wav"
    helpers.tone_wav(wav, freq=440.0, seconds=1.0, rate=rate)
    wave = formats.read_wav(wav)
    cfg = dsp.StftConfig(sample_rate=rate)

    out, want = tmp_path / "feat.mfb", tmp_path / "want.mfb"
    assert run_cli("feat", wav, out) == 0
    formats.write_feature_file(want, dsp.extract_features(
        wave, dsp.filter_bank("midi-fb", cfg, 80), cfg))
    assert out.read_bytes() == want.read_bytes()

    capsys.readouterr()
    assert run_cli("pitch-ce", wav, midi) == 0
    roll = midi_io.to_piano_roll(notes, cfg.frame_shift / rate, rate)
    ce = evaluation.pitch_cross_entropy(evaluation.pitch_probability(wave, cfg), roll)
    assert capsys.readouterr().out == f"{ce:.6f}\n"


# --- --no-pedal -------------------------------------------------------------


def pedal_smf(with_pedal):
    """Note 60 from 0 to 0.25 s, and a pedal held from 0.125 to 0.75 s that
    keeps it sounding; without the pedal, the same file less its CC64
    events, which still ends at 1 s.  At 480 ticks a quarter, 120 bpm, a
    tick is 1/960 s."""
    events = [(0, bytes([0x90, 60, 100])), (120, bytes([0xB0, 64, 127])),
              (240, bytes([0x80, 60, 0])), (720, bytes([0xB0, 64, 0]))]
    if not with_pedal:
        events = [(tick, data) for tick, data in events if data[0] != 0xB0]
    payload, now = b"", 0
    for tick, data in events:
        payload += helpers.vlq(tick - now) + data
        now = tick
    return helpers.smf_header() + helpers.track_chunk(payload + helpers.eot(960 - now))


@pytest.mark.parametrize("command", ["roll", "excite", "synth", "pitch-ce"])
def test_no_pedal_equals_the_file_without_cc64(tmp_path, capsys, command):
    pedal, plain = tmp_path / "pedal.mid", tmp_path / "plain.mid"
    pedal.write_bytes(pedal_smf(True))
    plain.write_bytes(pedal_smf(False))
    helpers.write_zero_nsf_ckpt(tmp_path / "nsf.ckpt")
    helpers.tone_wav(tmp_path / "tone.wav", freq=261.63, seconds=1.0)

    def output(midi, *flags):
        if command == "pitch-ce":
            assert run_cli("pitch-ce", tmp_path / "tone.wav", midi, *flags) == 0
            return capsys.readouterr().out
        out = tmp_path / "out"
        extra = ("--nsf-ckpt", tmp_path / "nsf.ckpt") if command == "synth" else ()
        assert run_cli(command, midi, out, *extra, *flags) == 0
        capsys.readouterr()
        return out.read_bytes()

    ignored = output(pedal, "--no-pedal")
    assert ignored == output(plain)
    assert ignored != output(pedal)


# --- probe-set ------------------------------------------------------------


def test_probe_set_count_and_names(tmp_path, capsys):
    out_dir = tmp_path / "probes"
    assert run_cli("probe-set", out_dir, "--count", "6") == 0
    assert "wrote 6 probe files" in capsys.readouterr().out
    names = sorted(p.name for p in out_dir.iterdir())
    assert len(names) == 6
    assert names[0] == "probe_000_note.mid"
    assert names[1] == "probe_001_chord.mid"
    for name in names:
        assert name.endswith(("_note.mid", "_chord.mid"))


def test_probe_set_deterministic(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert run_cli("probe-set", dir_a, "--count", "4", "--seed", "3") == 0
    assert run_cli("probe-set", dir_b, "--count", "4", "--seed", "3") == 0
    for path in sorted(dir_a.iterdir()):
        assert (dir_b / path.name).read_bytes() == path.read_bytes()


# --- stats ----------------------------------------------------------------

SCORES_CSV = """system,sample_id,listener_id,score
A,s1,l1,3
A,s2,l1,4
A,s3,l1,5
B,s1,l2,1
B,s2,l2,2
"""


def test_stats_small_example(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(SCORES_CSV)
    out_dir = tmp_path / "report"
    assert run_cli("stats", scores, "--out-dir", out_dir) == 0
    out = capsys.readouterr().out
    assert "A: n=3 mean=4.00" in out
    assert "0 of 1 pairs differ at alpha=0.05 (Holm-corrected)" in out
    assert "wrote" in out

    mos_lines = (out_dir / "mos.csv").read_text().splitlines()
    assert mos_lines[0] == "system,count,mean,median,q1,q3"
    assert mos_lines[1].startswith("A,3,4.0000,4.0000")
    assert mos_lines[2].startswith("B,2,1.5000")

    sig_lines = (out_dir / "significance.csv").read_text().splitlines()
    assert sig_lines[0] == "system_a,system_b,u,p_raw,p_adjusted,significant"
    fields = sig_lines[1].split(",")
    # all three A scores beat both B scores: U = 6, exact two-sided p = 0.2
    assert fields[:2] == ["A", "B"]
    assert float(fields[2]) == 6.0
    assert abs(float(fields[3]) - 0.2) < 1e-12
    assert abs(float(fields[4]) - 0.2) < 1e-12
    assert fields[5] == "no"


# Four systems: abs and nsf are a tie-free pair of five scores, so their p
# is exact by enumeration; every other pair shares scores and takes the
# normal approximation.  Only am against ref survives the Holm correction.
FROZEN_SCORES_CSV = """system,sample_id,listener_id,score
ref,s1,l1,5
ref,s2,l1,4
ref,s3,l2,5
ref,s4,l2,5
ref,s5,l3,4
ref,s6,l3,5
ref,s7,l4,5
ref,s8,l4,4
am,s1,l1,2
am,s2,l1,1
am,s3,l2,2
am,s4,l2,3
am,s5,l3,1
am,s6,l3,2
am,s7,l4,2
am,s8,l4,1
nsf,s1,l1,5
nsf,s2,l1,3
abs,s1,l1,4
abs,s2,l1,2
abs,s3,l2,1
"""
FROZEN_MOS = (b"system,count,mean,median,q1,q3\r\n"
              b"abs,3,2.3333,2.0000,1.5000,3.0000\r\n"
              b"am,8,1.7500,2.0000,1.0000,2.0000\r\n"
              b"nsf,2,4.0000,4.0000,3.5000,4.5000\r\n"
              b"ref,8,4.6250,5.0000,4.0000,5.0000\r\n")
FROZEN_SIGNIFICANCE = (b"system_a,system_b,u,p_raw,p_adjusted,significant\r\n"
                       b"abs,am,14.5,0.660446,1,no\r\n"
                       b"abs,nsf,1.0,0.4,1,no\r\n"
                       b"abs,ref,1.5,0.028057,0.140285,no\r\n"
                       b"am,nsf,0.5,0.0552343,0.220937,no\r\n"
                       b"am,ref,0.0,0.000662466,0.0039748,yes\r\n"
                       b"nsf,ref,5.5,0.550097,1,no\r\n")
FROZEN_STDOUT = """abs: n=3 mean=2.33 median=2.0 IQR=[1.5, 3.0]
am: n=8 mean=1.75 median=2.0 IQR=[1.0, 2.0]
nsf: n=2 mean=4.00 median=4.0 IQR=[3.5, 4.5]
ref: n=8 mean=4.62 median=5.0 IQR=[4.0, 5.0]
1 of 6 pairs differ at alpha=0.05 (Holm-corrected)
wrote <out>/mos.csv and <out>/significance.csv
"""


def test_stats_output_is_frozen(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(FROZEN_SCORES_CSV)
    out_dir = tmp_path / "report"
    assert run_cli("stats", scores, "--out-dir", out_dir) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.replace(str(out_dir), "<out>") == FROZEN_STDOUT
    assert (out_dir / "mos.csv").read_bytes() == FROZEN_MOS
    assert (out_dir / "significance.csv").read_bytes() == FROZEN_SIGNIFICANCE


def test_stats_reads_csv_with_byte_order_mark(tmp_path, capsys):
    # spreadsheet programs save CSV with a UTF-8 byte-order mark
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        scores = tmp_path / f"{name}.csv"
        scores.write_bytes(prefix + FROZEN_SCORES_CSV.encode())
        out_dir = tmp_path / name
        assert run_cli("stats", scores, "--out-dir", out_dir) == 0
        outputs.append((capsys.readouterr().out.replace(str(out_dir), "<out>"),
                        (out_dir / "mos.csv").read_bytes(),
                        (out_dir / "significance.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("alpha", ["7", "nan", "0"])
def test_stats_alpha_outside_unit_interval_exits_2(tmp_path, capsys, alpha):
    scores = tmp_path / "scores.csv"
    scores.write_text(SCORES_CSV)
    assert run_cli("stats", scores, "--out-dir", tmp_path / "r", "--alpha", alpha) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must lie in (0, 1)\n"
    assert not (tmp_path / "r").exists()


def test_stats_malformed_row_exits_2(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("system,sample_id,listener_id,score\nA,s1,l1,3\nA,s1\n")
    assert run_cli("stats", scores, "--out-dir", tmp_path / "r") == 2
    assert "line 3" in capsys.readouterr().err


# --- train ----------------------------------------------------------------


def nsf_config(tmp_path, **train_overrides):
    train = {"learning_rate": 1e-3, "batch_size": 2, "segment_seconds": 0.05,
             "epochs": 2, "seed": 0}
    train.update(train_overrides)
    config = {
        "model": {"upsample_factor": 64, "channels": 4, "n_blocks": 1,
                  "convs_per_block": 2, "kernel": 3},
        "train": train,
        "data": {"features": "piano-roll"},
    }
    path = tmp_path / "nsf_config.json"
    path.write_text(json.dumps(config))
    return path


def make_pair(tmp_path, seconds=0.2, rate=24000):
    tmp_path.mkdir(exist_ok=True)
    midi = tmp_path / "clip.mid"
    write_midi_file(midi, [(0.0, seconds, 69, 100)])
    helpers.tone_wav(tmp_path / "clip.wav", freq=440.0, seconds=seconds, rate=rate)
    return tmp_path


def test_train_nsf_writes_checkpoint_and_history(tmp_path, capsys):
    data = make_pair(tmp_path / "data")
    out = tmp_path / "run"
    cfg_path = nsf_config(tmp_path)
    assert run_cli("train", "nsf", data, out, "--config", cfg_path) == 0
    captured = capsys.readouterr().out
    assert "trained on 3 segments for 2 epochs" in captured
    assert "wrote" in captured

    params, model_cfg = nsf.load_checkpoint(out / "nsf.ckpt")
    assert model_cfg.upsample_factor == 64
    assert params.step == 4
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]


def test_train_nsf_resume_continues_steps(tmp_path, capsys):
    data = make_pair(tmp_path / "data")
    first = tmp_path / "first"
    cfg_path = nsf_config(tmp_path)
    assert run_cli("train", "nsf", data, first, "--config", cfg_path) == 0
    second = tmp_path / "second"
    assert run_cli("train", "nsf", data, second, "--config", cfg_path,
                   "--resume", first / "nsf.ckpt") == 0
    capsys.readouterr()

    params, _ = nsf.load_checkpoint(second / "nsf.ckpt")
    assert params.step == 8
    lines = (tmp_path / "second" / "loss.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["5", "6", "7", "8"]


def test_a_run_stopped_early_leaves_loss_csv_at_its_checkpoint(tmp_path, capsys,
                                                               monkeypatch):
    """Three epochs of two steps (3 segments, batch 2), and the 4th
    nsf_backward call, the first of step 3, returns a NaN loss: the run
    exits 2, and loss.csv holds the steps of the step-2 checkpoint."""
    data = make_pair(tmp_path / "data")
    out = tmp_path / "run"
    backward, calls = nsf.nsf_backward, []

    def nan_from_the_4th_call(*args):
        calls.append(args)
        loss, grads = backward(*args)
        return (np.nan if len(calls) >= 4 else loss), grads

    monkeypatch.setattr(nsf, "nsf_backward", nan_from_the_4th_call)
    assert run_cli("train", "nsf", data, out, "--config",
                   nsf_config(tmp_path, epochs=3)) == 2
    assert capsys.readouterr().err == "error: non-finite loss or gradient at step 3\n"
    params, _ = nsf.load_checkpoint(out / "nsf.ckpt")
    assert params.step == 2
    lines = (out / "loss.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["step", "1", "2"]


@pytest.mark.parametrize("kind, seconds", [
    pytest.param("nsf", 1.0, id="nsf"),
    pytest.param("nsf", 1e308, id="nsf-1e308"),
    pytest.param("am", None, id="am"),
])
def test_a_clip_shorter_than_a_segment_trains_as_one_segment(tmp_path, capsys, kind,
                                                             seconds):
    """A 0.2 s clip with 1 s or 1e308 s NSF segments (a frame count past
    the float range), or its 17 frames with 100-frame AM segments, is one
    whole segment: 2 epochs of one step each."""
    data = make_pair(tmp_path / "data")
    if kind == "nsf":
        config = nsf_config(tmp_path, segment_seconds=seconds)
    else:
        config = am_config(tmp_path, segment_frames=100, epochs=2)
    out = tmp_path / "run"
    assert run_cli("train", kind, data, out, "--config", config) == 0
    assert "trained on 1 segments for 2 epochs" in capsys.readouterr().out
    lines = (out / "loss.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["step", "1", "2"]


@pytest.mark.parametrize("kind, segments", [("nsf", 4), ("am", 2)])
def test_train_takes_the_rate_of_its_wavs(tmp_path, capsys, kind, segments):
    """A 0.2 s clip at 16 kHz with no rate in the config trains at 16 kHz:
    50 frames of 64 samples in 12-frame NSF segments (75 frames in 19 at
    24 kHz), or 12 AM frames in 5-frame segments (17 at 24 kHz)."""
    data = make_pair(tmp_path / "data", rate=16000)
    config = (nsf_config(tmp_path, epochs=1) if kind == "nsf"
              else am_config(tmp_path, segment_frames=5))
    assert run_cli("train", kind, data, tmp_path / "run", "--config", config) == 0
    assert f"trained on {segments} segments" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["nsf", "am"])
def test_a_clip_with_no_frames_is_skipped(tmp_path, capsys, kind):
    """An empty MIDI file gives its clip no frames, so train takes the next
    clip's 3 segments only: the run writes the bytes of a run on that clip
    alone."""
    alone = make_pair(tmp_path / "alone")
    both = make_pair(tmp_path / "both")
    (both / "a.mid").write_bytes(helpers.note_smf([]))
    helpers.tone_wav(both / "a.wav", seconds=0.2)
    config = (nsf_config(tmp_path, epochs=1) if kind == "nsf"
              else am_config(tmp_path, segment_frames=5))
    written = []
    for data in (alone, both):
        run = tmp_path / f"run-{data.name}"
        assert run_cli("train", kind, data, run, "--config", config) == 0
        assert "trained on 3 segments" in capsys.readouterr().out
        written.append([(run / name).read_bytes() for name in (f"{kind}.ckpt", "loss.csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("mode", ["direct", "am+nsf"])
@pytest.mark.parametrize("kind", ["sine", "noise"])
def test_synth_is_within_one_pcm_step_of_the_float64_model(tmp_path, capsys,
                                                          monkeypatch, mode, kind):
    """synth runs the channel stack in float32; every sample it writes is
    within one PCM16 step of the float64 model on the same inputs."""
    data = make_pair(tmp_path / "data", seconds=0.3)
    run = tmp_path / "run"
    config = nsf_config(tmp_path, learning_rate=0.05, epochs=6)
    assert run_cli("train", "nsf", data, run, "--config", config) == 0
    params, cfg = nsf.load_checkpoint(run / "nsf.ckpt")
    assert np.abs(params.tensors["block0.out.weight"]).max() > 0.05  # trained
    calls = []
    forward = nsf.nsf_forward

    def spy(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(nsf, "nsf_forward", spy)
    midi = tmp_path / "in.mid"
    write_midi_file(midi, [(0.0, 0.6, 69, 100), (0.2, 0.9, 76, 80),
                           (0.7, 1.2, 64, 110)])
    helpers.write_tiny_am_ckpt(tmp_path / "am.ckpt")
    out = tmp_path / "out.wav"
    assert run_cli("synth", midi, out, "--nsf-ckpt", run / "nsf.ckpt", "--mode", mode,
                   "--am-ckpt", tmp_path / "am.ckpt", "--excitation", kind) == 0
    capsys.readouterr()
    (_, feats, source, _, dtype), = calls
    assert dtype == np.float32
    assert nsf._stack_dtype(params, feats, source, cfg) == np.float32
    want = formats.quantize_pcm16(forward(params, feats, source, cfg).samples)
    got = np.frombuffer(out.read_bytes()[44:], "<i2")
    assert len(got) == len(want)
    assert np.abs(got.astype(int) - want).max() <= 1


def test_resume_from_a_forged_step_exits_2(tmp_path):
    """A step count of 10 ** 12 would have the resumed run replay 5e11
    shuffles before its first epoch; it is refused at once instead."""
    data = make_pair(tmp_path / "data")
    cfg_path = nsf_config(tmp_path)
    assert run_cli("train", "nsf", data, tmp_path / "first", "--config", cfg_path) == 0
    forged = tmp_path / "forged.ckpt"
    params, model_cfg = nsf.load_checkpoint(tmp_path / "first" / "nsf.ckpt")
    params.step = 10 ** 12
    nsf.save_checkpoint(forged, params, model_cfg)
    proc = run_cli_process("train", "nsf", data, tmp_path / "out", "--config",
                           cfg_path, "--resume", forged, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: step {10 ** 12} ") \
        and proc.stderr.count("\n") == 1, proc.stderr
    assert "limit of 65536" in proc.stderr


def test_train_refused_before_its_first_epoch_makes_no_output_dir(tmp_path, capsys):
    data = make_pair(tmp_path / "data")
    cfg_path = nsf_config(tmp_path)
    assert run_cli("train", "nsf", data, tmp_path / "first", "--config", cfg_path) == 0
    forged = tmp_path / "forged.ckpt"
    params, model_cfg = nsf.load_checkpoint(tmp_path / "first" / "nsf.ckpt")
    params.step = 10 ** 12
    nsf.save_checkpoint(forged, params, model_cfg)
    capsys.readouterr()
    assert run_cli("train", "nsf", data, tmp_path / "out", "--config", cfg_path,
                   "--resume", forged) == 2
    assert capsys.readouterr().err.startswith(f"error: step {10 ** 12} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,flag", [("nsf", "--resume"), ("am", "--warm-start")])
def test_train_refuses_a_corrupt_checkpoint_before_reading_a_clip(tmp_path, capsys,
                                                                  monkeypatch, kind, flag):
    data = make_pair(tmp_path / "data")
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(b"not a checkpoint")
    reads, read_wav = [], formats.read_wav
    monkeypatch.setattr(formats, "read_wav", lambda path: reads.append(path) or read_wav(path))
    assert run_cli("train", kind, data, tmp_path / "out", flag, corrupt) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corrupt}: ") and err.count("\n") == 1, err
    assert reads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,model,data", [
    ("nsf", {}, {"excitation": "sine"}),
    ("nsf", {}, {"excitation": "noise"}),
    ("am", {"variant": "taco2"}, {}),
    ("am", {"variant": "taco3"}, {}),
    ("am", {"variant": "taco4"}, {}),
], ids=["nsf-sine", "nsf-noise", "taco2", "taco3", "taco4"])
def test_resume_matches_uninterrupted_run(tmp_path, kind, model, data):
    """E epochs straight through, and E-k epochs then --resume for k, give
    the same checkpoint bytes and loss rows.  Each epoch holds a partial
    batch, so the shuffle and the step count both carry over."""
    pair = make_pair(tmp_path / "data")
    make_config = nsf_config if kind == "nsf" else am_config

    def train(name, epochs, *resume):
        cfg_dir = tmp_path / f"{name}-cfg"
        cfg_dir.mkdir()
        path = make_config(cfg_dir, batch_size=2, epochs=epochs,
                           **({} if kind == "nsf" else {"segment_frames": 5}))
        config = json.loads(path.read_text())
        config["model"].update(model)
        config["data"].update(data)
        path.write_text(json.dumps(config))
        out = tmp_path / name
        assert run_cli("train", kind, pair, out, "--config", path, *resume) == 0
        return out / f"{kind}.ckpt", (out / "loss.csv").read_text().splitlines()[1:]

    epochs = 3
    straight, straight_rows = train("straight", epochs)
    assert len(straight_rows) == 2 * epochs
    for k in range(1, epochs):
        first, first_rows = train(f"first{k}", epochs - k)
        resumed, resumed_rows = train(f"resumed{k}", k, "--resume", first)
        assert resumed.read_bytes() == straight.read_bytes(), k
        assert first_rows + resumed_rows == straight_rows, k


def am_config(tmp_path, variant="taco2", **train_overrides):
    train = {"learning_rate": 1e-3, "batch_size": 2, "segment_frames": 12,
             "epochs": 1, "seed": 0}
    train.update(train_overrides)
    config = {
        "model": {"variant": variant, "encoder_channels": 8,
                  "decoder_state_dim": 8, "prenet_widths": [12, 8],
                  "postnet_channels": 8},
        "train": train,
        "data": {"bank": "midi"},
    }
    path = tmp_path / f"am_config_{variant}.json"
    path.write_text(json.dumps(config))
    return path


def test_train_am_writes_checkpoint_and_history(tmp_path, capsys):
    data = make_pair(tmp_path / "data", seconds=0.3)
    out = tmp_path / "run"
    assert run_cli("train", "am", data, out, "--config",
                   am_config(tmp_path)) == 0
    assert "trained on 2 segments for 1 epochs" in capsys.readouterr().out

    params, cfg = acoustic.am_load_checkpoint(out / "am.ckpt")
    assert cfg.variant == "taco2"
    assert cfg.output_dim == 128
    assert (out / "loss.csv").exists()


def test_train_am_warm_start_switches_variant(tmp_path, capsys):
    data = make_pair(tmp_path / "data", seconds=0.3)
    base = tmp_path / "base"
    assert run_cli("train", "am", data, base, "--config",
                   am_config(tmp_path)) == 0
    grown = tmp_path / "grown"
    assert run_cli("train", "am", data, grown, "--config",
                   am_config(tmp_path, variant="taco3"),
                   "--warm-start", base / "am.ckpt") == 0
    capsys.readouterr()

    _, cfg = acoustic.am_load_checkpoint(grown / "am.ckpt")
    assert cfg.variant == "taco3"
    raw = (grown / "am.ckpt").read_bytes()
    assert b'"variant":"taco3"' in raw


def test_train_non_finite_loss_exits_2(tmp_path, capsys, monkeypatch):
    data = make_pair(tmp_path / "data")
    out = tmp_path / "run"

    def nan_wav(path, rate):
        wave = formats.read_wav(path)
        return dsp.WaveSignal(np.full(len(wave), np.nan), wave.sample_rate)

    monkeypatch.setattr(cli, "_read_wav_checked", nan_wav)
    assert run_cli("train", "nsf", data, out, "--config",
                   nsf_config(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss or gradient at step 1")
    assert err.count("\n") == 1
    assert not (out / "nsf.ckpt").exists()


# A numpy warning would print to stderr in a real run, so here it is an error.
@pytest.mark.filterwarnings("error")
def test_train_am_diverging_exits_2(tmp_path, capsys):
    data = make_pair(tmp_path / "data", seconds=0.3)
    out = tmp_path / "run"
    config = am_config(tmp_path, learning_rate=1e300, batch_size=1)
    assert run_cli("train", "am", data, out, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1, err
    assert not (out / "am.ckpt").exists()


@pytest.mark.filterwarnings("error")
def test_train_nsf_diverging_exits_2(tmp_path, capsys):
    """Adam steps of 1e308 blow the weights up within an epoch: the run
    ends in one error line, with no numpy warning, and leaves no
    checkpoint that does not load."""
    data = make_pair(tmp_path / "data", seconds=0.3)
    out = tmp_path / "run"
    config = nsf_config(tmp_path, learning_rate=1e308, epochs=3)
    assert run_cli("train", "nsf", data, out, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    if (out / "nsf.ckpt").exists():
        nsf.load_checkpoint(out / "nsf.ckpt")


@pytest.mark.filterwarnings("error")
def test_train_nsf_huge_finite_steps_save_a_loadable_checkpoint(tmp_path, capsys):
    """Adam steps of 1e300 leave the weights far past the float32 range but
    finite; the checkpoint stores them as they are."""
    data = make_pair(tmp_path / "data", seconds=0.3)
    out = tmp_path / "run"
    config = nsf_config(tmp_path, learning_rate=1e300, epochs=3)
    assert run_cli("train", "nsf", data, out, "--config", config) == 0
    assert capsys.readouterr().err == ""
    params, _ = nsf.load_checkpoint(out / "nsf.ckpt")
    values = [*params.tensors.values(), *params.adam_m.values(),
              *params.adam_v.values()]
    assert all(np.isfinite(v).all() for v in values)
    assert max(np.abs(v).max() for v in values) > np.finfo(np.float32).max


@pytest.mark.parametrize("config, message", [
    ({"model": [2, 1, 1]}, "config section 'model' must be an object"),
    ({"train": {"epochs": "1"}}, "epochs must be a positive integer, got '1'"),
    (b'{"train": {"epochs": "x", "epochs": 2}}', "duplicate key 'epochs'"),
], ids=["section-list", "number-string", "duplicate-key"])
def test_config_refusal_names_the_file(tmp_path, capsys, config, message):
    argv = train_with("nsf", config)(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'cfg.json'}: {message}\n"


def test_train_unknown_config_key_exits_2(tmp_path, capsys):
    data = make_pair(tmp_path / "data")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"train": {"momentum": 0.9}}))
    assert run_cli("train", "nsf", data, tmp_path / "out",
                   "--config", cfg_path) == 2
    assert "momentum" in capsys.readouterr().err


def hostile_mfb(path, shift=0.012, rate=24e3, kind="midi-fb", dim=128, value=0.0):
    header = formats.FEATURE_MAGIC + struct.pack(
        "<IIIIdd", 1, 2, dim, dsp.FeatureMatrix.KINDS.index(kind), shift, rate)
    path.write_bytes(header + np.full(2 * dim, value, "<f4").tobytes())
    return path


def train_with(kind, config, *extra, midi_seconds=None):
    def argv(tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(config if isinstance(config, bytes)
                             else json.dumps(config).encode())
        data = make_pair(tmp_path / "data")
        if midi_seconds is not None:
            write_midi_file(data / "clip.mid", [(0.0, midi_seconds, 69, 100)])
        return ["train", kind, data, tmp_path / "out", "--config", cfg_path, *extra]
    return argv


def stats_with(blob):
    def argv(tmp_path):
        (tmp_path / "scores.csv").write_bytes(blob)
        return ["stats", tmp_path / "scores.csv", "--out-dir", tmp_path / "out"]
    return argv


SCORES_HEADER = b"system,sample_id,listener_id,score\n"


def train_nsf_above_nyquist(tmp_path):
    """train nsf at 16 kHz on a clip whose note 127 (12.5 kHz) the rate
    cannot carry."""
    data = tmp_path / "data"
    data.mkdir()
    write_midi_file(data / "clip.mid", [(0.0, 0.2, 127, 100)])
    helpers.tone_wav(data / "clip.wav", seconds=0.2, rate=16000)
    return ["train", "nsf", data, tmp_path / "out"]


def train_nsf_on_a_file(tmp_path):
    """train nsf with a regular file where the data directory should be."""
    (tmp_path / "data").write_bytes(b"")
    return ["train", "nsf", tmp_path / "data", tmp_path / "out"]


def train_at_wav_rate(kind, rate):
    """train kind on a 0.2 s clip whose WAV header says rate Hz, which
    formats.write_wav would refuse past 2^31 - 1."""
    def argv(tmp_path):
        args = train_with(kind, {})(tmp_path)
        wav = tmp_path / "data" / "clip.wav"
        blob = bytearray(wav.read_bytes())
        struct.pack_into("<II", blob, 24, rate, min(2 * rate, 2 ** 32 - 1))
        wav.write_bytes(blob)
        return args
    return argv


def midi_with(command, smf, *extra):
    def argv(tmp_path):
        (tmp_path / "in.mid").write_bytes(smf)
        helpers.write_zero_nsf_ckpt(tmp_path / "nsf.ckpt")
        return [command, tmp_path / "in.mid", tmp_path / "out", *extra]
    return argv


def wav_with(command, seconds, *extra):
    def argv(tmp_path):
        helpers.tone_wav(tmp_path / "in.wav", seconds=seconds)
        return [command, tmp_path / "in.wav", tmp_path / "out", *extra]
    return argv


def pitch_ce_at(rate, smf, samples=288):
    """pitch-ce on silent samples at rate and a MIDI file of smf."""
    def argv(tmp_path):
        formats.write_wav(tmp_path / "in.wav", dsp.WaveSignal(np.zeros(samples), rate))
        (tmp_path / "in.mid").write_bytes(smf)
        return ["pitch-ce", tmp_path / "in.wav", tmp_path / "in.mid"]
    return argv


def synth_am_with(smf, **am):
    """synth in am+nsf mode through a tiny acoustic model, of am's fields."""
    def argv(tmp_path):
        helpers.write_tiny_am_ckpt(tmp_path / "am.ckpt", **am)
        return midi_with("synth", smf, "--nsf-ckpt", "nsf.ckpt", "--mode", "am+nsf",
                         "--am-ckpt", "am.ckpt")(tmp_path)
    return argv


def synth_with_stored_nsf_config(**fields):
    """synth through a CRC-valid checkpoint, with no tensors, whose stored
    config sets fields."""
    def argv(tmp_path):
        config = {**dataclasses.asdict(nsf.NsfConfig(128)), **fields}
        formats.write_container(tmp_path / "bad.ckpt", nsf.NSF_MAGIC, config, {})
        return midi_with("synth", helpers.note_smf([(0, 480, 64, 110)]),
                         "--nsf-ckpt", tmp_path / "bad.ckpt")(tmp_path)
    return argv


def synth_with_nsf_ckpt_version(version):
    """synth through a checkpoint whose version field reads version, CRC fixed."""
    def argv(tmp_path):
        args = midi_with("synth", helpers.note_smf([(0, 480, 64, 110)]),
                         "--nsf-ckpt", "nsf.ckpt")(tmp_path)
        body = bytearray((tmp_path / "nsf.ckpt").read_bytes()[:-4])
        struct.pack_into("<I", body, 4, version)
        (tmp_path / "nsf.ckpt").write_bytes(helpers.with_crc(bytes(body)))
        return args
    return argv


def synth_direct_on_80_dim_nsf(ticks):
    """synth, direct from a roll of 128 pitches over one note of ticks
    (960 a second), through an NSF model that wants 80-dim features."""
    def argv(tmp_path):
        args = midi_with("synth", helpers.note_smf([(0, ticks, 64, 110)]),
                         "--nsf-ckpt", "nsf.ckpt")(tmp_path)
        helpers.write_zero_nsf_ckpt(tmp_path / "nsf.ckpt", feature_dim=80)
        return args
    return argv


def synth_with_many_tensors(tmp_path):
    """synth through a CRC-valid checkpoint whose table holds 1,000,000
    scalar tensors."""
    argv = midi_with("synth", helpers.note_smf([(0, 480, 64, 110)]),
                     "--nsf-ckpt", tmp_path / "many.ckpt")(tmp_path)
    table = np.zeros(10 ** 6, [("size", "<u2"), ("name", "S8"), ("ndim", "u1"),
                               ("value", "<f8")])
    table["size"] = 8
    table["name"] = [b"t%07d" % i for i in range(10 ** 6)]
    block = json.dumps(dataclasses.asdict(nsf.NsfConfig(128))).encode()
    body = nsf.NSF_MAGIC + struct.pack("<II", 3, len(block)) + block \
        + struct.pack("<I", 10 ** 6) + table.tobytes()
    (tmp_path / "many.ckpt").write_bytes(helpers.with_crc(body))
    return argv


# 16,777,215 parameters, one under params.MAX_PARAMETERS, in 16.8M tensors
TINY_LAYERS = {"n_blocks": 2796181, "convs_per_block": 1, "channels": 1, "kernel": 1}
# 3,662 parameters that read 2^32 - 4 samples back
DEEP_FIELD = {"convs_per_block": 30, "channels": 4}


HOSTILE = {
    "synth-rate-0": midi_with("synth", helpers.note_smf([(0, 480, 64, 110)]),
                              "--nsf-ckpt", "nsf.ckpt", "--rate", "0"),
    "gl-inf-rate": lambda p: ["gl", hostile_mfb(p / "x.mfb", rate=np.inf), p / "out"],
    "gl-inf-shift": lambda p: ["gl", hostile_mfb(p / "x.mfb", shift=np.inf), p / "out"],
    "roll-long-smf": midi_with("roll", helpers.LONG_SMF),
    "excite-long-smf": midi_with("excite", helpers.LONG_SMF),
    "synth-long-smf": midi_with("synth", helpers.LONG_SMF, "--nsf-ckpt", "nsf.ckpt"),
    "nsf-segment-inf": train_with("nsf", {"train": {"segment_seconds": np.inf}}),
    # the WAVs fix the sample rate, so a config may not
    "nsf-rate-key": train_with("nsf", {"data": {"rate": 24000}}),
    "am-rate-key": train_with("am", {"data": {"rate": 24000}}),
    "nsf-rate-inf": train_with("nsf", {"data": {"rate": np.inf}}),
    "nsf-rate-0": train_with("nsf", {"data": {"rate": 0}}),
    "am-rate-inf": train_with("am", {"data": {"rate": np.inf}}),
    "am-rate-0": train_with("am", {"data": {"rate": 0}}),
    "nsf-fractional-channels": train_with("nsf", {"model": {"channels": 4.5}}),
    "nsf-warm-start": train_with("nsf", {}, "--warm-start", "am.ckpt"),
    "am-resume-and-warm-start": train_with("am", {}, "--resume", "am.ckpt",
                                           "--warm-start", "am.ckpt"),
    # rolls of 1.2e12, 1.7e6 and 1.4e6 frames, over midi_io.MAX_ROLL_FRAMES
    "roll-tiny-shift": midi_with("roll", helpers.note_smf([(0, 1152, 64, 110)]),
                                 "--shift", "1e-12"),
    "synth-huge-rate": midi_with("synth", helpers.note_smf([(0, 480, 64, 110)]),
                                 "--nsf-ckpt", "nsf.ckpt", "--rate", "1000000000"),
    "nsf-roll-too-long": train_with("nsf", {"model": {"upsample_factor": 1}},
                                    midi_seconds=60.0),
    "nsf-beta1-5": train_with("nsf", {"train": {"beta1": 5}}),
    "nsf-beta2-1": train_with("nsf", {"train": {"beta2": 1.0}}),
    "nsf-lr-inf": train_with("nsf", {"train": {"learning_rate": np.inf}}),
    "nsf-epochs-fractional": train_with("nsf", {"train": {"epochs": 1.5}}),
    "nsf-batch-fractional": train_with("nsf", {"train": {"batch_size": 1.5}}),
    "nsf-seed-fractional": train_with("nsf", {"train": {"seed": 0.5}}),
    "nsf-seed-negative": train_with("nsf", {"train": {"seed": -1}}),
    "nsf-epochs-bool": train_with("nsf", {"train": {"epochs": True}}),
    "am-beta1-negative": train_with("am", {"train": {"beta1": -0.1}}),
    "am-lr-string": train_with("am", {"train": {"learning_rate": "0.1"}}),
    "am-segment-fractional": train_with("am", {"train": {"segment_frames": 1.5}}),
    "am-seed-fractional": train_with("am", {"train": {"seed": 0.5}}),
    # 1.2e9 excitation samples (8.9 GiB) and 240k frames of 1025 bins
    # (3.7 GiB), over excitation.MAX_SAMPLES and dsp.MAX_SPECTROGRAM_ENTRIES
    "excite-huge-rate": midi_with("excite", helpers.note_smf([(0, 1152, 64, 110)]),
                                  "--rate", "1000000000"),
    "feat-shift-1": wav_with("feat", 10.0, "--frame-shift", "1"),
    # banks of 128 x 5e7 and 1e7 x 1025 entries (47.7 and 76.4 GiB), over
    # dsp.MAX_FILTER_BANK_ENTRIES
    "feat-huge-fft": wav_with("feat", 1.0, "--fft", "100000000"),
    "feat-huge-n-mels": wav_with("feat", 1.0, "--bank", "mel", "--n-mels",
                                 "10000000"),
    # non-finite audio: 10 ** 400 magnitudes
    "gl-linear-overflow": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", kind="linear-spec", dim=1025, value=400.0),
        p / "out"],
    "gl-midi-overflow": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", kind="midi-fb", dim=128, value=400.0), p / "out"],
    "gl-mel-overflow": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", kind="mel-fb", dim=80, value=400.0), p / "out"],
    # 10 ** 300 is finite, but the sums inside Griffin-Lim overflow
    "gl-linear-300": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", kind="linear-spec", dim=1025, value=300.0),
        p / "out"],
    "gl-midi-300": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", kind="midi-fb", dim=128, value=300.0), p / "out"],
    # inputs that fit no model or transform: a wrong width, kind or bin
    # count, or a piece with no notes
    "gl-linear-513-bins": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", kind="linear-spec", dim=513), p / "out"],
    "synth-empty-midi": midi_with("synth", helpers.note_smf([]), "--nsf-ckpt", "nsf.ckpt"),
    "synth-direct-on-80-dim-nsf": synth_direct_on_80_dim_nsf(480),
    # a model that does not fit is refused before the AM or the excitation
    # runs: a 300 s roll takes 25.6 MB, its excitation would add 57.6 MB
    "synth-direct-300-s-on-80-dim-nsf": synth_direct_on_80_dim_nsf(288000),
    "synth-am-80-dim-mel-on-128-dim-nsf": synth_am_with(
        helpers.note_smf([(0, 288000, 64, 110)]), output_dim=80, output_kind="mel-fb"),
    "synth-am-empty-midi": synth_am_with(helpers.note_smf([])),
    "pitch-ce-empty-wav": pitch_ce_at(24000, helpers.note_smf([(0, 480, 64, 110)]),
                                      samples=0),
    "nsf-feature-dim-7": train_with("nsf", {"model": {"feature_dim": 7}}),
    "am-output-dim-7": train_with("am", {"model": {"output_dim": 7}}),
    # the data section alone sets a model's feature kind and widths, so a
    # model section that names one is refused, even with a matching value
    "nsf-feature-dim-128": train_with("nsf", {"model": {"feature_dim": 128},
                                              "train": {"epochs": 1}}),
    "am-output-kind-mel": train_with("am", {"model": {"output_kind": "mel-fb"},
                                            "train": {"epochs": 1}}),
    "am-input-dim-5": train_with("am", {"model": {"input_dim": 5}}),
    "nsf-features-linear-spec": train_with("nsf", {"data": {"features": "linear-spec"}}),
    "nsf-excitation-pulse": train_with("nsf", {"data": {"excitation": "pulse"}}),
    "am-bank-bark": train_with("am", {"data": {"bank": "bark"}}),
    # config values of the wrong type, refused with the key named
    "nsf-segment-seconds-str": train_with("nsf", {"train": {"segment_seconds": "3"}}),
    "nsf-segment-seconds-true": train_with("nsf", {"train": {"segment_seconds": True}}),
    "am-prenet-widths-int": train_with("am", {"model": {"prenet_widths": 5}}),
    "am-prenet-dropout-str": train_with("am", {"model": {"prenet_dropout": "x"}}),
    # layer tables of 3.0e19, 3.0e18 and 1.4e11 parameters, over
    # params.MAX_PARAMETERS
    "nsf-channels-huge": train_with("nsf", {"model": {"channels": 1000000000}}),
    "am-decoder-state-huge": train_with("am",
                                        {"model": {"decoder_state_dim": 1000000000}}),
    "am-prenet-width-huge": train_with("am",
                                       {"model": {"prenet_widths": [1000000000, 8]}}),
    # layer tables of 1.4e10, 4e9 and 1.7e7 tensors, refused at the one
    # past params.MAX_TENSORS, before the rest of the table is built
    "nsf-n-blocks-huge": train_with("nsf", {"model": {"n_blocks": 10 ** 9}}),
    "nsf-convs-huge": train_with("nsf", {"model": {"convs_per_block": 10 ** 9}}),
    "synth-ckpt-n-blocks-huge": synth_with_stored_nsf_config(n_blocks=10 ** 9),
    "nsf-tiny-layers": train_with("nsf", {"model": TINY_LAYERS}),
    "synth-ckpt-tiny-layers": synth_with_stored_nsf_config(**TINY_LAYERS),
    # a receptive field over nsf.MAX_RECEPTIVE_FIELD
    "nsf-deep-field": train_with("nsf", {"model": DEEP_FIELD}),
    "synth-ckpt-deep-field": synth_with_stored_nsf_config(**DEEP_FIELD),
    # segments of 1e9, 1e7, 1e8 and 2.4e6 samples, over nsf.MAX_SEGMENT_SAMPLES:
    # one frame of 1e9, 0.2 s rolls at 5e7 and 5e8 Hz, and a 100 s roll
    # trained whole.  The 5e8 Hz roll would take 339 MiB, so the segment is
    # refused before the roll is built.
    "nsf-upsample-huge": train_with("nsf", {"model": {"upsample_factor": 10 ** 9}}),
    "nsf-wav-rate-50mhz": train_at_wav_rate("nsf", 5 * 10 ** 7),
    "nsf-wav-rate-500mhz": train_at_wav_rate("nsf", 5 * 10 ** 8),
    "nsf-long-clip-whole": train_with("nsf", {"train": {"segment_seconds": 1e9}},
                                      midi_seconds=100.0),
    # a 0.2 s roll at the top u32 rate of a WAV header: 3e6 frames, over
    # midi_io.MAX_ROLL_FRAMES
    "am-wav-rate-top": train_at_wav_rate("am", 2 ** 32 - 1),
    # rates whose byte rate, 2 x rate, overflows the WAV header's u32
    "excite-rate-over-wav-header": midi_with(
        "excite", helpers.note_smf([(0, 1, 64, 110)]), "--rate", "2200000000"),
    "gl-rate-over-wav-header": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", shift=288 / 5e9, rate=5e9), p / "out"],
    # rates past the float range
    "excite-rate-over-float": midi_with("excite", helpers.note_smf([(0, 1, 64, 110)]),
                                        "--rate", str(10 ** 400)),
    "roll-rate-over-float": midi_with("roll", helpers.note_smf([(0, 1, 64, 110)]),
                                      "--rate", str(10 ** 400)),
    # a product that overflows a float: a hop of 1e400 samples
    "gl-hop-overflow": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", shift=1e200, rate=1e200), p / "out"],
    # an analysis the feature file's shift and rate cannot give: a hop of
    # 24000 samples over the 1200-sample frame, and a rate that rounds to 0
    "gl-hop-over-frame-length": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", shift=1.0, rate=24e3), p / "out"],
    "gl-rate-rounds-to-zero": lambda p: [
        "gl", hostile_mfb(p / "x.mfb", rate=0.4), p / "out"],
    # a clip's note above the Nyquist frequency of its WAV's rate: 16 kHz,
    # and 1 Hz in the header of a 0.2 s clip
    "nsf-note-above-nyquist": train_nsf_above_nyquist,
    "nsf-wav-rate-1": train_at_wav_rate("nsf", 1),
    # a tensor table over 3 x params.MAX_TENSORS + 1 entries, refused
    # before any tensor is built
    "synth-ckpt-many-tensors": synth_with_many_tensors,
    # version 1 stored its config as u32 fields and version 2 float32
    # tensors; neither loads
    "synth-ckpt-version-1": synth_with_nsf_ckpt_version(1),
    "synth-ckpt-version-2": synth_with_nsf_ckpt_version(2),
    # the highest rate a WAV header holds: a 1 s roll at its 288-sample
    # shift needs 7.5e6 frames, over midi_io.MAX_ROLL_FRAMES
    "pitch-ce-top-wav-rate": pitch_ce_at(2 ** 31 - 1,
                                         helpers.note_smf([(0, 960, 64, 110)])),
    # text files the json and csv modules cannot read: arrays nested past
    # the stack, a byte that is not UTF-8, and a field over the csv field limit
    "nsf-config-deep": train_with("nsf", b"[" * 200000 + b"]" * 200000),
    "nsf-config-not-utf8": train_with("nsf", b'{"train": {"epochs": 1, "\xff": 2}}'),
    "stats-huge-field": stats_with(SCORES_HEADER + b"a," + b"x" * 131073 + b",l1,3\n"),
    "stats-not-utf8": stats_with(SCORES_HEADER + b"a,s1,l1,4\n\xff,s2,l1,3\n"),
    # one system over evaluation.MAX_SYSTEMS, whose pairs would all be tested
    "stats-65-systems": stats_with(SCORES_HEADER + b"".join(
        b"s%d,x,l1,3\n" % i for i in range(65))),
    # paths that hold no input: a file for the data directory, an empty CSV
    "nsf-data-is-a-file": train_nsf_on_a_file,
    "stats-empty-file": stats_with(b""),
}
# The config key that the error line of a case must name, or for a model
# over a size bound, what it counts.
HOSTILE_KEYS = {"nsf-segment-seconds-str": "segment_seconds",
                "nsf-segment-seconds-true": "segment_seconds",
                "am-prenet-widths-int": "prenet_widths",
                "am-prenet-dropout-str": "prenet_dropout",
                "nsf-channels-huge": "parameters",
                "am-decoder-state-huge": "parameters",
                "am-prenet-width-huge": "parameters",
                "am-resume-and-warm-start": "exclude each other",
                "nsf-n-blocks-huge": "tensors",
                "nsf-convs-huge": "tensors",
                "synth-ckpt-n-blocks-huge": "tensors",
                "nsf-tiny-layers": "tensors",
                "synth-ckpt-tiny-layers": "tensors",
                "nsf-deep-field": "receptive field",
                "synth-ckpt-deep-field": "receptive field",
                "nsf-upsample-huge": "clip.mid: a segment of 1000000000 samples",
                "nsf-wav-rate-50mhz": "clip.mid: a segment of",
                "nsf-wav-rate-500mhz": "clip.mid: a segment of",
                "nsf-long-clip-whole": "clip.mid: a segment of",
                "am-wav-rate-top": "clip.mid: 0.2 s at a",
                "nsf-rate-key": "'rate'",
                "am-rate-key": "'rate'",
                "nsf-rate-inf": "'rate'",
                "nsf-rate-0": "'rate'",
                "am-rate-inf": "'rate'",
                "am-rate-0": "'rate'",
                "synth-empty-midi": "in.mid: nothing to synthesize",
                "synth-direct-on-80-dim-nsf":
                    "piano-roll features have 128 dims, model wants 80",
                "synth-direct-300-s-on-80-dim-nsf":
                    "piano-roll features have 128 dims, model wants 80",
                "synth-am-80-dim-mel-on-128-dim-nsf":
                    "mel-fb features have 80 dims, model wants 128",
                "synth-am-empty-midi": "in.mid: nothing to synthesize",
                "pitch-ce-empty-wav": "in.wav: no overlapping frames",
                "excite-rate-over-wav-header": "WAV header",
                "gl-rate-over-wav-header": "WAV header",
                "pitch-ce-top-wav-rate": "frames, the limit is",
                "synth-rate-0": "--rate",
                "excite-rate-over-float": "--rate",
                "roll-rate-over-float": "--rate",
                "gl-hop-overflow": "overflows",
                "gl-hop-over-frame-length": "x.mfb",
                "gl-rate-rounds-to-zero": "x.mfb",
                "nsf-note-above-nyquist": "clip.mid",
                "nsf-wav-rate-1": "clip.mid",
                "synth-ckpt-version-1": "checkpoint version 1",
                "synth-ckpt-version-2": "nsf.ckpt: unsupported checkpoint version 2",
                "synth-ckpt-many-tensors": "many.ckpt: 1000000 tensors, the limit is 12289",
                "nsf-config-deep": "cfg.json: invalid JSON",
                "nsf-config-not-utf8": "cfg.json: invalid JSON",
                "stats-huge-field": "scores.csv: line 2: field larger",
                "stats-not-utf8": "scores.csv: line 3: not UTF-8",
                "stats-65-systems": "scores.csv: 65 systems, the limit is 64",
                "nsf-data-is-a-file": "data is not a directory",
                "stats-empty-file": "scores.csv: empty file"}


# A warning, numpy's included, would print to stderr in a real run, so
# here it is an error.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    argv = HOSTILE[case](tmp_path)
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 2
        # the limits hold before the large array is allocated
        assert tracemalloc.get_traced_memory()[1] < 2 ** 26
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert HOSTILE_KEYS.get(case, "") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["excite-rate-over-float", "roll-rate-over-float"])
def test_rate_past_the_float_range_is_refused_in_a_short_line(tmp_path, capsys, case):
    assert run_cli(*HOSTILE[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err) < 120 and "--rate" in err, err


def test_gl_refuses_a_rate_over_a_wav_header_before_griffin_lim(tmp_path, capsys,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(dsp, "griffin_lim", lambda *a, **k: calls.append(a))
    assert run_cli(*HOSTILE["gl-rate-over-wav-header"](tmp_path)) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'x.mfb'}: ")


def test_synth_refuses_an_am_that_does_not_fit_before_the_roll(tmp_path, capsys,
                                                              monkeypatch):
    # the 300 s piece's roll alone would take 25.6 MB
    monkeypatch.chdir(tmp_path)
    argv = HOSTILE["synth-am-80-dim-mel-on-128-dim-nsf"](tmp_path)
    calls = []
    monkeypatch.setattr(cli, "_features", lambda *a: calls.append(a))
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 2
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert calls == []
    assert "mel-fb features have 80 dims, model wants 128" in capsys.readouterr().err


def scaled_nsf_ckpt(path, scales):
    """A seeded eight-block NSF checkpoint with non-zero output projections,
    whose tensors named in scales are multiplied by the given factors."""
    cfg = nsf.NsfConfig(feature_dim=128, channels=4, n_blocks=8, convs_per_block=2)
    params = nsf.nsf_init(cfg, seed=3)
    rng = np.random.default_rng(4)
    for name, value in params.tensors.items():
        if ".out." in name:
            params.tensors[name] = rng.uniform(-0.1, 0.1, value.shape)
    for name, scale in scales.items():
        params.tensors[name] = params.tensors[name] * scale
    nsf.save_checkpoint(path, params, cfg)
    return path


# Checkpoints whose weights are finite but large: synthesis falls back from
# the float32 channel stack to float64 wherever float32 could overflow.
# In the last, no tensor passes 2^16, but the blocks multiply the running
# signal by so much that it leaves float32's range before the eighth.
HOSTILE_WEIGHTS = {
    "conv-1e39": {"block0.conv0.weight": 1e39},
    "conv-1e300": {"block0.conv1.weight": 1e300},
    "cond-1e20": {"cond.weight": 1e20},
    "deep-gain": {f"block{b}.{part}.weight": scale for b in range(8)
                  for part, scale in (("in", 2.0 ** 15), ("out", 2.0 ** 18))},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(HOSTILE_WEIGHTS))
def test_synth_with_large_finite_weights_writes_a_finite_wav(tmp_path, capsys, case):
    midi = tmp_path / "in.mid"
    midi.write_bytes(helpers.note_smf([(0, 480, 64, 110), (240, 960, 71, 90)]))
    ckpt = scaled_nsf_ckpt(tmp_path / "nsf.ckpt", HOSTILE_WEIGHTS[case])
    out = tmp_path / "out.wav"
    assert run_cli("synth", midi, out, "--nsf-ckpt", ckpt) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(formats.read_wav(out).samples).all()


# Every value at every model, train and data key of both models, one at a
# time, in a one-epoch run.  The keys come from the config classes, data
# sections included, so a field is swept from the day it is added.
SWEEP_VALUES = ["x", True, [1, 2], {}, None, np.nan, -1, 0, 0.5, 5, 10 ** 9]
SWEEP_ADDRESS_SPACE = 2 ** 31  # a case that allocates without bound fails here


def sweep_cases():
    """Each case as "kind section.key=value" -> (kind, config)."""
    fields = lambda cls: {f.name for f in dataclasses.fields(cls)}
    cases = {}
    for kind, model_cls, train_cls, data in (
            ("nsf", nsf.NsfConfig, nsf.TrainConfig, cli.NsfData),
            ("am", acoustic.AmConfig, acoustic.AmTrainConfig, cli.AmData)):
        sections = {"model": fields(model_cls) - data().model_fields().keys(),
                    "train": fields(train_cls), "data": fields(data)}
        for section, keys in sections.items():
            for key in sorted(keys):
                for value in SWEEP_VALUES:
                    config = {"train": {"epochs": 1}}  # unless epochs is swept
                    config.setdefault(section, {})[key] = value
                    cases[f"{kind} {section}.{key}={value!r}"] = (kind, config)
    return cases


def config_classes():
    """Every dataclass of the package with a declared field, and the
    dataclasses it derives from."""
    classes = set()
    for info in pkgutil.iter_modules(midisynth.__path__):
        module = importlib.import_module(f"midisynth.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and any(
                    "domain" in f.metadata for f in dataclasses.fields(obj)):
                classes.update(filter(dataclasses.is_dataclass, obj.__mro__))
    return classes


def test_every_config_field_declares_its_domain():
    """params.check_fields checks a field against its declared domain, so a
    field added without one would go unchecked."""
    classes = config_classes()
    assert {nsf.NsfConfig, nsf.TrainConfig, acoustic.AmConfig, acoustic.AmTrainConfig,
            FitConfig, cli.DataSection, cli.NsfData, cli.AmData} <= classes
    for cls in classes:
        for f in dataclasses.fields(cls):
            assert isinstance(f.metadata.get("domain"), Domain), \
                f"{cls.__name__}.{f.name}"


# The sweep cases that train and exit 0; every other case exits 2.
SWEEP_EXIT_0 = {
    *(f"nsf model.{key}=5" for key in ("channels", "convs_per_block", "kernel",
                                        "n_blocks", "upsample_factor")),
    *(f"am model.{key}=5" for key in ("decoder_state_dim", "encoder_channels",
                                       "postnet_channels")),
    "am model.downsample_factor=None", "am model.prenet_dropout=None",
    "am model.prenet_dropout=0", "am model.prenet_dropout=0.5",
    "am model.prenet_widths=[1, 2]",
    *(f"{kind} train.{key}={value}" for kind in ("nsf", "am")
      for key, values in (("batch_size", (5, 10 ** 9)), ("beta1", (0, 0.5)),
                          ("beta2", (0, 0.5)), ("epochs", (5,)),
                          ("learning_rate", (0.5, 5, 10 ** 9)),
                          ("seed", (0, 5, 10 ** 9)))
      for value in values),
    *(f"nsf train.segment_seconds={v}" for v in (0.5, 5, 10 ** 9)),
    *(f"am train.segment_frames={v}" for v in (5, 10 ** 9)),
    *(f"nsf data.{key}={v}" for key in ("fft", "frame_length", "n_mels")
      for v in (5, 10 ** 9)),
    "am data.frame_shift=5", "am data.n_mels=5", "am data.n_mels=1000000000",
}


def run_cases(cases):
    """Run each case, name -> argv, through cli.main.  Returns "faults", a
    line for each case that did not exit 0 or 2 with at most one stderr line
    and no warning, and "codes", the exit code of every other case."""
    faults, codes = [], {}
    for case, argv in cases.items():
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = run_cli(*argv)
            except Exception as exc:  # a traceback in a real run
                code = repr(exc)
        if code not in (0, 2) or err.getvalue().count("\n") > 1 or caught:
            faults.append(f"{case}: exit {code}, stderr {err.getvalue()!r}, "
                          f"warnings {[str(w.message) for w in caught]}")
        else:
            codes[case] = code
    return {"faults": faults, "codes": codes}


def run_in_child(build, *args, address_space=SWEEP_ADDRESS_SPACE, cpu_seconds=None):
    """run_cases on the cases test_cli.<build>(*args) returns, in a child
    process under an address_space-byte limit and, given cpu_seconds, a
    CPU-time limit.  The limits act on the child alone."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(cli.__file__).resolve().parents[1])
    limits = {"RLIMIT_AS": address_space, "RLIMIT_CPU": cpu_seconds}
    code = ("import json, resource, sys\n"
            + "".join(f"resource.setrlimit(resource.{name}, ({value},) * 2)\n"
                      for name, value in limits.items() if value is not None)
            + "import test_cli\n"
            + f"print(json.dumps(test_cli.run_cases(test_cli.{build}(*sys.argv[1:]))))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])})
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    return json.loads(proc.stdout)


def sweep_argv(data, work):
    """Each sweep case as the argv of a run on data."""
    cases = {}
    for i, (case, (kind, config)) in enumerate(sweep_cases().items()):
        cfg_path = Path(work) / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(config))
        cases[case] = ["train", kind, data, Path(work) / f"out{i}", "--config", cfg_path]
    return cases


def test_config_sweep_exits_0_or_2_with_one_line_at_most(tmp_path):
    assert len(sweep_cases()) == 396
    data = make_pair(tmp_path / "data", seconds=0.3)
    result = run_in_child("sweep_argv", data, tmp_path)
    assert result["faults"] == []
    # a check that stopped refusing a value would show here
    assert {case for case, code in result["codes"].items() if code == 0} == SWEEP_EXIT_0


# --- inputs that describe the most work a small file can -------------------

SIZE_ADDRESS_SPACE = 2 ** 29
SIZE_CPU_SECONDS = 10  # for the whole sweep, building its files included
# "roll" on the four MIDI files, "stats" on 2000 systems and "synth"
# through a checkpoint of a million tensors
SIZE_EXITS = {"roll-300k-notes": 0, "roll-299k-tempos": 0, "roll-65535-tracks": 0,
              "roll-100k-stacked-notes": 0, "stats-2000-systems": 2,
              "synth-ckpt-many-tensors": 2}


def size_cases(work):
    """Each case of SIZE_EXITS, name -> argv, on a file of at most 2 MiB."""
    work = Path(work)
    one_note = helpers.track_chunk(bytes([0, 0x90, 60, 100, 2, 60, 0]) + helpers.eot())
    midis = {
        "roll-300k-notes": helpers.many_notes_smf(300000),
        "roll-299k-tempos": helpers.single_track_smf(
            [helpers.tempo_meta(1, 400000 + i % 2) for i in range(299000)]),
        "roll-65535-tracks": helpers.smf_header(1, 65535) + one_note * 65535,
        "roll-100k-stacked-notes": helpers.many_notes_smf(100000, ons_first=True),
    }
    cases = {}
    for name, smf in midis.items():
        assert len(smf) <= 2 ** 21, name
        (work / f"{name}.mid").write_bytes(smf)
        cases[name] = ["roll", work / f"{name}.mid", work / f"{name}.mfb"]
    builders = {"stats-2000-systems": stats_with(SCORES_HEADER + b"".join(
        b"s%d,x,l1,3\n" % i for i in range(2000))),
                "synth-ckpt-many-tensors": synth_with_many_tensors}
    for name, build in builders.items():
        (work / name).mkdir()
        cases[name] = build(work / name)
    return cases


def test_largest_small_inputs_run_within_memory_and_cpu_limits(tmp_path):
    result = run_in_child("size_cases", tmp_path, address_space=SIZE_ADDRESS_SPACE,
                          cpu_seconds=SIZE_CPU_SECONDS)
    assert result["faults"] == []
    assert result["codes"] == SIZE_EXITS


# --- mutated input files ----------------------------------------------------

MUTANTS = 60  # of each file's header, and as many of the whole file


def mutant_files(work, name, blob, header, crc=False):
    """MUTANTS copies of blob with its first header bytes mutated and MUTANTS
    with any bytes mutated, written to work/<name>.<n>.  A checkpoint's CRC
    is recomputed, so its reader sees the damaged fields."""
    body = blob[:-4] if crc else blob
    heads = (head + body[header:] for head in helpers.mutants(body[:header], MUTANTS, 1))
    for n, data in enumerate(itertools.chain(heads, helpers.mutants(body, MUTANTS, 2))):
        path = Path(work) / f"{name}.{n}"
        path.write_bytes(helpers.with_crc(data) if crc else data)
        yield path


def text_inputs(work):
    """The text files the sweeps mutate, and the clips a config trains on:
    (data dir, a training config, one section a line, a scores table).
    The first line of each file is its header."""
    data = make_pair(work / "data", seconds=0.25)
    config, scores = work / "cfg.json", work / "scores.csv"
    config.write_text('{"model": {"channels": 2, "n_blocks": 1, "convs_per_block": 1},\n'
                      ' "train": {"epochs": 1, "segment_seconds": 0.25},\n'
                      ' "data": {"n_mels": 80, "excitation": "sine"}}\n')
    scores.write_bytes(SCORES_HEADER + b"".join(
        b"%s,s%d,l%d,%d\n" % (system, i, i % 3, 1 + (3 * i + len(system)) % 5)
        for system in (b"ref", b"am", b"nsf") for i in range(4)))
    return data, config, scores


def mutation_cases(work):
    """Each mutant input file with the commands that read it, as
    "<kind> <command> <n>" -> argv."""
    work = Path(work)
    wav, mid, out = work / "in.wav", work / "in.mid", work / "out"
    helpers.tone_wav(wav, seconds=0.25)
    mid.write_bytes(helpers.FUZZ_SMF)
    nsf_ckpt, am_ckpt = work / "nsf.ckpt", work / "am.ckpt"
    cfg = nsf.NsfConfig(feature_dim=128, channels=2, n_blocks=1, convs_per_block=1)
    nsf.save_checkpoint(nsf_ckpt, nsf.nsf_init(cfg, seed=1), cfg)
    helpers.write_tiny_am_ckpt(am_ckpt)
    ckpt_header = lambda path: 16 + struct.unpack_from("<I", path.read_bytes(), 8)[0]
    data, config, scores = text_inputs(work)
    first_line = lambda path: path.read_bytes().index(b"\n") + 1
    # kind: (file, header bytes, CRC, {command: argv of the mutant m})
    kinds = {
        "wav": (wav, 44, False, {"feat": lambda m: ["feat", m, out],
                                 "pitch-ce": lambda m: ["pitch-ce", m, mid]}),
        "mfb": (hostile_mfb(work / "in.mfb"), 36, False,
                {"gl": lambda m: ["gl", m, out, "--iters", "2"]}),
        "nsf": (nsf_ckpt, ckpt_header(nsf_ckpt), True,
                {"synth": lambda m: ["synth", mid, out, "--nsf-ckpt", m]}),
        "am": (am_ckpt, ckpt_header(am_ckpt), True,
               {"synth": lambda m: ["synth", mid, out, "--nsf-ckpt", nsf_ckpt,
                                    "--mode", "am+nsf", "--am-ckpt", m]}),
        "midi": (mid, 22, False,  # MThd and the first MTrk header
                 {"synth": lambda m: ["synth", m, out, "--nsf-ckpt", nsf_ckpt]}),
        "config": (config, first_line(config), False,
                   {"train": lambda m: ["train", "nsf", data, work / "run", "--config", m]}),
        "csv": (scores, first_line(scores), False,
                {"stats": lambda m: ["stats", m, "--out-dir", work / "stats"]}),
    }
    cases = {}
    for kind, (path, header, crc, commands) in kinds.items():
        for n, mutant in enumerate(mutant_files(work, kind, path.read_bytes(), header, crc)):
            for command, argv in commands.items():
                cases[f"{kind} {command} {n}"] = argv(mutant)
    return cases


# How many mutants of each file kind exit 0 and 2 through each command
# that reads it
MUTANT_EXITS = {"wav feat": {0: 74, 2: 46}, "wav pitch-ce": {0: 73, 2: 47},
                "mfb gl": {0: 79, 2: 41}, "nsf synth": {0: 58, 2: 62},
                "am synth": {0: 62, 2: 58}, "midi synth": {0: 33, 2: 87},
                "config train": {2: 120}, "csv stats": {0: 16, 2: 104}}


def test_mutated_input_files_exit_0_or_2_with_one_line_at_most(tmp_path):
    result = run_in_child("mutation_cases", tmp_path)
    assert result["faults"] == []
    counts = {}
    for case, code in result["codes"].items():
        counts.setdefault(case.rsplit(" ", 1)[0], Counter())[code] += 1
    # a reader that stopped refusing a mutant would show here
    assert counts == MUTANT_EXITS


class Pairs(tuple):
    """A JSON object as (key, value) pairs, so that a key can repeat."""


def to_json(value):
    """value as JSON text; a Pairs object keeps its repeated keys."""
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value) + "}"
    return json.dumps(value)


def config_mutants(config):
    """One-fault copies of a parsed training config, as "<fault> <where>"
    -> JSON text: a section as a list, a number as a string, a key dropped
    and a key written twice."""
    without = lambda d, key: {k: v for k, v in d.items() if k != key}
    out = {}
    for name, section in config.items():
        out[f"section-list {name}"] = {**config, name: list(section.values())}
        out[f"drop {name}"] = without(config, name)
        out[f"duplicate {name}"] = Pairs([*config.items(), (name, section)])
        edit = lambda new: {**config, name: new}
        for key, value in section.items():
            where = f"{name}.{key}"
            if type(value) in (int, float):
                out[f"number-string {where}"] = edit({**section, key: str(value)})
            out[f"drop {where}"] = edit(without(section, key))
            out[f"duplicate {where}"] = edit(Pairs([*section.items(), (key, value)]))
    return {case: to_json(value) for case, value in out.items()}


def row_mutants(blob):
    """Copies of a CSV table with one row given an extra field or missing
    its last, as "<fault> <row>" -> bytes."""
    rows = blob.splitlines(keepends=True)
    out = {}
    for i, row in enumerate(rows):
        fields = row.rstrip(b"\n")
        for fault, new in (("extra-field", fields + b",x"),
                           ("missing-field", fields.rsplit(b",", 1)[0])):
            out[f"{fault} {i}"] = b"".join([*rows[:i], new + b"\n", *rows[i + 1:]])
    return out


def structure_cases(work):
    """Each structure mutant of the text inputs with the command that reads
    it, as "<kind> <fault> <where>" -> argv.  The mutants are made on the
    parsed value, so they reach the checks behind the parsers, which
    random bytes seldom do."""
    work = Path(work)
    data, config, scores = text_inputs(work)
    mutants = {f"config {case}": text.encode()
               for case, text in config_mutants(json.loads(config.read_text())).items()}
    mutants.update((f"csv {case}", blob) for case, blob in row_mutants(scores.read_bytes()).items())
    cases = {}
    for n, (case, blob) in enumerate(mutants.items()):
        path = work / f"structure.{n}"
        path.write_bytes(blob)
        cases[case] = (["train", "nsf", data, work / f"run{n}", "--config", path]
                       if case.startswith("config") else
                       ["stats", path, "--out-dir", work / f"stats{n}"])
    return cases


# How many structure mutants of each fault exit 0 and 2.  Every dropped key
# has a default, and a key written twice is refused.
STRUCTURE_EXITS = {"config section-list": {2: 3}, "config number-string": {2: 6},
                   "config drop": {0: 10}, "config duplicate": {2: 10},
                   "csv extra-field": {2: 13}, "csv missing-field": {2: 13}}


def test_structure_mutants_of_text_inputs_exit_0_or_2_with_one_line_at_most(tmp_path):
    result = run_in_child("structure_cases", tmp_path)
    assert result["faults"] == []
    counts = {}
    for case, code in result["codes"].items():
        counts.setdefault(" ".join(case.split()[:2]), Counter())[code] += 1
    assert counts == STRUCTURE_EXITS


def test_gl_refusal_names_the_feature_file(tmp_path, capsys):
    for name, dim, value in (("overflow.mfb", 128, 400.0), ("width.mfb", 7, 0.0)):
        mfb = hostile_mfb(tmp_path / name, kind="midi-fb", dim=dim, value=value)
        assert run_cli("gl", mfb, tmp_path / "out.wav") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mfb}: ") and err.count("\n") == 1, err


def test_synth_refuses_a_checkpoint_tensor_of_the_wrong_shape(tmp_path, capsys):
    ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(ckpt)
    config, tensors = formats.read_container(ckpt, nsf.NSF_MAGIC, 3 * MAX_TENSORS + 1)
    tensors["cond.bias"] = np.zeros(5)
    formats.write_container(ckpt, nsf.NSF_MAGIC, config, tensors)
    midi = tmp_path / "in.mid"
    midi.write_bytes(helpers.note_smf([(0, 480, 64, 110)]))
    assert run_cli("synth", midi, tmp_path / "out.wav", "--nsf-ckpt", ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("fault", ["tensor", "config-key"])
def test_synth_refuses_a_checkpoint_name_stored_twice(tmp_path, capsys, fault):
    ckpt = tmp_path / "nsf.ckpt"
    helpers.write_zero_nsf_ckpt(ckpt)
    config, tensors = formats.read_container(ckpt, nsf.NSF_MAGIC, 3 * MAX_TENSORS + 1)
    if fault == "tensor":  # the same name and value again
        blob = helpers.with_tensor_entry(ckpt.read_bytes(), "cond.bias", tensors["cond.bias"])
    else:
        block = json.dumps(config)[:-1] + f', "channels": {config["channels"]}}}'
        blob = helpers.with_config_block(ckpt.read_bytes(), block.encode())
    ckpt.write_bytes(blob)
    midi = tmp_path / "in.mid"
    midi.write_bytes(helpers.note_smf([(0, 480, 64, 110)]))
    assert run_cli("synth", midi, tmp_path / "out.wav", "--nsf-ckpt", ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.wav").exists()


def test_bad_training_midi_file_is_named(tmp_path, capsys):
    data = make_pair(tmp_path / "data")
    (data / "clip.mid").write_bytes(helpers.LONG_SMF)
    assert run_cli("train", "nsf", data, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'clip.mid'}: file lasts") and err.count("\n") == 1
    with pytest.raises(errors.TooLarge, match="the limit is 3600 s"):
        cli._load_notes(data / "clip.mid")


def test_train_empty_data_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("train", "nsf", empty, tmp_path / "out") == 2
    assert "no paired" in capsys.readouterr().err
