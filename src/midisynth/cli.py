"""Command-line interface.

Subcommands cover the whole pipeline: piano-roll extraction, feature
extraction, excitation rendering, waveform synthesis, Griffin-Lim
reconstruction, pitch scoring, probe MIDI generation, training, and
listening-test statistics.

Exit codes: 0 on success, 2 for anything wrong with the invocation or
its input files, 1 (an uncaught traceback) for internal errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acoustic, dsp, evaluation, excitation, formats, midi_io, nsf
from .errors import MidiSynthError

DEFAULT_RATE = 24000


def _stft_args(parser, frame_shift=288):
    parser.add_argument("--rate", type=int, default=DEFAULT_RATE,
                        help="sample rate in Hz")
    parser.add_argument("--frame-length", type=int, default=1200,
                        help="analysis window length in samples")
    parser.add_argument("--frame-shift", type=int, default=frame_shift,
                        help="hop size in samples")
    parser.add_argument("--fft", type=int, default=2048, help="FFT size")


def _stft_config(args):
    return dsp.StftConfig(sample_rate=args.rate, frame_length=args.frame_length,
                          frame_shift=args.frame_shift, fft_size=args.fft)


def _load_notes(path, apply_pedal=True):
    with open(path, "rb") as fh:
        notes = midi_io.parse_midi(fh.read())
    for message in notes.warnings:
        print(f"warning: {path}: {message}", file=sys.stderr)
    if apply_pedal:
        notes = midi_io.apply_sustain_pedal(notes)
    return notes


def _bank_for(name, cfg, n_filters):
    if name == "midi":
        return dsp.midi_filter_bank(cfg)
    if name == "mel":
        return dsp.mel_filter_bank(cfg, n_filters)
    raise ValueError(f"unknown filter bank {name!r}")


def _read_wav_checked(path, rate):
    wave = formats.read_wav(path)
    if wave.sample_rate != rate:
        raise ValueError(
            f"{path}: sampled at {wave.sample_rate:.0f} Hz, expected {rate}")
    return wave


# --- simple transforms --------------------------------------------------------


def cmd_roll(args):
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    roll = midi_io.to_piano_roll(notes, args.shift, args.rate)
    formats.write_feature_file(args.out, formats.feature_from_roll(roll))
    print(f"wrote {args.out}: {roll.n_frames} frames at {args.shift * 1000:.1f} ms")
    return 0


def cmd_feat(args):
    cfg = _stft_config(args)
    wave = _read_wav_checked(args.wav, cfg.sample_rate)
    if args.bank == "linear":
        feat = dsp.linear_spectrogram(wave, cfg)
    else:
        feat = dsp.extract_features(wave, _bank_for(args.bank, cfg, args.n_mels), cfg)
    formats.write_feature_file(args.out, feat)
    print(f"wrote {args.out}: {feat.n_frames} x {feat.dim} ({feat.kind})")
    return 0


def cmd_excite(args):
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    if args.kind == "sine":
        wave = excitation.sine_excitation(notes, args.rate, args.gain)
    else:
        n = max(0, math.ceil(notes.duration * args.rate - 1e-9))
        wave = excitation.noise_excitation(n, args.seed, sample_rate=args.rate)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples ({args.kind})")
    return 0


def cmd_gl(args):
    feat = formats.read_feature_file(args.feat)
    rate = int(round(feat.sample_rate))
    shift = int(round(feat.frame_shift * feat.sample_rate))
    cfg = dsp.StftConfig(sample_rate=rate, frame_length=args.frame_length,
                         frame_shift=shift, fft_size=args.fft)
    if feat.kind == "linear-spec":
        magnitude = 10.0 ** feat.values
        if feat.dim != cfg.n_bins:
            raise ValueError(f"linear spectrogram has {feat.dim} bins, "
                             f"FFT size {args.fft} implies {cfg.n_bins}")
    elif feat.kind in ("mel-fb", "midi-fb"):
        bank = _bank_for("midi" if feat.kind == "midi-fb" else "mel", cfg, feat.dim)
        magnitude = dsp.pseudo_inverse_magnitude(feat, bank, cfg)
    else:
        raise ValueError(f"cannot invert features of kind {feat.kind!r}")
    wave = dsp.griffin_lim(magnitude, cfg, args.iters)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples after {args.iters} iterations")
    return 0


# --- synthesis ----------------------------------------------------------------


def _synthesize(args, notes, params, model_cfg):
    rate = args.rate
    shift_seconds = model_cfg.upsample_factor / rate
    roll = midi_io.to_piano_roll(notes, shift_seconds, rate)
    if args.mode == "direct":
        if model_cfg.feature_dim != 128:
            raise ValueError(
                f"direct mode feeds 128 roll dims, model wants {model_cfg.feature_dim}")
        feats = formats.feature_from_roll(roll)
    elif args.mode == "am+nsf":
        if not args.am_ckpt:
            raise ValueError("--am-ckpt is required with --mode am+nsf")
        am_params, am_cfg = acoustic.am_load_checkpoint(args.am_ckpt)
        if am_cfg.output_dim != model_cfg.feature_dim:
            raise ValueError(
                f"acoustic model emits {am_cfg.output_dim} dims, waveform model "
                f"wants {model_cfg.feature_dim}")
        feats = acoustic.am_generate(am_params, roll, am_cfg, seed=args.seed)
    else:  # abs: analysis-by-synthesis from reference audio
        if not args.ref_wav:
            raise ValueError("--ref-wav is required with --mode abs")
        ref = _read_wav_checked(args.ref_wav, rate)
        cfg = dsp.StftConfig(sample_rate=rate, frame_length=args.frame_length,
                             frame_shift=model_cfg.upsample_factor,
                             fft_size=args.fft)
        n_filters = model_cfg.feature_dim
        feats = dsp.extract_features(ref, _bank_for(args.bank, cfg, n_filters), cfg)
        if feats.dim != model_cfg.feature_dim:
            raise ValueError(f"features have {feats.dim} dims, waveform model "
                             f"wants {model_cfg.feature_dim}")
    if feats.n_frames == 0:
        raise ValueError("nothing to synthesize: zero frames")
    t_total = feats.n_frames * model_cfg.upsample_factor
    if args.excitation == "sine":
        source = excitation.fit_length(
            excitation.sine_excitation(notes, rate, args.gain), t_total)
    else:
        source = excitation.noise_excitation(t_total, args.seed, sample_rate=rate)
    return nsf.nsf_forward(params, feats, source, model_cfg)


def cmd_synth(args):
    params, model_cfg = nsf.load_checkpoint(args.nsf_ckpt)
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    wave = _synthesize(args, notes, params, model_cfg)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples "
          f"({args.mode} mode, {args.excitation} excitation)")
    return 0


# --- evaluation ---------------------------------------------------------------


def cmd_pitch_ce(args):
    cfg = _stft_config(args)
    wave = _read_wav_checked(args.wav, cfg.sample_rate)
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    roll = midi_io.to_piano_roll(notes, cfg.frame_shift / cfg.sample_rate, cfg.sample_rate)
    if args.transpose:
        roll = midi_io.transpose_roll(roll, args.transpose)
    probs = evaluation.pitch_probability(wave, cfg)
    ce = evaluation.pitch_cross_entropy(probs, roll,
                                        weight_by_velocity=args.velocity_weights)
    print(f"{ce:.6f}")
    return 0


def cmd_probe_set(args):
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(args.count):
        root = int(rng.integers(48, 85))
        velocity = int(rng.integers(60, 121))
        duration = float(rng.uniform(0.3, 0.8))
        onset = 0.05
        if i % 2 == 0:
            pitches = [root]
            tag = "note"
        else:
            pitches = [root, min(root + 4, 127), min(root + 7, 127)]
            tag = "chord"
        notes = midi_io.NoteEventList(notes=tuple(
            midi_io.NoteEvent(p, onset, onset + duration, velocity)
            for p in pitches))
        path = out_dir / f"probe_{i:03d}_{tag}.mid"
        with open(path, "wb") as fh:
            fh.write(midi_io.write_midi(notes))
        written.append(path)
    print(f"wrote {len(written)} probe files to {out_dir}")
    return 0


def cmd_stats(args):
    table = evaluation.load_scores_csv(args.scores)
    summary = evaluation.mos_summary(table)
    matrix = evaluation.significance_matrix(table, alpha=args.alpha)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    mos_path = out_dir / "mos.csv"
    with open(mos_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "count", "mean", "median", "q1", "q3"])
        for row in summary:
            writer.writerow([row["system"], row["count"], f"{row['mean']:.4f}",
                             f"{row['median']:.4f}", f"{row['q1']:.4f}",
                             f"{row['q3']:.4f}"])

    sig_path = out_dir / "significance.csv"
    systems = matrix.systems
    with open(sig_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system_a", "system_b", "u", "p_raw", "p_adjusted",
                         "significant"])
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                writer.writerow([systems[i], systems[j],
                                 f"{matrix.u_stats[i, j]:.1f}",
                                 f"{matrix.p_raw[i, j]:.6g}",
                                 f"{matrix.p_adjusted[i, j]:.6g}",
                                 "yes" if matrix.significant[i, j] else "no"])

    for row in summary:
        print(f"{row['system']}: n={row['count']} mean={row['mean']:.2f} "
              f"median={row['median']:.1f} IQR=[{row['q1']:.1f}, {row['q3']:.1f}]")
    n_sig = int(matrix.significant.sum()) // 2
    print(f"{n_sig} of {len(systems) * (len(systems) - 1) // 2} pairs differ "
          f"at alpha={args.alpha} (Holm-corrected)")
    print(f"wrote {mos_path} and {sig_path}")
    return 0


# --- training -----------------------------------------------------------------


def _strict_section(config, key, allowed):
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {key!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {key} config keys: {sorted(unknown)}")
    return section


def _load_config(path, model_keys, train_keys, data_keys):
    if path is None:
        config = {}
    else:
        with open(path) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ValueError("config root must be a JSON object")
    unknown = set(config) - {"model", "train", "data"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    return (_strict_section(config, "model", model_keys),
            _strict_section(config, "train", train_keys),
            _strict_section(config, "data", data_keys))


def _paired_stems(data_dir):
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise ValueError(f"{data_dir} is not a directory")
    stems = []
    for midi_path in sorted(data_dir.glob("*.mid")):
        wav_path = midi_path.with_suffix(".wav")
        if wav_path.exists():
            stems.append((midi_path, wav_path))
    if not stems:
        raise ValueError(f"{data_dir} holds no paired .mid/.wav files")
    return stems


def _segment_frames(n_frames, per_segment):
    """Half-open frame ranges: whole segments, or the whole clip if short."""
    if n_frames <= per_segment:
        return [(0, n_frames)]
    return [(lo, lo + per_segment)
            for lo in range(0, n_frames - per_segment + 1, per_segment)]


def _fit_and_save(out, ckpt_name, train, save, params, dataset, train_cfg,
                  model_cfg):
    """Train, checkpointing after every epoch, then write loss.csv."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / ckpt_name
    params, history = train(
        params, dataset, train_cfg, model_cfg,
        on_epoch_end=lambda _epoch, p: save(ckpt_path, p, model_cfg))
    save(ckpt_path, params, model_cfg)
    with open(out_dir / "loss.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in history:
            writer.writerow([step, f"{loss:.6f}"])
    print(f"trained on {len(dataset)} segments for {train_cfg.epochs} epochs; "
          f"final loss {history[-1][1]:.4f}")
    print(f"wrote {ckpt_path} and {out_dir / 'loss.csv'}")
    return 0


def _train_nsf(args, model_section, train_section, data_section):
    rate = int(data_section.get("rate", DEFAULT_RATE))
    feature_kind = data_section.get("features", "piano-roll")
    exc_kind = data_section.get("excitation", "sine")
    if feature_kind not in ("piano-roll", "midi-fb", "mel-fb"):
        raise ValueError(f"unknown feature kind {feature_kind!r}")
    if exc_kind not in ("sine", "noise"):
        raise ValueError(f"unknown excitation kind {exc_kind!r}")
    n_mels = int(data_section.get("n_mels", 80))
    frame_length = int(data_section.get("frame_length", 1200))
    fft_size = int(data_section.get("fft", 2048))

    feature_dim = {"piano-roll": 128, "midi-fb": 128, "mel-fb": n_mels}[feature_kind]
    model_cfg = nsf.NsfConfig(feature_dim=int(model_section.get("feature_dim",
                                                                feature_dim)),
                              **{k: int(v) for k, v in model_section.items()
                                 if k != "feature_dim"})
    if model_cfg.feature_dim != feature_dim:
        raise ValueError(f"model feature_dim {model_cfg.feature_dim} does not "
                         f"match {feature_kind} features ({feature_dim})")
    train_cfg = nsf.TrainConfig(**train_section)
    shift_seconds = model_cfg.upsample_factor / rate

    dataset = []
    for idx, (midi_path, wav_path) in enumerate(_paired_stems(args.data)):
        notes = _load_notes(midi_path)
        wave = _read_wav_checked(wav_path, rate)
        if feature_kind == "piano-roll":
            roll = midi_io.to_piano_roll(notes, shift_seconds, rate)
            feats = formats.feature_from_roll(roll)
        else:
            cfg = dsp.StftConfig(sample_rate=rate, frame_length=frame_length,
                                 frame_shift=model_cfg.upsample_factor,
                                 fft_size=fft_size)
            bank_name = "midi" if feature_kind == "midi-fb" else "mel"
            feats = dsp.extract_features(wave, _bank_for(bank_name, cfg, n_mels), cfg)
        if feats.n_frames == 0:
            continue
        target = excitation.fit_length(wave,
                                       feats.n_frames * model_cfg.upsample_factor)
        if exc_kind == "sine":
            source = excitation.fit_length(excitation.sine_excitation(notes, rate),
                                           len(target))
        else:
            source = excitation.noise_excitation(len(target),
                                                 train_cfg.seed + idx,
                                                 sample_rate=rate)
        per_segment = max(1, round(train_cfg.segment_seconds * rate
                                   / model_cfg.upsample_factor))
        for lo, hi in _segment_frames(feats.n_frames, per_segment):
            sample_lo = lo * model_cfg.upsample_factor
            sample_hi = hi * model_cfg.upsample_factor
            dataset.append((
                dsp.FeatureMatrix(feats.values[lo:hi], feats.kind,
                                  feats.frame_shift, feats.sample_rate),
                dsp.WaveSignal(source.samples[sample_lo:sample_hi], rate),
                dsp.WaveSignal(target.samples[sample_lo:sample_hi], rate),
            ))

    if args.resume:
        params, loaded_cfg = nsf.load_checkpoint(args.resume, model_cfg)
    else:
        params = nsf.nsf_init(model_cfg, seed=train_cfg.seed)
    return _fit_and_save(args.out, "nsf.ckpt", nsf.nsf_train, nsf.save_checkpoint,
                         params, dataset, train_cfg, model_cfg)


def _train_am(args, model_section, train_section, data_section):
    rate = int(data_section.get("rate", DEFAULT_RATE))
    bank_name = data_section.get("bank", "midi")
    n_mels = int(data_section.get("n_mels", 80))
    frame_length = int(data_section.get("frame_length", 1200))
    frame_shift = int(data_section.get("frame_shift", 288))
    fft_size = int(data_section.get("fft", 2048))
    if bank_name not in ("midi", "mel"):
        raise ValueError(f"unknown filter bank {bank_name!r}")

    output_dim = 128 if bank_name == "midi" else n_mels
    kwargs = dict(model_section)
    if "prenet_widths" in kwargs:
        kwargs["prenet_widths"] = tuple(int(v) for v in kwargs["prenet_widths"])
    kwargs.setdefault("output_dim", output_dim)
    kwargs.setdefault("output_kind", "midi-fb" if bank_name == "midi" else "mel-fb")
    model_cfg = acoustic.AmConfig(**kwargs)
    if model_cfg.output_dim != output_dim:
        raise ValueError(f"model output_dim {model_cfg.output_dim} does not match "
                         f"the {bank_name} bank ({output_dim})")
    train_cfg = acoustic.AmTrainConfig(**train_section)

    cfg = dsp.StftConfig(sample_rate=rate, frame_length=frame_length,
                         frame_shift=frame_shift, fft_size=fft_size)
    bank = _bank_for(bank_name, cfg, n_mels)
    shift_seconds = frame_shift / rate

    dataset = []
    for midi_path, wav_path in _paired_stems(args.data):
        notes = _load_notes(midi_path)
        wave = _read_wav_checked(wav_path, rate)
        feats = dsp.extract_features(wave, bank, cfg)
        roll = midi_io.to_piano_roll(notes, shift_seconds, rate)
        n = min(feats.n_frames, roll.n_frames)
        if n == 0:
            continue
        for lo, hi in _segment_frames(n, train_cfg.segment_frames):
            dataset.append((
                midi_io.PianoRoll(roll.values[lo:hi], shift_seconds, rate),
                dsp.FeatureMatrix(feats.values[lo:hi], feats.kind,
                                  feats.frame_shift, feats.sample_rate),
            ))

    if args.resume:
        params, _ = acoustic.am_load_checkpoint(args.resume, model_cfg)
    elif args.warm_start:
        base_params, base_cfg = acoustic.am_load_checkpoint(args.warm_start)
        params = acoustic.warm_start_from(base_params, base_cfg, model_cfg)
    else:
        params = acoustic.am_init(model_cfg, seed=train_cfg.seed)
    return _fit_and_save(args.out, "am.ckpt", acoustic.am_train,
                         acoustic.am_save_checkpoint, params, dataset,
                         train_cfg, model_cfg)


def _field_names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


NSF_MODEL_KEYS = _field_names(nsf.NsfConfig)
NSF_TRAIN_KEYS = _field_names(nsf.TrainConfig)
NSF_DATA_KEYS = ("rate", "features", "excitation", "n_mels", "frame_length", "fft")
AM_MODEL_KEYS = _field_names(acoustic.AmConfig)
AM_TRAIN_KEYS = _field_names(acoustic.AmTrainConfig)
AM_DATA_KEYS = ("rate", "bank", "n_mels", "frame_length", "frame_shift", "fft")


def cmd_train(args):
    if args.kind == "nsf":
        sections = _load_config(args.config, NSF_MODEL_KEYS, NSF_TRAIN_KEYS,
                                NSF_DATA_KEYS)
        return _train_nsf(args, *sections)
    sections = _load_config(args.config, AM_MODEL_KEYS, AM_TRAIN_KEYS, AM_DATA_KEYS)
    return _train_am(args, *sections)


# --- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="midisynth",
        description="MIDI-aligned synthesis, reconstruction, and evaluation tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roll", help="quantize a MIDI file to a piano-roll file")
    p.add_argument("midi")
    p.add_argument("out")
    p.add_argument("--shift", type=float, default=0.012,
                   help="frame shift in seconds")
    p.add_argument("--rate", type=int, default=DEFAULT_RATE)
    p.add_argument("--no-pedal", action="store_true",
                   help="ignore sustain-pedal events")
    p.set_defaults(func=cmd_roll)

    p = sub.add_parser("feat", help="extract filter-bank features from audio")
    p.add_argument("wav")
    p.add_argument("out")
    p.add_argument("--bank", choices=("midi", "mel", "linear"), default="midi")
    p.add_argument("--n-mels", type=int, default=80)
    _stft_args(p)
    p.set_defaults(func=cmd_feat)

    p = sub.add_parser("excite", help="render an excitation signal from MIDI")
    p.add_argument("midi")
    p.add_argument("out")
    p.add_argument("--kind", choices=("sine", "noise"), default="sine")
    p.add_argument("--rate", type=int, default=DEFAULT_RATE)
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-pedal", action="store_true")
    p.set_defaults(func=cmd_excite)

    p = sub.add_parser("synth", help="synthesize audio from MIDI")
    p.add_argument("midi")
    p.add_argument("out")
    p.add_argument("--nsf-ckpt", required=True,
                   help="waveform model checkpoint")
    p.add_argument("--mode", choices=("direct", "am+nsf", "abs"), default="direct",
                   help="condition on the roll, on acoustic-model features, "
                        "or on features of reference audio")
    p.add_argument("--excitation", choices=("sine", "noise"), default="sine")
    p.add_argument("--am-ckpt", help="acoustic model checkpoint (mode am)")
    p.add_argument("--ref-wav", help="reference audio (mode abs)")
    p.add_argument("--bank", choices=("midi", "mel"), default="midi",
                   help="filter bank for mode abs")
    p.add_argument("--rate", type=int, default=DEFAULT_RATE)
    p.add_argument("--frame-length", type=int, default=1200)
    p.add_argument("--fft", type=int, default=2048)
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-pedal", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gl", help="invert a feature file to audio (Griffin-Lim)")
    p.add_argument("feat")
    p.add_argument("out")
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--frame-length", type=int, default=1200)
    p.add_argument("--fft", type=int, default=2048)
    p.set_defaults(func=cmd_gl)

    p = sub.add_parser("pitch-ce", help="score audio against its MIDI pitches")
    p.add_argument("wav")
    p.add_argument("midi")
    p.add_argument("--transpose", type=int, default=0,
                   help="shift the reference roll by semitones before scoring")
    p.add_argument("--velocity-weights", action="store_true",
                   help="weight active pitches by velocity instead of 0/1")
    p.add_argument("--no-pedal", action="store_true")
    _stft_args(p)
    p.set_defaults(func=cmd_pitch_ce)

    p = sub.add_parser("probe-set", help="write a small deterministic MIDI test set")
    p.add_argument("out_dir")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe_set)

    p = sub.add_parser("stats", help="summarize listening-test scores")
    p.add_argument("scores", help="CSV with system,sample_id,listener_id,score")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the waveform or acoustic model")
    p.add_argument("kind", choices=("nsf", "am"))
    p.add_argument("data", help="directory of paired .mid/.wav files")
    p.add_argument("out", help="output directory for checkpoint and loss log")
    p.add_argument("--config", help="JSON config with model/train/data sections")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--warm-start",
                   help="checkpoint of a sibling variant to adapt (am only)")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MidiSynthError, ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
