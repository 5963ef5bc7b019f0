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
import warnings
from pathlib import Path

import numpy as np

from . import acoustic, dsp, evaluation, excitation, formats, midi_io, nsf
from .errors import MidiSynthError, TooLarge

DEFAULT_RATE = 24000


def _stft_args(parser):
    parser.add_argument("--rate", type=int, default=DEFAULT_RATE,
                        help="sample rate in Hz")
    parser.add_argument("--frame-length", type=int, default=1200,
                        help="analysis window length in samples")
    parser.add_argument("--frame-shift", type=int, default=288,
                        help="hop size in samples")
    parser.add_argument("--fft", type=int, default=2048, help="FFT size")


def _load_notes(path, apply_pedal=True):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        notes = midi_io.parse_midi(data)
    except MidiSynthError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    for message in notes.warnings:
        print(f"warning: {path}: {message}", file=sys.stderr)
    if apply_pedal:
        notes = midi_io.apply_sustain_pedal(notes)
    return notes


def _read_wav_checked(path, rate):
    wave = formats.read_wav(path)
    if wave.sample_rate != rate:
        raise ValueError(
            f"{path}: sampled at {wave.sample_rate:.0f} Hz, expected {rate}")
    return wave


def _features(kind, notes, wave, rate, shift, frame_length=None, fft=None,
              n_filters=None):
    """Frame-rate features of one kind, one frame every shift samples.

    A piano roll comes from notes; spectra and filter-bank features come
    from wave, analyzed with frame_length-sample windows and fft points.
    """
    if kind == "piano-roll":
        return midi_io.to_piano_roll(notes, shift / rate, rate)
    cfg = dsp.StftConfig(sample_rate=rate, frame_length=frame_length,
                         frame_shift=shift, fft_size=fft)
    if kind == "linear-spec":
        return dsp.linear_spectrogram(wave, cfg)
    return dsp.extract_features(wave, dsp.filter_bank(kind, cfg, n_filters), cfg)


def _excitation(kind, notes, n_samples, rate, gain, seed):
    """The n_samples-long source signal: the notes as sines, or seeded noise.

    Sines are first rendered over the notes' whole duration, so that
    length and n_samples are both held to excitation.MAX_SAMPLES before
    anything is allocated.  A non-finite gain, or any gain but 1 for
    noise, is refused.
    """
    if not math.isfinite(gain):
        raise ValueError(f"--gain must be finite, got {gain}")
    if kind == "noise" and gain != 1.0:
        raise ValueError("--gain applies to sine excitation only")
    longest = max(n_samples, notes.duration * rate)
    if longest > excitation.MAX_SAMPLES:
        raise TooLarge(f"the excitation needs {longest:.4g} samples, "
                       f"the limit is {excitation.MAX_SAMPLES}")
    if kind == "sine":
        return excitation.fit_length(excitation.sine_excitation(notes, rate, gain),
                                     n_samples)
    return excitation.noise_excitation(n_samples, seed, sample_rate=rate)


# --- simple transforms --------------------------------------------------------


def cmd_roll(args):
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    roll = midi_io.to_piano_roll(notes, args.shift, args.rate)
    formats.write_feature_file(args.out, roll)
    print(f"wrote {args.out}: {roll.n_frames} frames at {args.shift * 1000:.1f} ms")
    return 0


def cmd_feat(args):
    wave = _read_wav_checked(args.wav, args.rate)
    kind = "linear-spec" if args.bank == "linear" else f"{args.bank}-fb"
    feat = _features(kind, None, wave, args.rate, args.frame_shift,
                     args.frame_length, args.fft, args.n_mels)
    formats.write_feature_file(args.out, feat)
    print(f"wrote {args.out}: {feat.n_frames} x {feat.dim} ({feat.kind})")
    return 0


def cmd_excite(args):
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    n_samples = max(0, math.ceil(notes.duration * args.rate - 1e-9))
    wave = _excitation(args.kind, notes, n_samples, args.rate, args.gain, args.seed)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples ({args.kind})")
    return 0


def cmd_gl(args):
    feat = formats.read_feature_file(args.feat)
    cfg = dsp.StftConfig(sample_rate=int(round(feat.sample_rate)),
                         frame_length=args.frame_length,
                         frame_shift=int(round(feat.frame_shift * feat.sample_rate)),
                         fft_size=args.fft)
    try:
        magnitude = dsp.pseudo_inverse_magnitude(feat, cfg)
    except (MidiSynthError, ValueError) as exc:
        raise type(exc)(f"{args.feat}: {exc}") from exc
    wave = dsp.griffin_lim(magnitude, cfg, args.iters)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples after {args.iters} iterations")
    return 0


# --- synthesis ----------------------------------------------------------------


def _synthesize(args, notes, params, model_cfg):
    rate, shift = args.rate, model_cfg.upsample_factor
    if rate <= 0:
        raise ValueError(f"--rate must be positive, got {rate}")
    if args.mode == "abs":  # analysis-by-synthesis from reference audio
        if not args.ref_wav:
            raise ValueError("--ref-wav is required with --mode abs")
        ref = _read_wav_checked(args.ref_wav, rate)
        feats = _features(f"{args.bank}-fb", None, ref, rate, shift, args.frame_length,
                          args.fft, model_cfg.feature_dim)
    else:  # the roll conditions the NSF directly, or through the AM
        feats = _features("piano-roll", notes, None, rate, shift)
        if args.mode == "am+nsf":
            if not args.am_ckpt:
                raise ValueError("--am-ckpt is required with --mode am+nsf")
            am_params, am_cfg = acoustic.am_load_checkpoint(args.am_ckpt)
            feats = acoustic.am_generate(am_params, feats, am_cfg, seed=args.seed)
    if feats.dim != model_cfg.feature_dim:
        raise ValueError(f"{args.mode} mode gives {feats.dim}-dim features, "
                         f"waveform model wants {model_cfg.feature_dim}")
    if feats.n_frames == 0:
        raise ValueError("nothing to synthesize: zero frames")
    source = _excitation(args.excitation, notes, feats.n_frames * shift, rate,
                         args.gain, args.seed)
    return nsf.nsf_forward(params, feats, source, model_cfg, np.float32)


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
    cfg = dsp.StftConfig(sample_rate=args.rate, frame_length=args.frame_length,
                         frame_shift=args.frame_shift, fft_size=args.fft)
    wave = _read_wav_checked(args.wav, cfg.sample_rate)
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    roll = _features("piano-roll", notes, None, args.rate, args.frame_shift)
    if args.transpose:
        roll = midi_io.transpose_roll(roll, args.transpose)
    probs = evaluation.pitch_probability(wave, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ce = evaluation.pitch_cross_entropy(probs, roll,
                                            weight_by_velocity=args.velocity_weights)
    for warning in caught:
        print(f"warning: {args.wav}: {warning.message}", file=sys.stderr)
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
    pools = evaluation.load_scores_csv(args.scores)
    summary = evaluation.mos_summary(pools)
    pairs = evaluation.pairwise_significance(pools, alpha=args.alpha)
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
    with open(sig_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system_a", "system_b", "u", "p_raw", "p_adjusted",
                         "significant"])
        for a, b, u, p_raw, p_adjusted, significant in pairs:
            writer.writerow([a, b, f"{u:.1f}", f"{p_raw:.6g}", f"{p_adjusted:.6g}",
                             "yes" if significant else "no"])

    for row in summary:
        print(f"{row['system']}: n={row['count']} mean={row['mean']:.2f} "
              f"median={row['median']:.1f} IQR=[{row['q1']:.1f}, {row['q3']:.1f}]")
    n_sig = sum(row[-1] for row in pairs)
    print(f"{n_sig} of {len(pairs)} pairs differ at alpha={args.alpha} (Holm-corrected)")
    print(f"wrote {mos_path} and {sig_path}")
    return 0


# --- training -----------------------------------------------------------------


# Each model's data-section keys with their defaults.  A given value must
# have its default's type, and a number must be positive.
NSF_DATA = {"rate": DEFAULT_RATE, "features": "piano-roll", "excitation": "sine",
            "n_mels": 80, "frame_length": 1200, "fft": 2048}
AM_DATA = {"rate": DEFAULT_RATE, "bank": "midi", "n_mels": 80, "frame_length": 1200,
           "frame_shift": 288, "fft": 2048}


# The model fields that the data section decides; a model section may not set them.
FROM_DATA = {"feature_dim", "input_dim", "output_dim", "output_kind"}


def _strict_section(config, key, allowed):
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {key!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {key} config keys: {sorted(unknown)}")
    return section


def _load_config(path, model_cls, train_cls, data_defaults):
    """The model, train and data sections of a JSON training config; the
    data section is checked against data_defaults and completed from it."""
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
    data = {**data_defaults, **_strict_section(config, "data", data_defaults)}
    for key, value in data.items():
        default = data_defaults[key]
        if type(value) is not type(default) or (isinstance(value, int) and value <= 0):
            expected = "a positive integer" if isinstance(default, int) else "a string"
            raise ValueError(f"data key {key!r} must be {expected}, got {value!r}")
    model_keys = {f.name for f in dataclasses.fields(model_cls)} - FROM_DATA
    train_keys = {f.name for f in dataclasses.fields(train_cls)}
    return (_strict_section(config, "model", model_keys),
            _strict_section(config, "train", train_keys), data)


def _clips(data_dir, rate):
    """Each paired .mid/.wav file in data_dir, in name order, as (notes, wave)."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise ValueError(f"{data_dir} is not a directory")
    pairs = [(m, m.with_suffix(".wav")) for m in sorted(data_dir.glob("*.mid"))
             if m.with_suffix(".wav").exists()]
    if not pairs:
        raise ValueError(f"{data_dir} holds no paired .mid/.wav files")
    for midi_path, wav_path in pairs:
        yield _load_notes(midi_path), _read_wav_checked(wav_path, rate)


def _segment_frames(n_frames, per_segment):
    """Half-open frame ranges: whole segments, or the whole clip if short."""
    if n_frames <= per_segment:
        return [(0, n_frames)]
    return [(lo, lo + per_segment)
            for lo in range(0, n_frames - per_segment + 1, per_segment)]


def _nsf_data(data_dir, model_section, train_section, data):
    """NsfConfig, TrainConfig and (features, source, target) segments."""
    rate, kind = data["rate"], data["features"]
    if kind not in nsf.CONDITION_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}")
    if data["excitation"] not in ("sine", "noise"):
        raise ValueError(f"unknown excitation kind {data['excitation']!r}")
    model_cfg = nsf.NsfConfig(feature_dim=data["n_mels"] if kind == "mel-fb" else 128,
                              **model_section)
    train_cfg = nsf.TrainConfig(**train_section)
    shift = model_cfg.upsample_factor
    per_segment = max(1, round(train_cfg.segment_seconds * rate / shift))

    dataset = []
    for idx, (notes, wave) in enumerate(_clips(data_dir, rate)):
        feats = _features(kind, notes, wave, rate, shift, data["frame_length"],
                          data["fft"], data["n_mels"])
        if feats.n_frames == 0:
            continue
        # the source first: _excitation bounds the length before the target is padded
        source = _excitation(data["excitation"], notes, feats.n_frames * shift, rate,
                             1.0, train_cfg.seed + idx)
        target = excitation.fit_length(wave, len(source))
        for lo, hi in _segment_frames(feats.n_frames, per_segment):
            dataset.append((
                dataclasses.replace(feats, values=feats.values[lo:hi]),
                dsp.WaveSignal(source.samples[lo * shift:hi * shift], rate),
                dsp.WaveSignal(target.samples[lo * shift:hi * shift], rate),
            ))
    return model_cfg, train_cfg, dataset


def _am_data(data_dir, model_section, train_section, data):
    """AmConfig, AmTrainConfig and (roll, target features) segments."""
    rate, bank, shift = data["rate"], data["bank"], data["frame_shift"]
    if bank not in ("midi", "mel"):
        raise ValueError(f"unknown filter bank {bank!r}")
    kind = f"{bank}-fb"
    model_cfg = acoustic.AmConfig(
        input_dim=128, output_dim=data["n_mels"] if bank == "mel" else 128,
        output_kind=kind, **model_section)
    train_cfg = acoustic.AmTrainConfig(**train_section)

    dataset = []
    for notes, wave in _clips(data_dir, rate):
        feats = _features(kind, None, wave, rate, shift, data["frame_length"],
                          data["fft"], data["n_mels"])
        roll = _features("piano-roll", notes, None, rate, shift)
        n = min(feats.n_frames, roll.n_frames)
        if n == 0:
            continue
        for lo, hi in _segment_frames(n, train_cfg.segment_frames):
            dataset.append((dataclasses.replace(roll, values=roll.values[lo:hi]),
                            dataclasses.replace(feats, values=feats.values[lo:hi])))
    return model_cfg, train_cfg, dataset


def cmd_train(args):
    """Train either model, with a checkpoint after every epoch, and write
    loss.csv.  The model functions are read off their modules on each call,
    so a wrapper set on a module attribute sees the calls."""
    if args.resume and args.warm_start:
        raise ValueError("--resume and --warm-start exclude each other")
    if args.kind == "am":
        build, config = _am_data, (acoustic.AmConfig, acoustic.AmTrainConfig, AM_DATA)
        init, load, train, save = (acoustic.am_init, acoustic.am_load_checkpoint,
                                   acoustic.am_train, acoustic.am_save_checkpoint)
    elif args.warm_start:
        raise ValueError("--warm-start applies to train am only")
    else:
        build, config = _nsf_data, (nsf.NsfConfig, nsf.TrainConfig, NSF_DATA)
        init, load, train, save = (nsf.nsf_init, nsf.load_checkpoint,
                                   nsf.nsf_train, nsf.save_checkpoint)
    model_cfg, train_cfg, dataset = build(args.data, *_load_config(args.config, *config))
    if args.resume:
        params, _ = load(args.resume, model_cfg)
    elif args.warm_start:
        base, _ = acoustic.am_load_checkpoint(args.warm_start)
        params = acoustic.warm_start_from(base, model_cfg)
    else:
        params = init(model_cfg, seed=train_cfg.seed)

    out_dir = Path(args.out)
    ckpt_path = out_dir / f"{args.kind}.ckpt"

    def save_epoch(_epoch, p):
        # made here, so a run refused before its first epoch leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        save(ckpt_path, p, model_cfg)

    _, history = train(params, dataset, train_cfg, model_cfg, on_epoch_end=save_epoch)
    rows = [(step, f"{loss:.6f}") for step, loss in history]
    with open(out_dir / "loss.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("step", "loss"), *rows])
    print(f"trained on {len(dataset)} segments for {train_cfg.epochs} epochs; "
          f"final loss {history[-1][1]:.4f}")
    print(f"wrote {ckpt_path} and {out_dir / 'loss.csv'}")
    return 0


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
    except (MidiSynthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
