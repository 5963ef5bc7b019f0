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
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acoustic, dsp, evaluation, excitation, formats, midi_io, nsf
from .errors import MidiSynthError, TooLarge
from .params import POSITIVE_INT, check_fields, declared, one_of

# The default analysis of every command and data section
ANALYSIS = dsp.StftConfig()


def _analysis_args(parser, shift=True):
    parser.add_argument("--frame-length", type=int, default=ANALYSIS.frame_length,
                        help="analysis window length in samples")
    if shift:
        parser.add_argument("--frame-shift", type=int, default=ANALYSIS.frame_shift,
                            help="hop size in samples")
    parser.add_argument("--fft", type=int, default=ANALYSIS.fft_size, help="FFT size")


def _midi_args(parser, rate=True):
    parser.add_argument("midi")
    parser.add_argument("--no-pedal", action="store_true",
                        help="ignore sustain-pedal events")
    if rate:
        parser.add_argument("--rate", type=int, default=ANALYSIS.sample_rate)


def _write_csv(path, header, rows):
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    formats.write_file(path, text.getvalue().encode("utf-8"))


@contextlib.contextmanager
def _named(path):
    """Prefix path to a MidiSynthError or ValueError raised inside."""
    try:
        yield
    except (MidiSynthError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _load_notes(path, apply_pedal=True):
    data = Path(path).read_bytes()
    with _named(path):
        notes = midi_io.parse_midi(data)
    for message in notes.warnings:
        print(f"warning: {path}: {message}", file=sys.stderr)
    if apply_pedal:
        notes = midi_io.apply_sustain_pedal(notes)
    return notes


def _read_wav_checked(path, rate):
    wave = formats.read_wav(path)
    if rate is not None and wave.sample_rate != rate:
        raise ValueError(
            f"{path}: sampled at {wave.sample_rate:.0f} Hz, expected {rate:.0f}")
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


def _excitation(kind, notes, n_samples, rate, seed):
    """The n_samples-long source signal: the notes as sines, or seeded noise.

    Sines are first rendered over the notes' whole duration, so that
    length and n_samples are both held to excitation.MAX_SAMPLES before
    anything is allocated.
    """
    longest = max(n_samples, notes.duration * rate)
    if longest > excitation.MAX_SAMPLES:
        raise TooLarge(f"the excitation needs {longest:.4g} samples, "
                       f"the limit is {excitation.MAX_SAMPLES}")
    if kind == "sine":
        return excitation.fit_length(excitation.sine_excitation(notes, rate), n_samples)
    return excitation.noise_excitation(n_samples, seed, sample_rate=rate)


# --- simple transforms --------------------------------------------------------


def cmd_roll(args):
    formats.check_wav_rate(args.rate, "--rate")
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    roll = midi_io.to_piano_roll(notes, args.shift, args.rate)
    formats.write_feature_file(args.out, roll)
    print(f"wrote {args.out}: {roll.n_frames} frames at {args.shift * 1000:.1f} ms")
    return 0


def cmd_feat(args):
    wave = formats.read_wav(args.wav)
    kind = "linear-spec" if args.bank == "linear" else f"{args.bank}-fb"
    feat = _features(kind, None, wave, int(wave.sample_rate), args.frame_shift,
                     args.frame_length, args.fft, args.n_mels)
    formats.write_feature_file(args.out, feat)
    print(f"wrote {args.out}: {feat.n_frames} x {feat.dim} ({feat.kind})")
    return 0


def cmd_excite(args):
    formats.check_wav_rate(args.rate, "--rate")
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    n_samples = excitation.sample_count(notes, args.rate)
    wave = _excitation(args.kind, notes, n_samples, args.rate, args.seed)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples ({args.kind})")
    return 0


def cmd_gl(args):
    feat = formats.read_feature_file(args.feat)
    with _named(args.feat):
        hop = feat.frame_shift * feat.sample_rate
        if hop == math.inf:
            raise ValueError(f"a hop of {feat.frame_shift:.6g} s at "
                             f"{feat.sample_rate:.6g} Hz overflows")
        cfg = dsp.StftConfig(sample_rate=int(round(feat.sample_rate)),
                             frame_length=args.frame_length,
                             frame_shift=int(round(hop)), fft_size=args.fft)
        formats.check_wav_rate(cfg.sample_rate, "sample_rate")
        magnitude = dsp.pseudo_inverse_magnitude(feat, cfg)
    del feat  # a linear-spec file's values would stay alive through every iteration
    wave = dsp.griffin_lim(magnitude, cfg, args.iters)
    formats.write_wav(args.out, wave)
    print(f"wrote {args.out}: {len(wave)} samples after {args.iters} iterations")
    return 0


# --- synthesis ----------------------------------------------------------------


def _synthesize(args, notes, params, model_cfg):
    rate, shift = args.rate, model_cfg.upsample_factor
    formats.check_wav_rate(rate, "--rate")
    if args.mode == "am+nsf":  # an AM that does not fit is refused before the roll
        if not args.am_ckpt:
            raise ValueError("--am-ckpt is required with --mode am+nsf")
        am_params, am_cfg = acoustic.am_load_checkpoint(args.am_ckpt)
        nsf.check_features(am_cfg.output_kind, am_cfg.output_dim, model_cfg)
    if args.mode == "abs":  # analysis-by-synthesis from reference audio
        if not args.ref_wav:
            raise ValueError("--ref-wav is required with --mode abs")
        ref = _read_wav_checked(args.ref_wav, rate)
        feats = _features(f"{args.bank}-fb", None, ref, rate, shift, args.frame_length,
                          args.fft, model_cfg.feature_dim)
    else:  # the roll conditions the NSF directly, or through the AM
        feats = _features("piano-roll", notes, None, rate, shift)
    if feats.n_frames == 0:
        origin = args.ref_wav if args.mode == "abs" else args.midi
        raise ValueError(f"{origin}: nothing to synthesize: zero frames")
    if args.mode == "am+nsf":
        feats = acoustic.am_generate(am_params, feats, am_cfg, seed=args.seed)
    nsf.check_features(feats.kind, feats.dim, model_cfg)
    source = _excitation(args.excitation, notes, feats.n_frames * shift, rate, args.seed)
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
    wave = formats.read_wav(args.wav)
    rate = int(wave.sample_rate)
    cfg = dsp.StftConfig(sample_rate=rate, frame_length=args.frame_length,
                         frame_shift=args.frame_shift, fft_size=args.fft)
    notes = _load_notes(args.midi, apply_pedal=not args.no_pedal)
    roll = _features("piano-roll", notes, None, rate, args.frame_shift)
    if args.transpose:
        roll = midi_io.transpose_roll(roll, args.transpose)
    with _named(args.wav):
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
    for i in range(args.count):
        root = int(rng.integers(48, 85))
        velocity = int(rng.integers(60, 121))
        duration = float(rng.uniform(0.3, 0.8))
        # even probes are one note, odd ones a major triad, all from 50 ms
        pitches = [root] if i % 2 == 0 else [root, min(root + 4, 127), min(root + 7, 127)]
        notes = midi_io.NoteEventList(
            *zip(*((p, 0.05, 0.05 + duration, velocity) for p in pitches)))
        tag = "note" if i % 2 == 0 else "chord"
        formats.write_file(out_dir / f"probe_{i:03d}_{tag}.mid", midi_io.write_midi(notes))
    print(f"wrote {max(args.count, 0)} probe files to {out_dir}")
    return 0


def cmd_stats(args):
    pools = evaluation.load_scores_csv(args.scores)
    summary = evaluation.mos_summary(pools)
    pairs = evaluation.pairwise_significance(pools, alpha=args.alpha)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    mos_path = out_dir / "mos.csv"
    _write_csv(mos_path, ("system", "count", "mean", "median", "q1", "q3"),
               [(system, count, *(f"{v:.4f}" for v in values))
                for system, count, *values in summary])
    sig_path = out_dir / "significance.csv"
    _write_csv(sig_path, ("system_a", "system_b", "u", "p_raw", "p_adjusted",
                          "significant"),
               [(a, b, f"{u:.1f}", f"{p_raw:.6g}", f"{p_adjusted:.6g}",
                 "yes" if significant else "no")
                for a, b, u, p_raw, p_adjusted, significant in pairs])

    for system, count, mean, median, q1, q3 in summary:
        print(f"{system}: n={count} mean={mean:.2f} "
              f"median={median:.1f} IQR=[{q1:.1f}, {q3:.1f}]")
    n_sig = sum(row[-1] for row in pairs)
    print(f"{n_sig} of {len(pairs)} pairs differ at alpha={args.alpha} (Holm-corrected)")
    print(f"wrote {mos_path} and {sig_path}")
    return 0


# --- training -----------------------------------------------------------------


# The data sections of train nsf and train am: how each .mid/.wav pair
# becomes model input.  Each decides some model fields (model_fields), which
# a model section may not set.
@dataclass(frozen=True)
class DataSection:
    n_mels: int = declared(POSITIVE_INT, dsp.N_MELS)
    frame_length: int = declared(POSITIVE_INT, ANALYSIS.frame_length)
    fft: int = declared(POSITIVE_INT, ANALYSIS.fft_size)
    __post_init__ = check_fields


@dataclass(frozen=True)
class NsfData(DataSection):
    features: str = declared(one_of(*nsf.CONDITION_KINDS), "piano-roll")
    excitation: str = declared(one_of("sine", "noise"), "sine")

    def model_fields(self):
        return {"feature_dim": self.n_mels if self.features == "mel-fb" else 128}


@dataclass(frozen=True)
class AmData(DataSection):
    bank: str = declared(one_of("midi", "mel"), "midi")
    frame_shift: int = declared(POSITIVE_INT, ANALYSIS.frame_shift)

    def model_fields(self):
        width = self.n_mels if self.bank == "mel" else 128
        return {"input_dim": 128, "output_dim": width, "output_kind": f"{self.bank}-fb"}


def _strict_object(value, what, allowed):
    """value, which must be a JSON object whose keys are all allowed."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return value


def _load_config(path, model_cls, train_cls, data_cls):
    """The model, train and data configs of a JSON training config, or the
    defaults with no path.  Every refusal names the config file."""
    with _named(path):
        try:
            config = {} if path is None else json.loads(
                Path(path).read_text(encoding="utf-8"), object_pairs_hook=formats.unique_keys)
        # a byte that is not UTF-8, bad syntax, or arrays nested past the stack
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid JSON ({exc})") from exc
        _strict_object(config, "config", ("model", "train", "data"))
        keys = lambda cls: {f.name for f in dataclasses.fields(cls)}
        section = lambda key, allowed: _strict_object(
            config.get(key, {}), f"config section {key!r}", allowed)
        data = data_cls(**section("data", keys(data_cls)))
        decided = data.model_fields()
        model = section("model", keys(model_cls) - decided.keys())
        train = section("train", keys(train_cls))
        return model_cls(**model, **decided), train_cls(**train), data


def _clips(data_dir):
    """Each paired .mid/.wav file in data_dir, in name order, as (path, notes,
    wave); every WAV must be sampled at the rate of the first."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise ValueError(f"{data_dir} is not a directory")
    pairs = [(m, m.with_suffix(".wav")) for m in sorted(data_dir.glob("*.mid"))
             if m.with_suffix(".wav").exists()]
    if not pairs:
        raise ValueError(f"{data_dir} holds no paired .mid/.wav files")
    rate = None
    for midi_path, wav_path in pairs:
        notes, wave = _load_notes(midi_path), _read_wav_checked(wav_path, rate)
        rate = wave.sample_rate
        yield midi_path, notes, wave


def _segment_frames(n_frames, per_segment):
    """Half-open frame ranges: whole segments, or the whole clip if short."""
    per_segment = min(per_segment, n_frames)
    return [(lo, lo + per_segment)
            for lo in range(0, n_frames - per_segment + 1, per_segment)]


def _nsf_data(data_dir, model_cfg, train_cfg, data):
    """The (features, source, target) segments of train nsf."""
    kind, shift = data.features, model_cfg.upsample_factor
    dataset = []
    for idx, (path, notes, wave) in enumerate(_clips(data_dir)):
        rate = int(wave.sample_rate)
        with _named(path):
            # the frame count first, so that a segment is refused before any input is built
            n_frames = (midi_io.roll_frame_count(notes.duration, shift / rate)
                        if kind == "piano-roll" else dsp.frame_count(len(wave), shift))
            if n_frames == 0:
                continue
            # a segment longer than the clip is the clip, however long it is
            per_segment = max(1, round(min(train_cfg.segment_seconds * rate / shift,
                                           n_frames)))
            if per_segment * shift > nsf.MAX_SEGMENT_SAMPLES:
                raise TooLarge(f"a segment of {per_segment * shift} samples, "
                               f"the limit is {nsf.MAX_SEGMENT_SAMPLES}")
            feats = _features(kind, notes, wave, rate, shift, data.frame_length,
                              data.fft, data.n_mels)
            # the source first: _excitation bounds the length before padding the target
            source = _excitation(data.excitation, notes, feats.n_frames * shift, rate,
                                 train_cfg.seed + idx)
            target = excitation.fit_length(wave, len(source))
        for lo, hi in _segment_frames(feats.n_frames, per_segment):
            dataset.append((
                dataclasses.replace(feats, values=feats.values[lo:hi]),
                dsp.WaveSignal(source.samples[lo * shift:hi * shift], rate),
                dsp.WaveSignal(target.samples[lo * shift:hi * shift], rate),
            ))
    return dataset


def _am_data(data_dir, model_cfg, train_cfg, data):
    """The (roll, target features) segments of train am."""
    kind, shift = model_cfg.output_kind, data.frame_shift
    dataset = []
    for path, notes, wave in _clips(data_dir):
        rate = int(wave.sample_rate)
        with _named(path):
            feats = _features(kind, None, wave, rate, shift, data.frame_length,
                              data.fft, data.n_mels)
            roll = _features("piano-roll", notes, None, rate, shift)
        n = min(feats.n_frames, roll.n_frames)
        if n == 0:
            continue
        for lo, hi in _segment_frames(n, train_cfg.segment_frames):
            dataset.append((dataclasses.replace(roll, values=roll.values[lo:hi]),
                            dataclasses.replace(feats, values=feats.values[lo:hi])))
    return dataset


def cmd_train(args):
    """Train either model, writing the checkpoint and loss.csv after every
    epoch.  The model functions are read off their modules on each call,
    so a wrapper set on a module attribute sees the calls."""
    if args.resume and args.warm_start:
        raise ValueError("--resume and --warm-start exclude each other")
    if args.kind == "am":
        build, config = _am_data, (acoustic.AmConfig, acoustic.AmTrainConfig, AmData)
        init, load, train, save = (acoustic.am_init, acoustic.am_load_checkpoint,
                                   acoustic.am_train, acoustic.am_save_checkpoint)
    elif args.warm_start:
        raise ValueError("--warm-start applies to train am only")
    else:
        build, config = _nsf_data, (nsf.NsfConfig, nsf.TrainConfig, NsfData)
        init, load, train, save = (nsf.nsf_init, nsf.load_checkpoint,
                                   nsf.nsf_train, nsf.save_checkpoint)
    model_cfg, train_cfg, data = _load_config(args.config, *config)
    # the model first, so a bad checkpoint is refused before any clip is read
    if args.resume:
        params, _ = load(args.resume, model_cfg)
    elif args.warm_start:
        base, _ = acoustic.am_load_checkpoint(args.warm_start)
        params = acoustic.warm_start_from(base, model_cfg)
    else:
        params = init(model_cfg, seed=train_cfg.seed)
    dataset = build(args.data, model_cfg, train_cfg, data)

    out_dir = Path(args.out)
    ckpt_path, loss_path = out_dir / f"{args.kind}.ckpt", out_dir / "loss.csv"

    def save_epoch(_epoch, p, history):
        # made here, so a run refused before its first epoch leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        save(ckpt_path, p, model_cfg)
        _write_csv(loss_path, ("step", "loss"),
                   [(step, f"{loss:.6f}") for step, loss in history])

    _, history = train(params, dataset, train_cfg, model_cfg, on_epoch_end=save_epoch)
    print(f"trained on {len(dataset)} segments for {train_cfg.epochs} epochs; "
          f"final loss {history[-1][1]:.4f}")
    print(f"wrote {ckpt_path} and {loss_path}")
    return 0


# --- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="midisynth",
        description="MIDI-aligned synthesis, reconstruction, and evaluation tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roll", help="quantize a MIDI file to a piano-roll file")
    _midi_args(p)
    p.add_argument("out")
    p.add_argument("--shift", type=float,
                   default=ANALYSIS.frame_shift / ANALYSIS.sample_rate,
                   help="frame shift in seconds")
    p.set_defaults(func=cmd_roll)

    p = sub.add_parser("feat", help="extract filter-bank features from audio")
    p.add_argument("wav")
    p.add_argument("out")
    p.add_argument("--bank", choices=("midi", "mel", "linear"), default="midi")
    p.add_argument("--n-mels", type=int, default=dsp.N_MELS)
    _analysis_args(p)
    p.set_defaults(func=cmd_feat)

    p = sub.add_parser("excite", help="render an excitation signal from MIDI")
    _midi_args(p)
    p.add_argument("out")
    p.add_argument("--kind", choices=("sine", "noise"), default="sine")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_excite)

    p = sub.add_parser("synth", help="synthesize audio from MIDI")
    _midi_args(p)
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
    _analysis_args(p, shift=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gl", help="invert a feature file to audio (Griffin-Lim)")
    p.add_argument("feat")
    p.add_argument("out")
    p.add_argument("--iters", type=int, default=dsp.GL_ITERS)
    _analysis_args(p, shift=False)
    p.set_defaults(func=cmd_gl)

    p = sub.add_parser("pitch-ce", help="score audio against its MIDI pitches")
    p.add_argument("wav")
    _midi_args(p, rate=False)
    p.add_argument("--transpose", type=int, default=0,
                   help="shift the reference roll by semitones before scoring")
    p.add_argument("--velocity-weights", action="store_true",
                   help="weight active pitches by velocity instead of 0/1")
    _analysis_args(p)
    p.set_defaults(func=cmd_pitch_ce)

    p = sub.add_parser("probe-set", help="write a small deterministic MIDI test set")
    p.add_argument("out_dir")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe_set)

    p = sub.add_parser("stats", help="summarize listening-test scores")
    p.add_argument("scores", help="CSV with system,sample_id,listener_id,score")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--alpha", type=float, default=evaluation.ALPHA)
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
