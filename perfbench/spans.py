"""Layer spans recorded from outside the program.

The tracer replaces each public layer function listed in LAYERS with a
wrapper at every place a midisynth module binds it (`nsf` imports
`mr_stft_loss` by name, `evaluation` imports `stft`, and so on), records
one span per call and puts the originals back when it is removed.  Spans
(name, start, end, parent, operation id) stay in memory until the run
writes them out.

Only functions that do real work per call are wrapped; per-element
autograd ops such as `add` and `matmul` are left alone, so the wrapper
cost stays far below the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _decoder_steps(fn, args, kwargs, _result):
    a = _bound(fn, args, kwargs)
    return math.ceil(a["roll"].n_frames / a["cfg"].downsample_factor)


def _gl_iters(fn, args, kwargs, _result):
    return _bound(fn, args, kwargs)["n_iters"]


def _file_bytes(_fn, args, _kwargs, _result):
    return os.path.getsize(args[0])


def _n_samples(_fn, _args, _kwargs, result):
    return len(result)


def _n_notes(_fn, _args, _kwargs, result):
    return len(result.notes)


# (module, functions, span name, self-time metric, call-count metric,
#  extra counter metric, extra counter).  Every _ms metric is self time:
#  the span's duration minus the time its child spans cover.
LAYERS = [
    ("autograd", ["conv1d"], "autograd.conv1d", "autograd.conv1d_ms",
     "autograd.conv1d_calls", None, None),
    ("autograd", ["upsample_linear"], "autograd.upsample", "autograd.upsample_ms",
     "autograd.upsample_calls", None, None),
    ("autograd", ["backward"], "autograd.backward", "autograd.backward_ms",
     "autograd.backward_calls", None, None),
    ("nsf", ["nsf_forward"], "nsf.forward", "nsf.forward_self_ms",
     "nsf.forward_calls", None, None),
    ("nsf", ["nsf_backward"], "nsf.backward", "nsf.backward_self_ms",
     "nsf.backward_calls", None, None),
    ("nsf", ["nsf_train"], "nsf.train", "nsf.train_self_ms",
     "nsf.train_calls", None, None),
    ("dsp", ["stft"], "dsp.stft", "dsp.stft_ms", "dsp.stft_calls", None, None),
    ("dsp", ["istft"], "dsp.istft", "dsp.istft_ms", "dsp.istft_calls", None, None),
    ("dsp", ["griffin_lim"], "dsp.gl", "dsp.gl_self_ms", "dsp.gl_calls",
     "dsp.gl_iters", _gl_iters),
    ("dsp", ["mr_stft_loss"], "dsp.mr_loss", "dsp.mr_loss_self_ms",
     "dsp.mr_loss_calls", None, None),
    ("dsp", ["extract_features", "linear_spectrogram", "midi_filter_bank",
             "mel_filter_bank", "pseudo_inverse_magnitude"],
     "dsp.features", "dsp.features_ms", "dsp.features_calls", None, None),
    ("acoustic", ["am_generate"], "acoustic.generate", "acoustic.generate_ms",
     "acoustic.generate_calls", "acoustic.decoder_steps", _decoder_steps),
    ("acoustic", ["am_teacher_forced"], "acoustic.teacher_forced",
     "acoustic.teacher_forced_self_ms", "acoustic.teacher_forced_calls",
     "acoustic.decoder_steps", _decoder_steps),
    ("acoustic", ["am_train"], "acoustic.train", "acoustic.train_self_ms",
     "acoustic.train_calls", None, None),
    ("params", ["adam_update"], "params.adam", "params.adam_ms",
     "params.adam_steps", None, None),
    ("excitation", ["sine_excitation"], "excitation.sine", "excitation.sine_ms",
     "excitation.sine_calls", "excitation.samples", _n_samples),
    ("excitation", ["noise_excitation"], "excitation.noise", "excitation.noise_ms",
     "excitation.noise_calls", "excitation.samples", _n_samples),
    ("midi_io", ["parse_midi"], "midi_io.parse", "midi_io.parse_ms",
     "midi_io.parse_calls", "midi_io.notes", _n_notes),
    ("midi_io", ["apply_sustain_pedal"], "midi_io.pedal", "midi_io.pedal_ms",
     "midi_io.pedal_calls", None, None),
    ("midi_io", ["to_piano_roll"], "midi_io.roll", "midi_io.roll_ms",
     "midi_io.roll_calls", None, None),
    ("formats", ["read_wav", "write_wav"], "formats.wav", "formats.wav_ms",
     "formats.wav_calls", "formats.bytes", _file_bytes),
    ("formats", ["read_feature_file", "write_feature_file"], "formats.mfb",
     "formats.mfb_ms", "formats.mfb_calls", "formats.bytes", _file_bytes),
    ("formats", ["read_container", "write_container"], "formats.ckpt",
     "formats.ckpt_ms", "formats.ckpt_calls", "formats.bytes", _file_bytes),
    ("evaluation", ["pitch_probability"], "evaluation.pitch_prob",
     "evaluation.pitch_prob_ms", "evaluation.pitch_prob_calls", None, None),
    ("evaluation", ["pitch_cross_entropy"], "evaluation.pitch_ce",
     "evaluation.pitch_ce_ms", "evaluation.pitch_ce_calls", None, None),
    # The root span of every operation; its self time is CLI glue.
    ("cli", ["main"], "cli", "cli.self_ms", "cli.ops", None, None),
]
ROOT = "cli"


def metric_names():
    """Every per-layer metric the tracer reports, with its unit."""
    names = {}
    for *_, ms, calls, extra, _count in LAYERS:
        names[ms] = "ms"
        names[calls] = "count"
        if extra:
            names[extra] = "B" if extra == "formats.bytes" else "count"
    names["trace.coverage"] = "1"
    names["trace.overhead"] = "1"
    return names


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = {}
        self.op_id = -1
        self._stack = []
        self._patches = self._find_bindings()

    def _find_bindings(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "midisynth" or name.startswith("midisynth.")]
        patches = []
        for mod_name, funcs, span, _ms, _calls, extra, count in LAYERS:
            owner = sys.modules[f"midisynth.{mod_name}"]
            for func in funcs:
                original = getattr(owner, func)
                wrapper = self._wrap(original, span, extra, count)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    def _wrap(self, fn, span, extra, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([span, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if extra:
                counts[extra] = counts.get(extra, 0) + count(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self, op_id):
        self.op_id = op_id
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original, _wrapper in self._patches:
            setattr(mod, attr, original)

    def layer_metrics(self):
        """Self time and call count per layer, plus span coverage of the
        root spans.  Counters with no calls read 0."""
        duration = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        by_span = {}
        for i, (name, *_rest) in enumerate(self.spans):
            ms, calls = by_span.get(name, (0.0, 0))
            by_span[name] = (ms + 1e3 * (duration[i] - child[i]), calls + 1)
        out = {}
        for _mod, _funcs, span, ms, calls, extra, _count in LAYERS:
            self_ms, n = by_span.get(span, (0.0, 0))
            out[ms], out[calls] = self_ms, n
            if extra:
                out[extra] = self.counts.get(extra, 0)
        root_ms = sum(1e3 * d for (name, *_), d in zip(self.spans, duration)
                      if name == ROOT)
        out["trace.coverage"] = 1.0 - out["cli.self_ms"] / root_ms if root_ms else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
