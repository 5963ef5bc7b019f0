"""The layer functions the benchmark's tracer wraps still exist and bind.

perfbench/spans.py names midisynth functions and reads some of their
arguments by name.  A rename there would otherwise surface only as a
crash in a traced benchmark run.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

import helpers
import midisynth.cli  # noqa: F401  (binds every module the tracer patches)
from midisynth import acoustic, dsp, midi_io

ROOT = Path(__file__).resolve().parent.parent


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("perfbench_spans", ROOT / "perfbench" / "spans.py")


def test_tracer_binds_every_layer_function():
    spans = load_spans()
    tracer = spans.Tracer()
    patched = {original for _mod, _attr, original, _wrapper in tracer._patches}
    for mod_name, funcs, *_ in spans.LAYERS:
        for func in funcs:
            owner = importlib.import_module(f"midisynth.{mod_name}")
            assert getattr(owner, func) in patched, f"{mod_name}.{func}"


def test_counted_arguments_keep_their_names():
    for fn in (acoustic.am_generate, acoustic.am_teacher_forced):
        assert {"roll", "cfg"} <= set(inspect.signature(fn).parameters), fn.__name__
    assert "n_iters" in inspect.signature(dsp.griffin_lim).parameters


def test_traced_calls_count_decoder_steps_and_iterations(stft_cfg):
    spans = load_spans()
    tracer = spans.Tracer()
    cfg = helpers.tiny_am_cfg("taco2", output_dim=128)
    params = acoustic.am_init(cfg, seed=0)
    roll = midi_io.PianoRoll(np.zeros((10, 128)), 0.012)
    tracer.install(0)
    try:
        acoustic.am_generate(params, roll, cfg)
        dsp.griffin_lim(np.ones((3, stft_cfg.n_bins)), stft_cfg, n_iters=2)
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    assert metrics["acoustic.generate_calls"] == 1
    assert metrics["acoustic.decoder_steps"] == 3  # ceil(10 / 4)
    assert metrics["dsp.gl_calls"] == 1 and metrics["dsp.gl_iters"] == 2
    # the bench's self-check counts istft calls: one per iteration and the first
    assert metrics["dsp.istft_calls"] == 2 + 1 and metrics["dsp.stft_calls"] == 2


def test_tracer_sees_each_train_call(tmp_path):
    """cli looks the train functions up when train runs, so the wrappers the
    tracer sets on their modules see one call per run and one checkpoint
    write per epoch."""
    data = tmp_path / "data"
    data.mkdir()
    notes = helpers.make_notes([(0.0, 0.3, 69, 100)])
    (data / "clip.mid").write_bytes(midi_io.write_midi(notes))
    helpers.tone_wav(data / "clip.wav", seconds=0.3)
    configs = {
        "nsf": {"model": {"upsample_factor": 64, "channels": 2, "n_blocks": 1,
                          "convs_per_block": 2},
                "train": {"segment_seconds": 0.1, "epochs": 1}},
        "am": {"model": {"encoder_channels": 4, "decoder_state_dim": 4,
                         "prenet_widths": [4, 4], "postnet_channels": 4},
               "train": {"segment_frames": 12, "epochs": 1}},
    }
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        for kind, config in configs.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(config))
            argv = ["train", kind, str(data), str(tmp_path / kind), "--config", str(path)]
            assert midisynth.cli.main(argv) == 0
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    assert metrics["nsf.train_calls"] == 1
    assert metrics["acoustic.train_calls"] == 1
    assert metrics["formats.ckpt_calls"] == 2
