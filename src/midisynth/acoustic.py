"""Acoustic models mapping piano rolls to filter-bank features.

Three closely related sequence models, all alignment-free by design (the
roll and the features share a time base, so no attention is needed):

- taco2: the roll is max-pooled down in time, encoded, and decoded by a
  GRU whose prenet eats the previous output frame under heavy dropout.
  The decoder emits downsample_factor frames per step.
- taco3: identical, but the current downsampled roll frame is
  concatenated to the prenet input after dropout, so the decoder sees
  the score even when dropout erases the previous frame.
- taco4: no downsampling (factor 1), moderate dropout, otherwise taco2.

Each decoder step emits as many frames as the roll was downsampled by,
so decoder steps line up one-to-one with encoder frames.  The output head
is one shared frame projection plus a per-position offset table with a
fixed four rows, which keeps every parameter shape independent of that
factor; checkpoints therefore move between variants without reshaping.

Teacher forcing knows every step's previous frame in advance, so it
decodes the whole sequence at once: the prenet, the gate inputs and the
output head are whole-sequence ops around one ag.gru_sequence
recurrence, and the tape does not grow with the number of steps.
Generation feeds each step its own output, so it loops over the steps
through the same GRU cell, ag.gru_cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dsp import FeatureMatrix
from .errors import DimensionMismatch, LengthMismatch, TrainingDiverged
from .midi_io import PianoRoll
from .params import ModelParams, affine, check_parameter_count, check_train_config, \
    fit, init_params, is_number, load_model, save_model

AM_MAGIC = b"ACM1"
VARIANTS = ("taco2", "taco3", "taco4")
MAX_REDUCTION = 4
_VARIANT_DEFAULTS = {  # (downsample_factor, prenet_dropout)
    "taco2": (4, 0.99),
    "taco3": (4, 0.99),
    "taco4": (1, 0.5),
}


@dataclass(frozen=True)
class AmConfig:
    variant: str = "taco2"
    input_dim: int = 128
    output_dim: int = 128
    downsample_factor: int | None = None
    prenet_dropout: float | None = None
    encoder_channels: int = 64
    decoder_state_dim: int = 64
    prenet_widths: tuple = (256, 128)
    postnet_channels: int = 64
    output_kind: str = "midi-fb"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        factor, dropout = _VARIANT_DEFAULTS[self.variant]
        if self.downsample_factor is None:
            object.__setattr__(self, "downsample_factor", factor)
        if self.prenet_dropout is None:
            object.__setattr__(self, "prenet_dropout", dropout)
        if self.variant == "taco4" and self.downsample_factor != 1:
            raise ValueError("taco4 runs at the full frame rate (factor 1)")
        if type(self.downsample_factor) is not int \
                or self.downsample_factor not in (1, 2, 4):
            raise ValueError("downsample_factor must be 1, 2, or 4")
        if not (is_number(self.prenet_dropout) and 0 <= self.prenet_dropout < 1):
            raise ValueError("prenet_dropout must lie in [0, 1)")
        widths = (self.input_dim, self.output_dim, self.encoder_channels,
                  self.decoder_state_dim, self.postnet_channels)
        if any(type(w) is not int or w < 1 for w in widths):
            raise ValueError("all widths must be positive integers")
        if not isinstance(self.prenet_widths, (list, tuple)) \
                or len(self.prenet_widths) != 2 \
                or any(type(w) is not int or w < 1 for w in self.prenet_widths):
            raise ValueError("prenet_widths must be two positive integers")
        object.__setattr__(self, "prenet_widths", tuple(self.prenet_widths))
        if self.output_kind not in ("mel-fb", "midi-fb"):
            raise ValueError("output_kind must be mel-fb or midi-fb")
        check_parameter_count(_layers(self))

    @property
    def prenet_input_dim(self):
        extra = self.input_dim if self.variant == "taco3" else 0
        return self.output_dim + extra


@dataclass(frozen=True)
class AmTrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 4
    segment_frames: int = 800
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        check_train_config(self, ("batch_size", "epochs", "segment_frames"))


def _layers(cfg: AmConfig) -> dict:
    """Every tensor as name -> (shape, fan_in).  The position offsets and
    the postnet's residual layer start at zero."""
    e, s, d = cfg.encoder_channels, cfg.decoder_state_dim, cfg.output_dim
    w1, w2 = cfg.prenet_widths
    gru_in = w2 + e
    layers = {**affine("enc.in", (cfg.input_dim, e), cfg.input_dim),
              **affine("enc.conv0", (3, e, e), 3 * e),
              **affine("enc.conv1", (3, e, e), 3 * e),
              **affine("prenet.fc1", (cfg.prenet_input_dim, w1), cfg.prenet_input_dim),
              **affine("prenet.fc2", (w1, w2), w1)}
    for g in "zrn":
        layers[f"dec.gru.w{g}"] = ((gru_in, s), gru_in)
        layers[f"dec.gru.u{g}"] = ((s, s), s)
        layers[f"dec.gru.b{g}"] = ((s,), gru_in)
    return {**layers, **affine("dec.out", (s, d), s),
            "dec.pos.weight": ((MAX_REDUCTION, d), None),
            **affine("post.conv0", (5, d, cfg.postnet_channels), 5 * d),
            **affine("post.conv1", (5, cfg.postnet_channels, d), None)}


def am_param_shapes(cfg: AmConfig) -> dict:
    return {name: shape for name, (shape, _) in _layers(cfg).items()}


def am_init(cfg: AmConfig, seed: int = 0) -> ModelParams:
    return init_params(_layers(cfg), seed)


# --- data plumbing -----------------------------------------------------------


def downsample_roll(roll: PianoRoll, factor: int) -> PianoRoll:
    """Max-pool the roll over non-overlapping groups of factor frames.

    A trailing partial group is zero-padded before pooling.  The result
    has ceil(N / factor) frames at factor times the frame shift.
    """
    if factor not in (1, 2, 4):
        raise ValueError("factor must be 1, 2, or 4")
    if factor == 1:
        return roll
    n = roll.n_frames
    m = math.ceil(n / factor)
    padded = np.zeros((m * factor, 128))
    padded[:n] = roll.values
    pooled = padded.reshape(m, factor, 128).max(axis=1)
    return PianoRoll(pooled, roll.frame_shift * factor, roll.sample_rate)


def _pad_rows_edge(values: np.ndarray, rows: int) -> np.ndarray:
    """Extend to `rows` rows by repeating the last row."""
    if values.shape[0] == rows:
        return values
    pad = np.repeat(values[-1:], rows - values.shape[0], axis=0)
    return np.concatenate([values, pad], axis=0)


# --- forward -----------------------------------------------------------------


def _encode(tensors, roll_ds_values):
    e = ag.add(ag.matmul(ag.Tensor(roll_ds_values), tensors["enc.in.weight"]),
               tensors["enc.in.bias"])
    for layer in ("enc.conv0", "enc.conv1"):
        e = ag.tanh(ag.conv1d(e, tensors[f"{layer}.weight"],
                              tensors[f"{layer}.bias"], dilation=1, causal=False))
    return e


def dropout_mask(rng, keep_rate: float, dim: int, rows: int = 1) -> np.ndarray:
    """Inverted-dropout mask of shape (rows, dim), drawn in one block.

    Kept entries are scaled by 1/keep_rate.  PCG64 fills the block row by
    row, so one draw equals rows successive (1, dim) draws.
    """
    return (rng.random((rows, dim)) < keep_rate) / keep_rate


def _prenet_masks(cfg, seed, steps):
    """Every decoder step's prenet dropout mask, or None with dropout off."""
    if cfg.prenet_dropout == 0.0:
        return None
    return dropout_mask(np.random.default_rng(seed), 1.0 - cfg.prenet_dropout,
                        cfg.output_dim, steps)


def _prenet(tensors, cfg, prev, roll_rows, mask):
    """Prenet over rows of previous frames (constants: targets or outputs).

    The dropout mask hits the frames only; taco3 then appends the roll
    rows of the same steps.
    """
    if mask is not None:
        prev = prev * mask
    if cfg.variant == "taco3":
        prev = np.concatenate([prev, roll_rows], axis=1)
    q = ag.relu(ag.add(ag.matmul(ag.Tensor(prev), tensors["prenet.fc1.weight"]),
                       tensors["prenet.fc1.bias"]))
    return ag.relu(ag.add(ag.matmul(q, tensors["prenet.fc2.weight"]),
                          tensors["prenet.fc2.bias"]))


def _gate_inputs(tensors, q, enc_rows):
    """The z, r and n gate inputs [q, encoder] @ W of the same steps."""
    u = ag.concat_cols([q, enc_rows])
    return [ag.matmul(u, tensors[f"dec.gru.w{g}"]) for g in "zrn"]


def _gru_tensors(tensors, kind):
    return [tensors[f"dec.gru.{kind}{g}"] for g in "zrn"]


def _frames(tensors, states, r):
    """The r output frames of each state, in time order: (rows * r, d).

    Frame k of a step is the shared projection plus position offset k.
    """
    base = ag.add(ag.matmul(states, tensors["dec.out.weight"]),
                  tensors["dec.out.bias"])
    rows, d = base.shape
    offsets = ag.reshape(ag.slice_rows(tensors["dec.pos.weight"], 0, r), (1, r, d))
    return ag.reshape(ag.add(ag.reshape(base, (rows, 1, d)), offsets), (rows * r, d))


def _postnet(tensors, y1):
    c = ag.tanh(ag.conv1d(y1, tensors["post.conv0.weight"],
                          tensors["post.conv0.bias"], dilation=1, causal=False))
    res = ag.conv1d(c, tensors["post.conv1.weight"], tensors["post.conv1.bias"],
                    dilation=1, causal=False)
    return ag.add(y1, res)


def _check_roll(roll, cfg):
    if roll.values.shape[1] != cfg.input_dim:
        raise DimensionMismatch(
            f"roll has {roll.values.shape[1]} pitches, model wants {cfg.input_dim}")
    if roll.n_frames == 0:
        raise ValueError("piano roll has no frames")


def am_teacher_forced(params: ModelParams, roll: PianoRoll, target: FeatureMatrix,
                      cfg: AmConfig, seed: int = 0):
    """One teacher-forced pass: returns (loss, grads, predicted features).

    The decoder is fed the true previous frame (the last target frame of
    the preceding group).  Every step's input is thus known in advance,
    so the prenet, the gate inputs and the output head each run once
    over the whole sequence, and only the recurrence steps through time,
    inside ag.gru_sequence.  Loss is the mean squared error before plus
    after the postnet, against the target padded to a whole number of
    groups by edge replication.  Prenet dropout is cfg.prenet_dropout;
    the seed makes the masks reproducible.  A non-finite loss raises
    TrainingDiverged.
    """
    _check_roll(roll, cfg)
    if target.dim != cfg.output_dim:
        raise DimensionMismatch(
            f"target has {target.dim} dims, model wants {cfg.output_dim}")
    if target.n_frames != roll.n_frames:
        raise LengthMismatch(
            f"target has {target.n_frames} frames, roll has {roll.n_frames}")
    roll_ds = downsample_roll(roll, cfg.downsample_factor)
    m = roll_ds.n_frames
    r = cfg.downsample_factor
    padded = _pad_rows_edge(target.values, m * r)
    prev = np.zeros((m, cfg.output_dim))
    prev[1:] = padded[r - 1 : (m - 1) * r : r]
    mask = _prenet_masks(cfg, seed, m)

    tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
    enc_out = _encode(tensors, roll_ds.values)
    q = _prenet(tensors, cfg, prev, roll_ds.values, mask)
    states = ag.gru_sequence(_gate_inputs(tensors, q, enc_out),
                             _gru_tensors(tensors, "u"), _gru_tensors(tensors, "b"))
    y1 = _frames(tensors, states, r)
    y2 = _postnet(tensors, y1)
    target_t = ag.Tensor(padded)
    loss = ag.add(ag.square_error_mean(y1, target_t),
                  ag.square_error_mean(y2, target_t))
    if not math.isfinite(loss.value):
        raise TrainingDiverged("non-finite loss in the teacher-forced pass")
    ag.backward(loss)
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for name, t in tensors.items()}
    pred = FeatureMatrix(y2.value[: roll.n_frames], target.kind,
                         target.frame_shift, target.sample_rate)
    return float(loss.value), grads, pred


def am_generate(params: ModelParams, roll: PianoRoll, cfg: AmConfig,
                seed: int = 0) -> FeatureMatrix:
    """Free-running synthesis of features from a piano roll.

    The decoder feeds back its own last pre-postnet frame, so it steps
    through time: each step runs the prenet, the GRU cell that
    ag.gru_sequence also runs (ag.gru_cell) and the output head.  Prenet
    dropout is cfg.prenet_dropout, as in training (it is part of how
    these models learn to rely on the score); the seed makes it
    reproducible.
    """
    _check_roll(roll, cfg)
    roll_ds = downsample_roll(roll, cfg.downsample_factor)
    masks = _prenet_masks(cfg, seed, roll_ds.n_frames)

    with ag.no_grad():
        tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
        enc_out = _encode(tensors, roll_ds.values).value
        u = [t.value for t in _gru_tensors(tensors, "u")]
        b = [t.value for t in _gru_tensors(tensors, "b")]
        state = np.zeros((1, cfg.decoder_state_dim))
        last = np.zeros((1, cfg.output_dim))
        frames = []
        for s in range(roll_ds.n_frames):
            rows = slice(s, s + 1)
            q = _prenet(tensors, cfg, last, roll_ds.values[rows],
                        None if masks is None else masks[rows])
            x = [t.value for t in _gate_inputs(tensors, q, ag.Tensor(enc_out[rows]))]
            state, _ = ag.gru_cell(x, state, u, b)
            frames.append(_frames(tensors, ag.Tensor(state), cfg.downsample_factor).value)
            last = frames[-1][-1:]
        y2 = _postnet(tensors, ag.Tensor(np.concatenate(frames)))
    values = y2.value[: roll.n_frames]
    shift = roll.frame_shift
    return FeatureMatrix(values, cfg.output_kind, shift, roll.sample_rate)


def am_train(params: ModelParams, dataset, train_cfg: AmTrainConfig,
             cfg: AmConfig, on_epoch_end=None):
    """Train with params.fit over (roll, target features) pairs.

    Dropout masks derive from the train seed, the step index, and the
    item index, so runs are reproducible.  Returns (updated params copy,
    [(step, batch loss), ...]).
    """
    def loss_and_grads(p, item, idx):
        roll, target = item
        item_seed = np.random.SeedSequence(
            (train_cfg.seed, p.step, int(idx))).generate_state(1)[0]
        loss, grads, _ = am_teacher_forced(p, roll, target, cfg, seed=int(item_seed))
        return loss, grads

    return fit(params, dataset, loss_and_grads, train_cfg, on_epoch_end)


# --- warm starting and checkpoints -------------------------------------------


def warm_start_from(base: ModelParams, new_cfg: AmConfig) -> ModelParams:
    """Adapt trained parameters to a sibling variant.

    Every tensor whose shape already matches is copied as-is; thanks to
    the fixed-size output head that covers all of them except the first
    prenet layer when the new variant concatenates the roll frame, whose
    weight gains zero rows for the new inputs (the adapted model starts
    out computing exactly the base function).  Optimizer state resets.
    """
    tensors = {}
    for name, shape in am_param_shapes(new_cfg).items():
        src = base.tensors[name]
        if src.shape == tuple(shape):
            tensors[name] = src.copy()
        elif name == "prenet.fc1.weight" and shape[1] == src.shape[1] \
                and shape[0] > src.shape[0]:
            grown = np.zeros(shape)
            grown[: src.shape[0]] = src
            tensors[name] = grown
        else:
            raise ValueError(
                f"cannot adapt tensor {name!r} from {src.shape} to {tuple(shape)}")
    return ModelParams(tensors=tensors)


def _v1_config(fields):
    """The nine u32 fields of a version-1 checkpoint as AmConfig arguments."""
    code, input_dim, output_dim, factor, enc, dec, w1, w2, post = fields
    return dict(variant=f"taco{code}", input_dim=input_dim,
                output_dim=output_dim, downsample_factor=factor,
                encoder_channels=enc, decoder_state_dim=dec,
                prenet_widths=(w1, w2), postnet_channels=post)


def am_save_checkpoint(path, params: ModelParams, cfg: AmConfig) -> None:
    save_model(path, AM_MAGIC, params, cfg)


def am_load_checkpoint(path, expected_cfg: AmConfig | None = None):
    """Read an acoustic checkpoint, returning (params, config).

    Every config field is stored.  A version-1 file lacks prenet_dropout
    and output_kind; they come from expected_cfg when given, else from
    the defaults.
    """
    return load_model(path, AM_MAGIC, AmConfig, am_param_shapes, 9,
                      _v1_config, expected_cfg)
