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
decodes a whole batch at once, as Tacotron is trained: each item's steps
are rows, stacked item after item and padded at the end to the longest,
and the prenet and the gate inputs are whole-batch ops around one
ag.gru_sequence recurrence, which steps through time once for all the
items.  The encoder and the postnet, whose convolutions would read
across items, run per item, and so do the output head and the loss,
each item's part being backpropagated before the next is built.  The
tape does not grow with the number of steps.  Generation feeds each step its
own output, so it loops over the steps through the same GRU cell,
ag.gru_cell, one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dsp import FeatureMatrix
from .errors import TrainingDiverged
from .midi_io import PianoRoll
from .params import POSITIVE_INT, POSITIVE_INT_PAIR, UNIT_INTERVAL, FitConfig, \
    ModelParams, affine, check_fields, check_layer_table, declared, fit, init_params, \
    load_model, one_of, save_model

AM_MAGIC = b"ACM1"
VARIANTS = ("taco2", "taco3", "taco4")
MAX_REDUCTION = 4
# each variant's default (downsample_factor, prenet_dropout)
_VARIANT_DEFAULTS = {"taco2": (4, 0.99), "taco3": (4, 0.99), "taco4": (1, 0.5)}


@dataclass(frozen=True)
class AmConfig:
    variant: str = declared(one_of(*VARIANTS), "taco2")
    input_dim: int = declared(POSITIVE_INT, 128)
    output_dim: int = declared(POSITIVE_INT, 128)
    downsample_factor: int | None = declared(one_of(1, 2, 4), None)
    prenet_dropout: float | None = declared(UNIT_INTERVAL, None)
    encoder_channels: int = declared(POSITIVE_INT, 64)
    decoder_state_dim: int = declared(POSITIVE_INT, 64)
    prenet_widths: tuple = declared(POSITIVE_INT_PAIR, (256, 128))
    postnet_channels: int = declared(POSITIVE_INT, 64)
    output_kind: str = declared(one_of("mel-fb", "midi-fb"), "midi-fb")

    def __post_init__(self):
        if self.variant in VARIANTS:  # else check_fields names it
            factor, dropout = _VARIANT_DEFAULTS[self.variant]
            if self.downsample_factor is None:
                object.__setattr__(self, "downsample_factor", factor)
            if self.prenet_dropout is None:
                object.__setattr__(self, "prenet_dropout", dropout)
        check_fields(self)
        if self.variant == "taco4" and self.downsample_factor != 1:
            raise ValueError("taco4 runs at the full frame rate (factor 1)")
        object.__setattr__(self, "prenet_widths", tuple(self.prenet_widths))
        check_layer_table(_layers(self))

    @property
    def prenet_input_dim(self):
        extra = self.input_dim if self.variant == "taco3" else 0
        return self.output_dim + extra


@dataclass(frozen=True)
class AmTrainConfig(FitConfig):
    segment_frames: int = declared(POSITIVE_INT, 800)


def _layers(cfg: AmConfig):
    """Every tensor as (name, (shape, fan_in)) pairs.  The position offsets
    and the postnet's residual layer start at zero."""
    e, s, d = cfg.encoder_channels, cfg.decoder_state_dim, cfg.output_dim
    w1, w2 = cfg.prenet_widths
    gru_in = w2 + e
    yield from affine("enc.in", (cfg.input_dim, e), cfg.input_dim)
    yield from affine("enc.conv0", (3, e, e), 3 * e)
    yield from affine("enc.conv1", (3, e, e), 3 * e)
    yield from affine("prenet.fc1", (cfg.prenet_input_dim, w1), cfg.prenet_input_dim)
    yield from affine("prenet.fc2", (w1, w2), w1)
    for g in "zrn":
        yield f"dec.gru.w{g}", ((gru_in, s), gru_in)
        yield f"dec.gru.u{g}", ((s, s), s)
        yield f"dec.gru.b{g}", ((s,), gru_in)
    yield from affine("dec.out", (s, d), s)
    yield "dec.pos.weight", ((MAX_REDUCTION, d), None)
    yield from affine("post.conv0", (5, d, cfg.postnet_channels), 5 * d)
    yield from affine("post.conv1", (5, cfg.postnet_channels, d), None)


def am_param_shapes(cfg: AmConfig) -> dict:
    return {name: shape for name, (shape, _) in _layers(cfg)}


def am_init(cfg: AmConfig, seed: int = 0) -> ModelParams:
    return init_params(_layers(cfg), seed)


# --- data plumbing -----------------------------------------------------------


def downsample_roll(values: np.ndarray, factor: int) -> np.ndarray:
    """Max-pool (N, 128) roll values over groups of factor rows: ceil(N / factor)
    rows, a trailing partial group zero-padded."""
    if factor == 1:
        return values
    n = len(values)
    m = math.ceil(n / factor)
    padded = np.pad(values, ((0, m * factor - n), (0, 0)))
    return padded.reshape(m, factor, 128).max(axis=1)


# --- forward -----------------------------------------------------------------


def _encode(tensors, roll_ds_values):
    e = ag.linear(roll_ds_values, tensors["enc.in.weight"], tensors["enc.in.bias"])
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
    """Every decoder step's prenet dropout mask; with dropout off, all ones."""
    return dropout_mask(np.random.default_rng(seed), 1.0 - cfg.prenet_dropout,
                        cfg.output_dim, steps)


def _prenet_input(cfg, prev, mask, roll_rows):
    """The prenet's input rows from rows of previous frames (targets or
    outputs): the dropout mask hits the frames only; taco3 then appends
    the roll rows of the same steps."""
    prev = prev * mask
    return np.concatenate([prev, roll_rows], axis=1) if cfg.variant == "taco3" else prev


def _prenet(tensors, rows):
    q = ag.relu(ag.linear(rows, tensors["prenet.fc1.weight"], tensors["prenet.fc1.bias"]))
    return ag.relu(ag.linear(q, tensors["prenet.fc2.weight"], tensors["prenet.fc2.bias"]))


def _gate_inputs(tensors, q, enc_rows):
    """The z, r and n gate inputs [q, encoder] @ W of the same steps."""
    u = ag.concat([q, enc_rows], axis=1)
    return [ag.matmul(u, tensors[f"dec.gru.w{g}"]) for g in "zrn"]


def _gru_tensors(tensors, kind):
    return [tensors[f"dec.gru.{kind}{g}"] for g in "zrn"]


def _frames(tensors, states, r):
    """The r output frames of each state, in time order: (rows * r, d).

    Frame k of a step is the shared projection plus position offset k.
    A matmul with r identity rows picks offsets 0 .. r-1 exactly: each
    entry is one 1 * w term plus zeros, and the unused rows get exactly
    zero gradient.
    """
    base = ag.linear(states, tensors["dec.out.weight"], tensors["dec.out.bias"])
    rows, d = base.shape
    offsets = ag.matmul(np.eye(r, MAX_REDUCTION), tensors["dec.pos.weight"])
    offsets = ag.reshape(offsets, (1, r, d))
    return ag.reshape(ag.add(ag.reshape(base, (rows, 1, d)), offsets), (rows * r, d))


def _postnet(tensors, y1):
    c = ag.tanh(ag.conv1d(y1, tensors["post.conv0.weight"],
                          tensors["post.conv0.bias"], dilation=1, causal=False))
    res = ag.conv1d(c, tensors["post.conv1.weight"], tensors["post.conv1.bias"],
                    dilation=1, causal=False)
    return ag.add(y1, res)


def _check_roll(roll, cfg):
    if roll.values.shape[1] != cfg.input_dim:
        raise ValueError(
            f"roll has {roll.values.shape[1]} pitches, model wants {cfg.input_dim}")
    if roll.n_frames == 0:
        raise ValueError("piano roll has no frames")


def am_teacher_forced(params: ModelParams, roll: PianoRoll, target, cfg: AmConfig,
                      seed=0):
    """One teacher-forced pass over a batch: returns (loss, grads, predicted
    features), the loss and gradients being the means over its items.

    target is one FeatureMatrix per item (one FeatureMatrix is a batch of
    one), roll holds the items' rolls back to back, and seed is one seed per
    item (or one for all), which makes its prenet dropout masks
    reproducible.  Each decoder step is fed the true previous frame (the
    last target frame of the preceding group), so the items' steps are
    stacked as rows, each item padded at the end to the longest, and only
    the recurrence steps through time, inside ag.gru_sequence.  The output
    head, the postnet and the loss then run per item on its real steps'
    states, each backpropagated at once, so only one item's tape is held
    besides the stacked one; their state gradients, zero on padded steps,
    seed the backward pass through the recurrence.  An item's loss is the
    mean squared error before plus after the postnet, against its target
    padded to a whole number of groups by edge replication.  The predicted
    features are the items' back to back.  A non-finite loss raises
    TrainingDiverged.
    """
    targets = [target] if isinstance(target, FeatureMatrix) else list(target)
    _check_roll(roll, cfg)
    lengths = [t.n_frames for t in targets]
    if sum(lengths) != roll.n_frames:
        raise ValueError(f"target has {sum(lengths)} frames, roll has {roll.n_frames}")
    if min(lengths) == 0:
        raise ValueError("an item of the batch has no frames")
    r, d, batch = cfg.downsample_factor, cfg.output_dim, len(targets)
    steps = [math.ceil(n / r) for n in lengths]
    longest = max(steps)
    tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
    # stacked rows: item i's steps, then zero rows up to the longest
    prenet_rows = np.zeros((batch, longest, cfg.prenet_input_dim))
    enc, padded_targets = [], []
    for i, (rows, t, m, item_seed) in enumerate(zip(
            np.split(roll.values, np.cumsum(lengths)[:-1]), targets, steps,
            np.broadcast_to(seed, batch))):
        if t.dim != d:
            raise ValueError(f"target has {t.dim} dims, model wants {d}")
        roll_ds = downsample_roll(rows, r)
        padded = np.pad(t.values, ((0, m * r - t.n_frames), (0, 0)), mode="edge")
        fed = np.pad(padded[r - 1 : (m - 1) * r : r], ((1, 0), (0, 0)))
        prenet_rows[i, :m] = _prenet_input(cfg, fed, _prenet_masks(cfg, item_seed, m),
                                           roll_ds)
        padded_targets.append(padded)
        enc += [_encode(tensors, roll_ds), np.zeros((longest - m, cfg.encoder_channels))]
    q = _prenet(tensors, prenet_rows.reshape(batch * longest, -1))
    states = ag.gru_sequence(_gate_inputs(tensors, q, ag.concat(enc, axis=0)),
                             _gru_tensors(tensors, "u"), _gru_tensors(tensors, "b"),
                             batch)
    grad_states = np.zeros(states.shape)  # zero on padded steps
    loss_sum, pred = 0.0, []
    for i, (m, padded, n) in enumerate(zip(steps, padded_targets, lengths)):
        item_states = ag.Tensor(states.value[i * longest : i * longest + m])
        y1 = _frames(tensors, item_states, r)
        y2 = _postnet(tensors, y1)
        loss = ag.add(ag.square_error_mean(y1, padded), ag.square_error_mean(y2, padded))
        if not math.isfinite(loss.value):
            raise TrainingDiverged("non-finite loss in the teacher-forced pass")
        ag.backward(loss)
        grad_states[i * longest : i * longest + m] = item_states.grad
        loss_sum += float(loss.value)
        pred.append(y2.value[:n])
    ag.backward(states, grad_states)
    grads = {name: t.grad / batch for name, t in tensors.items()}
    kind, shift, rate = targets[0].kind, targets[0].frame_shift, targets[0].sample_rate
    return loss_sum / batch, grads, FeatureMatrix(np.concatenate(pred), kind, shift, rate)


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
    roll_ds = downsample_roll(roll.values, cfg.downsample_factor)
    masks = _prenet_masks(cfg, seed, len(roll_ds))

    with ag.no_grad():
        tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
        enc_out = _encode(tensors, roll_ds).value
        u = [t.value for t in _gru_tensors(tensors, "u")]
        b = [t.value for t in _gru_tensors(tensors, "b")]
        state = np.zeros((1, cfg.decoder_state_dim))
        last = np.zeros((1, cfg.output_dim))
        frames = []
        for s in range(len(roll_ds)):
            rows = slice(s, s + 1)
            rows_in = _prenet_input(cfg, last, masks[rows], roll_ds[rows])
            q = _prenet(tensors, rows_in)
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
    def loss_and_grads(p, items, indices):
        rolls, targets = zip(*items)
        roll = PianoRoll(np.concatenate([r.values for r in rolls]), rolls[0].frame_shift,
                         rolls[0].sample_rate)
        seeds = [np.random.SeedSequence((train_cfg.seed, p.step, int(idx)))
                 .generate_state(1)[0] for idx in indices]
        loss, grads, _ = am_teacher_forced(p, roll, targets, cfg, seed=seeds)
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


def am_save_checkpoint(path, params: ModelParams, cfg: AmConfig) -> None:
    save_model(path, AM_MAGIC, params, cfg)


def am_load_checkpoint(path, expected_cfg: AmConfig | None = None):
    """Read a checkpoint as params.load_model does: (params, config)."""
    return load_model(path, AM_MAGIC, AmConfig, am_param_shapes, expected_cfg)
