import dataclasses

import numpy as np
import pytest

import helpers
import v1_checkpoints as v1
from midisynth import acoustic
from midisynth.acoustic import AmConfig, AmTrainConfig
from midisynth.dsp import FeatureMatrix
from midisynth.errors import (CorruptCheckpoint, DimensionMismatch,
                              LengthMismatch, TrainingDiverged)
from midisynth.midi_io import PianoRoll


def make_roll(rng, n_frames):
    values = np.zeros((n_frames, 128))
    for col in rng.integers(40, 90, size=3):
        values[:, col] = rng.random(n_frames)
    return PianoRoll(values, 0.012)


def make_target(rng, n_frames, dim):
    return FeatureMatrix(rng.standard_normal((n_frames, dim)), "midi-fb",
                         0.012, 24000.0)


# --- configuration -----------------------------------------------------------


def test_variant_defaults():
    assert AmConfig(variant="taco2").downsample_factor == 4
    assert AmConfig(variant="taco2").prenet_dropout == 0.99
    assert AmConfig(variant="taco3").downsample_factor == 4
    assert AmConfig(variant="taco3").prenet_dropout == 0.99
    assert AmConfig(variant="taco4").downsample_factor == 1
    assert AmConfig(variant="taco4").prenet_dropout == 0.5


def test_variant_constraints():
    with pytest.raises(ValueError):
        AmConfig(variant="taco1")
    with pytest.raises(ValueError):
        AmConfig(variant="taco4", downsample_factor=4)
    with pytest.raises(ValueError):
        AmConfig(variant="taco2", downsample_factor=3)
    with pytest.raises(ValueError):
        AmConfig(variant="taco2", prenet_dropout=1.0)
    AmConfig(variant="taco2", prenet_dropout=0.0)  # explicitly off is fine


def test_reduction_equals_downsample():
    for variant in ("taco2", "taco3", "taco4"):
        cfg = AmConfig(variant=variant)
        assert cfg.reduction_factor == cfg.downsample_factor


def test_taco3_prenet_width_includes_roll():
    assert helpers.tiny_am_cfg("taco3", output_dim=6).prenet_input_dim == 6 + 128
    assert helpers.tiny_am_cfg("taco2", output_dim=6).prenet_input_dim == 6
    assert helpers.tiny_am_cfg("taco4", output_dim=6).prenet_input_dim == 6


def test_param_shapes():
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    shapes = acoustic.am_param_shapes(cfg)
    s, d = cfg.decoder_state_dim, cfg.output_dim
    u = cfg.prenet_widths[1] + cfg.encoder_channels
    assert shapes["dec.gru.wz"] == (u, s)
    assert shapes["dec.gru.uz"] == (s, s)
    assert shapes["dec.out.weight"] == (s, d)
    assert shapes["dec.pos.weight"] == (4, d)
    assert shapes["prenet.fc1.weight"] == (cfg.prenet_input_dim,
                                           cfg.prenet_widths[0])
    assert shapes["post.conv1.weight"] == (5, cfg.postnet_channels, d)


def test_init_zero_tensors():
    cfg = helpers.tiny_am_cfg()
    params = acoustic.am_init(cfg, seed=0)
    assert not params.tensors["dec.pos.weight"].any()
    assert not params.tensors["post.conv1.weight"].any()
    assert not params.tensors["post.conv1.bias"].any()
    assert params.tensors["prenet.fc1.weight"].any()


# --- roll downsampling -----------------------------------------------------


def test_downsample_roll_max_pooling():
    values = np.zeros((8, 128))
    values[1, 60] = 0.3
    values[2, 60] = 0.9
    values[5, 72] = 0.4
    roll = PianoRoll(values, 0.012)
    down = acoustic.downsample_roll(roll, 4)
    assert down.n_frames == 2
    assert down.values[0, 60] == 0.9
    assert down.values[1, 72] == 0.4
    assert down.frame_shift == pytest.approx(0.048)


def test_downsample_roll_pads_partial_group():
    values = np.zeros((5, 128))
    values[4, 50] = 0.7
    down = acoustic.downsample_roll(PianoRoll(values, 0.012), 4)
    assert down.n_frames == 2
    assert down.values[1, 50] == 0.7


def test_downsample_roll_factor_one_identity(rng):
    roll = make_roll(rng, 7)
    down = acoustic.downsample_roll(roll, 1)
    assert np.array_equal(down.values, roll.values)


def test_downsample_800_frames_gives_200_steps(rng):
    roll = make_roll(rng, 800)
    assert acoustic.downsample_roll(roll, 4).n_frames == 200


# --- teacher forcing -----------------------------------------------------------


def test_teacher_forced_shapes_and_loss(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    params = acoustic.am_init(cfg, seed=0)
    roll = make_roll(rng, 13)
    target = make_target(rng, 13, 6)
    loss, grads, pred = acoustic.am_teacher_forced(params, roll, target, cfg)
    assert loss > 0.0
    assert pred.values.shape == (13, 6)
    assert set(grads) == set(params.tensors)


def test_teacher_forced_dropout_reproducible(rng):
    # rate 0.5 so different seeds almost surely draw different masks
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6, prenet_dropout=0.5)
    params = acoustic.am_init(cfg, seed=0)
    roll = make_roll(rng, 12)
    target = make_target(rng, 12, 6)
    l1, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg,
                                          train_mode=True, seed=3)
    l2, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg,
                                          train_mode=True, seed=3)
    l3, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg,
                                          train_mode=True, seed=4)
    assert l1 == l2
    assert l1 != l3


def test_teacher_forced_input_checks(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    params = acoustic.am_init(cfg, seed=0)
    roll = make_roll(rng, 12)
    with pytest.raises(DimensionMismatch):
        acoustic.am_teacher_forced(params, roll, make_target(rng, 12, 5), cfg)
    with pytest.raises(LengthMismatch):
        acoustic.am_teacher_forced(params, roll, make_target(rng, 10, 6), cfg)
    empty = PianoRoll(np.zeros((0, 128)), 0.012)
    with pytest.raises(ValueError):
        acoustic.am_teacher_forced(params, empty, make_target(rng, 0, 6), cfg)


def test_gradient_spot_check_all_variants(rng):
    for variant in ("taco2", "taco3", "taco4"):
        cfg = helpers.tiny_am_cfg(variant, output_dim=4, encoder_channels=4,
                                  decoder_state_dim=4, prenet_widths=(6, 4),
                                  postnet_channels=4)
        params = acoustic.am_init(cfg, seed=1)
        roll = make_roll(rng, 8)
        target = make_target(rng, 8, 4)
        _, grads, _ = acoustic.am_teacher_forced(params, roll, target, cfg)
        eps = 1e-5
        for name in ("enc.conv0.weight", "prenet.fc1.weight", "dec.gru.wn",
                     "dec.out.weight", "dec.pos.weight", "post.conv0.weight"):
            tensor = params.tensors[name]
            idx = tuple(rng.integers(0, s) for s in tensor.shape)
            saved = tensor[idx]
            tensor[idx] = saved + eps
            up, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg)
            tensor[idx] = saved - eps
            down, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg)
            tensor[idx] = saved
            fd = (up - down) / (2 * eps)
            assert helpers.rel_err(grads[name][idx], fd) < 1e-4, \
                f"{variant} {name}"


# --- dropout ------------------------------------------------------------------


def test_dropout_mask_survival_rate():
    rng = np.random.default_rng(77)
    keep = 0.01  # dropout rate 0.99
    draws = 100_000
    survivors = 0
    for _ in range(draws // 100):
        mask = acoustic.dropout_mask(rng, keep, 100)
        survivors += np.count_nonzero(mask)
    rate = survivors / draws
    assert abs(rate - 0.01) < 0.002
    # survivors are scaled by 1/keep
    mask = acoustic.dropout_mask(np.random.default_rng(3), 0.5, 1000)
    assert set(np.unique(mask)).issubset({0.0, 2.0})


# --- generation ----------------------------------------------------------------


def test_generate_shapes_all_variants(rng):
    for variant in ("taco2", "taco3", "taco4"):
        cfg = helpers.tiny_am_cfg(variant, output_dim=6)
        params = acoustic.am_init(cfg, seed=0)
        for n in (5, 12, 16):
            feat = acoustic.am_generate(params, make_roll(rng, n), cfg)
            assert feat.values.shape == (n, 6), variant
            assert feat.kind == cfg.output_kind


def test_generate_deterministic(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    params = acoustic.am_init(cfg, seed=0)
    roll = make_roll(rng, 10)
    a = acoustic.am_generate(params, roll, cfg, seed=5)
    b = acoustic.am_generate(params, roll, cfg, seed=5)
    c = acoustic.am_generate(params, roll, cfg, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    d = acoustic.am_generate(params, roll, cfg, seed=5, use_dropout=False)
    e = acoustic.am_generate(params, roll, cfg, seed=6, use_dropout=False)
    assert np.array_equal(d.values, e.values)


# --- training -----------------------------------------------------------------


def test_train_same_seed_same_history(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    params = acoustic.am_init(cfg, seed=0)
    data = [(make_roll(rng, 12), make_target(rng, 12, 6)) for _ in range(3)]
    tc = AmTrainConfig(learning_rate=1e-3, batch_size=2, epochs=2, seed=4)
    out1, hist1 = acoustic.am_train(params, data, tc, cfg)
    out2, hist2 = acoustic.am_train(params, data, tc, cfg)
    assert hist1 == hist2
    for name in out1.tensors:
        assert np.array_equal(out1.tensors[name], out2.tensors[name])
    assert out1.step == len(hist1)
    assert params.step == 0


def test_train_loss_decreases_without_dropout(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=4, prenet_dropout=0.0)
    params = acoustic.am_init(cfg, seed=0)
    roll = make_roll(rng, 16)
    target = make_target(rng, 16, 4)
    tc = AmTrainConfig(learning_rate=5e-3, batch_size=1, epochs=60, seed=0)
    _, hist = acoustic.am_train(params, [(roll, target)], tc, cfg)
    assert hist[-1][1] < 0.7 * hist[0][1]


def test_train_non_finite_target_raises(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=4)
    target = make_target(rng, 12, 4)
    target.values[1, 1] = np.nan  # a frame the decoder is not fed
    tc = AmTrainConfig(learning_rate=1e-3, batch_size=1, epochs=1)
    with pytest.raises(TrainingDiverged):
        acoustic.am_train(acoustic.am_init(cfg, seed=0),
                          [(make_roll(rng, 12), target)], tc, cfg)


@pytest.mark.parametrize("case", ["huge_learning_rate", "nan_fed_frame"])
def test_train_non_finite_prediction_raises(rng, case):
    # a non-finite prediction must reach the divergence check, not fail
    # as a malformed feature matrix
    cfg = helpers.tiny_am_cfg("taco2", output_dim=4, prenet_dropout=0.0)
    target = make_target(rng, 12, 4)
    lr, epochs = 1e-3, 1
    if case == "huge_learning_rate":
        lr, epochs = 1e300, 2
    else:
        target.values[3, 1] = np.nan  # the frame fed to decoder step 1
    tc = AmTrainConfig(learning_rate=lr, batch_size=1, epochs=epochs)
    with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
        acoustic.am_train(acoustic.am_init(cfg, seed=0),
                          [(make_roll(rng, 12), target)], tc, cfg)


def test_train_rejects_empty_dataset():
    cfg = helpers.tiny_am_cfg()
    with pytest.raises(ValueError):
        acoustic.am_train(acoustic.am_zero(cfg), [], AmTrainConfig(), cfg)


# --- warm starting --------------------------------------------------------------


def test_warm_start_taco2_to_taco3_pads_prenet(rng):
    base_cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    base = acoustic.am_init(base_cfg, seed=0)
    base.step = 40
    new_cfg = helpers.tiny_am_cfg("taco3", output_dim=6)
    warm = acoustic.warm_start_from(base, base_cfg, new_cfg)
    old_w = base.tensors["prenet.fc1.weight"]
    new_w = warm.tensors["prenet.fc1.weight"]
    assert new_w.shape == (6 + 128, base_cfg.prenet_widths[0])
    assert np.array_equal(new_w[:6], old_w)
    assert not new_w[6:].any()
    for name in base.tensors:
        if name != "prenet.fc1.weight":
            assert np.array_equal(warm.tensors[name], base.tensors[name]), name
    # the optimizer restarts from scratch
    assert warm.step == 0
    assert not any(m.any() for m in warm.adam_m.values())


def test_warm_start_taco2_to_taco4_reshapes_nothing(rng):
    base_cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    base = acoustic.am_init(base_cfg, seed=0)
    new_cfg = helpers.tiny_am_cfg("taco4", output_dim=6)
    warm = acoustic.warm_start_from(base, base_cfg, new_cfg)
    assert set(warm.tensors) == set(base.tensors)
    for name in base.tensors:
        assert np.array_equal(warm.tensors[name], base.tensors[name]), name


def test_warm_start_rejects_incompatible_widths():
    base_cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    base = acoustic.am_init(base_cfg, seed=0)
    with pytest.raises(ValueError):
        acoustic.warm_start_from(base, base_cfg,
                                 helpers.tiny_am_cfg("taco3", output_dim=8))


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    cfg = helpers.tiny_am_cfg("taco3", output_dim=6)
    params = acoustic.am_init(cfg, seed=2)
    path = tmp_path / "am.ckpt"
    acoustic.am_save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = acoustic.am_load_checkpoint(path)
    assert loaded_cfg.variant == "taco3"
    assert loaded_cfg == cfg
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name],
                              params.tensors[name].astype(np.float32))


def test_checkpoint_variant_codes(tmp_path):
    # version 1 numbers the variant in its first field; taco4 shares
    # taco2's tensor shapes once its downsample field reads 1
    taco4 = v1.patch_v1_field(v1.patch_v1_field(v1.AM_TACO2_V1, 0, 4), 3, 1)
    path = tmp_path / "am.ckpt"
    for variant, blob in (("taco2", v1.AM_TACO2_V1), ("taco3", v1.AM_TACO3_V1),
                          ("taco4", taco4)):
        path.write_bytes(blob)
        _, cfg = acoustic.am_load_checkpoint(path)
        assert cfg.variant == variant
        assert cfg.downsample_factor == (1 if variant == "taco4" else 4)


def test_checkpoint_expected_cfg_mismatch(tmp_path):
    cfg = helpers.tiny_am_cfg("taco2")
    path = tmp_path / "am.ckpt"
    acoustic.am_save_checkpoint(path, acoustic.am_zero(cfg), cfg)
    with pytest.raises(CorruptCheckpoint):
        acoustic.am_load_checkpoint(path,
                                    expected_cfg=helpers.tiny_am_cfg("taco3"))


def test_checkpoint_bad_variant_code(tmp_path):
    path = tmp_path / "am.ckpt"
    fields = dataclasses.asdict(v1.am_v1_cfg("taco2"))
    for blob in (v1.patch_v1_field(v1.AM_TACO2_V1, 0, 9),
                 v1.as_v2(v1.AM_TACO2_V1, 9, {**fields, "variant": "taco9"})):
        path.write_bytes(blob)
        with pytest.raises(CorruptCheckpoint):
            acoustic.am_load_checkpoint(path)


def test_checkpoint_round_trip_every_field(tmp_path, rng):
    cfg = AmConfig(variant="taco3", input_dim=5, output_dim=7,
                   downsample_factor=2, prenet_dropout=0.25,
                   encoder_channels=3, decoder_state_dim=4,
                   prenet_widths=(6, 5), postnet_channels=2,
                   output_kind="mel-fb")
    path = tmp_path / "am.ckpt"
    acoustic.am_save_checkpoint(path, acoustic.am_init(cfg, seed=1), cfg)
    assert acoustic.am_load_checkpoint(path, expected_cfg=cfg)[1] == cfg

    # mel features and a non-default dropout survive, so am+nsf labels
    # and generates as trained
    cfg = helpers.tiny_am_cfg("taco2", output_dim=80, output_kind="mel-fb",
                              prenet_dropout=0.5)
    acoustic.am_save_checkpoint(path, acoustic.am_init(cfg, seed=1), cfg)
    params, loaded_cfg = acoustic.am_load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded_cfg.prenet_dropout == 0.5
    assert acoustic.am_generate(params, make_roll(rng, 8), loaded_cfg).kind == "mel-fb"
    with pytest.raises(CorruptCheckpoint):
        acoustic.am_load_checkpoint(
            path, expected_cfg=dataclasses.replace(cfg, prenet_dropout=0.99))


def test_checkpoint_loads_frozen_v1_bytes(tmp_path):
    path = tmp_path / "am.ckpt"
    for variant, blob in (("taco2", v1.AM_TACO2_V1), ("taco3", v1.AM_TACO3_V1)):
        cfg = v1.am_v1_cfg(variant)
        expected = acoustic.am_init(cfg, seed=4)
        path.write_bytes(blob)
        loaded, loaded_cfg = acoustic.am_load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.step == 0
        assert sorted(loaded.tensors) == sorted(expected.tensors)
        for name, value in expected.tensors.items():
            assert np.array_equal(loaded.tensors[name], value.astype(np.float32))


def test_checkpoint_v1_compared_on_stored_fields(tmp_path):
    # version 1 kept no dropout or output kind, so resuming a mel model
    # from such a file takes both from the expected config
    path = tmp_path / "am.ckpt"
    path.write_bytes(v1.AM_TACO2_V1)
    expected = dataclasses.replace(v1.am_v1_cfg("taco2"), prenet_dropout=0.5,
                                   output_kind="mel-fb")
    assert acoustic.am_load_checkpoint(path, expected_cfg=expected)[1] == expected
    with pytest.raises(CorruptCheckpoint):
        acoustic.am_load_checkpoint(
            path, expected_cfg=dataclasses.replace(expected, encoder_channels=2))
