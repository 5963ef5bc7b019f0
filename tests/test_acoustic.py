import dataclasses

import numpy as np
import pytest

import helpers
import v1_checkpoints as v1
from midisynth import acoustic
from midisynth.acoustic import VARIANTS, AmConfig, AmTrainConfig
from midisynth.dsp import FeatureMatrix
from midisynth.errors import (CorruptCheckpoint, DimensionMismatch,
                              LengthMismatch, TrainingDiverged)
from midisynth.midi_io import PianoRoll
from midisynth.params import zero_params


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
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6, prenet_dropout=0.0)
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
    l1, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg, seed=3)
    l2, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg, seed=3)
    l3, _, _ = acoustic.am_teacher_forced(params, roll, target, cfg, seed=4)
    assert l1 == l2
    assert l1 != l3


def test_teacher_forced_input_checks(rng):
    cfg = helpers.tiny_am_cfg("taco2", output_dim=6, prenet_dropout=0.0)
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
                                  postnet_channels=4, prenet_dropout=0.0)
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


def test_dropout_mask_one_block_equals_row_draws():
    # the decoder draws all steps' masks at once; they must equal the
    # step-by-step draws from the same generator
    block = np.random.default_rng(11).random((9, 5))
    rng = np.random.default_rng(11)
    assert np.array_equal(block, np.concatenate([rng.random((1, 5)) for _ in range(9)]))
    rng = np.random.default_rng(12)
    rows = [acoustic.dropout_mask(rng, 0.5, 5) for _ in range(9)]
    block = acoustic.dropout_mask(np.random.default_rng(12), 0.5, 5, rows=9)
    assert block.shape == (9, 5)
    assert np.array_equal(block, np.concatenate(rows))


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
    no_dropout = dataclasses.replace(cfg, prenet_dropout=0.0)
    d = acoustic.am_generate(params, roll, no_dropout, seed=5)
    e = acoustic.am_generate(params, roll, no_dropout, seed=6)
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


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")), ("learning_rate", "0.1"), ("beta1", 1),
    ("beta2", -1e-9), ("batch_size", 2.0), ("epochs", 0), ("seed", 0.5),
    ("segment_frames", 1.5), ("segment_frames", 0), ("segment_frames", False)])
def test_train_config_names_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        AmTrainConfig(**{field: value})


def test_train_rejects_empty_dataset():
    cfg = helpers.tiny_am_cfg()
    with pytest.raises(ValueError):
        acoustic.am_train(zero_params(acoustic.am_param_shapes(cfg)), [],
                          AmTrainConfig(), cfg)


# --- frozen values ---------------------------------------------------------------
# Produced by the per-step decoder that recorded every GRU step on the
# generic tape.  The sequence decoder changes summation order only, so
# everything below must agree to 1e-12 relative.

FROZEN_ENTRIES = (("prenet.fc1.weight", (1, 2)), ("dec.gru.uz", (3, 4)),
                  ("dec.gru.wn", (5, 1)), ("dec.gru.bz", (6,)),
                  ("dec.out.weight", (2, 3)), ("dec.pos.weight", (1, 0)),
                  ("enc.conv0.weight", (1, 2, 3)), ("post.conv1.bias", (2,)))
FROZEN_GRADS = ("enc.conv1.weight", "prenet.fc1.weight", "dec.gru.wz",
                "dec.gru.uz", "dec.gru.br", "dec.gru.un", "dec.out.weight",
                "dec.pos.weight", "post.conv0.weight")
FROZEN = {
    "taco2": dict(
        history=[2.658060534927074, 1.683042021076536, 2.0973046873813037,
                 2.368689211268647],
        entries=[-0.4500186900594789, 0.21052901727843143, -0.1763775169809602,
                 -0.04237659193121937, 0.030507940682317877,
                 -0.12158760413100474, -0.18640222895196257,
                 -0.20010849720786167],
        loss=2.7940390809450926,
        grad_sq=[0.004230479900195548, 0.031199536623264024,
                 0.0007062354182122616, 4.2947320194219304e-05,
                 3.6055592500083874e-05, 0.00692939960814941,
                 0.3153198415409419, 0.4905587773384336, 0.10414347891974579],
        gen_sq=1.8182155227108285,
        gen=[-0.04816839788585645, -0.18284204742505977, -0.4290435242840297]),
    "taco3": dict(
        history=[2.6479487926164285, 1.6864168136103352, 2.1070053901501646,
                 2.3708493783377143],
        entries=[-0.04111187092637085, 0.20433180233012038,
                 -0.20907100146137897, -0.042964611879895184,
                 0.02917993168714369, -0.12146216378528202,
                 -0.18676481396254094, -0.20122067368978466],
        loss=2.799703091346461,
        grad_sq=[0.0029401780749147947, 0.01312334360331327,
                 3.9619811434641485e-05, 1.5730412849605668e-05,
                 2.2374890397234933e-05, 0.0045892438283017915,
                 0.2047755356225382, 0.4980525089068554, 0.09502549599522275],
        gen_sq=1.7029662270586357,
        gen=[-0.04136894735171277, -0.1587939832929347, -0.4141844865747097]),
    "taco4": dict(
        history=[2.489906834187046, 1.7517065644730825, 1.9712849480094305,
                 2.5542336150055354],
        entries=[-0.44923933045498454, 0.20963702193056022,
                 -0.17441572813029824, 0.020369198920123788,
                 0.029225622537061548, -0.13928000963768683,
                 -0.11981546915169694, -0.17259615340969603],
        loss=2.3778445009781928,
        grad_sq=[0.0029340680571865066, 0.0030677895086163058,
                 7.082467139767288e-05, 1.606743782727802e-05,
                 8.676213742357802e-05, 0.01197424351392357,
                 0.2083449569553607, 0.4552944690427581, 0.06450684323742185],
        gen_sq=1.4262911403875163,
        gen=[-0.053818868359982217, -0.11625178308606865, -0.3797452557927579]),
}


def frozen_case(variant):
    """Dropout 0.5, every tensor non-zero, and lengths of 10, 7 and 13
    frames, so taco2 and taco3 pad a partial last group."""
    cfg = helpers.tiny_am_cfg(variant, output_dim=4, prenet_dropout=0.5)
    params = acoustic.am_init(cfg, seed=1)
    rng = np.random.default_rng(2024)
    # the tensors am_init zeroes, drawn in this order
    for name in ("dec.pos.weight", "post.conv1.weight", "post.conv1.bias"):
        params.tensors[name] = 0.1 * rng.standard_normal(params.tensors[name].shape)
    data = [(make_roll(rng, n), make_target(rng, n, 4)) for n in (10, 7, 13)]
    return cfg, params, data


@pytest.mark.parametrize("variant", VARIANTS)
def test_frozen_train_history_and_tensors(variant):
    cfg, params, data = frozen_case(variant)
    tc = AmTrainConfig(learning_rate=1e-2, batch_size=2, epochs=2, seed=5)
    out, hist = acoustic.am_train(params, data, tc, cfg)
    want = FROZEN[variant]
    assert [step for step, _ in hist] == [1, 2, 3, 4]
    assert [loss for _, loss in hist] == pytest.approx(want["history"], rel=1e-12)
    got = [out.tensors[name][idx] for name, idx in FROZEN_ENTRIES]
    assert got == pytest.approx(want["entries"], rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_frozen_teacher_forced_loss_and_grads(variant):
    cfg, params, data = frozen_case(variant)
    roll, target = data[2]
    loss, grads, _ = acoustic.am_teacher_forced(params, roll, target, cfg, seed=8)
    want = FROZEN[variant]
    assert loss == pytest.approx(want["loss"], rel=1e-12)
    got = [float((grads[name] ** 2).sum()) for name in FROZEN_GRADS]
    assert got == pytest.approx(want["grad_sq"], rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_frozen_generate_with_dropout(variant):
    cfg, params, data = frozen_case(variant)
    values = acoustic.am_generate(params, data[0][0], cfg, seed=3).values
    want = FROZEN[variant]
    assert float((values ** 2).sum()) == pytest.approx(want["gen_sq"], rel=1e-12)
    assert values[[0, 4, 9], [0, 3, 1]].tolist() == pytest.approx(want["gen"],
                                                                   rel=1e-12)


# --- warm starting --------------------------------------------------------------


def test_warm_start_taco2_to_taco3_pads_prenet(rng):
    base_cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    base = acoustic.am_init(base_cfg, seed=0)
    base.step = 40
    new_cfg = helpers.tiny_am_cfg("taco3", output_dim=6)
    warm = acoustic.warm_start_from(base, new_cfg)
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
    warm = acoustic.warm_start_from(base, new_cfg)
    assert set(warm.tensors) == set(base.tensors)
    for name in base.tensors:
        assert np.array_equal(warm.tensors[name], base.tensors[name]), name


def test_warm_start_rejects_incompatible_widths():
    base_cfg = helpers.tiny_am_cfg("taco2", output_dim=6)
    base = acoustic.am_init(base_cfg, seed=0)
    with pytest.raises(ValueError):
        acoustic.warm_start_from(base, helpers.tiny_am_cfg("taco3", output_dim=8))


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
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


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
    acoustic.am_save_checkpoint(path, zero_params(acoustic.am_param_shapes(cfg)), cfg)
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


def test_checkpoint_loads_frozen_v2_bytes(tmp_path):
    cfg = v1.am_v1_cfg("taco2")
    expected = acoustic.am_init(cfg, seed=4)
    path = tmp_path / "am.ckpt"
    path.write_bytes(v1.AM_TACO2_V2)
    loaded, loaded_cfg = acoustic.am_load_checkpoint(path, expected_cfg=cfg)
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
