import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
from midisynth import midi_io
from midisynth.dsp import FeatureMatrix
from midisynth.errors import FileFormatError, MidiSynthError, TooLarge
from midisynth.midi_io import PianoRoll


# --- domain types -----------------------------------------------------------


def test_note_event_validation():
    # each bad note follows a good one, so the checks read whole columns
    helpers.make_notes([(0.0, 1.0, 60, 64)])
    for bad, message in (((0.0, 1.0, 128, 64), "pitch 128"),
                         ((0.0, 1.0, -1, 64), "pitch -1"),
                         ((0.0, 1.0, 300, 64), "pitch 300"),  # not wrapped to 44
                         ((0.0, 1.0, 60, 0), "velocity 0"),
                         ((1.0, 1.0, 60, 64), r"onset 1.0 outside \[0, offset\)"),
                         ((np.nan, 1.0, 60, 64), "onset nan outside")):
        with pytest.raises(ValueError, match=message):
            helpers.make_notes([(0.0, 2.0, 62, 64), bad])


def test_note_list_sorts_by_onset_then_pitch():
    notes = helpers.make_notes([
        (0.5, 0.7, 72, 80),
        (0.0, 0.4, 60, 80),
        (0.5, 0.6, 64, 80),
    ])
    onsets = [(n.onset, n.pitch) for n in notes.notes]
    assert onsets == [(0.0, 60), (0.5, 64), (0.5, 72)]


def test_note_list_duration_rules():
    notes = helpers.make_notes([(0.0, 1.0, 60, 64)])
    assert notes.duration == 1.0
    longer = helpers.make_notes([(0.0, 1.0, 60, 64)], duration=2.5)
    assert longer.duration == 2.5
    with pytest.raises(ValueError):
        helpers.make_notes([(0.0, 1.0, 60, 64)], duration=0.5)


def test_piano_roll_validation():
    PianoRoll(np.zeros((4, 128)), 0.012)
    with pytest.raises(ValueError):
        PianoRoll(np.zeros((4, 64)), 0.012)
    with pytest.raises(ValueError):
        PianoRoll(np.full((4, 128), 1.5), 0.012)
    with pytest.raises(ValueError):
        PianoRoll(np.zeros((4, 128)), 0.0)


@pytest.mark.parametrize("values, shift", [
    (np.full((4, 128), np.nan), 0.012),
    (np.zeros((4, 128)), np.inf),
], ids=["nan-entries", "inf-shift"])
def test_piano_roll_refuses_non_finite(values, shift):
    with pytest.raises(ValueError):
        PianoRoll(values, shift)


def test_piano_roll_is_the_piano_roll_feature_matrix():
    roll = PianoRoll(np.zeros((4, 128)), 0.012)
    assert isinstance(roll, FeatureMatrix)
    assert (roll.kind, roll.sample_rate, roll.dim) == ("piano-roll", 24000.0, 128)
    part = dataclasses.replace(roll, values=roll.values[:2])
    assert type(part) is PianoRoll and part.kind == "piano-roll"
    assert part.n_frames == 2 and part.frame_shift == 0.012


# --- SMF parsing ------------------------------------------------------------


def test_parse_single_note_default_tempo():
    # quarter note at 480 ticks/quarter, default 500000 us/quarter -> 0.5 s
    data = helpers.note_smf([(0, 480, 60, 100)])
    result = midi_io.parse_midi(data)
    assert len(result.notes) == 1
    note = result.notes[0]
    assert note.pitch == 60
    assert note.velocity == 100
    assert note.onset == pytest.approx(0.0, abs=1e-12)
    assert note.offset == pytest.approx(0.5, rel=1e-12)


def test_parse_note_on_velocity_zero_is_off():
    events = [
        helpers.vlq(0) + bytes([0x90, 60, 90]),
        helpers.vlq(240) + bytes([0x90, 60, 0]),
    ]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    assert len(result.notes) == 1
    assert result.notes[0].offset == pytest.approx(0.25, rel=1e-12)


def test_parse_running_status():
    # second note-on/off pair reuses the 0x90 status byte
    events = [
        helpers.vlq(0) + bytes([0x90, 60, 90]),
        helpers.vlq(120) + bytes([60, 0]),
        helpers.vlq(0) + bytes([64, 70]),
        helpers.vlq(120) + bytes([64, 0]),
    ]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    pitches = [n.pitch for n in result.notes]
    assert pitches == [60, 64]
    assert result.notes[1].velocity == 70
    assert result.notes[1].onset == pytest.approx(0.125, rel=1e-12)


def test_parse_tempo_change_scales_later_events():
    # 480 ticks at 500000 us, tempo doubles speed, 480 more ticks at 250000 us
    events = [
        helpers.vlq(0) + bytes([0x90, 60, 90]),
        helpers.vlq(480) + bytes([0x80, 60, 0]),
        helpers.tempo_meta(0, 250000),
        helpers.vlq(0) + bytes([0x90, 62, 90]),
        helpers.vlq(480) + bytes([0x80, 62, 0]),
    ]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    first, second = result.notes
    assert first.offset == pytest.approx(0.5, rel=1e-12)
    assert second.onset == pytest.approx(0.5, rel=1e-12)
    assert second.offset == pytest.approx(0.75, rel=1e-12)


def test_parse_format_two_rejected():
    data = helpers.note_smf([(0, 480, 60, 100)])
    data = helpers.smf_header(fmt=2) + data[14:]
    with pytest.raises(FileFormatError, match="unsupported SMF format 2"):
        midi_io.parse_midi(data)


def test_parse_smpte_division_rejected():
    body = helpers.note_smf([(0, 480, 60, 100)])[14:]
    header = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
        + (1).to_bytes(2, "big") + (0x8000 | 0x1D00 | 40).to_bytes(2, "big")
    with pytest.raises(FileFormatError, match="SMPTE time division"):
        midi_io.parse_midi(header + body)


def test_parse_bad_magic_rejected():
    data = b"RIFF" + helpers.note_smf([(0, 480, 60, 100)])[4:]
    with pytest.raises(FileFormatError, match="missing MThd chunk"):
        midi_io.parse_midi(data)


def test_parse_truncated_track_rejected():
    data = helpers.note_smf([(0, 480, 60, 100)])
    with pytest.raises(FileFormatError, match="track chunk overruns"):
        midi_io.parse_midi(data[:-4])


def test_parse_rejects_duration_over_limit():
    assert len(helpers.LONG_SMF) == 36
    with pytest.raises(TooLarge, match="the limit is 3600 s"):
        midi_io.parse_midi(helpers.LONG_SMF)
    limit = midi_io.MAX_DURATION_SECONDS
    ok = helpers.make_notes([(0.0, limit - 1.0, 60, 100)])
    assert midi_io.parse_midi(midi_io.write_midi(ok)).duration == limit - 1.0
    long = helpers.make_notes([(0.0, limit + 1.0, 60, 100)])
    with pytest.raises(TooLarge, match="file lasts 3601 s"):
        midi_io.parse_midi(midi_io.write_midi(long))


def test_parse_dangling_note_on_closed_with_warning():
    events = [helpers.vlq(0) + bytes([0x90, 60, 90]),
              helpers.vlq(960) + bytes([0x90, 64, 90]),
              helpers.vlq(0) + bytes([0x80, 64, 64])]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    assert result.warnings
    assert len(result.notes) == 2
    hanging = [n for n in result.notes if n.pitch == 60][0]
    assert hanging.offset == pytest.approx(1.0, rel=1e-9)


def test_parse_skips_alien_chunks():
    base = helpers.note_smf([(0, 480, 60, 100)])
    alien = b"XFIH" + (4).to_bytes(4, "big") + b"\x00\x01\x02\x03"
    data = base[:14] + alien + base[14:]
    result = midi_io.parse_midi(data)
    assert len(result.notes) == 1


def test_parse_zero_length_note_kept():
    events = [helpers.vlq(0) + bytes([0x90, 60, 90]),
              helpers.vlq(0) + bytes([0x80, 60, 0])]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    assert len(result.notes) == 1
    assert result.notes[0].offset > result.notes[0].onset


def test_parse_same_pitch_overlap_pairs_fifo():
    # two overlapping notes on one pitch: first off closes first on
    events = [
        helpers.vlq(0) + bytes([0x90, 60, 90]),
        helpers.vlq(240) + bytes([0x90, 60, 80]),
        helpers.vlq(240) + bytes([0x80, 60, 0]),
        helpers.vlq(240) + bytes([0x80, 60, 0]),
    ]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    assert len(result.notes) == 2
    a, b = result.notes
    assert a.onset == pytest.approx(0.0, abs=1e-12)
    assert a.offset == pytest.approx(0.5, rel=1e-12)
    assert b.onset == pytest.approx(0.25, rel=1e-12)
    assert b.offset == pytest.approx(0.75, rel=1e-12)


def test_parse_collects_pedal_events():
    events = [
        helpers.vlq(0) + bytes([0x90, 60, 90]),
        helpers.vlq(120) + bytes([0xB0, 64, 100]),
        helpers.vlq(240) + bytes([0xB0, 64, 0]),
        helpers.vlq(120) + bytes([0x80, 60, 0]),
    ]
    result = midi_io.parse_midi(helpers.single_track_smf(events))
    assert len(result.pedal) == 2
    times = [t for t, _ in result.pedal]
    values = [v for _, v in result.pedal]
    assert times == pytest.approx([0.125, 0.375])
    assert values == [100, 0]


def test_fuzz_smf_parses():
    notes = midi_io.parse_midi(helpers.FUZZ_SMF)
    assert [(n.pitch, n.velocity) for n in notes.notes] == [(60, 90), (64, 70)]
    assert [v for _, v in notes.pedal] == [100, 0]


@pytest.mark.filterwarnings("error")
def test_mutants_parse_or_raise_package_errors():
    for data in helpers.mutants(helpers.FUZZ_SMF, 5000, seed=3):
        try:
            midi_io.apply_sustain_pedal(midi_io.parse_midi(data))
        except MidiSynthError:
            pass


def test_parse_format1_merges_tracks():
    track1 = helpers.tempo_meta(0, 500000) + helpers.eot()
    track2 = helpers.vlq(0) + bytes([0x90, 60, 90]) \
        + helpers.vlq(480) + bytes([0x80, 60, 0]) + helpers.eot()
    data = helpers.smf_header(fmt=1, n_tracks=2) \
        + helpers.track_chunk(track1) + helpers.track_chunk(track2)
    result = midi_io.parse_midi(data)
    assert len(result.notes) == 1

def test_stacked_note_ons_parse_in_linear_time():
    files = {n: helpers.many_notes_smf(n, ons_first=True) for n in (100000, 200000)}
    seconds = {n: [] for n in files}
    for _ in range(5):  # CPU time, so that other processes' load does not count
        for n, data in files.items():
            start = time.process_time()
            notes = midi_io.parse_midi(data)
            seconds[n].append(time.process_time() - start)
            assert len(notes.pitch) == n and notes.offset.max() == notes.offset.min()
    # closing the first open note must not cost time in the number open
    assert min(seconds[200000]) <= 2.6 * min(seconds[100000]), seconds


def test_many_notes_parse_in_bounded_memory(tmp_path):
    """The columns take 18 bytes a note.  The peak is taken as the growth of
    a child process's max RSS, since tracemalloc would slow the parse of a
    third of a million notes several times over."""
    path = tmp_path / "many.mid"
    path.write_bytes(helpers.many_notes_smf(333000))
    assert 1.9e6 < path.stat().st_size < 2.1e6
    code = ("import resource, sys\n"
            "from midisynth import midi_io\n"
            "data = open(sys.argv[1], 'rb').read()\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "notes = midi_io.parse_midi(data)\n"
            "print(len(notes.pitch), (peak() - before) * 1024)\n")
    src = str(Path(midi_io.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    n_notes, growth = map(int, proc.stdout.split())
    assert n_notes == 333000
    assert growth < 50e6


# --- writing ----------------------------------------------------------------


def test_write_parse_round_trip(rng):
    # onsets on the tick grid so re-parsing is exact
    tick = 0.5 / 480
    specs = []
    for _ in range(12):
        on = int(rng.integers(0, 2000))
        dur = int(rng.integers(1, 400))
        specs.append((on * tick, (on + dur) * tick,
                      int(rng.integers(21, 108)), int(rng.integers(1, 128))))
    # pedal events come back in file order, the two on one tick included
    pedal = ((0.25, 127), (1.0, 0), (1.0, 127), (2.0, 0))
    notes = helpers.make_notes(specs, pedal=pedal)
    data = midi_io.write_midi(notes)
    parsed = midi_io.parse_midi(data)
    assert parsed.pedal == pedal
    assert len(parsed.notes) == len(notes.notes)
    for got, want in zip(parsed.notes, notes.notes):
        assert got.pitch == want.pitch
        assert got.velocity == want.velocity
        assert got.onset == pytest.approx(want.onset, abs=1e-9)
        assert got.offset == pytest.approx(want.offset, abs=1e-9)


# --- sustain pedal ----------------------------------------------------------


def test_pedal_extends_through_interval():
    notes = helpers.make_notes([(0.0, 0.4, 60, 90)], duration=2.0,
                               pedal=[(0.2, 100), (1.0, 0)])
    out = midi_io.apply_sustain_pedal(notes)
    assert out.notes[0].onset == 0.0
    assert out.notes[0].offset == pytest.approx(1.0)


def test_pedal_never_shortens_or_moves_onsets():
    notes = helpers.make_notes([(0.0, 1.5, 60, 90)], duration=2.0,
                               pedal=[(0.1, 100), (0.5, 0)])
    out = midi_io.apply_sustain_pedal(notes)
    assert out.notes[0].offset == pytest.approx(1.5)
    assert out.notes[0].onset == 0.0


def test_pedal_off_before_note_release_no_change():
    notes = helpers.make_notes([(0.6, 0.9, 60, 90)], duration=2.0,
                               pedal=[(0.0, 127), (0.5, 0)])
    out = midi_io.apply_sustain_pedal(notes)
    assert out.notes[0].offset == pytest.approx(0.9)


def test_pedal_held_to_end_extends_to_track_end():
    notes = helpers.make_notes([(0.0, 0.4, 60, 90)], duration=3.0,
                               pedal=[(0.1, 127)])
    out = midi_io.apply_sustain_pedal(notes)
    assert out.notes[0].offset == pytest.approx(3.0)


def test_pedal_multiple_intervals():
    notes = helpers.make_notes([(0.0, 0.3, 60, 90), (1.0, 1.2, 62, 90)],
                               duration=2.0,
                               pedal=[(0.1, 100), (0.6, 0), (1.1, 100), (1.5, 0)])
    out = midi_io.apply_sustain_pedal(notes)
    assert out.notes[0].offset == pytest.approx(0.6)
    assert out.notes[1].offset == pytest.approx(1.5)


def test_pedal_events_on_one_tick_keep_file_order():
    # 480 ticks a quarter at 120 bpm: the pedal goes down at 0 s, down
    # then up on the tick of 1 s, and a note sounds from 3 s to 3.5 s
    # before an end of track at 8 s
    cc64 = lambda delta, value: helpers.vlq(delta) + bytes([0xB0, 64, value])
    data = helpers.single_track_smf([
        cc64(0, 127), cc64(960, 127), cc64(0, 0),
        helpers.vlq(1920) + bytes([0x90, 64, 100]),
        helpers.vlq(480) + bytes([0x80, 64, 64]),
        helpers.eot(4320)], append_eot=False)
    notes = midi_io.parse_midi(data)
    assert notes.duration == pytest.approx(8.0)
    out = midi_io.apply_sustain_pedal(notes)
    assert out.notes[0].offset == pytest.approx(3.5)


def reference_pedal_offsets(notes):
    """Each note's offset through the pedal, found one note at a time."""
    events = sorted(notes.pedal, key=lambda e: e[0])
    intervals, down_since = [], None
    for sec, value in events:
        if value >= 64 and down_since is None:
            down_since = sec
        elif value < 64 and down_since is not None:
            intervals.append((down_since, sec))
            down_since = None
    if down_since is not None:
        intervals.append((down_since, max(notes.duration, events[-1][0])))
    offsets = []
    for note in notes.notes:
        offset = note.offset
        for lo, hi in intervals:
            if lo <= note.offset < hi:
                offset = hi  # the last interval that starts by the release
        offsets.append(offset)
    return offsets


def test_pedal_matches_the_note_by_note_reference(rng):
    for trial in range(20):
        specs = []
        for _ in range(30):
            onset = float(rng.uniform(0.0, 4.0))
            specs.append((onset, onset + float(rng.uniform(0.01, 1.0)),
                          int(rng.integers(50, 60)), int(rng.integers(1, 128))))
        times = np.sort(rng.uniform(0.0, 5.0, 8)).round(2)
        pedal = [(float(t), int(v)) for t, v in zip(times, rng.choice([0, 127], 8))]
        notes = helpers.make_notes(specs, pedal=pedal)
        out = midi_io.apply_sustain_pedal(notes)
        want = helpers.make_notes(
            [(n.onset, off, n.pitch, n.velocity)
             for n, off in zip(notes.notes, reference_pedal_offsets(notes))])
        for column in ("pitch", "onset", "offset", "velocity"):
            assert np.array_equal(getattr(out, column), getattr(want, column)), trial


# --- piano roll -------------------------------------------------------------


def test_to_piano_roll_frame_window():
    notes = helpers.make_notes([(0.024, 0.048, 60, 127)])
    roll = midi_io.to_piano_roll(notes, 0.012)
    active = np.flatnonzero(roll.values[:, 60])
    assert active.tolist() == [2, 3]
    assert roll.values[2, 60] == pytest.approx(1.0)
    assert roll.n_frames == 4


def test_to_piano_roll_velocity_scaling():
    notes = helpers.make_notes([(0.0, 0.024, 64, 64)])
    roll = midi_io.to_piano_roll(notes, 0.012)
    assert roll.values[0, 64] == pytest.approx(64 / 127)


def test_to_piano_roll_collision_keeps_max():
    notes = helpers.make_notes([(0.0, 0.024, 60, 50), (0.012, 0.036, 60, 100)])
    roll = midi_io.to_piano_roll(notes, 0.012)
    assert roll.values[1, 60] == pytest.approx(100 / 127)
    assert roll.values[0, 60] == pytest.approx(50 / 127)


def test_to_piano_roll_duration_sets_frames():
    notes = helpers.make_notes([(0.0, 0.1, 60, 90)], duration=1.0)
    roll = midi_io.to_piano_roll(notes, 0.012)
    assert roll.n_frames == 84  # ceil(1.0 / 0.012)


def reference_roll(notes, shift):
    """to_piano_roll's values, filled one note at a time."""
    values = np.zeros((max(0, math.ceil(notes.duration / shift - 1e-9)), 128))
    for note in notes.notes:
        lo = max(math.floor(note.onset / shift + 1e-9), 0)
        hi = min(max(math.ceil(note.offset / shift - 1e-9), lo + 1), len(values))
        values[lo:hi, note.pitch] = np.maximum(values[lo:hi, note.pitch],
                                               note.velocity / 127.0)
    return values


@pytest.mark.parametrize("samples", [288, 96, 300])
def test_to_piano_roll_matches_the_note_by_note_reference(rng, samples):
    shift = samples / 24000
    # 400 overlapping notes on 8 pitches, long enough that the roll is
    # built over several groups of notes
    specs = []
    for _ in range(400):
        onset = float(rng.uniform(0.0, 2.0))
        specs.append((onset, onset + float(rng.uniform(0.001, 1.0)),
                      int(rng.integers(60, 68)), int(rng.integers(1, 128))))
    notes = helpers.make_notes(specs, duration=3.0)
    roll = midi_io.to_piano_roll(notes, shift)
    assert np.array_equal(roll.values, reference_roll(notes, shift))
    # a piece too short for one frame
    blip = helpers.make_notes([(0.0, 1e-12, 60, 64)])
    assert midi_io.to_piano_roll(blip, shift).values.shape == (0, 128)
    assert reference_roll(blip, shift).shape == (0, 128)


def test_to_piano_roll_memory_is_bounded_by_the_roll():
    # 2000 notes of one pitch, each over 20k frames: 40M note frames in a
    # roll of 39,990 frames
    shift = 0.012
    notes = helpers.make_notes([(10 * i * shift, (10 * i + 20000) * shift, 60, 100)
                                for i in range(2000)])
    tracemalloc.start()
    try:
        roll = midi_io.to_piano_roll(notes, shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * roll.values.nbytes
    assert roll.values.shape == (39990, 128)
    assert (roll.values[:, 60] == 100 / 127).all()
    assert np.count_nonzero(roll.values) == 39990


def test_roll_round_trip_exact(rng):
    shift = 0.012
    specs = []
    t = 0
    for _ in range(10):
        start = t + int(rng.integers(0, 3))
        length = int(rng.integers(1, 6))
        specs.append((start * shift, (start + length) * shift,
                      int(rng.integers(30, 100)), int(rng.integers(1, 128))))
        t = start + length
    notes = helpers.make_notes(specs)
    roll = midi_io.to_piano_roll(notes, shift)
    back = midi_io.roll_to_notes(roll)
    assert len(back.notes) == len(notes.notes)
    for got, want in zip(back.notes, notes.notes):
        assert got.pitch == want.pitch
        assert got.velocity == want.velocity
        assert got.onset == want.onset
        assert got.offset == want.offset


def test_roll_to_notes_minimum_velocity():
    values = np.zeros((2, 128))
    values[0, 60] = 1e-4
    roll = PianoRoll(values, 0.012)
    back = midi_io.roll_to_notes(roll)
    assert back.notes[0].velocity == 1


def test_transpose_roll_shifts_columns():
    values = np.zeros((3, 128))
    values[:, 60] = 0.5
    roll = PianoRoll(values, 0.012)
    up = midi_io.transpose_roll(roll, 2)
    assert np.array_equal(up.values[:, 62], values[:, 60])
    assert up.values[:, 60].sum() == 0


def test_transpose_roll_matches_a_column_by_column_reference():
    values = np.random.default_rng(7).uniform(0.0, 1.0, (3, 128))
    roll = PianoRoll(values, 0.012)
    for semitones in range(-300, 301):
        expected = np.zeros_like(values)
        for pitch in range(128):
            if 0 <= pitch + semitones < 128:
                expected[:, pitch + semitones] = values[:, pitch]
        assert np.array_equal(midi_io.transpose_roll(roll, semitones).values,
                              expected), semitones


def test_transpose_roll_clips_at_edges():
    values = np.zeros((2, 128))
    values[:, 127] = 0.7
    roll = PianoRoll(values, 0.012)
    up = midi_io.transpose_roll(roll, 3)
    assert up.values.sum() == 0
    down = midi_io.transpose_roll(roll, -3)
    assert np.array_equal(down.values[:, 124], values[:, 127])
