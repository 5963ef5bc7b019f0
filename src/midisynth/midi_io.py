"""Standard MIDI file parsing, sustain-pedal handling, and piano rolls.

The parser reads format 0 and format 1 files directly from bytes: header
chunk, track chunks, variable-length deltas, running status, meta events.
Only the events the synthesis pipeline needs are kept (notes, tempo,
CC64 sustain); everything else is decoded far enough to be skipped.

Times are seconds.  Tick-to-second conversion walks the merged event
stream tick-sorted, applying each set-tempo at its own tick, so tempo
changes between notes land exactly.
"""

from __future__ import annotations

import heapq
import math
import struct
from array import array
from collections import defaultdict, deque, namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import FeatureMatrix, StftConfig
from .errors import FileFormatError, TooLarge

DEFAULT_TEMPO_US = 500000  # microseconds per quarter note, 120 bpm
TICKS_PER_QUARTER = 480  # the time division write_midi writes
SUSTAIN_CONTROLLER = 64
SUSTAIN_THRESHOLD = 64
# Longest piece parse_midi accepts.  Every later stage allocates in
# proportion to the duration, and a few hostile bytes (a long delta at the
# slowest tempo) can declare billions of seconds.
MAX_DURATION_SECONDS = 3600.0
# Most frames to_piano_roll builds: an hour at 3.4 ms frames, 1 GiB of
# float64.  A tiny frame shift would otherwise size the roll without bound.
MAX_ROLL_FRAMES = 2 ** 20

# Slack so times that are exact frame or sample multiples do not drift
# across a floor/ceil boundary from float rounding (rolls and excitation).
EDGE_EPS = 1e-9


# One note of NoteEventList.notes
NoteEvent = namedtuple("NoteEvent", "pitch onset offset velocity")


@dataclass(frozen=True, eq=False)
class NoteEventList:
    """Notes as four columns, sorted stably by (onset, pitch, offset):
    pitch 0-127 and velocity 1-127 as uint8, and 0 <= onset < offset in
    seconds as float64.

    duration defaults to the largest offset and may be set longer to keep
    trailing silence; it can never undercut the last note.  pedal holds
    (time, value) pairs for controller 64 in file order.
    """

    pitch: np.ndarray = ()
    onset: np.ndarray = ()
    offset: np.ndarray = ()
    velocity: np.ndarray = ()
    duration: float | None = None
    pedal: tuple = ()
    warnings: tuple = ()

    def __post_init__(self):
        columns = {name: np.asarray(getattr(self, name)) for name in NoteEvent._fields}
        pitch, onset, offset, velocity = columns.values()
        # on the values as given, so that a pitch of 300 is not wrapped to 44
        for name, inside, domain in (
                ("pitch", (pitch >= 0) & (pitch <= 127), "0..127"),
                ("velocity", (velocity >= 1) & (velocity <= 127), "1..127"),
                ("onset", (onset >= 0) & (offset > onset), "[0, offset)")):
            if not inside.all():
                raise ValueError(f"{name} {columns[name][~inside][0]} outside {domain}")
        order = np.lexsort((offset, pitch, onset))
        for name, dtype in zip(columns, (np.uint8, np.float64, np.float64, np.uint8)):
            object.__setattr__(self, name, columns[name][order].astype(dtype, copy=False))
        last = float(self.offset.max(initial=0.0))
        if self.duration is None:
            object.__setattr__(self, "duration", last)
        elif self.duration < last:
            raise ValueError(f"duration {self.duration} < final offset {last}")

    @property
    def notes(self) -> tuple:
        """The notes as NoteEvent records, built on each call."""
        return tuple(map(NoteEvent, self.pitch.tolist(), self.onset.tolist(),
                         self.offset.tolist(), self.velocity.tolist()))


@dataclass(frozen=True)
class PianoRoll(FeatureMatrix):
    """The piano-roll FeatureMatrix: values[n, d] in [0, 1], velocity over 127."""

    kind: str = field(default="piano-roll", init=False)
    sample_rate: float = StftConfig.sample_rate

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 128:
            raise ValueError(f"piano roll must be (N, 128), got {self.values.shape}")
        if self.values.min(initial=0.0) < 0.0 or self.values.max(initial=0.0) > 1.0:
            raise ValueError("piano roll entries must lie in [0, 1]")


# --- raw SMF decoding ---------------------------------------------------


def _read_varint(data, pos, end):
    value = 0
    for _ in range(4):
        if pos >= end:
            raise FileFormatError("variable-length quantity runs past track end")
        b = data[pos]
        pos += 1
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value, pos
    raise FileFormatError("variable-length quantity longer than 4 bytes")


def _data_byte(data, pos, end, what):
    if pos >= end:
        raise FileFormatError(f"{what} runs past track end")
    b = data[pos]
    if b & 0x80:
        raise FileFormatError(f"{what}: expected data byte, got status 0x{b:02x}")
    return b, pos + 1


def _parse_track(data, start, end):
    """Yield one MTrk payload's events as (tick, kind, a, b) tuples in file
    order.  kind is "on", "off", "cc64" or "tempo", and "end" for the last,
    at the track's end tick.
    """
    pos = start
    tick = 0
    status = None
    while pos < end:
        delta, pos = _read_varint(data, pos, end)
        tick += delta
        if pos >= end:
            raise FileFormatError("event status runs past track end")
        b = data[pos]
        if b & 0x80:
            status = b
            pos += 1
        elif status is None:
            raise FileFormatError(f"data byte 0x{b:02x} with no running status")
        if status == 0xFF:
            if pos >= end:
                raise FileFormatError("meta event type runs past track end")
            meta = data[pos]
            pos += 1
            length, pos = _read_varint(data, pos, end)
            if pos + length > end:
                raise FileFormatError("meta event payload runs past track end")
            if meta == 0x51 and length == 3:
                yield tick, "tempo", int.from_bytes(data[pos : pos + 3], "big"), 0
            pos += length
            status = None
            if meta == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            length, pos = _read_varint(data, pos, end)
            if pos + length > end:
                raise FileFormatError("sysex payload runs past track end")
            pos += length
            status = None
        elif status >= 0xF0:
            raise FileFormatError(f"unexpected system message 0x{status:02x} in track")
        else:
            hi = status & 0xF0
            a, pos = _data_byte(data, pos, end, "channel event")
            if hi in (0xC0, 0xD0):
                continue
            bb, pos = _data_byte(data, pos, end, "channel event")
            if hi == 0x90 and bb > 0:
                yield tick, "on", a, bb
            elif hi == 0x80 or (hi == 0x90 and bb == 0):
                yield tick, "off", a, 0
            elif hi == 0xB0 and a == SUSTAIN_CONTROLLER:
                yield tick, "cc64", bb, 0
    yield tick, "end", 0, 0


def parse_midi(data: bytes) -> NoteEventList:
    """Parse standard MIDI file bytes into a NoteEventList.

    Note-on with velocity zero counts as note-off.  Overlapping note-ons
    on one pitch close first-in-first-out.  Note-ons left open at end of
    file are closed at the final event time and flagged in warnings.  A
    file lasting over MAX_DURATION_SECONDS raises TooLarge.
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise FileFormatError("missing MThd chunk")
    (header_len,) = struct.unpack(">I", data[4:8])
    if header_len < 6 or 8 + header_len > len(data):
        raise FileFormatError("header chunk shorter than declared")
    fmt, n_tracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise FileFormatError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise FileFormatError("SMPTE time division is not supported")
    if division == 0:
        raise FileFormatError("ticks per quarter note must be positive")
    if fmt == 0 and n_tracks != 1:
        raise FileFormatError(f"format 0 file declares {n_tracks} tracks")

    pos = 8 + header_len
    tracks = []
    while len(tracks) < n_tracks:
        if pos + 8 > len(data):
            raise FileFormatError(
                f"expected {n_tracks} tracks, found {len(tracks)} before end of file"
            )
        tag = data[pos : pos + 4]
        (chunk_len,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        body = pos + 8
        if body + chunk_len > len(data):
            raise FileFormatError("track chunk overruns end of file")
        if tag == b"MTrk":
            tracks.append(_parse_track(data, body, body + chunk_len))
        pos = body + chunk_len
    # the tracks are read as they merge; ties keep track, then file order
    merged = heapq.merge(*tracks, key=lambda e: e[0])

    # Tick-to-second walk with the tempo map applied in stream order.
    tempo = DEFAULT_TEMPO_US
    anchor_tick = 0
    anchor_sec = 0.0
    scale = lambda t: anchor_sec + (t - anchor_tick) * tempo / (division * 1e6)

    open_notes = defaultdict(deque)
    rows = array("d")  # pitch, onset, offset, velocity of each note
    pedal = []
    last_sec = 0.0
    for tick, kind, a, b in merged:
        sec = scale(tick)
        last_sec = max(last_sec, sec)
        if kind == "tempo":
            anchor_sec = sec
            anchor_tick = tick
            tempo = a if a > 0 else tempo
        elif kind == "on":
            open_notes[a].append((sec, b))
        elif kind == "off":
            queue = open_notes.get(a)
            if queue:
                onset, velocity = queue.popleft()
                rows.extend((a, onset, sec if sec > onset else onset + 1e-9, velocity))
        elif kind == "cc64":
            pedal.append((sec, a))
    if last_sec > MAX_DURATION_SECONDS:
        raise TooLarge(f"file lasts {last_sec:.4g} s, the limit is "
                       f"{MAX_DURATION_SECONDS:.0f} s")

    dangling = sum(len(q) for q in open_notes.values())
    warnings = (f"{dangling} dangling note-on event(s) closed at end of file",) \
        if dangling else ()
    for pitch, queue in open_notes.items():
        for onset, velocity in queue:
            offset = last_sec if last_sec > onset else onset + 1e-9
            rows.extend((pitch, onset, offset, velocity))

    pitch, onset, offset, velocity = np.frombuffer(rows).reshape(-1, 4).T
    return NoteEventList(
        pitch, onset, offset, velocity,
        duration=max(last_sec, float(offset.max(initial=0.0))),
        pedal=tuple(pedal),
        warnings=warnings,
    )


def write_midi(notes: NoteEventList) -> bytes:
    """Serialize notes as a format 0 SMF at 480 ticks a quarter and 120 bpm."""
    to_tick = lambda sec: int(round(sec * TICKS_PER_QUARTER * 1e6 / DEFAULT_TEMPO_US))
    # order key: offs before ons at the same tick so zero-gap repeats re-trigger
    items = [(0, 0, bytes([0xFF, 0x51, 0x03]) + DEFAULT_TEMPO_US.to_bytes(3, "big"))]
    columns = notes.pitch, notes.onset, notes.offset, notes.velocity
    for pitch, onset, offset, velocity in zip(*(column.tolist() for column in columns)):
        items.append((to_tick(onset), 1, bytes([0x90, pitch, velocity])))
        items.append((max(to_tick(offset), to_tick(onset) + 1), 0,
                      bytes([0x80, pitch, 0])))
    for sec, value in notes.pedal:
        items.append((to_tick(sec), 1, bytes([0xB0, SUSTAIN_CONTROLLER, value])))
    items.sort(key=lambda e: (e[0], e[1]))
    items.append((max((t for t, _, _ in items), default=0), 2, bytes([0xFF, 0x2F, 0x00])))

    def varint(v):
        out = [v & 0x7F]
        v >>= 7
        while v:
            out.append(0x80 | (v & 0x7F))
            v >>= 7
        return bytes(reversed(out))

    body = bytearray()
    prev = 0
    for tick, _, payload in items:
        body += varint(tick - prev)
        body += payload
        prev = tick
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


# --- sustain pedal ------------------------------------------------------


def apply_sustain_pedal(notes: NoteEventList) -> NoteEventList:
    """Extend note offsets through intervals where notes.pedal holds the pedal.

    Pedal is down while the last CC64 value is >= 64.  A note released
    during a down interval sounds until the pedal comes up; if the pedal
    never comes up it sounds to the end of the piece.  Onsets are never
    moved and notes are never shortened.
    """
    events = sorted(notes.pedal, key=lambda e: e[0])  # stable: ties keep file order
    intervals = []
    down_since = None
    for sec, value in events:
        if value >= SUSTAIN_THRESHOLD and down_since is None:
            down_since = sec
        elif value < SUSTAIN_THRESHOLD and down_since is not None:
            intervals.append((down_since, sec))
            down_since = None
    if down_since is not None:
        intervals.append((down_since, max(notes.duration, events[-1][0])))
    if not intervals:
        return notes

    starts, ends = np.array(intervals).T
    idx = np.searchsorted(starts, notes.offset, side="right") - 1
    held = (idx >= 0) & (notes.offset < ends[idx])
    offset = np.where(held, ends[idx], notes.offset)
    return replace(notes, offset=offset, duration=max(
        notes.duration, float(offset.max(initial=0.0))))


# --- piano rolls --------------------------------------------------------


def roll_frame_count(duration: float, frame_shift: float) -> int:
    """ceil(duration / frame_shift) frames, refused past MAX_ROLL_FRAMES."""
    if not frame_shift > 0:
        raise ValueError("frame_shift must be positive")
    frames = duration / frame_shift - EDGE_EPS
    if frames > MAX_ROLL_FRAMES:
        raise TooLarge(f"{duration:.4g} s at a {frame_shift:.4g} s frame "
                       f"shift needs {frames:.4g} frames, the limit is "
                       f"{MAX_ROLL_FRAMES}")
    return max(0, math.ceil(frames))


def to_piano_roll(notes: NoteEventList, frame_shift: float,
                  sample_rate: float = StftConfig.sample_rate) -> PianoRoll:
    """Quantize notes onto frames of frame_shift seconds.

    A note activates every frame its [onset, offset) interval intersects.
    Overlapping notes on one pitch keep the larger velocity.  Frame count
    is roll_frame_count(notes.duration, frame_shift).
    """
    n_frames = roll_frame_count(notes.duration, frame_shift)
    values = np.zeros((n_frames, 128))
    lo = np.floor(notes.onset / frame_shift + EDGE_EPS).astype(np.int64)
    hi = np.ceil(notes.offset / frame_shift - EDGE_EPS).astype(np.int64)
    counts = np.maximum(np.minimum(np.maximum(hi, lo + 1), n_frames) - lo, 0)
    starts = np.cumsum(counts) - counts
    # The notes become one (roll entry, level) pair per frame they cover, a
    # group at a time: the notes starting within 16 n_frames pairs of the
    # group's first.  No note has over n_frames pairs, so a group's pairs
    # take a fraction of the roll's bytes, however long the notes are.
    bounds = sorted({len(counts), *np.searchsorted(
        starts, np.arange(0, counts.sum(), 16 * n_frames + 1)).tolist()})
    for a, b in zip(bounds[:-1], bounds[1:]):
        n = counts[a:b]
        frames = np.repeat(lo[a:b] - starts[a:b], n)
        frames += np.arange(starts[a], starts[a] + len(frames))
        np.maximum.at(values.reshape(-1), frames * 128 + np.repeat(notes.pitch[a:b], n),
                      np.repeat(notes.velocity[a:b] / 127.0, n))
    return PianoRoll(values, frame_shift, sample_rate)


def roll_to_notes(roll: PianoRoll) -> NoteEventList:
    """Invert a piano roll: one note per contiguous active run per pitch.

    Velocity is the run's peak level scaled back to 1..127.  Runs that
    were frame-aligned round-trip exactly through to_piano_roll.
    """
    active = np.pad(roll.values.T > 0, ((0, 0), (1, 1)))
    pitch, onset = np.nonzero(active[:, 1:-1] & ~active[:, :-2])
    offset = np.nonzero(active[:, 1:-1] & ~active[:, 2:])[1] + 1
    # a run's peak is the maximum from its first frame to the next run's,
    # in the pitch-major values, since the frames between are 0
    peak = np.maximum.reduceat(roll.values.T.ravel(), pitch * roll.n_frames + onset)
    velocity = np.clip(np.round(peak * 127.0), 1, 127)
    return NoteEventList(pitch, onset * roll.frame_shift, offset * roll.frame_shift,
                         velocity)


def transpose_roll(roll: PianoRoll, semitones: int) -> PianoRoll:
    """Shift every active pitch by a signed number of semitones.

    Content shifted past either end of the 128-pitch range is dropped.
    """
    s = min(max(semitones, -128), 128)
    out = np.zeros_like(roll.values)
    out[:, max(s, 0) : 128 + min(s, 0)] = roll.values[:, max(-s, 0) : 128 - max(s, 0)]
    return PianoRoll(out, roll.frame_shift, roll.sample_rate)
