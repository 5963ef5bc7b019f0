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

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .dsp import FeatureMatrix
from .errors import (DurationTooLong, MalformedHeader, TooManyFrames,
                     TruncatedTrack, UnsupportedDivision)

DEFAULT_TEMPO_US = 500000  # microseconds per quarter note, 120 bpm
SUSTAIN_CONTROLLER = 64
SUSTAIN_THRESHOLD = 64
# Longest piece parse_midi accepts.  Every later stage allocates in
# proportion to the duration, and a few hostile bytes (a long delta at the
# slowest tempo) can declare billions of seconds.
MAX_DURATION_SECONDS = 3600.0
# Most frames to_piano_roll builds: an hour at 3.4 ms frames, 1 GiB of
# float64.  A tiny frame shift would otherwise size the roll without bound.
MAX_ROLL_FRAMES = 2 ** 20

# Fractional-frame slack so onsets/offsets that are exact frame multiples
# do not drift across a floor/ceil boundary from float rounding.
_FRAME_EPS = 1e-9


@dataclass(frozen=True)
class NoteEvent:
    """One note: pitch 0-127, onset < offset in seconds, velocity 1-127."""

    pitch: int
    onset: float
    offset: float
    velocity: int

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside 0..127")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity {self.velocity} outside 1..127")
        if not (self.onset >= 0 and self.offset > self.onset):
            raise ValueError(
                f"need 0 <= onset < offset, got onset={self.onset} offset={self.offset}"
            )


@dataclass(frozen=True)
class NoteEventList:
    """Notes sorted by (onset, pitch) plus timing metadata.

    duration defaults to the largest offset and may be set longer to keep
    trailing silence; it can never undercut the last note.  pedal holds
    (time, value) pairs for controller 64 in file order.
    """

    notes: tuple = ()
    ticks_per_quarter: int = 480
    duration: float | None = None
    pedal: tuple = ()
    warnings: tuple = ()

    def __post_init__(self):
        notes = tuple(sorted(self.notes, key=lambda n: (n.onset, n.pitch, n.offset)))
        object.__setattr__(self, "notes", notes)
        last = max((n.offset for n in notes), default=0.0)
        if self.duration is None:
            object.__setattr__(self, "duration", last)
        elif self.duration < last:
            raise ValueError(f"duration {self.duration} < final offset {last}")
        if self.ticks_per_quarter <= 0:
            raise ValueError("ticks_per_quarter must be positive")


@dataclass(frozen=True)
class PianoRoll(FeatureMatrix):
    """The piano-roll FeatureMatrix: values[n, d] in [0, 1], velocity over 127."""

    kind: str = field(default="piano-roll", init=False)
    sample_rate: float = 24000.0

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 128:
            raise ValueError(f"piano roll must be (N, 128), got {self.values.shape}")
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("piano roll entries must lie in [0, 1]")


# --- raw SMF decoding ---------------------------------------------------


def _read_varint(data, pos, end):
    value = 0
    for _ in range(4):
        if pos >= end:
            raise TruncatedTrack("variable-length quantity runs past track end")
        b = data[pos]
        pos += 1
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value, pos
    raise TruncatedTrack("variable-length quantity longer than 4 bytes")


def _data_byte(data, pos, end, what):
    if pos >= end:
        raise TruncatedTrack(f"{what} runs past track end")
    b = data[pos]
    if b & 0x80:
        raise TruncatedTrack(f"{what}: expected data byte, got status 0x{b:02x}")
    return b, pos + 1


def _parse_track(data, start, end):
    """Decode one MTrk payload into (tick, kind, a, b) tuples in file order.

    kind is one of "on", "off", "cc64", "tempo".
    """
    events = []
    pos = start
    tick = 0
    status = None
    while pos < end:
        delta, pos = _read_varint(data, pos, end)
        tick += delta
        if pos >= end:
            raise TruncatedTrack("event status runs past track end")
        b = data[pos]
        if b & 0x80:
            status = b
            pos += 1
        elif status is None:
            raise TruncatedTrack(f"data byte 0x{b:02x} with no running status")
        if status == 0xFF:
            if pos >= end:
                raise TruncatedTrack("meta event type runs past track end")
            meta = data[pos]
            pos += 1
            length, pos = _read_varint(data, pos, end)
            if pos + length > end:
                raise TruncatedTrack("meta event payload runs past track end")
            if meta == 0x51 and length == 3:
                tempo = int.from_bytes(data[pos : pos + 3], "big")
                events.append((tick, "tempo", tempo, 0))
            pos += length
            status = None
            if meta == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            length, pos = _read_varint(data, pos, end)
            if pos + length > end:
                raise TruncatedTrack("sysex payload runs past track end")
            pos += length
            status = None
        elif status >= 0xF0:
            raise TruncatedTrack(f"unexpected system message 0x{status:02x} in track")
        else:
            hi = status & 0xF0
            a, pos = _data_byte(data, pos, end, "channel event")
            if hi in (0xC0, 0xD0):
                continue
            bb, pos = _data_byte(data, pos, end, "channel event")
            if hi == 0x90 and bb > 0:
                events.append((tick, "on", a, bb))
            elif hi == 0x80 or (hi == 0x90 and bb == 0):
                events.append((tick, "off", a, 0))
            elif hi == 0xB0 and a == SUSTAIN_CONTROLLER:
                events.append((tick, "cc64", bb, 0))
    return events, tick


def parse_midi(data: bytes) -> NoteEventList:
    """Parse standard MIDI file bytes into a NoteEventList.

    Note-on with velocity zero counts as note-off.  Overlapping note-ons
    on one pitch close first-in-first-out.  Note-ons left open at end of
    file are closed at the final event time and flagged in warnings.  A
    file lasting over MAX_DURATION_SECONDS raises DurationTooLong.
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedHeader("missing MThd chunk")
    (header_len,) = struct.unpack(">I", data[4:8])
    if header_len < 6 or 8 + header_len > len(data):
        raise MalformedHeader("header chunk shorter than declared")
    fmt, n_tracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise MalformedHeader(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise UnsupportedDivision("SMPTE time division is not supported")
    if division == 0:
        raise MalformedHeader("ticks per quarter note must be positive")
    if fmt == 0 and n_tracks != 1:
        raise MalformedHeader(f"format 0 file declares {n_tracks} tracks")

    pos = 8 + header_len
    merged = []
    tracks_seen = 0
    max_tick = 0
    while tracks_seen < n_tracks:
        if pos + 8 > len(data):
            raise TruncatedTrack(
                f"expected {n_tracks} tracks, found {tracks_seen} before end of file"
            )
        tag = data[pos : pos + 4]
        (chunk_len,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        body = pos + 8
        if body + chunk_len > len(data):
            raise TruncatedTrack("track chunk overruns end of file")
        if tag == b"MTrk":
            events, end_tick = _parse_track(data, body, body + chunk_len)
            merged += events
            max_tick = max(max_tick, end_tick)
            tracks_seen += 1
        pos = body + chunk_len
    merged.sort(key=lambda e: e[0])  # stable: ties keep track, then file order

    # Tick-to-second walk with the tempo map applied in stream order.
    tempo = DEFAULT_TEMPO_US
    anchor_tick = 0
    anchor_sec = 0.0
    scale = lambda t: anchor_sec + (t - anchor_tick) * tempo / (division * 1e6)

    open_notes = {}
    notes = []
    pedal = []
    warnings = []
    last_sec = 0.0
    for tick, kind, a, b in merged:
        sec = scale(tick)
        last_sec = max(last_sec, sec)
        if kind == "tempo":
            anchor_sec = sec
            anchor_tick = tick
            tempo = a if a > 0 else tempo
        elif kind == "on":
            open_notes.setdefault(a, []).append((sec, b))
        elif kind == "off":
            queue = open_notes.get(a)
            if queue:
                onset, velocity = queue.pop(0)
                offset = sec if sec > onset else onset + 1e-9
                notes.append(NoteEvent(a, onset, offset, velocity))
        elif kind == "cc64":
            pedal.append((sec, a))
    last_sec = max(last_sec, scale(max_tick))
    if last_sec > MAX_DURATION_SECONDS:
        raise DurationTooLong(f"file lasts {last_sec:.4g} s, the limit is "
                              f"{MAX_DURATION_SECONDS:.0f} s")

    dangling = sum(len(q) for q in open_notes.values())
    if dangling:
        warnings.append(f"{dangling} dangling note-on event(s) closed at end of file")
        for pitch, queue in open_notes.items():
            for onset, velocity in queue:
                offset = last_sec if last_sec > onset else onset + 1e-9
                notes.append(NoteEvent(pitch, onset, offset, velocity))

    return NoteEventList(
        notes=tuple(notes),
        ticks_per_quarter=division,
        duration=max(last_sec, max((n.offset for n in notes), default=0.0)),
        pedal=tuple(pedal),
        warnings=tuple(warnings),
    )


def write_midi(notes: NoteEventList) -> bytes:
    """Serialize notes as a format 0 SMF at the default tempo, 120 bpm."""
    tpq = notes.ticks_per_quarter
    to_tick = lambda sec: int(round(sec * tpq * 1e6 / DEFAULT_TEMPO_US))
    # order key: offs before ons at the same tick so zero-gap repeats re-trigger
    items = [(0, 0, bytes([0xFF, 0x51, 0x03]) + DEFAULT_TEMPO_US.to_bytes(3, "big"))]
    for n in notes.notes:
        items.append((to_tick(n.onset), 1, bytes([0x90, n.pitch, n.velocity])))
        items.append((max(to_tick(n.offset), to_tick(n.onset) + 1), 0,
                      bytes([0x80, n.pitch, 0])))
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
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, tpq)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


# --- sustain pedal ------------------------------------------------------


def apply_sustain_pedal(notes: NoteEventList) -> NoteEventList:
    """Extend note offsets through intervals where notes.pedal holds the pedal.

    Pedal is down while the last CC64 value is >= 64.  A note released
    during a down interval sounds until the pedal comes up; if the pedal
    never comes up it sounds to the end of the piece.  Onsets are never
    moved and notes are never shortened.
    """
    events = sorted(notes.pedal)
    if not events:
        return notes
    intervals = []
    down_since = None
    for sec, value in events:
        if value >= SUSTAIN_THRESHOLD and down_since is None:
            down_since = sec
        elif value < SUSTAIN_THRESHOLD and down_since is not None:
            intervals.append((down_since, sec))
            down_since = None
    track_end = max(notes.duration, events[-1][0])
    if down_since is not None:
        intervals.append((down_since, math.inf))
    if not intervals:
        return notes

    starts = [s for s, _ in intervals]
    extended = []
    for n in notes.notes:
        idx = bisect_right(starts, n.offset) - 1
        offset = n.offset
        if idx >= 0:
            lo, hi = intervals[idx]
            if lo <= n.offset < hi:
                offset = max(offset, track_end if math.isinf(hi) else hi)
        extended.append(NoteEvent(n.pitch, n.onset, offset, n.velocity))
    duration = max([notes.duration] + [n.offset for n in extended])
    return NoteEventList(
        notes=tuple(extended),
        ticks_per_quarter=notes.ticks_per_quarter,
        duration=duration,
        pedal=notes.pedal,
        warnings=notes.warnings,
    )


# --- piano rolls --------------------------------------------------------


def to_piano_roll(notes: NoteEventList, frame_shift: float,
                  sample_rate: float = 24000.0) -> PianoRoll:
    """Quantize notes onto frames of frame_shift seconds.

    A note activates every frame its [onset, offset) interval intersects.
    Overlapping notes on one pitch keep the larger velocity.  Frame count
    is ceil(duration / frame_shift), at most MAX_ROLL_FRAMES.
    """
    if not frame_shift > 0:
        raise ValueError("frame_shift must be positive")
    frames = notes.duration / frame_shift - _FRAME_EPS
    if frames > MAX_ROLL_FRAMES:
        raise TooManyFrames(f"{notes.duration:.4g} s at a {frame_shift:.4g} s frame "
                            f"shift needs {frames:.4g} frames, the limit is "
                            f"{MAX_ROLL_FRAMES}")
    n_frames = max(0, math.ceil(frames))
    values = np.zeros((n_frames, 128))
    for n in notes.notes:
        lo = int(math.floor(n.onset / frame_shift + _FRAME_EPS))
        hi = int(math.ceil(n.offset / frame_shift - _FRAME_EPS))
        lo, hi = max(lo, 0), min(max(hi, lo + 1), n_frames)
        level = n.velocity / 127.0
        values[lo:hi, n.pitch] = np.maximum(values[lo:hi, n.pitch], level)
    return PianoRoll(values, frame_shift, sample_rate)


def roll_to_notes(roll: PianoRoll) -> NoteEventList:
    """Invert a piano roll: one note per contiguous active run per pitch.

    Velocity is the run's peak level scaled back to 1..127.  Runs that
    were frame-aligned round-trip exactly through to_piano_roll.
    """
    notes = []
    shift = roll.frame_shift
    for pitch in range(128):
        active = np.flatnonzero(roll.values[:, pitch] > 0)
        if not active.size:
            continue
        for run in np.split(active, np.where(np.diff(active) != 1)[0] + 1):
            level = roll.values[run, pitch].max()
            velocity = int(np.clip(round(level * 127.0), 1, 127))
            notes.append(NoteEvent(pitch, run[0] * shift, (run[-1] + 1) * shift, velocity))
    return NoteEventList(notes=tuple(notes))


def transpose_roll(roll: PianoRoll, semitones: int) -> PianoRoll:
    """Shift every active pitch by a signed number of semitones.

    Content shifted past either end of the 128-pitch range is dropped.
    """
    out = np.zeros_like(roll.values)
    if semitones >= 0:
        if semitones < 128:
            out[:, semitones:] = roll.values[:, : 128 - semitones]
    else:
        k = -semitones
        if k < 128:
            out[:, : 128 - k] = roll.values[:, k:]
    return PianoRoll(out, roll.frame_shift, roll.sample_rate)
