"""Shared exception types.

Structural problems with inputs (malformed files, corrupt checkpoints)
raise subclasses of MidiSynthError.  Plain argument-domain mistakes
(values out of range, empty collections) raise ValueError, sometimes a
named subclass of it when callers want to tell the cases apart.
"""


class MidiSynthError(Exception):
    """Base class for structural input errors raised by this package."""


class MalformedHeader(MidiSynthError):
    """MIDI file header chunk missing, short, or of an unsupported format."""


class UnsupportedDivision(MidiSynthError):
    """MIDI time division is SMPTE-based; only ticks-per-quarter is handled."""


class TruncatedTrack(MidiSynthError):
    """A MIDI track chunk ended mid-event or overran the file."""


class DurationTooLong(MidiSynthError):
    """A MIDI file lasts longer than midi_io.MAX_DURATION_SECONDS."""


class TooManyFrames(MidiSynthError):
    """A piano roll would hold more than midi_io.MAX_ROLL_FRAMES frames."""


class TooManySamples(MidiSynthError):
    """An excitation would hold more than excitation.MAX_SAMPLES samples."""


class SpectrogramTooLarge(MidiSynthError):
    """A spectrogram would hold more than dsp.MAX_SPECTROGRAM_ENTRIES entries."""


class FilterBankTooLarge(MidiSynthError):
    """A filter bank would hold more than dsp.MAX_FILTER_BANK_ENTRIES entries."""


class FileFormatError(MidiSynthError):
    """A binary file (WAV or feature matrix) does not match its format."""


class CorruptCheckpoint(MidiSynthError):
    """Checkpoint bytes are truncated, fail CRC, or disagree with the config."""


class TrainingDiverged(MidiSynthError):
    """A training step produced a non-finite loss or gradient."""


class SampleRateMismatch(ValueError):
    """Two signals (or a signal and a config) carry different sample rates."""


class LengthMismatch(ValueError):
    """Aligned sequences have incompatible lengths."""


class DimensionMismatch(ValueError):
    """A matrix width disagrees with what the model config requires."""


class NyquistViolation(ValueError):
    """A requested oscillator frequency is at or above half the sample rate."""
