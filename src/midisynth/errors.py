"""Shared exception types, one per kind of fault.

- FileFormatError: a MIDI, WAV, feature-matrix, score or checkpoint file
  does not match its format.
- TooLarge: an input would pass a size limit; the message names the limit.
- TrainingDiverged: a training step produced a non-finite loss or gradient.
- ValueError: an argument is out of its domain, or two inputs disagree
  (sample rates, lengths, widths, an oscillator above Nyquist).

The first three derive from MidiSynthError.
"""


class MidiSynthError(Exception):
    """Base class for the faults this package reports by kind."""


class FileFormatError(MidiSynthError):
    """A MIDI, WAV, feature or checkpoint file does not match its format."""


class TooLarge(MidiSynthError):
    """An input would pass a size limit; the message names the limit."""


class TrainingDiverged(MidiSynthError):
    """A training step produced a non-finite loss or gradient."""
