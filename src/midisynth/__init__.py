"""MIDI-aligned audio synthesis and evaluation toolkit."""

from .dsp import (
    FeatureMatrix,
    FilterBank,
    StftConfig,
    WaveSignal,
    default_loss_resolutions,
    extract_features,
    griffin_lim,
    istft,
    mel_filter_bank,
    midi_center_freq,
    midi_filter_bank,
    mr_stft_loss,
    stft,
)
from .errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    DurationTooLong,
    FileFormatError,
    LengthMismatch,
    MalformedHeader,
    MidiSynthError,
    NyquistViolation,
    SampleRateMismatch,
    TrainingDiverged,
    TruncatedTrack,
    UnsupportedDivision,
)
from .excitation import fit_length, noise_excitation, sine_excitation
from .midi_io import (
    NoteEvent,
    NoteEventList,
    PianoRoll,
    apply_sustain_pedal,
    parse_midi,
    roll_to_notes,
    to_piano_roll,
    transpose_roll,
    write_midi,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
