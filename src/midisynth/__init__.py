"""MIDI-aligned audio synthesis and evaluation toolkit."""

__version__ = "0.1.0"
