"""Shared facts keep their one home.

The default analysis (sample rate and hop) is `dsp.StftConfig`: no other
package module may write its numbers.  A feature kind's file code is its
index in `dsp.FeatureMatrix.KINDS`: `formats` names no kind itself, so it
cannot hold a second kind table.
"""

import ast
from pathlib import Path

from midisynth.dsp import FeatureMatrix, StftConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "midisynth"


def constants(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant):
            yield node.value


def test_only_dsp_writes_the_default_rate_and_hop():
    defaults = {StftConfig.sample_rate, StftConfig.frame_shift}
    copies = [f"{path.stem}: {value!r}" for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "dsp" for value in constants(path)
              if type(value) in (int, float) and value in defaults]
    assert copies == []


def test_formats_names_no_feature_kind():
    names = [value for value in constants(PACKAGE / "formats.py")
             if value in FeatureMatrix.KINDS]
    assert names == []
