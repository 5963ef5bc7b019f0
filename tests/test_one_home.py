"""Shared facts keep their one home.

The default analysis (sample rate and hop) is `dsp.StftConfig`: no other
package module may write its numbers.  A feature kind's file code is its
index in `dsp.FeatureMatrix.KINDS`: `formats` names no kind itself, so it
cannot hold a second kind table.  `formats.write_file` is the one place
that opens a file for writing.  Every FFT is in `dsp._spectra` (forward)
or `dsp._synthesis_frames` (inverse), so every transform runs on the
two-thread chunk engine.  In `autograd` every `.sum(axis=0)` or
`.sum(axis=1)` is in `_row_sums`, so no adjoint's bias gradient runs
numpy's per-row loop where einsum gives the same bits.
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


def write_opens(path):
    """Where path calls open (the builtin, io's or Path's) with a write,
    append or create mode, or os.open, Path.write_bytes or write_text."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        # the builtin takes its mode second, Path.open first
        modes = [k.value for k in node.keywords if k.arg == "mode"]
        modes += node.args[1:] if isinstance(func, ast.Name) else node.args
        writes = any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                     and set("wax+") & set(m.value) for m in modes)
        os_open = name == "open" and getattr(getattr(func, "value", None), "id", None) == "os"
        if name == "open" and writes or os_open or name in ("write_bytes", "write_text"):
            yield f"{path.stem}:{node.lineno}"


def test_only_formats_opens_a_file_for_writing():
    assert list(write_opens(PACKAGE / "formats.py"))  # the walk finds write_file
    opens = [where for path in sorted(PACKAGE.glob("*.py")) if path.stem != "formats"
             for where in write_opens(path)]
    assert opens == []


def fft_sites(path):
    """The top-level function (or <module>) of each np.fft reference in path,
    and of each import of numpy.fft."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            uses = (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and getattr(node.value, "id", None) in ("np", "numpy"))
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            if uses or any(name.startswith("numpy.fft") for name in names):
                yield owner


def test_only_the_two_transform_homes_call_np_fft():
    sites = {f"{path.stem}.{owner}" for path in sorted(PACKAGE.glob("*.py"))
             for owner in fft_sites(path)}
    assert sites == {"dsp._spectra", "dsp._synthesis_frames"}


def row_sum_sites(path):
    """The top-level function (or <module>) of each .sum(axis=0) or
    .sum(axis=1) call in path."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sum"):
                continue
            axes = [k.value for k in node.keywords if k.arg == "axis"] + node.args[:1]
            if any(isinstance(a, ast.Constant) and a.value in (0, 1) for a in axes):
                yield owner


def test_only_the_row_sum_helper_sums_rows_in_autograd():
    assert set(row_sum_sites(PACKAGE / "autograd.py")) == {"_row_sums"}
