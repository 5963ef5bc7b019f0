"""Every public function and class of the package has a caller outside
the tests, bar the few that the acceptance suite alone calls, and every
name a package module imports is used in that module.

A name counts as used when some package module or bench script refers
to it: as a bare name, an attribute or an imported name.  A function
that only tests call then shows up here, and should go.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "midisynth"

# Kept for guarantees 04, 06 and 10 of tests/test_acceptance.py.
ACCEPTANCE_ONLY = {"formats.feature_from_roll", "midi_io.roll_to_notes", "nsf.nsf_zero"}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names():
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def public_definitions():
    for path in PACKAGE.glob("*.py"):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"


def test_only_the_acceptance_suite_calls_these():
    used = referenced_names()
    unused = {name for name in public_definitions()
              if name.split(".")[1] not in used}
    assert unused == ACCEPTANCE_ONLY


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.stem}: {bound}")
    assert unused == []
