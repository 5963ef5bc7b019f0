"""Check that the working tree writes the same bytes as a git revision.

    python3 tools/same_outputs.py REV [--threads N] [--workload W ...]

Exports REV with `git archive`.  For REV and for the working tree, it
builds the benchmark's inputs with that tree's perfbench/inputs.py at
seeds 1 and 2, and runs one pass of every operation of each workload
(--workload, repeatable: a name of the working tree's
perfbench/inputs.WORKLOADS; all of them by default) through that tree's
midisynth.cli.main, one child process per workload pass.  Both sides run
at the same BLAS thread count (--threads, default 1), because train
checkpoints differ between thread counts.

Prints one digest pair per operation, REV's first, then how many
operations of each kind (such as train-am) gave the same and different
digests, so a change that alters one kind's bytes on purpose shows it in
one line.  A digest covers the files the operation wrote or changed
(their paths under the work directory and their bytes), its exit code,
and its stdout and stderr with the work directory masked.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _snapshot(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pass(tree, workload, seed, work):
    """Child side: one pass of workload's operations at seed through tree's
    cli.main.  Writes [[kind, digest], ...] to work/digests.json."""
    tree, work = Path(tree), Path(work)
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    from midisynth import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the sources under {tree}")
    root = work / "pass"
    ops, _ = inputs.generate(workload, seed, root)
    before = _snapshot(root)
    digests = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except Exception as exc:  # an internal error is an outcome to compare
            code = f"{type(exc).__name__}: {exc}"
        after = _snapshot(root)
        written = {name: h for name, h in after.items() if before.get(name) != h}
        before = after
        masked = [t.getvalue().replace(str(root), "<root>") for t in (out, err)]
        record = json.dumps([written, str(code), *masked], sort_keys=True).encode()
        digests.append([op.kind, hashlib.sha256(record).hexdigest()[:16]])
    (work / "digests.json").write_text(json.dumps(digests))


def _digests(tree, workload, seed, threads):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: str(threads) for var in BLAS_VARS})
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
                f"import same_outputs; same_outputs.run_pass("
                f"{str(tree)!r}, {workload!r}, {seed}, {work!r})")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return json.loads((Path(work) / "digests.json").read_text())


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import WORKLOADS  # in this process only; a pass imports its tree's

    parser = argparse.ArgumentParser(
        description="compare the outputs of the working tree with a revision's")
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads of both sides (default 1)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run, repeatable (default: all)")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be positive")

    differ = total = 0
    tally = collections.defaultdict(collections.Counter)  # kind -> same/different
    with tempfile.TemporaryDirectory(prefix="same_outputs_rev_") as base:
        tar_path = Path(base) / "rev.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar_path), args.rev],
                       check=True)
        rev_tree = Path(base) / "tree"
        with tarfile.open(tar_path) as tar:
            tar.extractall(rev_tree, filter="data")
        for workload in args.workload or WORKLOADS:
            for seed in SEEDS:
                old = _digests(rev_tree, workload, seed, args.threads)
                new = _digests(ROOT, workload, seed, args.threads)
                if len(old) != len(new):
                    print(f"{workload} seed {seed}: {len(old)} ops at {args.rev}, "
                          f"{len(new)} in the working tree")
                    differ += 1
                for i, (a, b) in enumerate(zip(old, new)):
                    same = a == b
                    differ += not same
                    total += 1
                    tally[a[0]]["same" if same else "different"] += 1
                    print(f"{workload:<7} seed {seed} op {i:02d} {a[0]:<22} {a[1]} {b[1]} "
                          f"{'same' if same else 'DIFFERENT'}", flush=True)
    for kind, counts in tally.items():
        print(f"{kind:<22} {counts['same']} same, {counts['different']} different")
    print(f"{total} ops compared at {args.threads} BLAS thread(s): "
          f"{'all identical' if not differ else f'{differ} differences'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
