"""midisynth benchmark: seeded workloads through `midisynth.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload render --seed 1 --seconds 35 --trace 0

Workloads are `render`, `train` and `invert` (see perfbench/NOTES.md).
One closed-loop client runs passes of the workload's operations in
process, each starting when the previous one has returned, for as many
whole passes as fit in --seconds (at least one); every output is
checked.  --trace 0 reports the end-to-end metrics, with every time
scaled to a reference host speed by a probe run between operations;
--trace 1 runs each operation twice, untraced and traced, and reports
per-layer self times and counts, span coverage and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric
by name and unit, the environment, and the path of a results file that
also holds the environment block; traced runs write their spans next to
it.  Exits 2 when the program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
TAIL_BEYOND = 10
TAIL_PASSES = 2
# probe() between operations on the reference machine (its median over
# many runs).  Every end-to-end time is scaled to this host speed; see
# NOTES.md.
PROBE_REF_S = 0.011
END_TO_END = {"setup_s": "s", "rtf": "s/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def cap_blas_threads():
    """Cap BLAS threads at the usable core count, before numpy loads.

    Only a cap: one thread is markedly slower than two for the NSF
    convolutions on a 2-core machine.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(nproc):
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": nproc, "cpu": cpu or platform.processor()}


_PROBE_DATA = []


def probe():
    """Seconds the host takes for a fixed mix of work that shares no code
    with the program: a conv-sized BLAS matmul with tanh, a pass over a
    32 MB array (larger than a core's own caches, as the long pieces'
    buffers are), and an interpreter loop.  Garbage is collected first,
    outside the timing, so the next operation also starts from a clean
    heap, as a fresh CLI process would."""
    import numpy as np

    if not _PROBE_DATA:
        rng = np.random.default_rng(0)
        _PROBE_DATA.extend([rng.standard_normal((12000, 48)),
                            rng.standard_normal((48, 16)), np.ones(1 << 22)])
    x, w, big = _PROBE_DATA
    gc.collect()
    x @ w  # wakes the BLAS threads, whatever the program last did
    start = time.perf_counter()
    for _ in range(4):
        np.tanh(x @ w)
    np.multiply(big, 1.0, out=big)
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    return time.perf_counter() - start


def scaled(seconds, host_s):
    """seconds in reference-host seconds, given the probe time host_s
    around the timed work."""
    return seconds * PROBE_REF_S / host_s


def run_op(cli, op):
    """One CLI call; returns (wall seconds, problem or None, stdout).

    A NaN or infinity in audio only shows as the warning numpy raises
    when the WAV writer casts it to int16, so warnings are recorded and
    an invalid-value warning fails the operation.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(op.argv)
    except Exception as exc:  # an internal error fails the operation
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    invalid = [str(w.message) for w in caught if "invalid value" in str(w.message)]
    problem = (f"{op.kind}: exit {code} {err.getvalue().strip()[-200:]}" if code != 0
               else f"{op.kind}: non-finite values ({invalid[0]})" if invalid else None)
    return wall, problem, out.getvalue()


class Client:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, cli, check_op):
        self.cli, self.check_op = cli, check_op
        self.digests = {}
        self.problems = []
        self.attempted = self.failed = 0

    def run(self, index, op, count=True, tracer=None):
        """Runs ops[index], traced when a tracer is given; the output
        checks always run untraced."""
        if tracer:
            tracer.install(index)
        try:
            wall, problem, stdout = run_op(self.cli, op)
        finally:
            if tracer:
                tracer.remove()
        if problem is None:
            try:
                problem, digest = self.check_op(op, stdout)
            except Exception as exc:  # unreadable or missing output
                problem, digest = f"{op.kind}: {type(exc).__name__}: {exc}", None
            first = self.digests.setdefault(index, digest)
            if problem is None and digest != first:
                problem = f"{op.kind} #{index}: output bytes differ on a repeat"
        if count:
            self.attempted += 1
            self.failed += problem is not None
        if problem is not None:
            self.problems.append(problem)
        return wall


def tree_digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def setup(workload, seed, work, inputs, client):
    """Writes the inputs and warms up each operation kind, SETUP_REPS
    times.  Returns (ops, per-repetition set-up seconds, the probes taken
    before the first repetition and after each, input problems)."""
    problems, times, first = [], [], None
    probe()  # the first call starts the BLAS threads and is slower
    probes = [probe()]
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        ops, warm = inputs.generate(workload, seed, work)
        gen_s = time.perf_counter() - start
        digests = tree_digests(work)
        first = first or digests
        if digests != first:
            problems.append("the same seed wrote different input bytes")
        start = time.perf_counter()
        for index in warm:
            client.run(index, ops[index], count=False)
        times.append(gen_s + time.perf_counter() - start)
        probes.append(probe())
    other = work.with_name(work.name + "-other")
    inputs.generate(workload, seed + 1, other)
    same = [name for name, digest in tree_digests(other).items()
            if first.get(name) == digest]
    shutil.rmtree(other)
    if same:
        problems.append(f"seeds {seed} and {seed + 1} wrote identical {same[:3]}")
    return ops, times, probes, problems


def timings(walls, ops):
    """rtf, op_p50_ms and op_tail_ms from the wall times of each op, plus
    the tail's percentile and operation count.  rtf is the summed median
    time of each op over the pass's audio seconds."""
    flat = [wall for op_walls in walls for wall in op_walls]
    tail_s, pct, n = tail(flat, len(ops))
    return {"rtf": sum(statistics.median(w) for w in walls)
            / sum(op.audio_s for op in ops),
            "op_p50_ms": 1e3 * statistics.median(flat),
            "op_tail_ms": 1e3 * tail_s}, pct, n


def tail(walls, per_pass):
    """The op_tail_ms percentile, as (value, percentile, operation count).

    The percentile is fixed per workload: the highest one with
    TAIL_BEYOND operations beyond it in a run of TAIL_PASSES passes of
    per_pass operations.  A run of more passes has more operations beyond
    it, so the value does not jump with the pass count.
    """
    ordered = sorted(walls)
    n = len(ordered)
    share = 1.0 - TAIL_BEYOND / (TAIL_PASSES * per_pass)
    rank = min(n, max(1, math.ceil(share * n - 1e-9)))  # nearest rank
    return ordered[rank - 1], 100.0 * share, n


def self_check(workload, layer, istft_calls):
    """Call counts the trace must show, given which code each workload
    runs; istft_calls is what the gl ops imply (one initial resynthesis
    plus one per iteration)."""
    problems = []
    if workload == "invert":
        if layer["dsp.istft_calls"] != istft_calls:
            problems.append(f"dsp.istft_calls {layer['dsp.istft_calls']}, "
                            f"want {istft_calls}")
        for name, value in layer.items():
            if name.split(".")[0] in ("autograd", "nsf", "acoustic") \
                    and name.endswith(("_calls", "_steps")) and value:
                problems.append(f"{name} = {value} on invert, want 0")
    if workload == "render" and layer["autograd.backward_calls"]:
        problems.append("autograd.backward ran on render")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("render", "train", "invert"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = cap_blas_threads()
    if not (ROOT / "src" / "midisynth" / "cli.py").is_file():
        print(f"error: no midisynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)

    from midisynth import cli
    import checks
    import inputs
    import spans
    import_s = time.perf_counter() - start

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    client = Client(cli, checks.check_op)
    ops, setup_times, setup_probes, problems = setup(
        args.workload, args.seed, work, inputs, client)

    # Whole passes only, so every pass measures the same mix of operations.
    # Another pass starts only if the last one says it will end in time.
    # A probe of the host's speed runs between untraced operations.
    tracer = spans.Tracer() if args.trace else None
    timed, traced, kinds = [], [], []  # timed: (op index, wall), run order
    probes = [probe()]
    passes, last = 0, 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + last <= args.seconds:
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            # The traced run goes second for even-indexed ops and first for
            # odd ones, so warm caches favour neither side of the overhead.
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            for with_tracer in order if tracer else (None,):
                gc.collect()
                wall = client.run(index, op, tracer=with_tracer)
                if with_tracer:
                    traced.append(wall)
                else:
                    timed.append((index, wall))
                    probes.append(probe())
            kinds.append(op.kind)
        passes += 1
        last = time.perf_counter() - pass_start
    loop_s = time.perf_counter() - start
    walls = [[] for _ in ops]  # wall seconds of each op, one per pass
    host = [[] for _ in ops]  # the same in reference-host seconds
    for k, (index, wall) in enumerate(timed):
        walls[index].append(wall)
        # probes[k] ran just before this op and probes[k + 1] just after;
        # the median of two on each side damps one probe's own noise.
        host_s = statistics.median(probes[max(0, k - 1):k + 3])
        host[index].append(scaled(wall, host_s))

    raw, tail_pct, n = timings(walls, ops)
    raw["setup_s"] = import_s + statistics.median(setup_times)
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead"] = sum(traced) / sum(wall for _, wall in timed)
        problems += self_check(args.workload, metrics,
                               kinds.count("gl") * (inputs.GL_ITERS + 1))
        tracer.write(OUT / f"{tag}.spans.jsonl")
        units = spans.metric_names()
    else:
        # One probe can read slow just after the imports, so set-up is
        # scaled by the median of its probes.
        host_s = statistics.median(setup_probes)
        metrics = {"setup_s": scaled(raw["setup_s"], host_s)}
        metrics.update(timings(host, ops)[0])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    problems += client.problems
    correct = not problems
    env = environment(nproc)
    print(f"{args.workload} seed {args.seed}: {passes} pass(es), "
          f"{len(timed)} operations in {loop_s:.1f} s, "
          f"{'traced' if tracer else 'untraced'}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not tracer:
        print(f"  op_tail_ms is p{tail_pct:.1f} of {n} operations")
        print(f"  times above are reference-host seconds; host probe median "
              f"{statistics.median(probes) * 1e3:.2f} ms, reference "
              f"{PROBE_REF_S * 1e3:.2f} ms")
    print("  unscaled wall: " + ", ".join(f"{name} {value:.6g}"
                                          for name, value in raw.items()))
    print(f"  {'fail_ratio':34s} {client.failed / max(1, client.attempted):14.6g} 1")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    result = {"correct": correct, "attempted": client.attempted,
              "failed": client.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    results_path = OUT / f"{tag}.json"
    results_path.write_text(json.dumps(
        {**result, "environment": env, "unscaled": raw,
         "setup_reps_s": setup_times, "setup_probes_s": setup_probes,
         "import_s": import_s, "passes": passes,
         "op_tail": {"percentile": tail_pct, "operations": n},
         "op_kinds": [op.kind for op in ops], "op_walls_s": walls,
         "probes_s": probes,
         "problems": problems}, indent=1))
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
