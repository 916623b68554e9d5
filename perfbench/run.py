"""Benchmark of hcslab, measured from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-squeezing --seed 1 --seconds 20 --trace 0

Workloads: sweep-squeezing, sweep-antibunching, validate, herald (see
workloads.py).  A run draws blocks of invocations from --seed, block b from
(seed, b) alone, and runs whole blocks until the invocations have taken
--seconds of wall time.  Each output is checked right after its invocation,
outside the timed region.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Every time metric is normalised to a fixed host speed.  On a shared host the
same code runs up to ~40% slower for seconds or minutes at a time, so a fixed
pure-Python loop is timed before every block and after the last, and each wall
time of a block is scaled by CALIBRATION_REF_S / (mean loop time on both sides
of the block).  The raw figures are printed beside the normalised ones and kept
in the result file.

--trace 0 reports the end-to-end metrics, which come only from untraced
invocations.  --trace 1 also replays the first TRACE_BLOCKS blocks with spans
recorded and reports the per-layer metrics of spans.py instead, including the
tracing overhead.  It then runs the first TRACE_BLOCKS blocks once more, untimed
and over the wider |alpha| range of workloads.census, and reports the share of
invocations that fail there as census.failed_ratio: the known defects that the
timed workloads stay clear of (see workloads.py).

Results and spans are written under perfbench/out/.  The package is imported
from src/ of the checkout; without it the run exits with status 2.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here in a fresh interpreter

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120
#: Blocks measured at least, and replayed by the traced pass, so that span
#: counts do not depend on how fast the machine is.
TRACE_BLOCKS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CALIBRATION_N = 100_000
CALIBRATION_LOOPS = 3
#: The loop's time on an uncontended core (Intel Xeon vCPU, Python 3.11); it
#: only sets the scale of the normalised figures.
CALIBRATION_REF_S = 0.006

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--block-size", type=int, help="invocations per block (default: the workload's own)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _calibration_s() -> float:
    """Fastest of CALIBRATION_LOOPS timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_N):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; numpy reads these on import."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


@contextmanager
def _workdir():
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _setup_time(args) -> tuple[float, float]:
    """(normalised, raw) time of import, input generation and the first call in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.block_size:
        cmd += ["--block-size", str(args.block_size)]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"set-up run failed with exit code {child.returncode}")
    raw, calibration = (float(x) for x in child.stdout.split()[-2:])
    return raw * CALIBRATION_REF_S / calibration, raw


def _digest(outcome) -> str:
    return hashlib.sha256(f"{outcome.rc}|{outcome.exc_class}|{outcome.payload}".encode()).hexdigest()


class Tally:
    """Per-invocation figures, kept compactly so the harness adds little to peak_rss_mb.

    Times are kept raw and normalised to CALIBRATION_REF_S (see the module docstring).
    """

    def __init__(self):
        self.walls = array("d")
        self.norm_walls = array("d")
        self.per_item_ms = array("d")  # normalised wall time / items written, where it wrote any
        self.raw_per_item_ms = array("d")
        self.verified = 0  # items of invocations that passed
        self.wrong = 0  # invocations that exited 0 with an output the gate rejected
        self.failures: list[tuple[str, str, str]] = []  # (where, layer, what)

    def add(self, outcome, failure, wrong, where, scale) -> None:
        self.walls.append(outcome.wall_s)
        self.norm_walls.append(outcome.wall_s * scale)
        if outcome.items_written:
            self.raw_per_item_ms.append(outcome.wall_s * 1e3 / outcome.items_written)
            self.per_item_ms.append(outcome.wall_s * scale * 1e3 / outcome.items_written)
        if failure:
            self.failures.append((where, *failure))
        else:
            self.verified += outcome.items_written
        self.wrong += wrong

    @property
    def failed(self) -> int:
        return len(self.failures)


class Run:
    """Blocks of one workload and seed, run and checked in this process."""

    def __init__(self, wl, seed, block_size, workdir, hcslab, spans):
        self.wl, self.seed, self.block_size, self.workdir = wl, seed, block_size, workdir
        self.hcslab, self.spans = hcslab, spans
        self.tally = Tally()
        self.block_walls: list[float] = []  # raw
        self.block_scales: list[float] = []  # CALIBRATION_REF_S / loop time around the block
        #: (output digest, failure) of the first TRACE_BLOCKS blocks, which the traced pass replays
        self.judged: list[tuple[str, tuple[str, str] | None]] = []
        self.inputs_sha = hashlib.sha256()  # of every block run, in order

    def block(self, b: int) -> list[dict]:
        return self.wl.make_block(self.seed, b, self.block_size)

    def measure(self, seconds: float) -> None:
        """Whole blocks, at least TRACE_BLOCKS, until the invocations took `seconds`."""
        calibration = _calibration_s()
        while len(self.block_walls) < TRACE_BLOCKS or sum(self.block_walls) < seconds:
            b = len(self.block_walls)
            block = self.block(b)
            self.inputs_sha.update(json.dumps(block, sort_keys=True).encode())
            judged = []
            for i, inv in enumerate(block):
                outcome = self.wl.call(inv, self.workdir)
                failure, wrong = self.judge(inv, outcome, random.Random(f"{self.seed}/{b}/{i}"))
                outcome.payload = _digest(outcome)  # the output itself is no longer needed
                judged.append((outcome, failure, wrong, f"block {b} invocation {i}"))
            after = _calibration_s()
            scale = CALIBRATION_REF_S / ((calibration + after) / 2.0)
            calibration = after
            for outcome, failure, wrong, where in judged:
                self.tally.add(outcome, failure, wrong, where, scale)
                if b < TRACE_BLOCKS:
                    self.judged.append((outcome.payload, failure))
            self.block_walls.append(sum(o.wall_s for o, *_ in judged))
            self.block_scales.append(scale)

    def judge(self, inv, outcome, rng):
        """The gate: (layer, what) of a failure or None, and whether an exit-0 output was wrong.

        An exit code without an exception is replayed once with spans
        recorded, to find the layer that raised.
        """
        if outcome.exc_class:
            return (outcome.layer, outcome.exc_class), False
        if outcome.rc != 0:
            tracer, _ = self.traced([inv])
            name, exc_class = tracer.deepest_error() or ("cli.main", f"exit {outcome.rc}")
            return (name.split(".")[0], exc_class), False
        problems = self.wl.check(inv, outcome, rng)
        return (("gate", problems[0]), True) if problems else (None, False)

    def traced(self, invocations):
        tracer = self.spans.Tracer()
        tracer.install(self.hcslab)
        try:
            outcomes = []
            for index, inv in enumerate(invocations):
                tracer.current = index
                outcomes.append(self.wl.call(inv, self.workdir))
        finally:
            tracer.uninstall()
        return tracer, outcomes

    def replay_traced(self):
        """Trace the first TRACE_BLOCKS blocks again; each output must match its untraced run.

        Returns the tracer, the outcomes, and the tracing overhead: traced
        over untraced wall time of those blocks, both normalised.
        """
        before = _calibration_s()
        tracer, outcomes = self.traced([inv for b in range(TRACE_BLOCKS) for inv in self.block(b)])
        scale = CALIBRATION_REF_S / ((before + _calibration_s()) / 2.0)
        for index, ((digest, failure), outcome) in enumerate(zip(self.judged, outcomes)):
            wrong = _digest(outcome) != digest
            if wrong:
                failure = ("gate", "output differs from the untraced run of the same inputs")
            b, i = divmod(index, self.block_size)
            self.tally.add(outcome, failure, wrong, f"traced block {b} invocation {i}", scale)
        traced_wall = scale * sum(o.wall_s for o in outcomes)
        untraced_wall = sum(w * f for w, f in zip(self.block_walls[:TRACE_BLOCKS], self.block_scales))
        return tracer, outcomes, traced_wall / untraced_wall


def _tail(values):
    """(value, percentile) of the highest rank with TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(values)
    rank = max((len(ordered) - 1) // 2, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    sources = hashlib.sha256()
    for path in sorted((SRC / "hcslab").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def _end_to_end(run: Run, setup, peak_rss_mb):
    """Metrics from normalised times, and a note per metric that gives the raw figure."""
    tally = run.tally
    tail, tail_pct = _tail(tally.per_item_ms)
    raw_tail, _ = _tail(tally.raw_per_item_ms)
    raw_setup = statistics.median(raw for _, raw in setup)
    metrics = {
        "setup_s": statistics.median(norm for norm, _ in setup),
        "items_per_s": tally.verified / sum(tally.norm_walls),
        "item_ms_p50": statistics.median(tally.per_item_ms),
        "item_ms_tail": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; raw {raw_setup:.4g} s",
        "items_per_s": f"{tally.verified} verified items; raw {tally.verified / sum(tally.walls):.4g} items/s",
        "item_ms_p50": f"{len(tally.per_item_ms)} invocations; raw {statistics.median(tally.raw_per_item_ms):.4g} ms",
        "item_ms_tail": f"p{tail_pct:.1f} of {len(tally.per_item_ms)} invocations, {TAIL_BEYOND} beyond; "
        f"raw {raw_tail:.4g} ms",
        "peak_rss_mb": "peak resident set of the measuring process",
    }
    return metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hcslab" / "__init__.py").is_file():
        print(f"perfbench: no hcslab package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    setup = [] if args.setup_probe or args.trace else [_setup_time(args) for _ in range(SETUP_RUNS)]

    sys.path.insert(0, str(SRC))
    import hcslab  # imported after the thread caps are set
    import spans
    import workloads

    if Path(hcslab.__file__).resolve().parent != SRC / "hcslab":
        print(f"perfbench: imported hcslab from {hcslab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    with _workdir() as workdir:
        run = Run(wl, args.seed, args.block_size or wl.block_size, workdir, hcslab, spans)
        wl.call(run.block(0)[0], workdir)  # the warm-up call
        if args.setup_probe:
            print(time.perf_counter() - _T0, _calibration_s())
            return 0
        run.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer, traced, overhead_ratio = run.replay_traced()
            wide = Run(workloads.census(wl), args.seed, run.block_size, workdir, hcslab, spans)
            wide.measure(0.0)  # TRACE_BLOCKS blocks

    env = _environment(nproc, args.seed)
    inputs_sha = run.inputs_sha.hexdigest()
    tally = run.tally
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs: seed={args.seed} blocks={len(run.block_walls)} sha256={inputs_sha}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"invocations: {len(tally.walls)}, failed: {tally.failed}, wrong outputs: {tally.wrong}")
    factors = ", ".join(f"{f:.3f}" for f in run.block_scales)
    print(f"host speed factor per block (reference loop {CALIBRATION_REF_S} s / measured): {factors}")
    counts = collections.Counter((layer, what) for _, layer, what in tally.failures).most_common()
    for (layer, what), count in counts:
        print(f"  failure: {count} x {layer}: {what}")

    result = {"env": env, "workload": args.workload, "seconds": args.seconds, "block_scales": run.block_scales}
    result["inputs_sha256"] = inputs_sha
    result["failures"] = [{"where": where, "layer": layer, "what": what} for where, layer, what in tally.failures]
    if args.trace:
        csv = isinstance(wl, workloads.SweepWorkload)
        metrics, shares = spans.layer_metrics(
            tracer,
            traced_wall=sum(o.wall_s for o in traced),
            overhead_ratio=overhead_ratio,
            census_failed_ratio=wide.tally.failed / len(wide.tally.walls),
            csv_rows=sum(o.items_written for o in traced) if csv else 0,
            csv_bytes=sum(len(o.payload.encode()) for o in traced) if csv else 0,
        )
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_file)
        units = {name: (unit, moves, on) for name, unit, _, moves, on in spans.LAYER_METRICS}
        for name, value in metrics.items():
            unit, moves, on = units[name]
            print(f"{name} = {value!r} {unit}  (should move {moves}; on {on})")
        print("self-time share of traced wall time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        print(f"spans: {len(tracer.start)} written to {spans_file.relative_to(ROOT)}")
        wide_counts = collections.Counter((layer, what) for _, layer, what in wide.tally.failures).most_common()
        print(f"census over |alpha| <= {workloads.CENSUS_ALPHA_MAX:g}, untimed: "
              f"{wide.tally.failed} of {len(wide.tally.walls)} invocations failed")
        for (layer, what), count in wide_counts:
            print(f"  census failure: {count} x {layer}: {what}")
        result["self_share"] = shares
        result["census_failures"] = [{"where": w, "layer": layer, "what": what} for w, layer, what in wide.tally.failures]
        result["metrics"] = {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()}
    else:
        metrics, notes = _end_to_end(run, setup, peak_rss_mb)
        for name, unit in END_TO_END:
            print(f"{name} = {metrics[name]!r} {unit}  ({notes[name]})")
        result["notes"] = notes
        result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    summary = {"correct": tally.wrong == 0, "attempted": len(tally.walls), "failed": tally.failed}
    summary["metrics"] = result["metrics"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
