"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at a tiny size, untraced and traced, and checks that
every metric named in BENCHMARK.json is printed with its unit and reported in
the last line.  It corrupts one value of a correct CSV and checks that the
gate counts that invocation as failed and wrong.  It checks that the benchmark
refuses to run without the package sources.  Exits 0 when every check passes.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = ["--seed", "7", "--seconds", "0", "--block-size", "2"]
TIMEOUT_S = 300


def expect(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def _bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S)


def check_declared_metrics(bench: dict, spans) -> None:
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    expect(declared == list(run.END_TO_END), f"BENCHMARK.json end_to_end {declared} != run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expected = [(name, unit, better) for name, unit, better, *_ in spans.LAYER_METRICS]
    expect(declared == expected, "BENCHMARK.json per_layer differs from spans.LAYER_METRICS")


def check_printed(workload: str, trace: int, metrics: list[tuple[str, str]]) -> None:
    child = _bench("--workload", workload, "--trace", str(trace), *TINY)
    expect(child.returncode == 0, f"{workload} trace={trace} exited {child.returncode}:\n{child.stderr}")
    lines = child.stdout.rstrip("\n").split("\n")
    for name, unit in metrics:
        pattern = rf"^{re.escape(name)} = [-+0-9.e]+ {re.escape(unit)}(\s|$)"
        expect(any(re.match(pattern, line) for line in lines), f"{workload}: {name} not printed with unit {unit}")
    summary = json.loads(lines[-1])
    expect(sorted(summary) == ["attempted", "correct", "failed", "metrics"], f"{workload}: keys {sorted(summary)}")
    expect(summary["correct"] is True and summary["attempted"] >= 1, f"{workload}: summary {summary}")
    expect({k: v["unit"] for k, v in summary["metrics"].items()} == dict(metrics), f"{workload}: JSON metrics")
    print(f"ok  {workload} trace={trace}: {len(metrics)} metrics printed with units")


def check_gate_catches_corruption(workdir: Path) -> None:
    import hcslab
    import spans
    import workloads

    wl = workloads.WORKLOADS["sweep-squeezing"]
    bench = run.Run(wl, 7, wl.block_size, workdir, hcslab, spans)
    inv = next(inv for inv in bench.block(0) if inv["order"] == 1)  # order 1 never trips the residue guard
    outcome = wl.call(inv, workdir)
    expect(bench.judge(inv, outcome, random.Random(0)) == (None, False), "a correct CSV failed the gate")

    lines = outcome.payload.split("\n")
    # rng.sample picks positions from the population size alone, so this is
    # the first row the gate recomputes with the oracle for random.Random(0).
    row = 1 + random.Random(0).sample(range(outcome.items_written), workloads.ROWS_CHECKED)[0]
    fields = lines[row].split(",")
    value = float(fields[7])
    fields[7] = repr(value + 1e3 * workloads.WITNESS_TOL * (1.0 if value >= 0.0 else -1.0))  # keeps the flag
    lines[row] = ",".join(fields)
    outcome.payload = "\n".join(lines)

    failure, wrong = bench.judge(inv, outcome, random.Random(0))
    expect(failure is not None and failure[0] == "gate" and wrong, f"corrupted CSV judged {(failure, wrong)}")
    bench.tally.add(outcome, failure, wrong, "corrupted", 1.0)
    tally = bench.tally
    expect(tally.failed == 1 and tally.wrong == 1 and tally.verified == 0, "corrupted CSV not counted as failed")
    print(f"ok  corrupted value in row {row} counted as failed: {failure[1]}")


def check_refuses_without_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    child = _bench("--workload", "herald", "--trace", "0", *TINY, cwd=bare)
    expect(child.returncode != 0, "ran without the package sources")
    expect('"correct"' not in child.stdout, "printed a result without the package sources")
    print(f"ok  without src/ the benchmark exits {child.returncode} and prints no result")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run._cap_threads()
    sys.path.insert(0, str(run.SRC))
    import spans

    check_declared_metrics(bench, spans)
    layer_units = [(name, unit) for name, unit, *_ in spans.LAYER_METRICS]
    for workload in (w["name"] for w in bench["workloads"]):
        check_printed(workload, 0, list(run.END_TO_END))
        check_printed(workload, 1, layer_units)
    tmp = run.OUT / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_gate_catches_corruption(tmp)
        check_refuses_without_sources(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
