"""kgunits benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload organize-large --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each operation runs the real CLI entry point, ``kgunits.cli.main``, in a
fresh child process, one at a time (a closed loop with one client). A run
first makes the workload's inputs from the seed, then runs a fixed guard
operation whose artifacts must hash to the recorded values and one
known-defect probe, then repeats full-size operations until the time is
up. Every operation's outputs are checked. The probe is reported on its
own and does not count as an operation: it is expected to fail until the
defect it shows is fixed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
taken from traced operations (full and quarter size) alternating with
untraced ones.

``--record-hashes`` re-records the guard artifacts' hashes into
``perfbench/hashes.json``; do that only at a commit whose outputs are the
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASHES = HERE / "hashes.json"
OP_TIMEOUT_S = 150
WARMUP_S = 3

import checks  # noqa: E402  (the script directory is on sys.path)
import gen  # noqa: E402
import tracer  # noqa: E402


def run_op(cwd: Path, argv: list[str], config: dict, spans: bool = False) -> dict:
    """Run one CLI operation in a child process and collect what it left."""
    shutil.rmtree(cwd / "out", ignore_errors=True)
    result_path = cwd / "result.json"
    spans_path = cwd / "spans.jsonl"
    for path in (result_path, spans_path):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, "-s", str(HERE / "child.py"), str(SRC), str(result_path),
           str(spans_path) if spans else "-", json.dumps(config), "--", *argv,
           "--out", "out"]
    # A fixed hash seed keeps set iteration order, and so the work done,
    # the same in every operation.
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0", "PYTHONUTF8": "1"}
    with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": (cwd / "stdout.txt").read_text(encoding="utf-8"),
        "problems": [],
    }
    stderr = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        op["problems"].append(f"exit {proc.returncode}: {tail[0]}")
    if "Traceback (most recent call last)" in stderr:
        op["problems"].append("traceback on stderr")
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        op["setup_s"] = result["setup_s"]
        if not Path(result["kgunits_file"]).resolve().is_relative_to(SRC.resolve()):
            op["problems"].append(f"kgunits imported from {result['kgunits_file']}")
    if spans and spans_path.exists():
        op["wrapped"], op["spans"] = tracer.read_spans(spans_path)
    return op


def checked(op: dict, spec: dict, cwd: Path) -> dict:
    if not op["problems"]:
        try:
            op["problems"] += checks.check_outputs(spec, cwd, op["stdout"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op["problems"].append(f"output check could not read the outputs: {exc!r}")
    return op


def guard_op(workload: str, directory: Path) -> tuple[dict, dict]:
    spec = gen.generate(workload, gen.GUARD_SEED, gen.GUARD_SIZE[workload], directory)
    inputs = checks.artifact_hashes(directory, "")
    del inputs["stdout"]
    op = checked(run_op(directory, spec["argv"], gen.config_files(workload)), spec, directory)
    hashes = {"inputs": inputs, "outputs": checks.artifact_hashes(directory / "out", op["stdout"])}
    return op, hashes


def _hash_problems(workload: str, hashes: dict) -> list[str]:
    recorded = json.loads(HASHES.read_text(encoding="utf-8")).get(workload)
    if recorded is None:
        return [f"no recorded hashes for {workload}"]
    problems = []
    for kind in ("inputs", "outputs"):
        for name in sorted(set(recorded[kind]) | set(hashes[kind])):
            if recorded[kind].get(name) != hashes[kind].get(name):
                problems.append(f"{kind} {name}: sha256 differs from the recorded one")
    return problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def add(self, label: str, op: dict) -> dict:
        self.attempted += 1
        if op["problems"]:
            self.failed += 1
            self.problems[f"{label}: {'; '.join(op['problems'][:3])}"] += 1
        return op


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values, share: float = 0.1) -> float:
    """Mean of the values without the lowest and highest ``share`` of them.

    Operation times on a shared host cluster around two or three speeds,
    so the median jumps between clusters from run to run; the trimmed mean
    averages over them and still ignores the odd stalled operation."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut]) if ordered else 0.0


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    config = gen.config_files(workload)
    full_dir, quarter_dir = work / "full", work / "quarter"
    full = gen.generate(workload, seed, gen.FULL_SIZE[workload], full_dir)
    quarter = gen.generate(workload, seed, max(1, gen.FULL_SIZE[workload] // 4), quarter_dir)
    tally = Tally()

    # The guard doubles as the warm-up: it compiles kgunits' bytecode.
    guard, hashes = guard_op(workload, work / "guard")
    guard["problems"] += _hash_problems(workload, hashes)
    tally.add("guard", guard)

    # Local names with '.' do not round-trip through TriG (a known defect).
    # The probe runs once, apart from the counted operations, so that its
    # outcome shows without making them fail.
    probe = run_op(full_dir, full["probe_argv"], config)
    probe_failed = int(bool(probe["problems"]))
    print(f"# {workload} probe (local names with '.'): "
          + (f"fails: {probe['problems'][0]}" if probe_failed else "passes"))

    plain, traced, traced_quarter = [], [], []
    # The first seconds of load run faster on a core that was idle before;
    # operations started then are checked and counted but not timed.
    measure_from = time.monotonic() + WARMUP_S
    deadline = measure_from + seconds
    while True:
        timed = time.monotonic() >= measure_from
        op = tally.add("op", checked(run_op(full_dir, full["argv"], config), full, full_dir))
        if timed:
            plain.append(op)
        if trace and timed:
            traced.append(tally.add("traced op", checked(
                run_op(full_dir, full["argv"], config, spans=True), full, full_dir)))
            traced_quarter.append(tally.add("traced quarter op", checked(
                run_op(quarter_dir, quarter["argv"], config, spans=True), quarter, quarter_dir)))
        if time.monotonic() >= deadline and plain:
            break

    print(f"# {workload} seed={seed}: {len(plain)} timed full-size operations, "
          f"{tally.attempted} operations, {tally.failed} failed")
    for problem, count in tally.problems.most_common(8):
        print(f"# {count}x {problem}")

    if not trace:
        metrics = {
            "setup_s": (_trimmed_mean([op["setup_s"] for op in plain if "setup_s" in op]), "s"),
            "wall_s": (_trimmed_mean([op["wall_s"] for op in plain]), "s"),
            "peak_rss_mb": (_median([op["rss_mb"] for op in plain]), "MB"),
        }
    else:
        metrics = layer_metrics(plain, traced, traced_quarter)
        metrics["probe.dotted_name_failures"] = (probe_failed, "count")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(plain: list[dict], traced: list[dict], quarter: list[dict]) -> dict:
    per_op = [tracer.op_metrics(op["spans"]) for op in traced if "spans" in op]
    metrics = {name: (_median([m[name] for m in per_op]), unit_of(name))
               for name in tracer.op_metrics([])}
    full_layers = [tracer.layer_self(op["spans"]) for op in traced if "spans" in op]
    quarter_layers = [tracer.layer_self(op["spans"]) for op in quarter if "spans" in op]
    for layer in tracer.EXP_LAYERS:
        metrics[f"{layer}.exp"] = (tracer.exponent(
            _median([m[layer] for m in full_layers]),
            _median([m[layer] for m in quarter_layers])), "exponent")
    metrics["trace.overhead_s"] = (
        _trimmed_mean([op["wall_s"] for op in traced])
        - _trimmed_mean([op["wall_s"] for op in plain]), "s")
    metrics["trace.accounted_share"] = (_median([
        sum(tracer.self_times(op["spans"])) / op["wall_s"] for op in traced if "spans" in op
    ]), "ratio")
    wrapped = traced[0].get("wrapped", []) if traced else []
    missing = tracer.missing_names(wrapped)
    if missing:
        print(f"# traced names missing: {', '.join(missing)}")
    metrics["trace.missing_names"] = (len(missing), "count")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith("cli.stage_s."):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def record_hashes(work: Path):
    recorded = {}
    for workload in gen.WORKLOADS:
        op, hashes = guard_op(workload, work / workload)
        if op["problems"]:
            raise SystemExit(f"{workload} guard fails its checks: {op['problems']}")
        recorded[workload] = hashes
    HASHES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "kgunits" / "__init__.py").is_file():
        print(f"kgunits source not found under {SRC}", file=sys.stderr)
        return 2
    if not args.record_hashes and not args.workload:
        parser.error("--workload is required")
    work = ROOT / ".perfbench" / f"{os.getpid()}"
    try:
        if args.record_hashes:
            record_hashes(work)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
