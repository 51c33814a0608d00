"""Benchmark of the commit-reveal simulator's command-line entry point.

Run from the root of a checkout:

    python3 bench/run.py --workload auction_commit_reveal --seed 7 --seconds 20 --trace 0

The seed generates the workload's scenario files (or beacon seeds) here,
before the measured interpreter starts; `child.py` then calls
``trustless_mech.cli.main`` in a closed loop for ``--seconds`` and checks
every output. With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
traced run. Workloads, metrics and their expected interactions are listed
in ``bench/design.json``; the command exits non-zero when an output check
or a pinned digest fails.

    python3 bench/run.py --repin

recomputes ``bench/pins.json``, the sha256 digests of the default-seed gate
op, its generated inputs, and the ``attack-suite`` output. Repin only for a
change that is meant to alter report bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibration
import workloads
from tracer import COMMIT_PATH, LAYERS, layer_metric

BENCH_DIR = Path(__file__).resolve().parent
PINS = BENCH_DIR / "pins.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7  # fresh interpreters per run whose median is setup_s
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
CHILD_MARGIN_S = 120  # a child is killed this long after its requested --seconds


def prepare(root: Path, workload: str, seed: int, tag: str) -> tuple[Path, str]:
    """Write the run's inputs and manifest; return the work dir and the
    digest of the default-seed inputs (the generator's determinism pin)."""
    files, ops = workloads.build(workload, seed)
    if (files, ops) != workloads.build(workload, seed):
        raise SystemExit("error: the input generator is not deterministic")
    gate_files, gate_ops = workloads.build(workload, DEFAULT_SEED)

    work = root / ".bench_work" / f"{workload}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    scenario_files = []
    for directory, group in (("inputs", files), ("gate_inputs", gate_files)):
        (work / directory).mkdir(parents=True)
        for name, data in group.items():
            (work / directory / name).write_bytes(data)
            scenario_files.append(f"{directory}/{name}")

    def placed(op: list[str], directory: str, group: dict) -> list[str]:
        return [f"{directory}/{arg}" if arg in group else arg for arg in op]

    manifest = {
        "workload": workload,
        "seed": seed,
        "src": str(root / "src"),
        "ops": [placed(op, "inputs", files) for op in ops],
        "gate_op": placed(gate_ops[0], "gate_inputs", gate_files),
        "scenario_files": scenario_files,
    }
    (work / "manifest.json").write_text(json.dumps(manifest, indent=2))
    h = hashlib.sha256(json.dumps(gate_ops).encode())
    for name in sorted(gate_files):
        h.update(b"\0" + name.encode() + b"\0" + gate_files[name])
    return work, h.hexdigest()


def run_child(work: Path, seconds: float, trace: int, probe: bool = False) -> tuple[float, dict | None, int]:
    """Start a fresh interpreter; return (seconds until it was ready, its
    result line, its exit code). The child is always waited for."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(seconds + CHILD_MARGIN_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready":
        return ready_s, None, code or 1
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines and not probe else None, code


def measure_setup(work: Path) -> tuple[list[float], list[float]] | None:
    """Start-to-ready times of ``SETUP_SAMPLES`` fresh interpreters, raw and
    scaled by the reference processes run before and after each one; None if
    a probe fails."""
    raw, scaled = [], []
    before = calibration.timed_reference_process()
    for _ in range(SETUP_SAMPLES):
        ready_s, _, code = run_child(work, 0, 0, probe=True)
        if code != 0:
            print(f"error: set-up probe exited {code}", file=sys.stderr)
            return None
        after = calibration.timed_reference_process()
        raw.append(ready_s)
        scaled.append(ready_s * 2 * calibration.REFERENCE_PROCESS_S / (before + after))
        before = after
    return raw, scaled


def end_to_end(result: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    """Op times are scaled to the calibration kernel's reference speed and
    set-up times to the reference process's; the notes give both raw."""
    raw = sorted(result["latencies_s"])
    latencies = sorted(calibration.scaled(result["latencies_s"], result["kernel_s"]))
    n = len(latencies)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    metrics = {
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (latencies[tail_index] * 1000, "ms"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }
    notes = [
        f"ops: {n} in {result['busy_s']:.2f} s (closed loop, 1 client)",
        f"op_tail_ms is p{100 * (tail_index + 1) / n:.1f}: {n - 1 - tail_index} of {n} ops beyond it",
        f"calibration kernel: median {statistics.median(result['kernel_s']) * 1000:.3f} ms "
        f"over {len(result['kernel_s'])} runs, reference {calibration.REFERENCE_S * 1000:g} ms",
        f"unscaled: op_p50_ms {statistics.median(raw) * 1000:.6g}, op_tail_ms {raw[tail_index] * 1000:.6g}, "
        f"ops_per_s {n / result['busy_s']:.6g}",
        f"unscaled setup_s {statistics.median(setup[0]):.6g}, samples: {', '.join(f'{s:.3f}' for s in setup[0])}",
    ]
    return metrics, notes


def declared_metrics(root: Path, trace: int) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def repin(root: Path) -> int:
    pins: dict = {}
    for workload in workloads.WORKLOADS:
        work, inputs_digest = prepare(root, workload, DEFAULT_SEED, "repin")
        _, result, _ = run_child(work, 0, 0)
        if result is None or result["failed"]:
            print(f"error: {workload} gate ops failed: {result and result['failures']}", file=sys.stderr)
            return 1
        pins[workload] = {"gate": result["digests"]["gate"], "inputs": inputs_digest}
        pins["attack_suite"] = result["digests"]["attack_suite"]
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true", help="recompute bench/pins.json")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "trustless_mech" / "cli.py").is_file():
        print(f"error: no src/trustless_mech under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.repin:
        return repin(root)
    if args.workload is None:
        parser.error("--workload is required")

    work, inputs_digest = prepare(root, args.workload, args.seed, f"trace{args.trace}")
    setup = None
    if not args.trace:
        setup = measure_setup(work)
        if setup is None:
            return 1
    _, result, code = run_child(work, args.seconds, args.trace)
    if result is None or code != 0:
        print(f"error: measured interpreter exited {code} without a result", file=sys.stderr)
        return 1
    (work / "result.json").write_text(json.dumps({"child": result, "setup": setup}))

    pins = json.loads(PINS.read_text())
    failures = list(result["failures"])
    expected = {
        "attack-suite output": (result["digests"]["attack_suite"], pins["attack_suite"]),
        "default-seed gate op output": (result["digests"]["gate"], pins[args.workload]["gate"]),
        "default-seed inputs": (inputs_digest, pins[args.workload]["inputs"]),
    }
    mismatched = [what for what, (got, pinned) in expected.items() if got != pinned]
    failures += [f"{what} differs from the pinned digest" for what in mismatched]
    failed = result["failed"] + len(mismatched)
    attempted = result["attempted"]

    if args.trace:
        metrics = dict(result["layers"])
        notes = [f"heaviest layers: {heaviest_layers(metrics)}"]
    else:
        metrics, notes = end_to_end(result, setup)
        notes.append(f"fail_ratio: {failed / attempted:.4f} ({failed} of {attempted} ops)")
    declared = declared_metrics(root, args.trace)
    if sorted(metrics) != sorted(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + failures:
        print(line)
    for name in declared:
        value, unit = metrics[name]
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0 if failed == 0 else 1


def heaviest_layers(metrics: dict) -> str:
    """The three largest layer self times, counting the commit path as one layer."""
    names = [layer_metric(layer) for layer in LAYERS if layer not in COMMIT_PATH]
    ranked = sorted(names + ["commit_path.self_ms"], key=lambda name: -metrics[name][0])
    return ", ".join(f"{name} {metrics[name][0]:.1f} ms" for name in ranked[:3])


if __name__ == "__main__":
    raise SystemExit(main())
