"""The measured interpreter of one benchmark run.

Started fresh by `run.py` inside the run's work directory, which holds
``manifest.json`` and the generated inputs. It imports the package from the
checkout's ``src``, runs one untimed warm-up op, prints ``ready`` (the
parent times set-up up to that line), then runs the workload's ops in a
closed loop: one client, one thread, the next op only after the previous
one returns. Every op calls ``trustless_mech.cli.main`` in process, exactly
as the ``trustless-mech`` console script would.

After the loop it reads the peak memory, then checks every op's output,
reruns the first op, runs the default-seed gate op and ``attack-suite`` for
the pinned digests, and prints one JSON line of raw results for the parent.

Usage: python3 child.py WORKDIR --seconds S --trace 0|1 [--probe]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration
import tracer as tracing
import workloads

SIGNIFICANCE = 0.001  # the CLI's verdict threshold for beacon-uniformity
SCALING_AGENTS = (100, 1000, 10000)
SCALING_REPEATS = 3


@dataclass
class Op:
    argv: list[str]
    out: str
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float
    trace: tracing.OpTrace | None = None
    problems: list[str] = field(default_factory=list)


def run_op(cli, argv: list[str], out: str) -> Op:
    if argv[0] != "beacon-uniformity":
        argv = [*argv, "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return Op(argv, out, code, stdout.getvalue(), stderr.getvalue(), error, seconds)


@dataclass
class Loop:
    ops: list[Op]
    busy_s: float  # timed phase minus the calibration kernels run in it
    kernel_s: list[float]

    def scaled_p50(self) -> float:
        latencies = [op.seconds for op in self.ops]
        return statistics.median(calibration.scaled(latencies, self.kernel_s))


def closed_loop(cli, ops: list[list[str]], seconds: float, tracer=None) -> Loop:
    """Run ops back to back for ``seconds`` (at least one op), with a
    calibration kernel before the first op and after each one."""
    loop = Loop([], 0.0, [calibration.timed_kernel()])
    start = perf_counter()
    deadline = start + seconds
    while not loop.ops or perf_counter() < deadline:
        slot = len(loop.ops) % len(ops)
        if tracer is not None:
            tracer.begin_op(record=not loop.ops)
        op = run_op(cli, ops[slot], f"ops/{slot}")
        if tracer is not None:
            op.trace = tracer.end_op()
        loop.ops.append(op)
        loop.kernel_s.append(calibration.timed_kernel())
    loop.busy_s = perf_counter() - start - sum(loop.kernel_s[1:])
    return loop


def output_digest(op: Op) -> str:
    """sha256 over an op's stdout and every file it wrote, in name order."""
    h = hashlib.sha256(op.stdout.encode())
    out = Path(op.out)
    if op.argv[0] != "beacon-uniformity" and out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(b"\0" + path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class Checker:
    """Output checks that hold on any seed; each failure is a reason string."""

    def check(self, op: Op) -> list[str]:
        if op.error is not None:
            return [f"raised {op.error}"]
        problems = []
        if op.stderr:
            problems.append(f"stderr: {op.stderr.strip()[:200]}")
        checks = {"run": self._check_run, "beacon-uniformity": self._check_beacon,
                  "attack-suite": self._check_suite}
        try:
            problems += checks[op.argv[0]](op)
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        return problems

    def _check_run(self, op: Op) -> list[str]:
        if op.code != 0:
            return [f"exit code {op.code}"]
        doc = json.loads(Path(op.argv[1]).read_text())
        name = doc["name"]
        json_path = Path(op.out) / f"{name}.report.json"
        txt_path = Path(op.out) / f"{name}.report.txt"
        expected = f"{txt_path.read_text()}wrote {json_path}\nwrote {txt_path}\n"
        problems = [] if op.stdout == expected else ["stdout differs from the written text report"]
        modes = json.loads(json_path.read_text())["modes"]
        decentralized = modes["decentralized"]
        if decentralized["gains"]["coalition"] != "0":
            problems.append(f"decentralized coalition gain {decentralized['gains']['coalition']}")
        miner = doc.get("miner")
        if miner is None:
            if modes["centralized"]["honest"] != decentralized["honest"]:
                problems.append("centralized and decentralized honest runs differ")
        else:
            held = set(miner["targets"]) if miner["until"] >= doc["schedule"]["reveal_deadline"] else set()
            for run in ("honest", "manipulated"):
                if set(decentralized[run]["excluded"]) != held:
                    problems.append(f"{run} run excludes {len(decentralized[run]['excluded'])} agents, {len(held)} held past the deadline")
        return problems

    def _check_beacon(self, op: Op) -> list[str]:
        """A FAIL verdict is a correct output; only its consistency is checked."""
        trials = int(op.argv[op.argv.index("--trials") + 1])
        lines = op.stdout.splitlines()
        if len(lines) != 5 or lines[0] != f"trials: {trials}" or lines[1] != "bins: 64":
            return [f"unexpected beacon-uniformity output {lines[:2]}"]
        p_value = float(lines[3].removeprefix("p-value: "))
        passed = p_value >= SIGNIFICANCE
        problems = []
        if not lines[4].startswith("PASS" if passed else "FAIL"):
            problems.append(f"verdict {lines[4]!r} contradicts p-value {p_value}")
        if op.code != (0 if passed else 2):
            problems.append(f"exit code {op.code} for verdict {lines[4][:4]}")
        return problems

    def deep_check_beacon(self, op: Op) -> list[str]:
        """Recompute the histogram behind one op: it totals the trials and
        gives the printed chi-square statistic."""
        from trustless_mech.beacon import uniformity_histogram

        trials = int(op.argv[op.argv.index("--trials") + 1])
        seed = int(op.argv[op.argv.index("--seed") + 1])
        counts = uniformity_histogram(trials, seed=seed)
        expected = trials / len(counts)
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        problems = []
        if sum(counts) != trials:
            problems.append(f"histogram totals {sum(counts)}, not {trials}")
        if op.stdout.splitlines()[2] != f"chi-square statistic: {statistic:.4f}":
            problems.append(f"printed statistic is not {statistic:.4f}")
        return problems

    def _check_suite(self, op: Op) -> list[str]:
        if op.code != 0:
            return [f"exit code {op.code}"]
        rows = json.loads((Path(op.out) / "summary.json").read_text())["rows"]
        return [
            f"attack-suite {row['scenario']}: decentralized gain {row['decentralized']}"
            for row in rows
            if row["decentralized"] != "0"
        ]


def scaling_curve(seed: int) -> dict[str, tuple[float, str]]:
    """execute_run cost per agent in both modes at growing agent counts (untraced)."""
    from trustless_mech.adversaries import ExecutionMode, execute_run
    from trustless_mech.scenario import scenario_from_dict

    out = {}
    for n in SCALING_AGENTS:
        # slot 1: second-price, honest miner, no beacon
        scenario = scenario_from_dict(workloads.auction_scenario(seed, 1, n_agents=n))
        for mode in ExecutionMode:
            samples = []
            for _ in range(SCALING_REPEATS):
                t0 = perf_counter()
                execute_run(scenario, mode)
                samples.append(perf_counter() - t0)
            out[f"scaling.n{n}.{mode.value}_us_per_agent"] = (statistics.median(samples) / n * 1e6, "us/agent")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("work")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    os.chdir(args.work)
    manifest = json.loads(Path("manifest.json").read_text())
    src = Path(manifest["src"]).resolve()
    sys.path.insert(0, str(src))
    from trustless_mech import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"imported {cli.__file__}, not the checkout's {src}", file=sys.stderr)
        return 3
    ops = manifest["ops"]
    checker = Checker()
    warmup = run_op(cli, ops[0], "warmup")
    warmup.problems = checker.check(warmup)
    print("ready", flush=True)
    if args.probe:
        return 1 if warmup.problems else 0

    result: dict = {}
    if args.trace:
        result["layers"] = scaling_curve(manifest["seed"])
        untraced = closed_loop(cli, ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        loop = closed_loop(cli, ops, args.seconds / 2, tracer)
        timed = untraced.ops + loop.ops
    else:
        loop = closed_loop(cli, ops, args.seconds)
        timed = loop.ops
    # Read before any check or gate op runs, so only the program's work counts.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for op in timed:
        op.problems = checker.check(op)
    if ops[0][0] == "beacon-uniformity":
        timed[0].problems += checker.deep_check_beacon(timed[0])

    first_digest = output_digest(timed[0])
    gates = {
        "rerun": run_op(cli, ops[0], timed[0].out),
        "gate": run_op(cli, manifest["gate_op"], "gate"),
        "attack_suite": run_op(cli, ["attack-suite"], "suite"),
    }
    if output_digest(gates["rerun"]) != first_digest:
        gates["rerun"].problems.append("rerun of the first op wrote different bytes")
    for op in gates.values():
        op.problems += checker.check(op)
    if gates["gate"].argv[0] == "beacon-uniformity":
        gates["gate"].problems += checker.deep_check_beacon(gates["gate"])

    from trustless_mech.scenario import ScenarioError, load_scenario

    load_problems = []
    for path in manifest["scenario_files"]:
        try:
            load_scenario(path)
        except ScenarioError as exc:
            load_problems.append(f"load_scenario {path}: {exc}")

    every = [warmup, *timed, *gates.values()]
    failures = [f"{' '.join(op.argv)}: {p}" for op in every for p in op.problems] + load_problems
    result.update(
        latencies_s=[op.seconds for op in loop.ops],
        busy_s=loop.busy_s,
        kernel_s=loop.kernel_s,
        attempted=len(every),
        failed=sum(1 for op in every if op.problems) + len(load_problems),
        failures=failures[:20],
        digests={name: output_digest(op) for name, op in gates.items() if name != "rerun"},
        maxrss_kb=maxrss_kb,
    )
    if args.trace:
        traced = loop.ops
        traces = [op.trace for op in traced]
        untraced_p50 = untraced.scaled_p50()
        traced_p50 = loop.scaled_p50()
        # The self times must account for each op's wall time as run_op timed it.
        unaccounted = max(
            abs(op.seconds - sum(st[0] for st in op.trace.stats.values())) / op.seconds
            for op in traced
        )
        if unaccounted > 0.01:
            result["failed"] += 1
            result["failures"].append(f"self times miss {unaccounted:.2%} of an op's wall time")
        report_bytes = [
            len(op.stdout.encode()) + sum(p.stat().st_size for p in Path(op.out).glob("*"))
            for op in traced
            if op.argv[0] == "run"
        ] or [len(op.stdout.encode()) for op in traced]
        result["layers"].update(tracing.per_layer_metrics(traces))
        result["layers"].update({
            "cli.report_bytes": (statistics.fmean(report_bytes), "bytes"),
            "trace.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
            "trace.unaccounted_ratio": (unaccounted, "ratio"),
            "trace.traced_ops": (len(traced), "count"),
        })
        mismatched = sum(t.counters["beacon.histogram_total_mismatch"] for t in traces)
        if mismatched:
            result["failed"] += mismatched
            result["failures"].append(f"{mismatched} histograms do not total their trials")
        Path("spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": traces[0].spans}
        ))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
