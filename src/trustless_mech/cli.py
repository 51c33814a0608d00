"""Scenario runner: executes runs, writes reports, checks beacon uniformity.

Subcommands:
  run               one scenario file, honest vs. manipulated, both modes
  attack-suite      every bundled scenario, with a coalition-gain summary
  beacon-uniformity chi-square check of the hash stream behind the honest draw

Reports are written as JSON plus an aligned text table. They contain no
timestamps and all numbers are exact strings, so the same scenario and seed
always produce byte-identical files.

Only the standard library and this package are imported, so no command pays
for a heavy import: the chi-square p-value is computed exactly in
``beacon.chi_square_test``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import repeat
from pathlib import Path

from .adversaries import (
    ExecutionMode,
    ManipulationReport,
    exact_str,
    run_with_adversary,
)
from .beacon import U64_MASK, chi_square_test, uniformity_histogram
from .errors import InvariantViolation, ValidationError
from .scenario import (
    Scenario,
    bundled_scenario_names,
    load_bundled,
    load_scenario,
)

OUT_DIR_ENV = "TRUSTLESS_MECH_OUT"
DEFAULT_OUT = "reports"
SIGNIFICANCE = 0.001

ALL_MODES = (ExecutionMode.CENTRALIZED_SEQUENTIAL, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)


def _out_dir(arg: str | None) -> Path:
    return Path(arg or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT)


def _run_modes(scenario: Scenario, mode_arg: str | None) -> dict[str, ManipulationReport]:
    modes = ALL_MODES if mode_arg is None else (ExecutionMode(mode_arg),)
    return {mode.value: run_with_adversary(scenario, mode) for mode in modes}


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _gain_rows(mode: str, doc: dict) -> list[list[str]]:
    """Table rows of one mode's ``ManipulationReport.canonical()``, whose
    ``gains`` are already in party order."""
    revenue, utilities = doc["revenue"], doc["utilities"]
    absolutes = {"seller": (revenue["honest"], revenue["manipulated"])}
    manipulated = utilities["manipulated"]
    for agent, honest in utilities["honest"].items():
        absolutes[f"agent:{agent}"] = (honest, manipulated[agent])
    return [
        [mode, party, *absolutes.get(party, (".", ".")), delta]
        for party, delta in doc["gains"].items()
    ]


def _report_text(scenario: Scenario, docs: dict[str, dict]) -> str:
    """The text report, read from each mode's ``ManipulationReport.canonical()``."""
    strategy = scenario.adversary.kind.value if scenario.adversary else "none"
    rows: list[list[str]] = []
    for mode, doc in docs.items():
        rows.extend(_gain_rows(mode, doc))
    notes: list[str] = []
    for mode, doc in docs.items():
        for note in (*doc["notes"], *doc["honest"]["notes"], *doc["manipulated"]["notes"]):
            tagged = f"[{mode}] {note}"
            if tagged not in notes:
                notes.append(tagged)
    parts = [
        f"scenario: {scenario.name}",
        f"mechanism: {scenario.mechanism.tag.value}",
        f"strategy: {strategy}",
        "",
        _format_table(["mode", "party", "honest", "manipulated", "delta"], rows),
    ]
    if notes:
        parts.extend(["", "notes:"])
        parts.extend(f"  {note}" for note in notes)
    return "\n".join(parts) + "\n"


_CONTAINERS = (dict, list, tuple)


@cache
def _flat_encoder(pad: str) -> json.JSONEncoder:
    """The C encoder for a container of scalars at indentation ``pad``:
    the newline and the next level's indent go into its item separator."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad + "  ", ": "))


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    documents whose keys are all ``str``.

    With ``indent`` set the stdlib takes its pure-Python encoder, so each
    container of scalars goes through the C encoder instead (one per
    depth, see ``_flat_encoder``); only containers of containers are
    joined here.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value)
    inner = pad + "  "
    children = value.values() if isinstance(value, dict) else value
    if not any(map(isinstance, children, repeat(_CONTAINERS))):
        flat = _flat_encoder(pad).encode(value)
        return f"{flat[0]}\n{inner}{flat[1:-1]}\n{pad}{flat[-1]}"
    if isinstance(value, dict):
        parts = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        parts = [_json_text(v, inner) for v in value]
        brackets = "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{brackets[1]}"


def _write_pair(out_dir: Path, stem: str, doc: dict, text: str) -> tuple[Path, Path]:
    """Write ``<stem>.json`` and ``<stem>.txt`` into ``out_dir``; return both paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path, txt_path = out_dir / f"{stem}.json", out_dir / f"{stem}.txt"
    json_path.write_text(_json_text(doc) + "\n")
    txt_path.write_text(text, encoding="utf-8")
    return json_path, txt_path


def _write_reports(
    out_dir: Path, scenario: Scenario, reports: dict[str, ManipulationReport]
) -> tuple[str, tuple[Path, Path]]:
    """Write the scenario's JSON and text reports; return the text and both paths."""
    docs = {mode: report.canonical() for mode, report in reports.items()}
    doc = {"scenario": scenario.name, "mechanism": scenario.mechanism.tag.value, "modes": docs}
    text = _report_text(scenario, docs)
    return text, _write_pair(out_dir, f"{scenario.name}.report", doc, text)


def _echo(text: str, paths: tuple[Path, Path]) -> None:
    """Print a written report's text, then where it went."""
    sys.stdout.write(text)
    for path in paths:
        print(f"wrote {path}")


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    _echo(*_write_reports(_out_dir(args.out), scenario, _run_modes(scenario, args.mode)))
    return 0


def cmd_attack_suite(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    summary_rows = []
    for name in bundled_scenario_names():
        scenario = load_bundled(name)
        reports = _run_modes(scenario, None)
        _write_reports(out_dir, scenario, reports)
        strategy = scenario.adversary.kind.value if scenario.adversary else "none"
        summary_rows.append(
            {
                "scenario": scenario.name,
                "strategy": strategy,
                "centralized": exact_str(reports["centralized"].gain_per_party["coalition"]),
                "decentralized": exact_str(reports["decentralized"].gain_per_party["coalition"]),
            }
        )

    table = _format_table(
        ["scenario", "strategy", "centralized", "decentralized"],
        [[r["scenario"], r["strategy"], r["centralized"], r["decentralized"]] for r in summary_rows],
    )
    text = (
        "coalition gain per strategy and execution mode\n"
        "(the decentralized column is the sealed-input claim: all zeros)\n\n"
        + table
        + "\n"
    )
    _echo(text, _write_pair(out_dir, "summary", {"rows": summary_rows}, text))
    return 0


def cmd_beacon_uniformity(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if not 0 <= args.seed <= U64_MASK:
        raise ValidationError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    counts = uniformity_histogram(args.trials, seed=args.seed)
    statistic, p_value = chi_square_test(counts)
    print(f"trials: {args.trials}")
    print(f"bins: {len(counts)}")
    print(f"chi-square statistic: {statistic:.4f}")
    print(f"p-value: {p_value:.6f}")
    if p_value >= SIGNIFICANCE:
        print(f"PASS: consistent with uniform output (significance {SIGNIFICANCE})")
        return 0
    print(f"FAIL: uniformity rejected at significance {SIGNIFICANCE}")
    return 2


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves no state in the parser, so
    in-process callers of ``main`` share one."""
    parser = argparse.ArgumentParser(
        prog="trustless-mech",
        description="commit-reveal mechanism simulator: honest runs, manipulations, reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file and write its reports")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument(
        "--mode",
        choices=[m.value for m in ALL_MODES],
        default=None,
        help="restrict to one execution mode (default: run both)",
    )
    p_run.add_argument(
        "--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or ./{DEFAULT_OUT})"
    )

    p_suite = sub.add_parser(
        "attack-suite", help="run every bundled scenario in both modes and summarize"
    )
    p_suite.add_argument(
        "--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or ./{DEFAULT_OUT})"
    )

    p_beacon = sub.add_parser(
        "beacon-uniformity", help="64-bin chi-square: samples the hash stream, blind to mod 2^64"
    )
    p_beacon.add_argument("--trials", type=int, required=True, help="number of aggregations")
    p_beacon.add_argument("--seed", type=int, default=0, help="stream seed for the honest draws")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "attack-suite": cmd_attack_suite,
        "beacon-uniformity": cmd_beacon_uniformity,
    }
    try:
        return handlers[args.command](args)
    # OSError: an unwritable --out, or a report name the filesystem refuses;
    # UnicodeError: a path or report text the locale cannot encode
    except (ValidationError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
