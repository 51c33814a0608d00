"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion. Every numeric claim here is exact (integers and
rationals); the only statistical test is the beacon uniformity chi-square,
which carries its stated significance level.
"""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import scipy.stats

from trustless_mech import (
    AgentSpec,
    ChainState,
    CommitOpening,
    ContractState,
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    LotteryMode,
    MechanismKind,
    MechanismTag,
    PhaseSchedule,
    Scenario,
    ScenarioError,
    SchoolSpec,
    SlotCTRs,
    auction_utility,
    bundled_scenario_names,
    chi_square_test,
    dump_scenario,
    load_bundled,
    make_commitment,
    run_with_adversary,
    second_price,
    uniformity_histogram,
)
from trustless_mech.auctions import Bid
from trustless_mech.cli import main

CENTRAL = ExecutionMode.CENTRALIZED_SEQUENTIAL
DECENTRAL = ExecutionMode.DECENTRALIZED_COMMIT_REVEAL


def _check(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_gsp_leak_numbers_exact():
    report = run_with_adversary(load_bundled("gsp_demote_top"), CENTRAL)
    ok = (
        report.honest_utilities["ada"] == Fraction(1)
        and report.manipulated_utilities["ada"] == Fraction(36, 5)
        and report.gain_per_party["coalition"] == Fraction(31, 5)
    )
    _check(ok, "criterion 1: GSP demotion utilities 1 -> 7.2, gain 6.2, exact rationals")


def test_criterion_2_school_choice_manipulation_exact():
    report = run_with_adversary(load_bundled("boston_informed"), CENTRAL)
    honest = report.honest.matching.assignment
    manipulated = report.manipulated.matching.assignment
    ok = (
        honest == {"Alice": "Oxford", "Bob": None, "Carol": "Cambridge"}
        and manipulated["Bob"] == "Cambridge"
        and manipulated["Alice"] == "Oxford"
        and manipulated["Carol"] is None
    )
    _check(ok, "criterion 2: informed misreport flips the Cambridge seat, exact matching")


def test_criterion_3_undercut_formula_on_random_instances():
    rng = random.Random(1003)
    violations = []
    for trial in range(1000):
        n = rng.randrange(2, 6)
        while True:
            amounts = sorted((rng.randrange(0, 1001) for _ in range(n)), reverse=True)
            if amounts[0] > amounts[1] + 1:
                break
        names = [f"a{i}" for i in range(n)]
        order = list(zip(names, amounts))
        rng.shuffle(order)
        if trial % 2 == 0:
            mech = MechanismKind(tag=MechanismTag.FIRST_PRICE)
            kind = LeakStrategyKind.FPA_TELL_TOP_THE_SECOND
        else:
            mech = MechanismKind(tag=MechanismTag.SECOND_PRICE)
            kind = LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP
        scenario = Scenario(
            name=f"undercut-{trial}", seed=trial, mechanism=mech,
            schedule=PhaseSchedule(2, 5),
            agents=tuple(AgentSpec(agent=a, bid=b) for a, b in order),
            adversary=LeakStrategy(kind),
        )
        report = run_with_adversary(scenario, CENTRAL)
        expected = Fraction(amounts[0] - amounts[1] - 1)
        if report.gain_per_party["coalition"] != expected:
            violations.append((trial, report.gain_per_party["coalition"], expected))
    _check(
        not violations,
        "criterion 3: coalition gain == b1 - b2 - 1 on 1000 random FPA/SPA instances "
        f"({len(violations)} violations)",
    )


def _random_scenario(rng: random.Random, index: int) -> Scenario | None:
    """A random scenario with a random adversary, or None where the scenario
    refuses its censor, after checking that the refusal names the field."""
    kind = rng.choice(list(LeakStrategyKind))
    name = f"fuzz-{index}"
    seed = rng.randrange(1 << 32)
    commit_deadline = rng.randrange(2, 5)
    reveal_deadline = commit_deadline + rng.randrange(2, 11)
    schedule = PhaseSchedule(commit_deadline, reveal_deadline)

    def auction_agents(n_min: int) -> tuple[AgentSpec, ...]:
        n = rng.randrange(n_min, 7)
        return tuple(
            AgentSpec(
                agent=f"a{i}",
                bid=rng.randrange(0, 51),
                valuation=rng.choice([None, rng.randrange(0, 51)]),
            )
            for i in range(n)
        )

    if kind is LeakStrategyKind.FPA_TELL_TOP_THE_SECOND:
        mech = MechanismKind(tag=MechanismTag.FIRST_PRICE)
        agents = auction_agents(2)
        strategy = LeakStrategy(kind)
    elif kind is LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP:
        mech = MechanismKind(tag=MechanismTag.SECOND_PRICE)
        agents = auction_agents(2)
        strategy = LeakStrategy(kind)
    elif kind in (LeakStrategyKind.GSP_RAISE_K_PLUS_ONE, LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER):
        k = rng.randrange(1, 3)
        numerators = sorted(rng.sample(range(1, 11), k), reverse=True)
        mech = MechanismKind(
            tag=MechanismTag.GSP,
            ctrs=SlotCTRs(tuple(Fraction(a, 10) for a in numerators)),
        )
        agents = auction_agents(k + 1)
        strategy = LeakStrategy(kind)
    elif kind is LeakStrategyKind.BOSTON_SELL_RANKINGS:
        n_schools = rng.randrange(1, 4)
        school_names = [f"s{i}" for i in range(n_schools)]
        n_agents = rng.randrange(2, 6)
        names = [f"kid{i}" for i in range(n_agents)]
        lottery = rng.random() < 0.4
        if lottery:
            mode = rng.choice([LotteryMode.SINGLE, LotteryMode.PER_SCHOOL])
            schools = tuple(SchoolSpec(s, rng.randrange(0, 3)) for s in school_names)
            mech = MechanismKind(tag=MechanismTag.BOSTON, schools=schools,
                                 priority_mode=mode, with_beacon=True)
        else:
            schools = []
            for s in school_names:
                order = names[:]
                rng.shuffle(order)
                schools.append(SchoolSpec(s, rng.randrange(0, 3), priority=tuple(order)))
            mech = MechanismKind(tag=MechanismTag.BOSTON, schools=tuple(schools))
        agents = tuple(
            AgentSpec(
                agent=a,
                ranking=tuple(rng.sample(school_names, rng.randrange(0, n_schools + 1))),
                contribution=rng.choice([None, rng.randrange(0, 1 << 20)]) if lottery else None,
            )
            for a in names
        )
        strategy = LeakStrategy(kind, target=rng.choice(names))
    else:
        mech = MechanismKind(tag=MechanismTag.BEACON)
        n = rng.randrange(2, 6)
        agents = tuple(
            AgentSpec(agent=f"p{i}", contribution=rng.choice([None, rng.randrange(0, 1 << 30)]))
            for i in range(n)
        )
        # censor window respects the reveal-window length bound, so the
        # delayed reveal still lands inside (T, T']
        strategy = LeakStrategy(
            kind,
            target=f"p{rng.randrange(n)}",
            censor_until=rng.randrange(0, reveal_deadline),
        )
    fields = dict(name=name, seed=seed, mechanism=mech, schedule=schedule, agents=agents,
                  adversary=strategy)
    if kind is LeakStrategyKind.MINER_CENSOR_REVEALS and strategy.censor_until <= commit_deadline:
        # reveals are mined only after the commit deadline, so this censor censors nothing
        with pytest.raises(ScenarioError, match=r"^field 'adversary\.censor_until': "):
            Scenario(**fields)
        return None
    return Scenario(**fields)


def test_criterion_4_commit_reveal_neutralizes_every_strategy():
    violations = []
    for name in bundled_scenario_names():
        report = run_with_adversary(load_bundled(name), DECENTRAL)
        if not report.all_deltas_zero:
            violations.append(("bundled", name))

    rng = random.Random(1004)
    for index in range(100):
        scenario = _random_scenario(rng, index)
        if scenario is None:
            continue
        report = run_with_adversary(scenario, DECENTRAL)
        if not report.all_deltas_zero:
            violations.append(("random", scenario.name, scenario.adversary.kind.value))
    _check(
        not violations,
        "criterion 4: all-zero deltas under commit-reveal, full suite + 100 random "
        f"scenarios ({len(violations)} violations)",
    )


def test_criterion_5_spa_truthfulness_exhaustive():
    violations = 0
    names = ["a0", "a1", "a2"]
    for v0 in range(11):
        for v1 in range(11):
            for v2 in range(11):
                values = (v0, v1, v2)
                truthful = [Bid(names[i], values[i]) for i in range(3)]
                base = second_price(truthful)
                for i in range(3):
                    honest = auction_utility(values[i], names[i], base)
                    for deviation in range(11):
                        if deviation == values[i]:
                            continue
                        moved = list(truthful)
                        moved[i] = Bid(names[i], deviation)
                        outcome = second_price(moved)
                        if auction_utility(values[i], names[i], outcome) > honest:
                            violations += 1
    _check(
        violations == 0,
        "criterion 5: no profitable deviation in any n=3 SPA instance, values and "
        f"deviations 0..10 ({violations} violations)",
    )


def test_criterion_6_beacon_uniformity_chi_square():
    counts = uniformity_histogram(100_000, seed=0)
    result = scipy.stats.chisquare(counts)
    statistic, p_value = chi_square_test(counts)
    assert math.isclose(statistic, result.statistic, rel_tol=1e-12)
    assert math.isclose(p_value, result.pvalue, rel_tol=1e-10)
    _check(
        result.pvalue > 0.001,
        f"criterion 6: 100k-trial histogram mod 64 uniform (chi-square p = {result.pvalue:.4f})",
    )


def test_criterion_7_censorship_window_boundary():
    rng = random.Random(1007)
    violations = []
    for trial in range(1000):
        commit_deadline = rng.randrange(1, 5)
        reveal_deadline = commit_deadline + rng.randrange(1, 12)
        censor_until = rng.randrange(0, reveal_deadline + 5)
        target = f"p{rng.randrange(3)}"
        fields = dict(
            name=f"censor-{trial}", seed=trial,
            mechanism=MechanismKind(tag=MechanismTag.BEACON),
            schedule=PhaseSchedule(commit_deadline, reveal_deadline),
            agents=tuple(
                AgentSpec(agent=f"p{i}", contribution=rng.randrange(0, 1 << 30))
                for i in range(3)
            ),
            adversary=LeakStrategy(
                LeakStrategyKind.MINER_CENSOR_REVEALS, target=target, censor_until=censor_until
            ),
        )
        if censor_until <= commit_deadline:
            # reveals are mined only after the commit deadline, so the scenario
            # refuses a censor that stops by then: it could change nothing
            with pytest.raises(ScenarioError, match=r"^field 'adversary\.censor_until': "):
                Scenario(**fields)
            continue
        report = run_with_adversary(Scenario(**fields), DECENTRAL)
        differs = report.honest.canonical() != report.manipulated.canonical()

        # the reveal goes out at the commit deadline T, so it clears the
        # censor exactly when some height in (T, T'] exceeds censor_until
        should_differ = censor_until >= reveal_deadline
        if differs != should_differ:
            violations.append((trial, censor_until, reveal_deadline, differs))
        # the criterion's two stated clauses, which the boundary above implies:
        if censor_until > reveal_deadline and not differs:
            violations.append((trial, "past-deadline censorship left the outcome intact"))
        window_bound_ok = reveal_deadline - commit_deadline >= censor_until - commit_deadline + 1
        if window_bound_ok and differs:
            violations.append((trial, "window satisfied the length bound yet the outcome moved"))
    _check(
        not violations,
        "criterion 7: outcome differs iff the censor window covers the reveal deadline, "
        f"1000 randomized schedules ({len(violations)} violations)",
    )


def test_criterion_8_commitment_binding_under_mutation():
    rng = random.Random(1008)
    schedule = PhaseSchedule(2, 6)
    violations = 0
    for trial in range(10_000):
        payload = rng.randbytes(rng.randrange(1, 24))
        salt = rng.randbytes(32)
        opening = CommitOpening(payload=payload, salt=salt)
        state = ContractState("bind", schedule)
        state.accept_commit(1, "agent", make_commitment("agent", "bind", opening))

        mutated_payload, mutated_salt = bytearray(payload), bytearray(salt)
        mode = rng.randrange(3)
        if mode == 0:
            mutated_payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        elif mode == 1:
            mutated_salt[rng.randrange(32)] ^= 1 << rng.randrange(8)
        else:
            mutated_payload = bytearray(rng.randbytes(len(payload)))
            mutated_salt = bytearray(rng.randbytes(32))
            if bytes(mutated_payload) == payload and bytes(mutated_salt) == salt:
                mutated_payload[0] ^= 0xFF
        mutated = CommitOpening(payload=bytes(mutated_payload), salt=bytes(mutated_salt))
        if (mutated.payload, mutated.salt) == (payload, salt):
            continue

        state.accept_reveal(3, "agent", mutated)
        if "agent" in state.reveals or "agent" not in state.excluded:
            violations += 1
        settlement = state.finalize(6)
        if settlement.payloads != () or settlement.excluded != frozenset({"agent"}):
            violations += 1
    _check(
        violations == 0,
        "criterion 8: every mutated opening is rejected and its agent excluded, "
        f"10000 randomized mutations ({violations} violations)",
    )


def test_criterion_9_reports_are_byte_identical_across_reruns(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for name in bundled_scenario_names():
        scenario_path = tmp_path / f"{name}.json"
        dump_scenario(load_bundled(name), scenario_path)
        for out_name in ["first", "second"]:
            code = main(["run", str(scenario_path), "--out", str(tmp_path / out_name)])
            assert code == 0
        for suffix in ["report.json", "report.txt"]:
            a = (tmp_path / "first" / f"{name}.{suffix}").read_bytes()
            b = (tmp_path / "second" / f"{name}.{suffix}").read_bytes()
            if a != b:
                mismatches.append(f"{name}.{suffix}")
    capsys.readouterr()
    _check(
        not mismatches,
        f"criterion 9: byte-identical reports across reruns of every bundled scenario "
        f"({len(mismatches)} mismatches)",
    )


def test_attack_suite_summary_is_also_deterministic(tmp_path, monkeypatch, capsys):
    # companion to criterion 9 for the aggregate command
    monkeypatch.chdir(tmp_path)
    for out_name in ["sa", "sb"]:
        assert main(["attack-suite", "--out", str(tmp_path / out_name)]) == 0
    capsys.readouterr()
    for fname in ["summary.json", "summary.txt"]:
        assert (tmp_path / "sa" / fname).read_bytes() == (tmp_path / "sb" / fname).read_bytes()


# sha256 over the attack-suite output files in name order, each framed by
# its name; recompute only for a change meant to alter report bytes
ATTACK_SUITE_SHA256 = "dc47c6fec4b9c5e7d006c25023a51e6fddcdd0e6cfe59c97f3c901f101e67acd"


def test_attack_suite_output_matches_the_pinned_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "suite"
    assert main(["attack-suite", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(b"\0" + path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == ATTACK_SUITE_SHA256


ROOT = Path(__file__).resolve().parents[1]


def ci_summary_pin() -> str:
    """The `summary.txt` digest the installed-package CI job checks with
    `sha256sum --check`."""
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    pins = re.findall(r'echo "([0-9a-f]{64})  suite/summary\.txt" \| sha256sum --check',
                      workflow.read_text())
    assert len(pins) == 1
    return pins[0]


def test_attack_suite_summary_matches_the_digest_the_ci_workflow_pins(tmp_path, monkeypatch, capsys):
    pin = ci_summary_pin()
    monkeypatch.chdir(tmp_path)
    assert main(["attack-suite", "--out", "suite"]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "suite" / "summary.txt").read_bytes()).hexdigest() == pin


def test_attack_suite_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # in-process runs share the hash seed pytest started with, so a set order
    # that leaks into a report would show only as a flaky failure there
    runs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "trustless_mech.cli", "attack-suite",
             "--out", "suite"],
            cwd=cwd,
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        suite = cwd / "suite"
        files = {p.relative_to(suite): p.read_bytes() for p in suite.rglob("*") if p.is_file()}
        runs.append((done.stdout, files))
    assert runs[0][1]
    assert runs[0] == runs[1]


# Installs the benchmark's per-layer tracer over the package, then runs two
# commands through the traced `cli.main`; exits 0 only if both exit 0.
TRACED_CLI = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracer
tracer.Tracer().install()
from trustless_mech import cli
codes = [
    cli.main(["attack-suite", "--out", sys.argv[3]]),
    cli.main(["beacon-uniformity", "--trials", "2000"]),
]
sys.exit(0 if codes == [0, 0] else f"exit codes {codes}")
"""


def test_the_benchmark_tracer_installs_and_keeps_the_report_bytes(tmp_path):
    # the traced benchmark wraps names the package must keep, such as
    # HashStream.randbelow, and reads the return shape of contract.drive
    done = subprocess.run(
        [sys.executable, "-c", TRACED_CLI, str(ROOT / "bench"), str(ROOT / "src"), "suite"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256((tmp_path / "suite" / "summary.txt").read_bytes()).hexdigest() == ci_summary_pin()
