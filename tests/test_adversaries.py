"""Operator leak strategies under both execution modes.

The core claim under test: every leak strategy pays off against a
centralized sequential operator and is structurally inert under
commit-reveal execution, where the pre-deadline view holds digests only.
"""

import random
import re
import time
from dataclasses import fields, replace
from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from trustless_mech import (
    AgentInput,
    AgentSpec,
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    LotteryMode,
    MechanismKind,
    MechanismTag,
    MinerPolicy,
    OperatorView,
    PhaseSchedule,
    Scenario,
    SchoolSpec,
    SlotCTRs,
    best_response_ranking,
    boston,
    bundled_scenario_names,
    exact_str,
    load_bundled,
    plan_deviation,
    rank_utility,
    run_with_adversary,
)
from trustless_mech import adversaries, beacon, contract, settlement
from trustless_mech import scenario as scenario_module
from trustless_mech.adversaries import NOTE_NO_MINER, NOTE_SEALED_VIEW
from trustless_mech.errors import InvariantViolation, ValidationError
from trustless_mech.scenario import ScenarioError
from trustless_mech.school_choice import first_round_admissions

CENTRAL = ExecutionMode.CENTRALIZED_SEQUENTIAL
DECENTRAL = ExecutionMode.DECENTRALIZED_COMMIT_REVEAL

FPA = MechanismKind(tag=MechanismTag.FIRST_PRICE)
SPA = MechanismKind(tag=MechanismTag.SECOND_PRICE)
GSP2 = MechanismKind(tag=MechanismTag.GSP, ctrs=SlotCTRs((Fraction(1), Fraction(4, 5))))
COLLEGES = MechanismKind(
    tag=MechanismTag.BOSTON,
    schools=(
        SchoolSpec("Cambridge", 1, priority=("Alice", "Bob", "Carol")),
        SchoolSpec("Oxford", 1, priority=("Alice", "Bob", "Carol")),
    ),
)


def open_view(plaintext: dict[str, AgentInput]) -> OperatorView:
    return OperatorView(mode=CENTRAL, digests={}, plaintext=MappingProxyType(plaintext))


def sealed_view() -> OperatorView:
    return OperatorView(mode=DECENTRAL, digests=MappingProxyType({"a": bytes(32)}), plaintext=None)


def auction_scenario(
    mechanism: MechanismKind, bids: dict[str, int], adversary: LeakStrategy | None = None
) -> Scenario:
    agents = tuple(AgentSpec(agent=a, bid=b) for a, b in bids.items())
    return Scenario(name="t", seed=7, mechanism=mechanism,
                    schedule=PhaseSchedule(2, 6), agents=agents, adversary=adversary)


def college_scenario(adversary: LeakStrategy | None = None) -> Scenario:
    return Scenario(
        name="colleges", seed=9, mechanism=COLLEGES, schedule=PhaseSchedule(2, 6),
        agents=(
            AgentSpec(agent="Alice", ranking=("Oxford", "Cambridge")),
            AgentSpec(agent="Bob", ranking=("Oxford", "Cambridge")),
            AgentSpec(agent="Carol", ranking=("Cambridge", "Oxford")),
        ),
        adversary=adversary,
    )


def beacon_scenario(
    schedule: PhaseSchedule = PhaseSchedule(2, 6), adversary: LeakStrategy | None = None
) -> Scenario:
    return Scenario(
        name="lottery", seed=11, mechanism=MechanismKind(tag=MechanismTag.BEACON),
        schedule=schedule,
        agents=(
            AgentSpec(agent="p1", contribution=4),
            AgentSpec(agent="p2", contribution=7),
            AgentSpec(agent="p3", contribution=100),
        ),
        adversary=adversary,
    )


def censor(target: str, until: int) -> LeakStrategy:
    return LeakStrategy(LeakStrategyKind.MINER_CENSOR_REVEALS, target=target, censor_until=until)


@pytest.mark.parametrize(
    "scenario",
    [
        beacon_scenario(),
        auction_scenario(FPA, {"a": 5, "b": 3}),
        auction_scenario(SPA, {"a": 5, "b": 3}),
        auction_scenario(GSP2, {"a": 5, "b": 3, "c": 1}),
        college_scenario(),
    ],
    ids=["beacon", "first_price", "second_price", "gsp", "boston"],
)
def test_an_agent_whose_reveal_is_censored_past_the_deadline_is_left_empty_handed(scenario):
    # the settled outcome is empty, yet still says which utility rule applies
    everyone = {spec.agent for spec in scenario.agents}
    miner = MinerPolicy.censor(everyone, scenario.schedule.reveal_deadline)
    censored = replace(scenario, miner=miner)
    result, _ = adversaries.execute_run(censored, DECENTRAL)
    assert result.participants == ()
    schools = scenario.mechanism.schools
    empty_handed = -(len(schools) + 1) if schools else 0
    utilities = adversaries.agent_utilities(censored, result)
    assert utilities == dict.fromkeys(everyone, empty_handed)
    assert {type(u) for u in utilities.values()} == {int}


def test_sealed_views_identify_themselves():
    assert sealed_view().sealed
    assert not open_view({}).sealed


def test_every_leak_strategy_is_inert_against_a_sealed_view():
    strategies = [
        (LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND), FPA),
        (LeakStrategy(LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP), SPA),
        (LeakStrategy(LeakStrategyKind.GSP_RAISE_K_PLUS_ONE), GSP2),
        (LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER), GSP2),
        (LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS, target="Bob"), COLLEGES),
    ]
    for strategy, mechanism in strategies:
        plan = plan_deviation(strategy, mechanism, sealed_view())
        assert plan.rebids == {}
        assert plan.notes == (NOTE_SEALED_VIEW,)


def test_a_sealed_view_that_yields_rebids_is_an_invariant_violation(monkeypatch):
    # the guard in execute_run, reached only if a planner leaked through the
    # sealed view; forced here by a planner that ignores its view
    def leaky(strategy, mechanism, view):
        return adversaries.PlannedDeviation(rebids={"alice": AgentInput(bid=6)})

    monkeypatch.setattr(adversaries, "plan_deviation", leaky)
    scenario = auction_scenario(FPA, {"alice": 10, "bob": 5})
    strategy = LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND)
    with pytest.raises(InvariantViolation, match="sealed view produced rebids"):
        adversaries.execute_run(scenario, DECENTRAL, strategy)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_the_sealed_view_holds_each_agents_digest_in_agent_order(name, monkeypatch):
    # the view is what the run's contract state recorded at the commit deadline
    scenario = load_bundled(name)
    views = []

    def capture(strategy, mechanism, view):
        views.append(view)
        return plan_deviation(strategy, mechanism, view)

    monkeypatch.setattr(adversaries, "plan_deviation", capture)
    adversaries.execute_run(scenario, DECENTRAL, scenario.adversary)
    [view] = views
    assert view.plaintext is None
    assert isinstance(view.digests, MappingProxyType)
    assert list(view.digests.items()) == [
        (agent, commit.payload) for agent, (commit, _) in scenario.messages.items()
    ]


def test_fpa_leak_undercuts_to_second_plus_one_tick():
    view = open_view({"alice": AgentInput(bid=10), "bob": AgentInput(bid=5)})
    plan = plan_deviation(LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND), FPA, view)
    assert plan.rebids == {"alice": AgentInput(bid=6)}


def test_fpa_leak_does_nothing_on_a_tied_top():
    view = open_view({"alice": AgentInput(bid=5), "bob": AgentInput(bid=5)})
    plan = plan_deviation(LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND), FPA, view)
    assert plan.rebids == {}


def test_spa_raise_puts_second_one_tick_below_top():
    view = open_view({"alice": AgentInput(bid=10), "bob": AgentInput(bid=5),
                      "carol": AgentInput(bid=3)})
    plan = plan_deviation(LeakStrategy(LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP), SPA, view)
    assert plan.rebids == {"bob": AgentInput(bid=9)}


def test_gsp_raise_targets_the_first_loser():
    view = open_view({"ada": AgentInput(bid=20), "ben": AgentInput(bid=10),
                      "cal": AgentInput(bid=4)})
    plan = plan_deviation(LeakStrategy(LeakStrategyKind.GSP_RAISE_K_PLUS_ONE), GSP2, view)
    assert plan.rebids == {"cal": AgentInput(bid=9)}


def test_gsp_demote_drops_top_to_third_plus_one_tick():
    view = open_view({"ada": AgentInput(bid=10), "ben": AgentInput(bid=9),
                      "cal": AgentInput(bid=1)})
    plan = plan_deviation(LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER), GSP2, view)
    assert plan.rebids == {"ada": AgentInput(bid=2)}


def test_gsp_demote_needs_room_between_second_and_third():
    view = open_view({"ada": AgentInput(bid=10), "ben": AgentInput(bid=2),
                      "cal": AgentInput(bid=1)})
    plan = plan_deviation(LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER), GSP2, view)
    assert plan.rebids == {}


GSP1 = MechanismKind(tag=MechanismTag.GSP, ctrs=SlotCTRs((Fraction(1),)))
STANDINGS = {
    "Alice": AgentInput(ranking=("Oxford", "Cambridge")),
    "Bob": AgentInput(ranking=("Oxford", "Cambridge")),
    "Carol": AgentInput(ranking=("Cambridge", "Oxford")),
}


@pytest.mark.parametrize(
    "kind, mechanism, plaintext, target, note",
    [
        (LeakStrategyKind.FPA_TELL_TOP_THE_SECOND, FPA, {"ada": AgentInput(bid=9)}, None,
         "fewer than two bids; nothing to undercut"),
        (LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP, SPA, {"ada": AgentInput(bid=9)}, None,
         "fewer than two bids; no second bid to raise"),
        (LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP, SPA,
         {"ada": AgentInput(bid=5), "ben": AgentInput(bid=5)}, None,
         "top two bids tie; raising the second changes nothing"),
        (LeakStrategyKind.GSP_RAISE_K_PLUS_ONE, GSP2,
         {"ada": AgentInput(bid=20), "ben": AgentInput(bid=10)}, None,
         "no bidder outside the 2 slots; nothing to raise"),
        (LeakStrategyKind.GSP_RAISE_K_PLUS_ONE, GSP2,
         {"ada": AgentInput(bid=20), "ben": AgentInput(bid=10), "cal": AgentInput(bid=10)},
         None, "boundary bids tie; raising would contest the last slot"),
        (LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER, GSP1,
         {"ada": AgentInput(bid=10), "ben": AgentInput(bid=9), "cal": AgentInput(bid=1)},
         None, "a single slot leaves no lower slot to fall to"),
        (LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER, GSP2,
         {"ada": AgentInput(bid=10), "ben": AgentInput(bid=9)}, None,
         "fewer than three bids; the demotion window is undefined"),
        (LeakStrategyKind.BOSTON_SELL_RANKINGS, COLLEGES,
         {**STANDINGS, "Bob": AgentInput()}, "Bob", "target 'Bob' submitted no ranking"),
        (LeakStrategyKind.BOSTON_SELL_RANKINGS, COLLEGES, STANDINGS, "Alice",
         "truthful ranking is already a best response for 'Alice'"),
    ],
    ids=["fpa-one-bid", "spa-one-bid", "spa-tie", "gsp-raise-no-outsider", "gsp-raise-tie",
         "gsp-demote-one-slot", "gsp-demote-two-bids", "boston-no-ranking", "boston-truthful"],
)
def test_a_leak_with_nothing_to_exploit_plans_nothing(kind, mechanism, plaintext, target, note):
    plan = plan_deviation(LeakStrategy(kind, target=target), mechanism, open_view(plaintext))
    assert plan.notes == (note,)
    assert plan.rebids == {}
    assert plan.miner is None
    assert plan.coalition == frozenset()


def test_a_censoring_miner_plans_its_policy_and_the_uncensored_coalition():
    strategy = censor("a", 7)
    view = OperatorView(mode=DECENTRAL, plaintext=None,
                        digests=MappingProxyType({"a": bytes(32), "b": bytes(32), "c": bytes(32)}))
    plan = plan_deviation(strategy, FPA, view)
    assert plan.rebids == {}
    assert plan.miner == MinerPolicy.censor({"a"}, 7)
    assert plan.coalition == frozenset({"agent:b", "agent:c"})


def test_boston_leak_rewrites_the_target_ranking():
    view = open_view({
        "Alice": AgentInput(ranking=("Oxford", "Cambridge")),
        "Bob": AgentInput(ranking=("Oxford", "Cambridge")),
        "Carol": AgentInput(ranking=("Cambridge", "Oxford")),
    })
    strategy = LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS, target="Bob")
    plan = plan_deviation(strategy, COLLEGES, view)
    assert "Bob" in plan.rebids
    assert plan.rebids["Bob"].ranking[0] == "Cambridge"


def test_fpa_leak_pays_the_coalition_and_costs_the_seller():
    strategy = LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND)
    report = run_with_adversary(auction_scenario(FPA, {"alice": 10, "bob": 5}, strategy), CENTRAL)
    assert report.manipulated.auction.payments == {"alice": 6}
    assert report.gain_per_party["coalition"] == Fraction(4)
    assert report.gain_per_party["seller"] == Fraction(-4)
    assert report.gain_per_party["agent:alice"] == Fraction(4)
    assert report.gain_per_party["agent:bob"] == Fraction(0)


def test_spa_raise_transfers_surplus_to_the_seller():
    strategy = LeakStrategy(LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP)
    scenario = auction_scenario(SPA, {"alice": 10, "bob": 5, "carol": 3}, strategy)
    report = run_with_adversary(scenario, CENTRAL)
    assert report.honest_revenue == Fraction(5)
    assert report.manipulated_revenue == Fraction(9)
    assert report.gain_per_party["coalition"] == Fraction(4)
    assert report.gain_per_party["agent:alice"] == Fraction(-4)


def test_gsp_raise_lifts_revenue_by_the_slot_weighted_gap():
    strategy = LeakStrategy(LeakStrategyKind.GSP_RAISE_K_PLUS_ONE)
    scenario = auction_scenario(GSP2, {"ada": 20, "ben": 10, "cal": 4}, strategy)
    report = run_with_adversary(scenario, CENTRAL)
    # slot 1 price moves from 4 to 9 at rate 4/5
    assert report.gain_per_party["seller"] == Fraction(4, 5) * (9 - 4)
    assert report.gain_per_party["coalition"] == report.gain_per_party["seller"]


def test_gsp_demote_exact_fractions():
    strategy = LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER)
    scenario = auction_scenario(GSP2, {"ada": 10, "ben": 9, "cal": 1}, strategy)
    report = run_with_adversary(scenario, CENTRAL)
    assert report.honest_utilities["ada"] == Fraction(1)
    assert report.manipulated_utilities["ada"] == Fraction(36, 5)
    assert report.gain_per_party["coalition"] == Fraction(31, 5)
    assert report.gain_per_party["seller"] == Fraction(-7)


def test_ranking_sale_moves_the_target_up_one_rank():
    strategy = LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS, target="Bob")
    report = run_with_adversary(college_scenario(strategy), CENTRAL)
    assert report.honest.matching.assignment["Bob"] is None
    assert report.manipulated.matching.assignment["Bob"] == "Cambridge"
    # utility is measured against Bob's true ranking, where Cambridge is second
    assert report.gain_per_party["coalition"] == Fraction(1)
    # Carol drops from her first choice to unassigned: -1 down to -3
    assert report.gain_per_party["agent:Carol"] == Fraction(-2)


def test_every_strategy_is_neutralized_by_commit_reveal():
    scenarios = [
        auction_scenario(FPA, {"alice": 10, "bob": 5},
                         LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND)),
        auction_scenario(SPA, {"alice": 10, "bob": 5, "carol": 3},
                         LeakStrategy(LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP)),
        auction_scenario(GSP2, {"ada": 20, "ben": 10, "cal": 4},
                         LeakStrategy(LeakStrategyKind.GSP_RAISE_K_PLUS_ONE)),
        auction_scenario(GSP2, {"ada": 10, "ben": 9, "cal": 1},
                         LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER)),
        college_scenario(LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS, target="Bob")),
    ]
    for scenario in scenarios:
        report = run_with_adversary(scenario, DECENTRAL)
        assert report.all_deltas_zero, (scenario.name, scenario.adversary.kind)
        assert report.honest.canonical() == report.manipulated.canonical()
        assert NOTE_SEALED_VIEW in report.notes


def test_decentralized_and_centralized_honest_runs_agree():
    scenarios = [
        auction_scenario(FPA, {"alice": 10, "bob": 5}),
        auction_scenario(SPA, {"alice": 10, "bob": 5, "carol": 3}),
        college_scenario(),
        beacon_scenario(),
    ]
    for scenario in scenarios:
        central = run_with_adversary(scenario, CENTRAL)
        decentral = run_with_adversary(scenario, DECENTRAL)
        assert central.honest.canonical() == decentral.honest.canonical()


def test_censorship_through_the_reveal_deadline_changes_the_outcome():
    report = run_with_adversary(beacon_scenario(PhaseSchedule(2, 6), censor("p1", 6)), DECENTRAL)
    assert "p1" in report.manipulated.excluded
    assert report.honest.canonical() != report.manipulated.canonical()
    assert report.honest.beacon.value != report.manipulated.beacon.value


def test_censorship_inside_the_window_is_only_a_delay():
    # the reveal window is long enough to outlast the censor: same outcome
    report = run_with_adversary(beacon_scenario(PhaseSchedule(2, 6), censor("p1", 5)), DECENTRAL)
    assert report.all_deltas_zero
    assert report.honest.canonical() == report.manipulated.canonical()


def test_censorship_has_no_lever_in_centralized_mode():
    report = run_with_adversary(beacon_scenario(adversary=censor("p1", 50)), CENTRAL)
    assert report.all_deltas_zero
    assert NOTE_NO_MINER in report.notes


def test_beacon_utilities_pay_the_lottery_winner():
    report = run_with_adversary(beacon_scenario(), DECENTRAL)
    winner = report.honest.lottery[0]
    assert report.honest_utilities[winner] == Fraction(1)
    assert sum(report.honest_utilities.values()) == Fraction(1)


def test_strategy_mechanism_mismatch_is_rejected():
    with pytest.raises(ScenarioError, match=r"^field 'adversary\.kind': strategy fpa_tell"):
        auction_scenario(SPA, {"alice": 10, "bob": 5},
                         LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND))
    with pytest.raises(ScenarioError, match=r"^field 'adversary\.kind': strategy gsp_demote"):
        college_scenario(LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER))


@pytest.mark.parametrize(
    "adversary, field",
    [
        (censor("ghost", 6), "adversary.target"),
        # fpa_leak's reveals are mined only after its commit deadline (3), so
        # a censor that stops by then censors nothing
        (censor("alice", 2), "adversary.censor_until"),
        (censor("alice", 3), "adversary.censor_until"),
        (LeakStrategy(LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP), "adversary.kind"),
    ],
)
def test_a_strategy_no_run_could_act_on_is_refused_by_its_scenario(adversary, field):
    # a run takes its strategy only from its scenario, so such an input
    # cannot reach a run and read as a zero gain
    with pytest.raises(ScenarioError, match="^" + re.escape(f"field '{field}': ")):
        replace(load_bundled("fpa_leak"), adversary=adversary)


def test_strategy_parameter_validation():
    # `LeakStrategy` is a plain record; its scenario checks it, naming the field
    cases = [
        (lambda: college_scenario(LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS)),
         "field 'adversary.target': required for boston_sell_rankings"),
        (lambda: beacon_scenario(adversary=LeakStrategy(
            LeakStrategyKind.MINER_CENSOR_REVEALS, target="p1")),
         "field 'adversary.censor_until': required for miner_censor_reveals"),
        (lambda: beacon_scenario(adversary=censor("p1", -1)),
         "field 'adversary.censor_until': must be after the commit deadline, "
         "when reveals start"),
        (lambda: auction_scenario(FPA, {"alice": 10, "bob": 5}, LeakStrategy(
            LeakStrategyKind.FPA_TELL_TOP_THE_SECOND, censor_until=3)),
         "field 'adversary.censor_until': fpa_tell_top_the_second takes no censor_until"),
    ]
    for build, message in cases:
        with pytest.raises(ScenarioError) as info:
            build()
        assert str(info.value) == message


def test_every_strategy_kind_has_a_rule_over_strategy_fields():
    parameters = {f.name for f in fields(LeakStrategy)} - {"kind"}
    assert set(adversaries.STRATEGY_RULES) == set(LeakStrategyKind)
    for rule in adversaries.STRATEGY_RULES.values():
        assert rule.mechanisms and set(rule.mechanisms) <= set(MechanismTag)
        assert set(rule.takes) <= parameters
        assert len(set(rule.takes)) == len(rule.takes)


def test_best_response_prefers_the_reachable_second_choice():
    reports = {
        "Alice": ("Oxford", "Cambridge"),
        "Bob": ("Oxford", "Cambridge"),
        "Carol": ("Cambridge", "Oxford"),
    }
    best = best_response_ranking("Bob", reports, list(COLLEGES.schools))
    assert best[0] == "Cambridge"
    outcome = boston({**reports, "Bob": best}, list(COLLEGES.schools))
    assert outcome.assignment["Bob"] == "Cambridge"


def test_truthful_ranking_wins_ties_in_the_search():
    reports = {
        "Alice": ("Oxford", "Cambridge"),
        "Bob": ("Oxford", "Cambridge"),
        "Carol": ("Cambridge", "Oxford"),
    }
    best = best_response_ranking("Alice", reports, list(COLLEGES.schools))
    assert best == reports["Alice"]


def brute_force_best_response(student, reports, schools):
    """Reference search: one full ``boston`` run per candidate ranking."""
    ids = [s.school for s in schools]
    truthful = reports[student]
    best_rank, best_val = None, None
    for size in range(len(ids) + 1):
        for cand in permutations(ids, size):
            got = boston({**reports, student: cand}, schools).assignment.get(student)
            val = rank_utility(truthful, got, len(ids))
            if best_val is None or val > best_val:
                best_val, best_rank = val, cand
            elif val == best_val and cand == truthful:
                best_rank = cand
    return best_rank, best_val


def test_best_response_matches_independent_enumeration():
    rng = random.Random(61)
    for _ in range(40):
        n_schools = rng.randrange(1, 4)
        names = [f"s{i}" for i in range(n_schools)]
        students = [f"kid{i}" for i in range(rng.randrange(2, 5))]
        schools = []
        for name in names:
            order = students[:]
            rng.shuffle(order)
            schools.append(SchoolSpec(name, rng.randrange(0, 2), priority=tuple(order)))
        reports = {
            s: tuple(rng.sample(names, rng.randrange(0, n_schools + 1))) for s in students
        }
        target = students[0]

        got = best_response_ranking(target, reports, schools)
        want_ranking, want_value = brute_force_best_response(target, reports, schools)
        assert got == want_ranking
        achieved = boston({**reports, target: got}, schools).assignment.get(target)
        assert rank_utility(reports[target], achieved, n_schools) == want_value


# the widest instance the brute-force oracle takes (1,957 rankings); it
# bounds the enumeration, not the search
ORACLE_SCHOOLS = 6


@st.composite
def boston_instances(draw):
    """Schools with random capacities and priorities, students with partial
    or empty rankings, and a target; ``omit`` is a school whose priority
    list should leave the target out, or None."""
    names = [f"s{i}" for i in range(draw(st.integers(1, ORACLE_SCHOOLS)))]
    students = [f"kid{i}" for i in range(draw(st.integers(1, 14)))]
    schools = [
        SchoolSpec(name, draw(st.integers(0, 4)), priority=tuple(draw(st.permutations(students))))
        for name in names
    ]
    rankings = {
        s: tuple(draw(st.permutations(names))[: draw(st.integers(0, len(names)))])
        for s in students
    }
    target = draw(st.sampled_from(students))
    omit = draw(st.none() | st.sampled_from(names))
    return schools, rankings, target, omit


@settings(max_examples=100, deadline=None)
@given(boston_instances())
def test_best_response_matches_brute_force_on_generated_instances(instance):
    schools, reports, target, omit = instance
    if omit is not None:
        schools = [
            replace(s, priority=tuple(a for a in s.priority if a != target))
            if s.school == omit else s
            for s in schools
        ]
        with pytest.raises(ValidationError) as brute:
            brute_force_best_response(target, reports, schools)
        with pytest.raises(ValidationError) as fast:
            best_response_ranking(target, reports, schools)
        assert str(fast.value) == str(brute.value)
        assert f"school {omit!r} has no priority rank for {target!r}" in str(fast.value)
        return
    got = best_response_ranking(target, reports, schools)
    want_ranking, want_value = brute_force_best_response(target, reports, schools)
    assert got == want_ranking == exact_best_response(target, reports, schools)
    achieved = boston({**reports, target: got}, schools).assignment.get(target)
    assert rank_utility(reports[target], achieved, len(schools)) == want_value


@settings(max_examples=100, deadline=None)
@given(boston_instances(), st.data())
def test_boston_does_not_depend_on_the_insertion_order_of_reports(instance, data):
    schools, reports, _, _ = instance
    order = data.draw(st.permutations(list(reports)))
    shuffled = boston({s: reports[s] for s in order}, schools)
    matching = boston(reports, schools)
    assert shuffled.assignment == matching.assignment
    assert shuffled.round_assigned == matching.round_assigned


@settings(max_examples=100, deadline=None)
@given(boston_instances(), st.data())
def test_best_response_does_not_depend_on_where_the_student_sits(instance, data):
    schools, reports, target, _ = instance
    order = [s for s in reports if s != target]
    order.insert(data.draw(st.integers(0, len(order))), target)
    got = best_response_ranking(target, {s: reports[s] for s in order}, schools)
    assert got == best_response_ranking(target, reports, schools)


def test_best_response_counts_admissions_after_the_others_are_placed():
    # round 2 at X is free only because pal's one-school list ends in round 1
    schools = [SchoolSpec(name, 1, priority=("pal", "kid")) for name in ("X", "Y")]
    reports = {"kid": ("Y", "X"), "pal": ("Y",)}
    assert best_response_ranking("kid", reports, schools) == reports["kid"]


def exact_best_response(student, reports, schools):
    """Reference search in n + 2 ``boston`` runs: the best of the empty and
    every one-school ranking, the first one winning, unless the truthful
    ranking (when it names only known schools) ties it."""
    truthful = reports[student]

    def value(ranking):
        assigned = boston({**reports, student: ranking}, schools).assignment[student]
        return rank_utility(truthful, assigned, len(schools))

    values = {r: value(r) for r in [(), *((s.school,) for s in schools)]}
    best = max(values, key=values.__getitem__)
    known = {s.school for s in schools}
    if known.issuperset(truthful) and value(truthful) == values[best]:
        return truthful
    return best


# the 60-student properties below took minutes to shrink a failure; they
# still detect one, but report it unminimised
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


@st.composite
def benchmark_shaped_instances(draw, widths=st.integers(1, ORACLE_SCHOOLS), outside=True):
    """Schools of capacity 0-10 (up to ``ORACLE_SCHOOLS`` by default) and up
    to 60 students with partial or empty rankings, as the benchmark draws
    them, and a target; with ``outside`` the target's truthful ranking
    sometimes names a school outside them."""
    names = [f"s{i}" for i in range(draw(widths))]
    students = [f"kid{i}" for i in range(draw(st.integers(1, 60)))]
    schools = [
        SchoolSpec(name, draw(st.integers(0, 10)), priority=tuple(draw(st.permutations(students))))
        for name in names
    ]
    reports = {
        s: tuple(draw(st.permutations(names))[: draw(st.integers(0, len(names)))])
        for s in students
    }
    target = draw(st.sampled_from(students))
    if outside and draw(st.booleans()):
        truthful = reports[target]
        at = draw(st.integers(0, len(truthful)))
        reports[target] = (*truthful[:at], "elsewhere", *truthful[at:])
    return target, reports, schools


@settings(max_examples=150, deadline=None, phases=UNSHRUNK)
@given(benchmark_shaped_instances())
def test_best_response_matches_the_exact_oracle(instance):
    target, reports, schools = instance
    got = best_response_ranking(target, reports, schools)
    assert got == exact_best_response(target, reports, schools)


@settings(max_examples=150, deadline=None, phases=UNSHRUNK)
@given(benchmark_shaped_instances(outside=False))
def test_first_round_admissions_are_the_one_school_rankings_seating_the_student(instance):
    target, reports, schools = instance
    admits = first_round_admissions(target, reports, schools)
    for spec in schools:
        trial = {**reports, target: (spec.school,)}
        seated = boston(trial, schools).assignment[target] == spec.school
        assert seated == (spec.school in admits)


@settings(max_examples=150, deadline=None, phases=UNSHRUNK)
@given(benchmark_shaped_instances(outside=False))
def test_no_school_outside_the_first_round_admissions_seats_the_truthful_ranking(instance):
    # a refusal is final: the search reads every reachable school off round 1
    target, reports, schools = instance
    admits = first_round_admissions(target, reports, schools)
    assigned = boston(reports, schools).assignment[target]
    assert assigned is None or assigned in admits


def test_best_response_ranks_first_a_school_the_truthful_ranking_reaches_too_late():
    # pal fills A in round 1; late takes B's seat in round 1 unless kid,
    # who outranks late there, applies to B in that round
    schools = [
        SchoolSpec("A", 1, priority=("pal", "kid", "late")),
        SchoolSpec("B", 1, priority=("kid", "late", "pal")),
        SchoolSpec("C", 1, priority=("kid", "late", "pal")),
    ]
    reports = {"pal": ("A",), "late": ("B",), "kid": ("A", "B", "C")}
    assert first_round_admissions("kid", reports, schools) == {"B", "C"}
    assert boston(reports, schools).assignment["kid"] == "C"
    best = best_response_ranking("kid", reports, schools)
    assert best == ("B",) == brute_force_best_response("kid", reports, schools)[0]
    assert boston({**reports, "kid": best}, schools).assignment["kid"] == "B"


@pytest.mark.parametrize(
    "ranking, want",
    [
        (("elsewhere", "X"), ("X",)),
        # X listed third of two schools is worth no more than no school
        (("elsewhere", "Y", "X"), ()),
        (("elsewhere",), ()),
        (("Y", "elsewhere"), ()),
    ],
)
def test_a_truthful_ranking_naming_an_unknown_school_is_skipped(ranking, want):
    schools = [SchoolSpec(name, 1, priority=("pal", "kid")) for name in ("X", "Y")]
    reports = {"pal": ("Y",), "kid": ranking}
    best = best_response_ranking("kid", reports, schools)
    assert best == want == brute_force_best_response("kid", reports, schools)[0]


@pytest.mark.parametrize(
    "ranking",
    [
        ("A", "C", "B"),  # placed at C in round 2, as (C,) places it in round 1
        ("A",),  # unplaced, as the empty ranking leaves it
    ],
)
def test_a_truthful_ranking_that_ties_a_shorter_candidate_wins(ranking):
    schools = [SchoolSpec(name, 1, priority=("pal", "kid")) for name in "ABC"]
    reports = {"pal": ("A",), "kid": ranking}
    best = best_response_ranking("kid", reports, schools)
    assert best == ranking == brute_force_best_response("kid", reports, schools)[0]


@settings(max_examples=60, deadline=None, phases=UNSHRUNK)
@given(benchmark_shaped_instances(widths=st.integers(7, 12), outside=False))
def test_a_best_response_past_the_oracle_width_beats_every_simple_ranking(instance):
    # too wide for the brute force: check the answer against the exact oracle
    target, reports, schools = instance
    got = best_response_ranking(target, reports, schools)
    assert got == exact_best_response(target, reports, schools)


def test_best_response_at_seven_schools_matches_the_exact_oracle():
    rng = random.Random(7)
    names = [f"s{i}" for i in range(7)]
    students = [f"kid{i}" for i in range(20)]
    for _ in range(3):
        schools = [
            SchoolSpec(name, rng.randrange(0, 4), priority=tuple(rng.sample(students, 20)))
            for name in names
        ]
        reports = {s: tuple(rng.sample(names, rng.randrange(0, 8))) for s in students}
        got = best_response_ranking("kid0", reports, schools)
        assert got == exact_best_response("kid0", reports, schools)


REPEATED_SCHOOL = [SchoolSpec("s", 1, priority=("kid", "pal"))] * 2


def test_best_response_rejects_repeated_school_ids_and_ranked_schools():
    with pytest.raises(ValidationError, match="^school identifiers must be unique$"):
        best_response_ranking("kid", {"kid": ()}, REPEATED_SCHOOL)
    # the searched student's own ranking is checked too, not only the others'
    schools = [SchoolSpec(name, 1, priority=("kid", "pal")) for name in "st"]
    for reports in ({"kid": ("s", "t", "s")}, {"pal": ("t", "t"), "kid": ("s",)}):
        with pytest.raises(ValidationError, match="^ranking for '(kid|pal)' repeats a school$"):
            best_response_ranking("kid", reports, schools)


def test_boston_and_first_round_admissions_reject_repeated_school_ids():
    # unchecked, boston keeps only the last spec of a repeated school; a
    # profile keyed by student cannot rank one student twice
    with pytest.raises(ValidationError, match="^school identifiers must be unique$"):
        boston({"kid": ("s",)}, REPEATED_SCHOOL)
    with pytest.raises(ValidationError, match="^school identifiers must be unique$"):
        first_round_admissions("kid", {}, REPEATED_SCHOOL)
    with pytest.raises(ValidationError, match="^ranking for 'pal' repeats a school$"):
        first_round_admissions("kid", {"pal": ("s", "s")}, REPEATED_SCHOOL[:1])


def test_exact_str_prints_terminating_decimals_and_ratios():
    assert exact_str(Fraction(36, 5)) == "7.2"
    assert exact_str(Fraction(-31, 5)) == "-6.2"
    assert exact_str(Fraction(1, 4)) == "0.25"
    assert exact_str(Fraction(1, 8)) == "0.125"
    assert exact_str(Fraction(1, 3)) == "1/3"
    assert exact_str(Fraction(-2, 7)) == "-2/7"
    assert exact_str(4) == "4"
    assert exact_str(-12) == "-12"
    assert exact_str(Fraction(6, 1)) == "6"
    assert exact_str(Fraction(0)) == "0"
    assert exact_str(True) == "1"  # a bool is an int, but must not print as "True"
    assert exact_str(False) == "0"


def test_report_canonical_is_json_ready():
    import json
    strategy = LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER)
    scenario = auction_scenario(GSP2, {"ada": 10, "ben": 9, "cal": 1}, strategy)
    doc = run_with_adversary(scenario, CENTRAL).canonical()
    assert doc["gains"]["coalition"] == "6.2"
    assert doc["utilities"]["manipulated"]["ada"] == "7.2"
    json.dumps(doc)


def test_a_reveal_window_of_10_to_the_30_blocks_runs_at_once():
    # mining and replay walk the non-empty blocks only, so the cost of a
    # run follows its messages, not the length of its reveal window
    bundled = load_bundled("beacon_censor")
    wide = replace(
        bundled,
        schedule=PhaseSchedule(bundled.schedule.commit_deadline, 10**30),
        adversary=replace(bundled.adversary, censor_until=10**29),
    )
    for mode in ExecutionMode:
        start = time.perf_counter()
        report = run_with_adversary(wide, mode).canonical()
        assert time.perf_counter() - start < 1
        expected = run_with_adversary(bundled, mode).canonical()
        if mode is DECENTRAL:
            assert expected["notes"] == ["miner withholds reveals from 'p1' while height <= 8"]
            expected["notes"] = [f"miner withholds reveals from 'p1' while height <= {10**29}"]
        assert report == expected


def lottery_scenario(mode: LotteryMode) -> Scenario:
    """Twelve students ranking six schools under a beacon lottery, one of
    them buying the others' rankings; no miner, so every run settles the
    same participants and beacon."""
    rng = random.Random(f"lottery:{mode.value}")
    schools = tuple(SchoolSpec(f"s{i}", 2) for i in range(6))
    names = [f"kid{i:02d}" for i in range(12)]
    ids = [s.school for s in schools]
    return Scenario(
        name=f"lottery-{mode.value}", seed=rng.getrandbits(64),
        mechanism=MechanismKind(tag=MechanismTag.BOSTON, schools=schools,
                                priority_mode=mode, with_beacon=True),
        schedule=PhaseSchedule(2, 6),
        agents=tuple(AgentSpec(a, ranking=tuple(rng.sample(ids, rng.randint(1, 6)))) for a in names),
        adversary=LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS, target=names[0]),
    )


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Record the arguments of every call through ``module.name``."""
    calls: list[tuple] = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode, domains", [
    (LotteryMode.PER_SCHOOL, [0, 1, 2, 3, 4, 5]),
    (LotteryMode.SINGLE, [0]),
])
def test_a_run_draws_each_lottery_and_commits_each_input_once(monkeypatch, mode, domains):
    settlement._drawn_lottery.cache_clear()
    draws = count_calls(monkeypatch, beacon, "derive_permutation")
    commitments = count_calls(monkeypatch, scenario_module, "make_commitment")
    commits = count_calls(monkeypatch, scenario_module, "commit_message")
    reveals = count_calls(monkeypatch, scenario_module, "reveal_message")
    replayed = count_calls(monkeypatch, contract, "Commitment")
    verified = count_calls(monkeypatch, contract, "verify_opening")
    scenario = lottery_scenario(mode)
    n = len(scenario.agents)

    run_with_adversary(scenario, CENTRAL)
    assert not (commitments or commits or reveals or replayed or verified)
    # two settlements and the ranking-sale plan share one lottery
    assert sorted(domain for _, _, domain in draws) == domains

    run_with_adversary(scenario, DECENTRAL)
    assert sorted(domain for _, _, domain in draws) == domains
    assert sorted(agent for agent, _, _ in commitments) == sorted(scenario.messages)
    # both decentralized runs submit the messages the scenario built once
    assert [agent for agent, _, _ in commits] == [agent for agent, _, _ in reveals]
    assert sorted(agent for agent, _, _ in commits) == sorted(scenario.messages)
    # one contract state reads each commit once per run: the sealed view at
    # T and the settlement at T' share one replay
    digests = sorted(commit.payload for commit, _ in scenario.messages.values())
    assert sorted(digest for digest, in replayed) == sorted(digests * 2)
    # the contract still checks every reveal of both decentralized runs
    assert len(verified) == 2 * n
    assert {agent for _, agent, _, _ in verified} == set(scenario.messages)
