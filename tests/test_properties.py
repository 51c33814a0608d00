"""Generated-input checks of claims the docstrings make "by construction".

1. A centralized honest run and a decentralized honest run of the same
   scenario settle identically, for every mechanism, with and without a
   beacon, under every school priority mode.
2. The coalition gain that `plan_deviation` names the parties of equals the
   per-strategy rule, for every strategy in both modes, under honest and
   censoring scenario miners; in decentralized mode, a strategy whose plan
   sets no reveal-phase miner settles exactly as the honest run.
3. The scenario parser answers any JSON document with a `Scenario` or a
   `ScenarioError` naming the field, never with another exception.
4. Reports hold the same strings whether utilities are `int` or `Fraction`,
   and the report JSON writer gives the bytes of the stdlib's indented
   `json.dumps`.
5. `run` writes the same bytes on a rerun, a sealed view yields no rebids,
   and every wire codec round-trips.
6. `settle` answers any payload bytes: each agent either takes part, with an
   input that re-encodes to its payload, or is reported as malformed.
7. Every auction's utilities and revenue split the slot-weighted value of
   the allocation exactly.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trustless_mech import (
    AgentInput,
    CommitOpening,
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    LotteryMode,
    MechanismKind,
    MechanismTag,
    OperatorView,
    Scenario,
    ScenarioError,
    SchoolSpec,
    SettlementInput,
    SlotCTRs,
    WireFormatError,
    auction_utility,
    decode_agent_payload,
    encode_agent_payload,
    plan_deviation,
    run_with_adversary,
    scenario_from_dict,
    seller_revenue,
    settle,
    settle_inputs,
)
from trustless_mech.adversaries import execute_run
from trustless_mech.auctions import decode_bid, encode_bid
from trustless_mech.beacon import decode_contribution, encode_contribution
from trustless_mech.cli import _json_text, main
from trustless_mech.commitments import DIGEST_SIZE, SALT_SIZE
from trustless_mech.contract import parse_reveal_payload, reveal_message
from trustless_mech.scenario import bundled_scenario_names
from trustless_mech.school_choice import decode_ranking, encode_ranking

AGENT_NAMES = ("ann", "bo", "cy", "dee", "eli", "fay")
SCHOOL_NAMES = ("north", "south", "east")
MECHANISMS = ("beacon", "first_price", "second_price", "gsp", "boston")


@st.composite
def honest_scenarios(draw, kinds=MECHANISMS) -> dict:
    """A valid scenario document of one of ``kinds``, with an honest miner."""
    kind = draw(st.sampled_from(kinds))
    agents = draw(st.lists(st.sampled_from(AGENT_NAMES), min_size=1, max_size=6, unique=True))
    mechanism: dict = {"kind": kind}
    if kind != "beacon":
        mechanism["with_beacon"] = draw(st.booleans())
    uses_beacon = kind == "beacon" or mechanism["with_beacon"]
    if kind == "gsp":
        slots = draw(st.integers(1, 3))
        mechanism["ctrs"] = [f"{slots - i}/{slots + 1}" for i in range(slots)]
    if kind == "boston":
        schools = SCHOOL_NAMES[: draw(st.integers(1, 3))]
        modes = [None, "single_lottery", "per_school_lottery"] if uses_beacon else [None]
        mode = draw(st.sampled_from(modes))
        if mode is not None:
            mechanism["priority_mode"] = mode
        mechanism["schools"] = [
            {
                "school": school,
                "capacity": draw(st.integers(0, 2)),
                "priority": draw(st.permutations(agents)) if mode is None else [],
            }
            for school in schools
        ]

    entries = []
    for agent in agents:
        entry: dict = {"agent": agent}
        if kind in ("first_price", "second_price", "gsp"):
            entry["bid"] = draw(st.integers(0, 12))  # small, so bids tie
            if draw(st.booleans()):
                entry["valuation"] = draw(st.integers(0, 12))
        if kind == "boston":
            size = draw(st.integers(0, len(schools)))
            entry["ranking"] = draw(st.permutations(schools))[:size]
        if uses_beacon and draw(st.booleans()):
            entry["contribution"] = draw(st.integers(0, 2**64 - 1))
        entries.append(entry)

    return {
        "name": "generated",
        "seed": draw(st.integers(0, 2**64 - 1)),
        "mechanism": mechanism,
        "schedule": {"commit_deadline": 2, "reveal_deadline": draw(st.integers(3, 5))},
        "agents": entries,
    }


@settings(max_examples=200, deadline=None)
@given(honest_scenarios())
def test_honest_runs_settle_identically_in_both_modes(doc):
    scenario = scenario_from_dict(doc)
    centralized, _ = execute_run(scenario, ExecutionMode.CENTRALIZED_SEQUENTIAL)
    decentralized, _ = execute_run(scenario, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)
    assert centralized.canonical() == decentralized.canonical()


K = LeakStrategyKind
MECHANISMS_FOR = {
    K.FPA_TELL_TOP_THE_SECOND: ("first_price",),
    K.SPA_RAISE_SECOND_BELOW_TOP: ("second_price",),
    K.GSP_RAISE_K_PLUS_ONE: ("gsp",),
    K.GSP_DEMOTE_TOP_BIDDER: ("gsp",),
    K.BOSTON_SELL_RANKINGS: ("boston",),
    K.MINER_CENSOR_REVEALS: MECHANISMS,
}


@st.composite
def adversary_runs(draw) -> tuple[dict, LeakStrategy, ExecutionMode]:
    """A strategy, a scenario it applies to (honest or with a censoring
    miner), and a mode; every strategy is drawn equally often."""
    kind = draw(st.sampled_from(K))
    doc = draw(honest_scenarios(MECHANISMS_FOR[kind]))
    agents = [entry["agent"] for entry in doc["agents"]]
    reveal_deadline = doc["schedule"]["reveal_deadline"]
    if draw(st.booleans()):
        doc["miner"] = {
            "mode": "censor",
            "targets": draw(st.lists(st.sampled_from(agents), min_size=1, unique=True)),
            "until": draw(st.integers(3, reveal_deadline + 2)),
        }
    needs_target = kind in (K.BOSTON_SELL_RANKINGS, K.MINER_CENSOR_REVEALS)
    target = draw(st.sampled_from(agents)) if needs_target else None
    censor_until = (
        draw(st.integers(0, reveal_deadline + 2)) if kind is K.MINER_CENSOR_REVEALS else None
    )
    strategy = LeakStrategy(kind, target=target, censor_until=censor_until)
    return doc, strategy, draw(st.sampled_from(ExecutionMode))


def coalition_gain_oracle(strategy, scenario, agent_deltas, seller_delta) -> Fraction:
    """The per-strategy rule, worked out again from the scenario: the seller
    for the raises, the top bidder for FPA and GSP-demote, the informed
    student for a ranking sale, every uncensored agent for censorship."""
    kind = strategy.kind
    if kind in (K.SPA_RAISE_SECOND_BELOW_TOP, K.GSP_RAISE_K_PLUS_ONE):
        return seller_delta
    if kind in (K.FPA_TELL_TOP_THE_SECOND, K.GSP_DEMOTE_TOP_BIDDER):
        ranked = sorted((-s.bid, s.agent) for s in scenario.agents if s.bid is not None)
        return agent_deltas[ranked[0][1]] if ranked else Fraction(0)
    if kind is K.BOSTON_SELL_RANKINGS:
        return agent_deltas.get(strategy.target, Fraction(0))
    return sum(
        (delta for agent, delta in agent_deltas.items() if agent != strategy.target),
        Fraction(0),
    )


@settings(max_examples=300, deadline=None)
@given(adversary_runs())
def test_coalition_gain_is_the_gain_of_the_planned_parties(run):
    doc, strategy, mode = run
    scenario = scenario_from_dict(doc)
    report = run_with_adversary(scenario, strategy, mode)
    gains = report.gain_per_party
    agent_deltas = {agent: gains[f"agent:{agent}"] for agent in report.honest_utilities}
    expected = coalition_gain_oracle(strategy, scenario, agent_deltas, gains["seller"])
    assert gains["coalition"] == expected


@settings(max_examples=200, deadline=None)
@given(adversary_runs())
def test_a_decentralized_run_without_a_reveal_miner_settles_as_the_honest_run(run):
    # under commit-reveal only a strategy that mines the reveal phase can
    # change the outcome; every other one sees sealed digests and rebids nothing
    doc, strategy, _ = run
    scenario = scenario_from_dict(doc)
    mode = ExecutionMode.DECENTRALIZED_COMMIT_REVEAL
    _, plan = execute_run(scenario, mode, strategy)
    assume(plan.miner is None)
    report = run_with_adversary(scenario, strategy, mode)
    assert report.manipulated == report.honest


# Words the format uses, so generated documents reach past the first check.
FORMAT_WORDS = (
    "name", "seed", "mechanism", "schedule", "agents", "adversary", "miner", "kind",
    "ctrs", "schools", "school", "capacity", "priority", "priority_mode", "with_beacon",
    "commit_deadline", "reveal_deadline", "agent", "bid", "valuation", "ranking",
    "contribution", "target", "censor_until", "mode", "targets", "until", "boston",
    "gsp", "first_price", "beacon", "censor", "honest", "single_lottery",
    "miner_censor_reveals", "boston_sell_rankings",
)
# Any character, with lone surrogates drawn often: a JSON "\ud800" escape
# decodes to one, and uniform code points would almost never hit them.
characters = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
texts = st.text(characters, max_size=8) | st.sampled_from(FORMAT_WORDS)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
)


def _parses_or_names_a_field(doc) -> None:
    try:
        result = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_any_json_value_parses_or_raises_a_scenario_error(doc):
    _parses_or_names_a_field(doc)


def _bundled_docs() -> list:
    root = resources.files("trustless_mech") / "scenarios"
    return [json.loads((root / f"{name}.json").read_text()) for name in bundled_scenario_names()]


def _node_paths(node, path=()) -> list[tuple]:
    """Every path from the root to a node (root included), in document order."""
    paths = [path]
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, child in node.items() if isinstance(node, dict) else ():
        paths.extend(_node_paths(child, (*path, key)))
    return paths


BUNDLED_NODES = [(doc, path) for doc in _bundled_docs() for path in _node_paths(doc)]


def _replaced(doc, path: tuple, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BUNDLED_NODES), json_values)
def test_a_bundled_scenario_with_any_node_replaced_parses_or_names_a_field(node, value):
    doc, path = node
    _parses_or_names_a_field(_replaced(doc, path, value))


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_the_report_json_writer_matches_indented_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _as_fractions(values: dict) -> dict:
    return {key: Fraction(value) for key, value in values.items()}


@settings(max_examples=200, deadline=None)
@given(adversary_runs())
def test_reports_read_the_same_with_every_utility_a_fraction(run):
    doc, strategy, mode = run
    report = run_with_adversary(scenario_from_dict(doc), strategy, mode)
    as_fractions = dataclasses.replace(
        report,
        honest_utilities=_as_fractions(report.honest_utilities),
        manipulated_utilities=_as_fractions(report.manipulated_utilities),
        gain_per_party=_as_fractions(report.gain_per_party),
    )
    canonical = report.canonical()
    assert canonical == as_fractions.canonical()
    assert _json_text(canonical) == json.dumps(canonical, indent=2, sort_keys=True)


def _scenario_doc(doc: dict, strategy: LeakStrategy) -> dict:
    """``doc`` with ``strategy`` as its adversary, where a scenario file may
    name it (a censor must outlast the commit deadline)."""
    if strategy.censor_until is not None and strategy.censor_until <= 2:
        return doc
    adversary = {"kind": strategy.kind.value}
    if strategy.target is not None:
        adversary["target"] = strategy.target
    if strategy.censor_until is not None:
        adversary["censor_until"] = strategy.censor_until
    return {**doc, "adversary": adversary}


def _run_into(scenario_path: Path, out: Path) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["run", str(scenario_path), "--out", str(out)])
    return code, stdout.getvalue()


@settings(max_examples=60, deadline=None)
@given(adversary_runs())
def test_run_reruns_write_identical_bytes(run):
    doc, strategy, _ = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenario_path = root / "scenario.json"
        scenario_path.write_text(json.dumps(_scenario_doc(doc, strategy)))
        first, second = root / "first", root / "second"
        code_1, out_1 = _run_into(scenario_path, first)
        code_2, out_2 = _run_into(scenario_path, second)
        assert code_1 == code_2 == 0
        assert out_2 == out_1.replace(str(first), str(second))
        for name in ("generated.report.json", "generated.report.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


@settings(max_examples=300, deadline=None)
@given(adversary_runs(), st.data())
def test_a_sealed_view_yields_no_rebids(run, data):
    doc, strategy, mode = run
    scenario = scenario_from_dict(doc)
    digests = {
        spec.agent: data.draw(st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE))
        for spec in scenario.agents
    }
    view = OperatorView(mode=mode, digests=digests, plaintext=None)
    assert not plan_deviation(strategy, scenario.mechanism, view).rebids


u64s = st.integers(0, 2**64 - 1)


@given(u64s)
def test_bids_round_trip(amount):
    assert decode_bid(encode_bid(amount)) == amount


@given(u64s)
def test_contributions_round_trip(value):
    assert decode_contribution(encode_contribution(value)) == value


@given(st.lists(st.integers(0, 255), max_size=255))
def test_rankings_round_trip(indices):
    if len(set(indices)) < len(indices):
        with pytest.raises(WireFormatError, match="repeats"):
            decode_ranking(encode_ranking(indices))
    else:
        assert decode_ranking(encode_ranking(indices)) == tuple(indices)


@given(
    st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=20),
    st.binary(min_size=1, max_size=64),
    st.binary(min_size=SALT_SIZE, max_size=SALT_SIZE),
)
def test_reveal_payloads_round_trip(agent, payload, salt):
    opening = CommitOpening(payload=payload, salt=salt)
    assert parse_reveal_payload(reveal_message(agent, "c", opening).payload) == opening


@st.composite
def mechanisms(draw, kinds=MECHANISMS) -> MechanismKind:
    """A mechanism of one of ``kinds``: auctions with or without a beacon,
    school choice with fixed priorities or a beacon lottery."""
    tag = MechanismTag(draw(st.sampled_from(kinds)))
    if tag is MechanismTag.BEACON:
        return MechanismKind(tag=tag)
    with_beacon = draw(st.booleans())
    if tag is MechanismTag.GSP:
        slots = draw(st.integers(1, 3))
        ctrs = SlotCTRs(tuple(Fraction(slots - i, slots + 1) for i in range(slots)))
        return MechanismKind(tag=tag, ctrs=ctrs, with_beacon=with_beacon)
    if tag is not MechanismTag.BOSTON:
        return MechanismKind(tag=tag, with_beacon=with_beacon)
    mode = draw(st.sampled_from([None, *LotteryMode])) if with_beacon else None
    schools = tuple(
        SchoolSpec(
            school,
            draw(st.integers(0, 2)),
            draw(st.permutations(AGENT_NAMES)) if mode is None else (),
        )
        for school in SCHOOL_NAMES[: draw(st.integers(1, 3))]
    )
    return MechanismKind(tag=tag, schools=schools, priority_mode=mode, with_beacon=with_beacon)


# a body shaped like a ranking (small, often repeated indices), a bid, or
# anything, then an optional contribution-sized tail
payload_bodies = st.one_of(
    st.lists(st.integers(0, 3), max_size=4).map(lambda xs: bytes([len(xs), *xs])),
    st.binary(min_size=8, max_size=8),
    st.binary(max_size=12),
)
payloads = st.tuples(payload_bodies, st.sampled_from([b"", bytes(8), b"\xff" * 8])).map(
    lambda parts: parts[0] + parts[1]
)


@settings(max_examples=400, deadline=None)
@given(mechanisms(), st.dictionaries(st.sampled_from(AGENT_NAMES), payloads))
def test_settle_reports_any_undecodable_payload_as_malformed(mechanism, by_agent):
    payload_of = dict(sorted(by_agent.items()))
    result = settle(mechanism, SettlementInput("c", tuple(payload_of.items()), frozenset({"zed"})))
    assert set(result.participants).isdisjoint(result.malformed)
    assert set(result.participants) | set(result.malformed) == set(payload_of)
    assert result.excluded == ("zed",)
    for agent in result.participants:
        agent_input = decode_agent_payload(mechanism, payload_of[agent])
        assert encode_agent_payload(mechanism, agent_input) == payload_of[agent]


@st.composite
def auction_inputs(draw) -> tuple[MechanismKind, dict, dict]:
    """An auction, the bids (and maybe contributions) of some agents, and a
    valuation for every agent; no bids and too few GSP bidders included."""
    mechanism = draw(mechanisms(kinds=("first_price", "second_price", "gsp")))
    bidders = draw(st.lists(st.sampled_from(AGENT_NAMES), max_size=6, unique=True))
    inputs = {
        agent: AgentInput(
            bid=draw(st.integers(0, 12)),
            contribution=draw(st.none() | st.integers(0, 2**64 - 1))
            if mechanism.with_beacon
            else None,
        )
        for agent in bidders
    }
    valuations = {agent: draw(st.integers(0, 20)) for agent in AGENT_NAMES}
    return mechanism, inputs, valuations


@settings(max_examples=300, deadline=None)
@given(auction_inputs())
def test_auction_utilities_and_revenue_split_the_allocated_value(case):
    mechanism, inputs, valuations = case
    outcome = settle_inputs(mechanism, inputs).auction
    rates = mechanism.ctrs.rates if mechanism.ctrs is not None else [1]
    welfare = sum(rates[slot] * valuations[agent] for slot, agent in outcome.allocation.items())
    utilities = sum(auction_utility(v, agent, outcome) for agent, v in valuations.items())
    assert utilities + seller_revenue(outcome) == welfare
