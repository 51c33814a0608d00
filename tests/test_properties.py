"""Generated-input checks of claims the docstrings make "by construction".

1. A centralized honest run and a decentralized honest run of the same
   scenario settle identically, for every mechanism, with and without a
   beacon, under every school priority mode.
2. The coalition gain that `plan_deviation` names the parties of equals the
   per-strategy rule, for every strategy in both modes, under honest and
   censoring scenario miners.
3. The scenario parser answers any JSON document with a `Scenario` or a
   `ScenarioError` naming the field, never with another exception.
"""

import json
from fractions import Fraction
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from trustless_mech import (
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    Scenario,
    ScenarioError,
    run_with_adversary,
    scenario_from_dict,
)
from trustless_mech.adversaries import execute_run
from trustless_mech.scenario import bundled_scenario_names

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
