"""Generated-input checks of claims the docstrings make "by construction".

1. A centralized honest run and a decentralized honest run of the same
   scenario settle identically, for every mechanism, with and without a
   beacon, under every school priority mode.
2. The coalition gain that `plan_deviation` names the parties of equals the
   per-strategy rule, for every strategy in both modes, under honest and
   censoring scenario miners; in decentralized mode, a strategy whose plan
   sets no reveal-phase miner settles exactly as the honest run. A scenario
   refuses, naming the field, an adversary that no run could act on, and
   over every kind, mechanism and parameter case it names the first
   faulty field in the order of a reference kept here.
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
8. The kept lottery returns what a fresh draw returns, as an immutable
   value, over any order of repeated lottery keys; and a renamed scenario
   commits fresh digests, since the contract id is in every preimage.
9. `boston` and `first_round_admissions` name the same first fault in their
   inputs as a per-student check loop, and a school list reused across
   report profiles gives what a freshly built one gives.
"""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trustless_mech import (
    AgentInput,
    BeaconOutput,
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
    load_bundled,
    lottery_priorities,
    plan_deviation,
    run_with_adversary,
    scenario_from_dict,
    seller_revenue,
    settle,
    settle_inputs,
    verify_opening,
)
from trustless_mech.adversaries import execute_run
from trustless_mech.auctions import decode_bid, encode_bid
from trustless_mech.beacon import decode_contribution, encode_contribution
from trustless_mech.cli import _json_text, main
from trustless_mech.commitments import DIGEST_SIZE, SALT_SIZE
from trustless_mech.contract import parse_reveal_payload, reveal_message
from trustless_mech.errors import ValidationError
from trustless_mech.scenario import bundled_scenario_names
from trustless_mech.settlement import _drawn_lottery, lottery_schools
from trustless_mech.school_choice import (
    boston,
    decode_ranking,
    encode_ranking,
    first_round_admissions,
)

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
# The optional strategy fields each kind takes; every other kind takes none.
PARAMETERS_FOR = {
    K.BOSTON_SELL_RANKINGS: ("target",),
    K.MINER_CENSOR_REVEALS: ("target", "censor_until"),
}


def censoring_miner(draw, doc: dict) -> dict:
    """A censoring miner over ``doc``'s agents that a scenario accepts."""
    return {
        "mode": "censor",
        "targets": draw(st.lists(
            st.sampled_from([entry["agent"] for entry in doc["agents"]]), min_size=1, unique=True
        )),
        "until": draw(st.integers(3, doc["schedule"]["reveal_deadline"] + 2)),
    }


@st.composite
def adversary_runs(draw) -> tuple[dict, ExecutionMode]:
    """A scenario document whose adversary applies to its mechanism (with an
    honest or a censoring miner), and a mode; every strategy is drawn equally
    often. Some documents are refused: see `refused_field`."""
    kind = draw(st.sampled_from(K))
    doc = draw(honest_scenarios(MECHANISMS_FOR[kind]))
    agents = [entry["agent"] for entry in doc["agents"]]
    reveal_deadline = doc["schedule"]["reveal_deadline"]
    if draw(st.booleans()):
        doc["miner"] = censoring_miner(draw, doc)
    doc["adversary"] = {"kind": kind.value}
    if "target" in PARAMETERS_FOR.get(kind, ()):
        doc["adversary"]["target"] = draw(st.sampled_from(agents))
    if "censor_until" in PARAMETERS_FOR.get(kind, ()):
        doc["adversary"]["censor_until"] = draw(st.integers(0, reveal_deadline + 2))
    return doc, draw(st.sampled_from(ExecutionMode))


@st.composite
def adversary_documents(draw) -> dict:
    """A scenario document of any mechanism, some with a censoring miner,
    whose adversary is of any kind, with a ``target`` that is absent, an
    agent, an unknown name or empty, and a ``censor_until`` that is absent,
    negative, at or before the commit deadline, or after it."""
    kind = draw(st.sampled_from(K))
    doc = draw(honest_scenarios())
    deadline = doc["schedule"]["commit_deadline"]
    if draw(st.booleans()):
        doc["miner"] = censoring_miner(draw, doc)
    agents = [entry["agent"] for entry in doc["agents"]]
    target = draw(st.none() | st.sampled_from([*agents, "ghost", ""]))
    censor_until = draw(
        st.none()
        | st.integers(-3, -1)
        | st.integers(0, deadline)
        | st.integers(deadline + 1, doc["schedule"]["reveal_deadline"] + 2)
    )
    doc["adversary"] = {"kind": kind.value}
    for key, value in (("target", target), ("censor_until", censor_until)):
        if value is not None:
            doc["adversary"][key] = value
    return doc


def refused_field(doc: dict) -> str | None:
    """The first field a scenario names when it refuses ``doc``'s adversary,
    checking in order: each parameter given exactly when the kind takes it;
    the kind applies to the mechanism; it does not replace a censoring
    miner; the target is an agent; a censor stops after the commit deadline,
    when reveals start to be mined."""
    adversary, deadline = doc["adversary"], doc["schedule"]["commit_deadline"]
    kind = K(adversary["kind"])
    for name in ("target", "censor_until"):
        if (name in adversary) != (name in PARAMETERS_FOR.get(kind, ())):
            return f"adversary.{name}"
    if doc["mechanism"]["kind"] not in MECHANISMS_FOR[kind]:
        return "adversary.kind"
    if kind is K.MINER_CENSOR_REVEALS and "miner" in doc:
        return "adversary.kind"
    if adversary.get("target") not in (None, *(entry["agent"] for entry in doc["agents"])):
        return "adversary.target"
    if adversary.get("censor_until", deadline + 1) <= deadline:
        return "adversary.censor_until"
    return None


def scenario_of(doc: dict) -> Scenario | None:
    """``doc`` as a scenario, or None once its refusal is checked."""
    field = refused_field(doc)
    if field is None:
        return scenario_from_dict(doc)
    with pytest.raises(ScenarioError, match="^" + re.escape(f"field '{field}': ")):
        scenario_from_dict(doc)
    return None


@settings(max_examples=400, deadline=None)
@given(adversary_documents())
def test_a_scenario_builds_an_adversary_or_names_its_first_faulty_field(doc):
    scenario = scenario_of(doc)
    if scenario is not None:
        adversary = doc["adversary"]
        assert scenario.adversary == LeakStrategy(
            K(adversary["kind"]), adversary.get("target"), adversary.get("censor_until")
        )


def coalition_gain_oracle(scenario, agent_deltas, seller_delta) -> Fraction:
    """The per-strategy rule, worked out again from the scenario: the seller
    for the raises, the top bidder for FPA and GSP-demote, the informed
    student for a ranking sale, every uncensored agent for censorship."""
    strategy = scenario.adversary
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
    doc, mode = run
    scenario = scenario_of(doc)
    if scenario is None:
        return
    report = run_with_adversary(scenario, mode)
    gains = report.gain_per_party
    agent_deltas = {agent: gains[f"agent:{agent}"] for agent in report.honest_utilities}
    expected = coalition_gain_oracle(scenario, agent_deltas, gains["seller"])
    assert gains["coalition"] == expected


@settings(max_examples=200, deadline=None)
@given(adversary_runs())
def test_a_decentralized_run_without_a_reveal_miner_settles_as_the_honest_run(run):
    # under commit-reveal only a strategy that mines the reveal phase can
    # change the outcome; every other one sees sealed digests and rebids nothing
    doc, _ = run
    scenario = scenario_of(doc)
    if scenario is None:
        return
    mode = ExecutionMode.DECENTRALIZED_COMMIT_REVEAL
    _, plan = execute_run(scenario, mode, scenario.adversary)
    assume(plan.miner is None)
    report = run_with_adversary(scenario, mode)
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
    except ScenarioError as exc:
        if isinstance(doc, dict):
            assert re.match(r"field '[^']+': ", str(exc)), str(exc)
        else:
            assert str(exc) == "scenario document must be a JSON object"
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
    doc, mode = run
    scenario = scenario_of(doc)
    if scenario is None:
        return
    report = run_with_adversary(scenario, mode)
    as_fractions = dataclasses.replace(
        report,
        honest_utilities=_as_fractions(report.honest_utilities),
        manipulated_utilities=_as_fractions(report.manipulated_utilities),
        gain_per_party=_as_fractions(report.gain_per_party),
    )
    canonical = report.canonical()
    assert canonical == as_fractions.canonical()
    assert _json_text(canonical) == json.dumps(canonical, indent=2, sort_keys=True)


def _run_into(scenario_path: Path, out: Path) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["run", str(scenario_path), "--out", str(out)])
    return code, stdout.getvalue()


@settings(max_examples=60, deadline=None)
@given(adversary_runs())
def test_run_reruns_write_identical_bytes(run):
    doc, _ = run
    field = refused_field(doc)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenario_path = root / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        first, second = root / "first", root / "second"
        if field is not None:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code, out = _run_into(scenario_path, first)
            assert (code, out) == (1, "")
            assert f"field '{field}': " in stderr.getvalue()
            assert not first.exists()
            return
        code_1, out_1 = _run_into(scenario_path, first)
        code_2, out_2 = _run_into(scenario_path, second)
        assert code_1 == code_2 == 0
        assert out_2 == out_1.replace(str(first), str(second))
        for name in ("generated.report.json", "generated.report.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


@settings(max_examples=300, deadline=None)
@given(adversary_runs(), st.data())
def test_a_sealed_view_yields_no_rebids(run, data):
    doc, mode = run
    scenario = scenario_of(doc)
    if scenario is None:
        return
    digests = {
        spec.agent: data.draw(st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE))
        for spec in scenario.agents
    }
    view = OperatorView(mode=mode, digests=digests, plaintext=None)
    assert not plan_deviation(scenario.adversary, scenario.mechanism, view).rebids


LOTTERY_SCHOOLS = tuple(SchoolSpec(school, 1) for school in SCHOOL_NAMES)

lottery_keys = st.tuples(
    st.sampled_from(LotteryMode),
    st.lists(st.sampled_from(AGENT_NAMES), min_size=1, unique=True).map(lambda a: tuple(sorted(a))),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(lottery_keys, min_size=1, max_size=3), st.lists(st.integers(0, 2), max_size=8))
@example([(LotteryMode.SINGLE, ("ann", "bo"), 1), (LotteryMode.PER_SCHOOL, ("ann", "bo"), 1)],
         [0, 1, 0])
def test_the_kept_lottery_is_a_fresh_immutable_draw(keys, picks):
    _drawn_lottery.cache_clear()
    for pick in [0, *picks]:
        mode, participants, value = keys[pick % len(keys)]
        mechanism = MechanismKind(tag=MechanismTag.BOSTON, schools=LOTTERY_SCHOOLS,
                                  priority_mode=mode, with_beacon=True)
        beacon = BeaconOutput(value, participants)
        drawn = lottery_schools(mechanism, participants, beacon)
        assert drawn == tuple(lottery_priorities(participants, LOTTERY_SCHOOLS, beacon, mode))
        assert isinstance(drawn, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            drawn[0].priority = ()


def test_a_renamed_scenario_commits_fresh_digests():
    scenario = load_bundled("fpa_leak")
    renamed = dataclasses.replace(scenario, name="fpa_leak_renamed")
    assert list(renamed.commitments) == list(scenario.commitments)
    for agent, (opening, commitment) in renamed.commitments.items():
        old_opening, old_commitment = scenario.commitments[agent]
        assert opening == old_opening
        assert commitment != old_commitment
        assert verify_opening(commitment, agent, renamed.name, opening)
    honest, _ = execute_run(renamed, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)
    assert honest == execute_run(scenario, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)[0]


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


def reference_priority_check(reports, schools) -> None:
    """The per-student input check `boston` made before its priority tables
    were cached per school: every table rebuilt, every entry looked up."""
    priority_rank = {s.school: {student: i for i, student in enumerate(s.priority)} for s in schools}
    if len(priority_rank) != len(schools):
        raise ValidationError("school identifiers must be unique")
    for student, ranking in reports.items():
        if len(set(ranking)) != len(ranking):
            raise ValidationError(f"ranking for {student!r} repeats a school")
        for school in ranking:
            if school not in priority_rank:
                raise ValidationError(f"student {student!r} ranked unknown school {school!r}")
        for spec in schools:
            if student not in priority_rank[spec.school]:
                raise ValidationError(f"school {spec.school!r} has no priority rank for {student!r}")


def outcome_of(fn, *args):
    """``fn(*args)``, or the message of the `ValidationError` it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"error: {exc}"


@st.composite
def school_lists(draw) -> tuple[SchoolSpec, ...]:
    """1-3 schools, sometimes with an id listed twice, each ranking all the
    agents or a prefix of a permutation of them."""
    names = draw(st.lists(st.sampled_from(SCHOOL_NAMES), min_size=1, unique=True))
    if draw(st.integers(0, 9)) == 9:
        names.append(names[0])
    specs = []
    for name in names:
        order = draw(st.permutations(AGENT_NAMES))
        cut = draw(st.just(len(order)) | st.integers(0, len(order)))
        specs.append(SchoolSpec(name, draw(st.integers(0, 2)), tuple(order[:cut])))
    return tuple(specs)


# a ranking may repeat a school or name "west", which is no school
rankings = st.lists(st.sampled_from(SCHOOL_NAMES), max_size=3, unique=True).map(tuple) | st.lists(
    st.sampled_from((*SCHOOL_NAMES, "west")), max_size=4
).map(tuple)
report_profiles = st.dictionaries(st.sampled_from(AGENT_NAMES), rankings)


def fresh(schools):
    """The same schools as new specs, whose priority tables are not yet built."""
    return tuple(SchoolSpec(s.school, s.capacity, s.priority) for s in schools)


@settings(max_examples=400, deadline=None)
@given(report_profiles, school_lists(), st.sampled_from(AGENT_NAMES))
def test_the_first_input_fault_is_named_as_the_per_student_check_names_it(reports, schools, student):
    def error_of(fn, *args):
        outcome = outcome_of(fn, *args)
        return outcome if isinstance(outcome, str) else None

    assert error_of(boston, reports, schools) == error_of(reference_priority_check, reports, schools)
    assert error_of(first_round_admissions, student, reports, schools) == error_of(
        reference_priority_check, {**reports, student: ()}, schools
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(report_profiles, min_size=2, max_size=5), st.sampled_from(LotteryMode), u64s,
       st.sampled_from(AGENT_NAMES))
def test_a_drawn_school_list_reused_across_profiles_matches_a_fresh_one(profiles, mode, value, student):
    participants = AGENT_NAMES[:4]
    drawn = tuple(lottery_priorities(participants, LOTTERY_SCHOOLS, BeaconOutput(value, participants), mode))
    for reports in profiles:
        assert outcome_of(boston, reports, drawn) == outcome_of(boston, reports, fresh(drawn))
        assert outcome_of(first_round_admissions, student, reports, drawn) == outcome_of(
            first_round_admissions, student, reports, fresh(drawn)
        )
