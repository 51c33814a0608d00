"""Generated-input checks of claims the docstrings make "by construction".

1. A centralized honest run and a decentralized honest run of the same
   scenario settle identically, for every mechanism, with and without a
   beacon, under every school priority mode; and each agent's commit and
   reveal messages, in agent list order, open to its truthful input.
2. The coalition gain that `plan_deviation` names the parties of equals the
   per-strategy rule, for every strategy in both modes, under honest and
   censoring scenario miners; in decentralized mode, a strategy whose plan
   sets no reveal-phase miner settles exactly as the honest run, and every
   decentralized run settles and plans as a reference that builds its
   messages per run and replays the whole chain afresh at each deadline.
   A scenario refuses, naming the field, an adversary that no run could
   act on, and over every kind, mechanism and parameter case it names the
   first faulty field in the order of a reference kept here.
3. The scenario parser answers any JSON document with a `Scenario` or a
   `ScenarioError` naming the field, never with another exception, and
   reads back every plain record the writer writes, a key left out or null
   reading as the field's default.
4. Reports hold the same strings whether utilities are `int` or `Fraction`,
   and the report JSON writer gives the bytes of the stdlib's indented
   `json.dumps`.
5. `run` writes the same bytes on a rerun, a sealed view yields no rebids,
   and every wire codec round-trips. The reveal encoder, its decoder and a
   scenario agree on which agent values a reveal can carry, and a scenario
   names the first field the encoder refuses.
6. `settle` answers any payload bytes: each agent either takes part, with an
   input that re-encodes to its payload, or is reported as malformed. The
   decoder, which reads a reveal front to back, accepts and reads the same
   bytes as a reference that reads the contribution off the back.
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
import typing
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trustless_mech import (
    AgentInput,
    AgentSpec,
    BeaconOutput,
    ChainState,
    CommitOpening,
    Commitment,
    ContractState,
    ExecutionMode,
    HashStream,
    LeakStrategy,
    LeakStrategyKind,
    LotteryMode,
    MechanismKind,
    MechanismTag,
    MessageKind,
    OperatorView,
    PhaseSchedule,
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
    make_commitment,
    plan_deviation,
    run_with_adversary,
    scenario_from_dict,
    seller_revenue,
    settle,
    settle_inputs,
    verify_opening,
)
from trustless_mech.adversaries import execute_run
from trustless_mech.beacon import DOMAIN_SALTS
from trustless_mech.cli import _json_text, main
from trustless_mech.commitments import DIGEST_SIZE, SALT_SIZE
from trustless_mech.contract import commit_message, parse_reveal_payload, reveal_message
from trustless_mech.errors import ValidationError
from trustless_mech.scenario import _ENUM_NOUNS, _read, _set_fields, bundled_scenario_names
from trustless_mech.settlement import _drawn_lottery, encode_field, lottery_schools
from trustless_mech.school_choice import boston, first_round_admissions

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


@settings(max_examples=200, deadline=None)
@given(honest_scenarios())
def test_each_agents_messages_commit_to_and_reveal_its_truthful_input(doc):
    # the (commit, reveal) pair is an agent's one ledger record: the reveal
    # opens the commit's digest, under this contract id, to the truthful input
    scenario = scenario_from_dict(doc)
    assert list(scenario.messages) == [spec.agent for spec in scenario.agents]
    for agent, (commit, reveal) in scenario.messages.items():
        assert (commit.sender, commit.contract_id, commit.kind) == (
            agent, scenario.name, MessageKind.COMMIT)
        assert (reveal.sender, reveal.contract_id, reveal.kind) == (
            agent, scenario.name, MessageKind.REVEAL)
        opening = parse_reveal_payload(reveal.payload)
        assert verify_opening(Commitment(commit.payload), agent, scenario.name, opening)
        assert decode_agent_payload(scenario.mechanism, opening.payload) == (
            scenario.truthful_inputs[agent])


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


def two_replay_run(scenario: Scenario, strategy: LeakStrategy | None):
    """A decentralized run as it was before the contract followed the chain:
    a fresh chain, openings and messages built for this run from the seed's
    salt stream, and a fresh replay of the whole chain at T for the sealed
    view and again at T' to settle."""
    mode = ExecutionMode.DECENTRALIZED_COMMIT_REVEAL
    name, schedule = scenario.name, scenario.schedule
    salts = HashStream(scenario.seed, DOMAIN_SALTS)
    openings = {
        spec.agent: CommitOpening(
            payload=encode_agent_payload(scenario.mechanism, scenario.truthful_inputs[spec.agent]),
            salt=salts.salt(),
        )
        for spec in scenario.agents
    }
    chain = ChainState()
    for agent, opening in openings.items():
        chain.submit(commit_message(agent, name, make_commitment(agent, name, opening)))
    chain.advance_to(schedule.commit_deadline)
    sealed = ContractState(name, schedule)
    sealed.follow(chain)
    digests = {agent: commitment.digest for agent, commitment in sealed.commitments.items()}
    view = OperatorView(mode=mode, digests=MappingProxyType(digests), plaintext=None)
    plan = plan_deviation(strategy, scenario.mechanism, view)
    assert not plan.rebids
    for agent, opening in openings.items():
        chain.submit(reveal_message(agent, name, opening))
    chain.advance_to(schedule.reveal_deadline, plan.miner or scenario.miner)
    settling = ContractState(name, schedule)
    settling.follow(chain)
    return settle(scenario.mechanism, settling.finalize(chain.height)), plan


@settings(max_examples=300, deadline=None)
@given(adversary_runs())
def test_a_decentralized_run_settles_as_two_fresh_replays_do(run):
    # every mechanism and strategy kind, with an honest or a censoring
    # miner; the second run submits the messages the first one built
    doc, _ = run
    scenario = scenario_of(doc)
    if scenario is None:
        return
    for strategy in (None, scenario.adversary):
        result, plan = execute_run(scenario, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL, strategy)
        expected, expected_plan = two_replay_run(scenario, strategy)
        assert result.canonical() == expected.canonical()
        assert plan == expected_plan


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


# A text the reader takes as a string field: a lone surrogate is not text.
plain_texts = st.text(st.characters(exclude_categories=["Cs"]), max_size=6)
FIELD_VALUES = {
    str: plain_texts,
    int: st.integers(),
    bool: st.booleans(),
    tuple[str, ...]: st.lists(plain_texts, max_size=4).map(tuple),
    **{enum: st.sampled_from(enum) for enum in _ENUM_NOUNS},
}


def _values_of(hint):
    """Any value of a field typed ``hint``, None included for ``X | None``."""
    args = typing.get_args(hint)
    return st.none() | FIELD_VALUES[args[0]] if type(None) in args else FIELD_VALUES[hint]


def _built_or_none(record, values):
    try:
        return record(**values)
    except ValidationError:  # e.g. a schedule whose deadlines are out of order
        return None


@st.composite
def plain_records(draw):
    """A valid `AgentSpec`, `SchoolSpec`, `PhaseSchedule` or `LeakStrategy`,
    any field of which may hold its default."""
    record = draw(st.sampled_from((AgentSpec, SchoolSpec, PhaseSchedule, LeakStrategy)))
    hints = typing.get_type_hints(record)
    values = {}
    for field in dataclasses.fields(record):
        if field.default is dataclasses.MISSING or draw(st.booleans()):
            values[field.name] = draw(_values_of(hints[field.name]))
    built = _built_or_none(record, values)
    assume(built is not None)
    return built


@settings(max_examples=300, deadline=None)
@given(plain_records(), st.data())
def test_a_plain_record_reads_back_as_written(value, data):
    record = type(value)
    doc = json.loads(json.dumps(_set_fields(value)))
    assert _read(record, doc, "record.") == value
    for field in dataclasses.fields(record):
        if field.default is not dataclasses.MISSING:
            absent = dict(doc)
            if data.draw(st.booleans(), label=f"{field.name} null"):
                absent[field.name] = None
            else:
                absent.pop(field.name, None)
            default = dataclasses.replace(value, **{field.name: field.default})
            assert _read(record, absent, "record.") == default


@settings(max_examples=300, deadline=None)
@given(json_values)
# keys that need escaping, at the depth where the writer encodes keys itself
@example({'say "hi"': [1, [2]], "back\\slash": {"x": None}, "na\u00efve \u2713": {"\u00e9": [{}]}})
@example({"\x00ctrl\x1f": {"\n": [True]}, "\ud800": [[]], "\U0001f600": {"\"": {"\\": 1.5}}})
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
    assert list(renamed.messages) == list(scenario.messages)
    for agent, (commit, reveal) in renamed.messages.items():
        old_commit, old_reveal = scenario.messages[agent]
        opening = parse_reveal_payload(reveal.payload)
        assert opening == parse_reveal_payload(old_reveal.payload)
        assert commit.payload != old_commit.payload
        assert verify_opening(Commitment(commit.payload), agent, renamed.name, opening)
    honest, _ = execute_run(renamed, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)
    assert honest == execute_run(scenario, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)[0]


u64s = st.integers(0, 2**64 - 1)
FIRST_PRICE = MechanismKind(tag=MechanismTag.FIRST_PRICE)
BEACON_ONLY = MechanismKind(tag=MechanismTag.BEACON)
# every index a ranking byte can hold names a school
SCHOOLS_256 = MechanismKind(
    tag=MechanismTag.BOSTON, schools=tuple(SchoolSpec(f"s{i}", 1) for i in range(256))
)


@given(u64s)
def test_bids_round_trip(amount):
    data = encode_field(FIRST_PRICE, "bid", amount)
    assert data == amount.to_bytes(8, "big")
    assert decode_agent_payload(FIRST_PRICE, data) == AgentInput(bid=amount)


@given(u64s)
def test_contributions_round_trip(value):
    data = encode_field(BEACON_ONLY, "contribution", value)
    assert data == value.to_bytes(8, "big")
    assert decode_agent_payload(BEACON_ONLY, data) == AgentInput(contribution=value)


@given(st.lists(st.integers(0, 255), max_size=255))
def test_rankings_round_trip(indices):
    ranking = tuple(f"s{i}" for i in indices)
    data = bytes([len(indices), *indices])
    if len(set(indices)) < len(indices):
        with pytest.raises(WireFormatError, match="repeats"):
            encode_field(SCHOOLS_256, "ranking", ranking)
        with pytest.raises(WireFormatError, match="repeats"):
            decode_agent_payload(SCHOOLS_256, data)
    else:
        assert encode_field(SCHOOLS_256, "ranking", ranking) == data
        assert decode_agent_payload(SCHOOLS_256, data) == AgentInput(ranking=ranking)


@given(
    st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=20),
    st.binary(min_size=1, max_size=64),
    st.binary(min_size=SALT_SIZE, max_size=SALT_SIZE),
)
def test_reveal_payloads_round_trip(agent, payload, salt):
    opening = CommitOpening(payload=payload, salt=salt)
    assert parse_reveal_payload(reveal_message(agent, "c", opening).payload) == opening


@st.composite
def mechanisms(draw, kinds=MECHANISMS, students=AGENT_NAMES) -> MechanismKind:
    """A mechanism of one of ``kinds``: auctions with or without a beacon,
    school choice with fixed priorities over ``students`` or a beacon lottery."""
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
            draw(st.permutations(students)) if mode is None else (),
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


def reference_wire_fields(mechanism: MechanismKind) -> tuple[str, ...]:
    """The agent fields a reveal carries, in wire order: the report, then a
    contribution whenever the contract runs a beacon."""
    by_tag = {MechanismTag.BEACON: (), MechanismTag.BOSTON: ("ranking",)}
    report = by_tag.get(mechanism.tag, ("bid",))
    beacon = mechanism.tag is MechanismTag.BEACON or mechanism.with_beacon
    return report + ("contribution",) if beacon else report


def reference_wire_fault(mechanism: MechanismKind, values: dict) -> str | None:
    """The first field a reveal carries that is missing or that its wire form
    cannot hold; None if every one fits."""
    schools = {s.school for s in mechanism.schools}
    for name in reference_wire_fields(mechanism):
        value = values[name]
        if value is None:
            return name
        if name == "ranking":
            if not set(value) <= schools or len(set(value)) < len(value):
                return name
        elif not 0 <= value < 2**64:
            return name
    return None


wire_ints = st.none() | st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64, -(2**64), 2**70])
# west is no school, and an entry may repeat
wire_rankings = st.lists(st.sampled_from((*SCHOOL_NAMES, "west")), max_size=4).map(tuple)
agent_values = st.fixed_dictionaries({
    "bid": wire_ints,
    "ranking": st.none() | wire_rankings,
    "contribution": wire_ints,
})


@settings(max_examples=400, deadline=None)
@given(mechanisms(students=("ann", "bo")), agent_values)
@example(  # a repeated school, which the decoder refuses, so the encoder must too
    MechanismKind(tag=MechanismTag.BOSTON, schools=(SchoolSpec("north", 1, ("ann", "bo")),)),
    {"bid": None, "ranking": ("north", "north"), "contribution": None},
)
def test_the_encoder_the_decoder_and_a_scenario_agree_on_every_reveal_value(mechanism, values):
    carried = reference_wire_fields(mechanism)
    fault = reference_wire_fault(mechanism, values)
    try:
        payload = encode_agent_payload(mechanism, AgentInput(**values))
    except (ValidationError, WireFormatError):
        assert fault is not None
    else:
        assert fault is None
        assert decode_agent_payload(mechanism, payload) == AgentInput(
            **{name: values[name] for name in carried}
        )

    # a scenario draws a contribution it leaves out from the seed
    drawn = values | {"contribution": 0} if values["contribution"] is None else values
    fault = reference_wire_fault(mechanism, drawn)
    honest = {"bid": 1, "ranking": (), "contribution": None}
    agents = (AgentSpec("ann", **{name: values[name] for name in carried}),
              AgentSpec("bo", **{name: honest[name] for name in carried}))
    try:
        Scenario("probe", 1, mechanism, PhaseSchedule(2, 6), agents)
    except ScenarioError as exc:
        assert str(exc).startswith(f"field 'agents[0].{fault}': ")
    else:
        assert fault is None


def reference_decode(mechanism: MechanismKind, data: bytes) -> AgentInput:
    """A reveal read from the back: the last 8 bytes are the contribution
    when the contract runs a beacon, and the rest is the bid or the ranking.
    A bid is 8 big-endian bytes; a ranking is a length byte that counts the
    distinct school indices after it."""
    carried = reference_wire_fields(mechanism)
    values = {}
    if "contribution" in carried:
        if len(data) < 8:
            raise WireFormatError("no room for a contribution")
        values["contribution"] = int.from_bytes(data[-8:], "big")
        data = data[:-8]
    if "bid" in carried:
        if len(data) != 8:
            raise WireFormatError("a bid is 8 bytes")
        values["bid"] = int.from_bytes(data, "big")
    elif "ranking" in carried:
        if not data or data[0] != len(data) - 1:
            raise WireFormatError("the length byte does not count the indices")
        indices = list(data[1:])
        if len(set(indices)) < len(indices):
            raise WireFormatError("a school listed twice")
        if any(i >= len(mechanism.schools) for i in indices):
            raise WireFormatError("no such school")
        values["ranking"] = tuple(mechanism.schools[i].school for i in indices)
    elif data:
        raise WireFormatError("bytes after the contribution")
    return AgentInput(**values)


@settings(max_examples=600, deadline=None)
@given(mechanisms(), st.binary(max_size=24))
@example(MechanismKind(tag=MechanismTag.FIRST_PRICE), (5).to_bytes(8, "big") + b"\x00")
@example(  # declares two schools and carries one; read from the front, the
    # contribution's first byte would complete the ranking
    MechanismKind(tag=MechanismTag.BOSTON, schools=(SchoolSpec("north", 1), SchoolSpec("south", 1)),
                  priority_mode=LotteryMode.SINGLE, with_beacon=True),
    bytes([2, 0]) + (1 << 56).to_bytes(8, "big"),
)
def test_the_decoder_accepts_what_a_reference_reading_from_the_back_accepts(mechanism, data):
    try:
        expected = reference_decode(mechanism, data)
    except WireFormatError:
        with pytest.raises(WireFormatError):
            decode_agent_payload(mechanism, data)
    else:
        assert decode_agent_payload(mechanism, data) == expected


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
