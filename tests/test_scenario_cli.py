"""Scenario files, their validation diagnostics, and the command line."""

import copy
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy.stats

import trustless_mech.scenario as scenario_module
from trustless_mech import (
    AgentInput,
    InvariantViolation,
    MechanismTag,
    MinerPolicy,
    ScenarioError,
    bundled_scenario_names,
    dump_scenario,
    load_bundled,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    uniformity_histogram,
)
from trustless_mech import cli
from trustless_mech.cli import OUT_DIR_ENV, main


def minimal_doc() -> dict:
    return {
        "name": "probe",
        "seed": 5,
        "mechanism": {"kind": "first_price"},
        "schedule": {"commit_deadline": 2, "reveal_deadline": 6},
        "agents": [
            {"agent": "ann", "bid": 9},
            {"agent": "bo", "bid": 4},
        ],
    }


def boston_doc() -> dict:
    return {
        "name": "probe-school",
        "seed": 6,
        "mechanism": {
            "kind": "boston",
            "schools": [
                {"school": "north", "capacity": 1, "priority": ["ann", "bo"]},
                {"school": "south", "capacity": 1, "priority": ["ann", "bo"]},
            ],
        },
        "schedule": {"commit_deadline": 2, "reveal_deadline": 6},
        "agents": [
            {"agent": "ann", "ranking": ["north"]},
            {"agent": "bo", "ranking": ["north", "south"]},
        ],
    }


def test_bundled_scenarios_round_trip_through_dicts():
    names = bundled_scenario_names()
    assert len(names) >= 6
    for name in names:
        scenario = load_bundled(name)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def lottery_doc() -> dict:
    """Per-school lotteries, a ranking sale and a censoring miner: every
    optional field the writer emits for school choice, on one scenario."""
    return {
        "name": "probe-lottery",
        "seed": 8,
        "mechanism": {
            "kind": "boston",
            "schools": [
                {"school": "north", "capacity": 1},
                {"school": "south", "capacity": 2, "priority": []},
            ],
            "priority_mode": "per_school_lottery",
            "with_beacon": True,
        },
        "schedule": {"commit_deadline": 2, "reveal_deadline": 6},
        "agents": [
            {"agent": "ann", "ranking": ["north", "south"], "contribution": 11},
            {"agent": "bo", "ranking": ["north"]},
            {"agent": "cy", "ranking": ["south", "north"]},
        ],
        "adversary": {"kind": "boston_sell_rankings", "target": "bo"},
        "miner": {"mode": "censor", "targets": ["cy", "ann"], "until": 4},
    }


# sha256 of the `dump_scenario` bytes of each bundled scenario and of
# lottery_doc(), frozen from the writer that spelled out every field
DUMP_SHA256 = {
    "beacon_censor": "ef5c69600642e821c36fd6552534fdd56d892050876a94291f6586e852d17b66",
    "boston_informed": "a58f396ffd64eb8548394f46a1c0512c5780539d1a0991955eb8916692b8f27e",
    "fpa_leak": "1e1d84167ca91b2eeba3848280110f60c0af8910c4d06b4a27faa66b1b24374b",
    "gsp_demote_top": "97674074ddad8cabc8bbcc76331a28de421dd5e31696c4d92a4d911c418e9dc4",
    "gsp_raise_kplus1": "1a60208cfd86e824073470a8ddcd34f9e61bbada4a635caa7ee11e5a5ec9b2e9",
    "probe-lottery": "8ec48fc1b9c981ee1e4e059bc65dc93f30d2afa23ec36cd707fd579b6dfae001",
    "spa_raise": "e03868f10d075efdb3614558bc7f3a66ed9ce29e98cc1899f6c5bda12edf92f9",
}


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_dumped_scenarios_match_the_pinned_digest(name, tmp_path):
    assert set(DUMP_SHA256) == {*bundled_scenario_names(), "probe-lottery"}
    scenario = scenario_from_dict(lottery_doc()) if name == "probe-lottery" else load_bundled(name)
    path = tmp_path / "dumped.json"
    dump_scenario(scenario, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP_SHA256[name]
    assert load_scenario(path) == scenario


def test_a_malformed_bundled_file_is_named_by_its_label(tmp_path, monkeypatch):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "broken.json").write_text('{\n  "name": "x",\n  oops\n}\n')
    fake_resources = types.SimpleNamespace(files=lambda package: tmp_path)
    monkeypatch.setattr(scenario_module, "resources", fake_resources)
    with pytest.raises(ScenarioError, match=r"^bundled scenario 'broken':3:3: "):
        load_bundled("broken")


def test_a_bundled_file_that_is_not_utf8_is_named_by_its_label(tmp_path, monkeypatch):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "garbled.json").write_bytes(b"\xff\xfe")
    fake_resources = types.SimpleNamespace(files=lambda package: tmp_path)
    monkeypatch.setattr(scenario_module, "resources", fake_resources)
    with pytest.raises(
        ScenarioError, match=r"^bundled scenario 'garbled': not UTF-8 text: byte 0: invalid start byte$"
    ):
        load_bundled("garbled")


def test_bundled_scenarios_cover_every_mechanism():
    tags = {load_bundled(name).mechanism.tag for name in bundled_scenario_names()}
    assert tags == set(MechanismTag)


def test_dump_then_load_is_identity(tmp_path):
    scenario = scenario_from_dict(minimal_doc())
    path = tmp_path / "probe.json"
    dump_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError):
        load_bundled("no_such_scenario")


def test_missing_file_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="missing.json"):
        load_scenario("missing.json")


def test_json_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioError, match=r"broken\.json:3:3"):
        load_scenario(path)


def test_type_errors_name_the_field_path():
    doc = minimal_doc()
    doc["agents"][1]["bid"] = "four"
    with pytest.raises(ScenarioError, match=r"agents\[1\]\.bid"):
        scenario_from_dict(doc)


def test_booleans_do_not_pass_as_integers():
    doc = minimal_doc()
    doc["seed"] = True
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict(doc)


def test_duplicate_agents_rejected():
    doc = minimal_doc()
    doc["agents"][1]["agent"] = "ann"
    with pytest.raises(ScenarioError, match="ann"):
        scenario_from_dict(doc)


def test_auction_agents_need_bids():
    doc = minimal_doc()
    del doc["agents"][0]["bid"]
    with pytest.raises(ScenarioError, match=r"agents\[0\]\.bid"):
        scenario_from_dict(doc)


def test_school_agents_need_known_schools():
    doc = boston_doc()
    doc["agents"][0]["ranking"] = ["nowhere"]
    with pytest.raises(ScenarioError, match="nowhere"):
        scenario_from_dict(doc)


def test_fixed_priorities_must_cover_every_agent():
    doc = boston_doc()
    doc["mechanism"]["schools"][0]["priority"] = ["ann"]
    with pytest.raises(ScenarioError, match="bo"):
        scenario_from_dict(doc)


def test_adversary_target_must_be_an_agent():
    doc = boston_doc()
    doc["adversary"] = {"kind": "boston_sell_rankings", "target": "ghost"}
    with pytest.raises(ScenarioError, match="ghost"):
        scenario_from_dict(doc)


def test_adversary_kind_must_exist():
    doc = minimal_doc()
    doc["adversary"] = {"kind": "mind_control"}
    with pytest.raises(ScenarioError, match="mind_control"):
        scenario_from_dict(doc)


def test_adversary_must_fit_the_mechanism():
    doc = minimal_doc()
    doc["adversary"] = {"kind": "spa_raise_second_below_top"}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def wide_boston_doc(n_schools: int) -> dict:
    doc = boston_doc()
    doc["mechanism"]["schools"] = [
        {"school": f"s{i}", "capacity": 1, "priority": ["ann", "bo"]} for i in range(n_schools)
    ]
    doc["agents"] = [{"agent": "ann", "ranking": ["s0"]}, {"agent": "bo", "ranking": ["s1"]}]
    doc["adversary"] = {"kind": "boston_sell_rankings", "target": "bo"}
    return doc


@pytest.mark.parametrize("n_schools", [7, 40])
def test_a_ranking_sale_over_many_schools_runs(n_schools, tmp_path, monkeypatch, capsys):
    # the wire format's 255 schools is the only width limit
    doc = wide_boston_doc(n_schools)
    assert len(scenario_from_dict(doc).mechanism.schools) == n_schools
    (tmp_path / "wide.json").write_text(json.dumps(doc))
    for mode in ("centralized", "decentralized"):
        code, _, err = run_cli(["run", "wide.json", "--mode", mode], tmp_path, monkeypatch, capsys)
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "reports" / "probe-school.report.json").read_text())
        assert list(report["modes"]) == [mode]
    assert report["modes"]["decentralized"]["gains"]["coalition"] == "0"


def many_schools_doc(n_schools: int, ranked: list[int]) -> dict:
    names = [f"s{i}" for i in range(n_schools)]
    return {
        "name": "many-schools",
        "seed": 3,
        "mechanism": {
            "kind": "boston",
            "schools": [{"school": n, "capacity": 1, "priority": ["ann", "bo"]} for n in names],
        },
        "schedule": {"commit_deadline": 2, "reveal_deadline": 6},
        "agents": [
            {"agent": "ann", "ranking": [names[i] for i in ranked]},
            {"agent": "bo", "ranking": [names[0]]},
        ],
    }


@pytest.mark.parametrize("n_schools, ranked, problem", [
    (256, list(range(256)), "ranking longer than 255 schools"),
    (257, [256], "school index 256 outside one byte"),
])
def test_a_ranking_a_reveal_cannot_carry_names_the_field(
    n_schools, ranked, problem, tmp_path, monkeypatch, capsys
):
    (tmp_path / "wide.json").write_text(json.dumps(many_schools_doc(n_schools, ranked)))
    code, out, err = run_cli(["run", "wide.json"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: wide.json: field 'agents[0].ranking': {problem}\n"


def test_a_255_school_ranking_up_to_index_255_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "wide.json").write_text(json.dumps(many_schools_doc(256, list(range(1, 256)))))
    code, _, err = run_cli(["run", "wide.json"], tmp_path, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert (tmp_path / "reports" / "many-schools.report.json").exists()


def test_unknown_mechanism_kind():
    doc = minimal_doc()
    doc["mechanism"]["kind"] = "dutch"
    with pytest.raises(ScenarioError, match="dutch"):
        scenario_from_dict(doc)


SCHOOL = ("mechanism", "schools")
LONE_SURROGATE = json.loads('"\\ud800"')  # valid JSON, but not encodable text


@pytest.mark.parametrize(
    "field, keys, value",
    [
        ("agents[1].ranking", ("agents", 1, "ranking"), ["north", ["south"]]),
        ("miner.targets", ("miner",), {"mode": "censor", "targets": [["ann"]], "until": 3}),
        ("mechanism.schools[1].priority", (*SCHOOL, 1, "priority"), ["ann", ["bo"]]),
        ("mechanism.schools[1].priority", (*SCHOOL, 1, "priority"), ["ann", "ann"]),
        ("mechanism.schools[0].capacity", (*SCHOOL, 0, "capacity"), -1),
        ("name", ("name",), LONE_SURROGATE),
        ("agents[0].agent", ("agents", 0, "agent"), LONE_SURROGATE),
        ("mechanism.schools[1].priority", (*SCHOOL, 1, "priority"), ["ann"]),
        # the lottery would replace this order, so it is refused, not ignored
        ("mechanism.schools[0].priority", ("mechanism",), {
            "kind": "boston", "priority_mode": "single_lottery", "with_beacon": True,
            "schools": [{"school": "north", "capacity": 1, "priority": ["bo", "zed", "ann"]},
                        {"school": "south", "capacity": 1}],
        }),
    ],
)
def test_malformed_lists_and_capacities_name_the_field(field, keys, value):
    doc = boston_doc()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    with pytest.raises(ScenarioError, match=re.escape(f"field '{field}'")):
        scenario_from_dict(doc)


def censoring_adversary_doc() -> dict:
    return minimal_doc() | {
        "adversary": {"kind": "miner_censor_reveals", "target": "ann", "censor_until": 3}
    }


OUT_OF_RANGE = [
    ("name", minimal_doc, ("name",), "n" * 256),
    ("seed", minimal_doc, ("seed",), 2**64),
    ("agents[0].agent", minimal_doc, ("agents", 0, "agent"), "a" * 256),
    ("agents[0].bid", minimal_doc, ("agents", 0, "bid"), 2**64),
    ("agents[0].contribution", lottery_doc, ("agents", 0, "contribution"), 2**64),
    ("agents[0].valuation", minimal_doc, ("agents", 0, "valuation"), -1),
    ("agents[1].ranking", boston_doc, ("agents", 1, "ranking"), ["north", "north"]),
    ("agents[0].ranking", boston_doc, ("agents", 0, "ranking"), None),
    ("mechanism", minimal_doc, ("mechanism",), {"kind": "gsp"}),
    ("mechanism.priority_mode", boston_doc, ("mechanism", "priority_mode"), "raffle"),
    ("miner.mode", minimal_doc, ("miner",), {"mode": "bribed"}),
    ("mechanism.ctrs", minimal_doc, ("mechanism",), {"kind": "gsp", "ctrs": ["1e1000000"]}),
    ("mechanism.ctrs", minimal_doc, ("mechanism",), {"kind": "gsp", "ctrs": ["1e-1000000"]}),
    ("mechanism.ctrs", minimal_doc, ("mechanism",), {"kind": "gsp", "ctrs": ["1e999999999"]}),
    ("mechanism.ctrs", minimal_doc, ("mechanism",), {"kind": "gsp", "ctrs": ["1" * 65]}),
    # the adversary would mine the reveal phase in place of this miner
    ("adversary.kind", censoring_adversary_doc, ("miner",),
     {"mode": "censor", "targets": ["bo"], "until": 20}),
]


@pytest.mark.parametrize("field, base, keys, value", OUT_OF_RANGE, ids=[c[0] for c in OUT_OF_RANGE])
def test_out_of_range_values_name_the_field(field, base, keys, value):
    doc = base()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    with pytest.raises(ScenarioError, match="^" + re.escape(f"field '{field}': ")):
        scenario_from_dict(doc)


@pytest.mark.parametrize("rates", [["1.0", "0.75", "0.5"], ["1.0", "0.8"], ["0.5", "0.25"],
                                   ["4/5", "1e-300"], [1, 0.5, 5e-324]])
def test_every_rate_in_use_parses(rates):
    doc = minimal_doc()
    doc["mechanism"] = {"kind": "gsp", "ctrs": rates}
    assert len(scenario_from_dict(doc).mechanism.ctrs) == len(rates)


def test_an_honest_miner_is_one_with_no_targets():
    doc = minimal_doc()
    doc["miner"] = {"mode": "honest"}
    scenario = scenario_from_dict(doc)
    assert scenario.miner == MinerPolicy.honest()
    assert not scenario.miner.censor_targets
    assert "miner" not in scenario_to_dict(scenario)


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "..", ".", "nul\0byte"])
def test_name_must_be_one_plain_path_component(name, tmp_path, monkeypatch, capsys):
    doc = minimal_doc()
    doc["name"] = name
    with pytest.raises(ScenarioError, match="field 'name'"):
        scenario_from_dict(doc)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        ["run", str(path), "--out", str(tmp_path / "out" / "r")], tmp_path, monkeypatch, capsys
    )
    assert code == 1
    assert "field 'name'" in err
    assert not (tmp_path / "out").exists()


def test_truthful_inputs_are_deterministic_and_distinct():
    scenario = scenario_from_dict(minimal_doc())
    again = scenario_from_dict(minimal_doc())
    assert scenario.truthful_inputs == again.truthful_inputs
    assert scenario.truthful_inputs["ann"].bid == 9
    salts = [opening.salt for opening, _ in scenario.commitments.values()]
    assert salts == [opening.salt for opening, _ in again.commitments.values()]
    assert len(set(salts)) == len(salts)
    assert all(len(s) == 32 for s in salts)


def test_truthful_inputs_fill_beacon_contributions_only_when_needed():
    doc = minimal_doc()
    plain = scenario_from_dict(doc)
    assert all(inp.contribution is None for inp in plain.truthful_inputs.values())

    doc["mechanism"] = {"kind": "second_price", "with_beacon": True}
    doc["name"] = "probe-beacon"
    doc["agents"][0]["contribution"] = 42
    sealed = scenario_from_dict(doc)
    assert sealed.truthful_inputs["ann"].contribution == 42
    derived = sealed.truthful_inputs["bo"].contribution
    assert derived is not None
    assert 0 <= derived < 1 << 64


@pytest.mark.parametrize("base", [minimal_doc, boston_doc], ids=["first_price", "boston"])
def test_a_contribution_without_a_beacon_is_refused(base):
    # the contract would carry no beacon, so the value could never reach a run
    doc = base()
    doc["agents"][1]["contribution"] = 5
    with pytest.raises(ScenarioError, match=re.escape("field 'agents[1].contribution': ")
                       + ".*without a beacon"):
        scenario_from_dict(doc)


def beacon_doc() -> dict:
    doc = minimal_doc()
    doc["mechanism"] = {"kind": "beacon"}
    doc["agents"] = [{"agent": "ann"}, {"agent": "bo", "contribution": 7}]
    return doc


def doc_of_kind(kind: str) -> dict:
    if kind == "boston":
        return boston_doc()
    if kind == "beacon":
        return beacon_doc()
    doc = minimal_doc()
    doc["mechanism"] = {"kind": kind} | ({"ctrs": ["1"]} if kind == "gsp" else {})
    return doc


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("first_price", "ranking", ["Z"]),
        ("second_price", "ranking", ["north"]),
        ("gsp", "ranking", []),
        ("boston", "bid", 7),
        ("boston", "valuation", 9),
        ("beacon", "bid", 7),
        ("beacon", "valuation", 9),
        ("beacon", "ranking", ["north"]),
    ],
)
def test_an_agent_field_the_mechanism_never_reads_is_refused(kind, field, value):
    doc = doc_of_kind(kind)
    scenario_from_dict(doc)
    doc["agents"][1][field] = value
    with pytest.raises(
        ScenarioError, match=re.escape(f"field 'agents[1].{field}': a {kind} contract takes no {field}")
    ):
        scenario_from_dict(doc)


def run_cli(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_run_writes_both_report_files(tmp_path, monkeypatch, capsys):
    path = tmp_path / "probe.json"
    dump_scenario(scenario_from_dict(minimal_doc()), path)
    code, out, err = run_cli(
        ["run", str(path), "--out", str(tmp_path / "r")], tmp_path, monkeypatch, capsys
    )
    assert code == 0
    assert (tmp_path / "r" / "probe.report.json").exists()
    assert (tmp_path / "r" / "probe.report.txt").exists()
    assert "centralized" in out and "decentralized" in out


def test_cli_run_single_mode(tmp_path, monkeypatch, capsys):
    path = tmp_path / "probe.json"
    dump_scenario(scenario_from_dict(minimal_doc()), path)
    code, out, _ = run_cli(
        ["run", str(path), "--mode", "centralized", "--out", str(tmp_path / "r")],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "r" / "probe.report.json").read_text())
    assert list(doc["modes"]) == ["centralized"]


def test_cli_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    path = tmp_path / "probe.json"
    dump_scenario(scenario_from_dict(minimal_doc()), path)
    for out_name in ["a", "b"]:
        code, _, _ = run_cli(
            ["run", str(path), "--out", str(tmp_path / out_name)],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
    for suffix in ["report.json", "report.txt"]:
        first = (tmp_path / "a" / f"probe.{suffix}").read_bytes()
        second = (tmp_path / "b" / f"probe.{suffix}").read_bytes()
        assert first == second


def test_cli_out_dir_env_var(tmp_path, monkeypatch, capsys):
    path = tmp_path / "probe.json"
    dump_scenario(scenario_from_dict(minimal_doc()), path)
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "from-env"))
    code, _, _ = run_cli(["run", str(path)], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert (tmp_path / "from-env" / "probe.report.json").exists()


def test_cli_validation_failure_exits_1(tmp_path, monkeypatch, capsys):
    doc = minimal_doc()
    doc["agents"][1]["agent"] = "ann"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["run", str(path)], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_cli_missing_file_exits_1(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["run", "absent.json"], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "absent.json" in err


@pytest.mark.parametrize(
    "content, problem",
    [
        (b"\xff\xfe", "not UTF-8 text"),
        (b"[" * 100_000, "JSON nested too deeply"),
        (b'{"seed": ' + b"9" * 5000 + b"}", "integer literal has too many digits"),
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_undecodable_scenario_files_exit_1(content, problem, tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioError, match=problem):
        load_scenario(path)
    code, out, err = run_cli(["run", "bad.json"], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad.json: ") and problem in err


@pytest.mark.parametrize(
    "doc, member, repeated, key",
    [
        (minimal_doc, '"seed": 5', '"seed": 1, "seed": 5', "seed"),
        (minimal_doc, '"reveal_deadline": 6', '"reveal_deadline": 6, "reveal_deadline": 7',
         "reveal_deadline"),
        (minimal_doc, '"bid": 9', '"bid": 3, "bid": 9', "bid"),
        (boston_doc, '"capacity": 1', '"capacity": 1, "capacity": 2', "capacity"),
    ],
    ids=["top-level", "schedule", "agent", "school"],
)
def test_a_repeated_key_exits_1_naming_the_key(
    doc, member, repeated, key, tmp_path, monkeypatch, capsys
):
    # plain JSON decoding would keep the last value and drop the first silently
    text = json.dumps(doc())
    assert text.count(member) >= 1
    (tmp_path / "dup.json").write_text(text.replace(member, repeated, 1))
    code, out, err = run_cli(
        ["run", "dup.json", "--out", str(tmp_path / "out")], tmp_path, monkeypatch, capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: dup.json: duplicate key '{key}'\n"
    assert not (tmp_path / "out").exists()


def test_a_bundled_file_with_a_repeated_key_is_named_by_its_label(tmp_path, monkeypatch):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "x.json").write_text('{"name": "x", "name": "y"}')
    fake_resources = types.SimpleNamespace(files=lambda package: tmp_path)
    monkeypatch.setattr(scenario_module, "resources", fake_resources)
    with pytest.raises(ScenarioError, match=r"^bundled scenario 'x': duplicate key 'name'$"):
        load_bundled("x")


@pytest.mark.parametrize("name, out", [("probe", "taken"), ("n" * 250, "reports")])
def test_cli_unwritable_reports_exit_1(name, out, tmp_path, monkeypatch, capsys):
    # "taken" is a file, not a directory; a 250-byte name is a valid contract
    # id but makes a report file name longer than 255 bytes
    doc = minimal_doc()
    doc["name"] = name
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    (tmp_path / "taken").write_text("")
    code, _, err = run_cli(["run", "scenario.json", "--out", out], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error: ")



# one process, one parser: a run of one mode, a usage error, a run of both
# modes (no --mode, so the default must not stick) and a beacon check
PARSER_REUSE_CALLS = [
    ["run", "probe.json", "--mode", "centralized", "--out", "out1"],
    ["run", "probe.json", "--mode", "bogus", "--out", "out2"],
    ["run", "probe.json", "--out", "out3"],
    ["beacon-uniformity", "--trials", "2000", "--seed", "1"],
]


def tree_bytes(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_the_reused_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    for side in ("shared", "fresh"):
        (tmp_path / side).mkdir()
        dump_scenario(scenario_from_dict(boston_doc()), tmp_path / side / "probe.json")
    # usage text wraps at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path / "shared")
    shared = []
    for argv in PARSER_REUSE_CALLS:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        shared.append((code, captured.out, captured.err))

    src = Path(__file__).resolve().parents[1] / "src"
    fresh = []
    for argv in PARSER_REUSE_CALLS:
        done = subprocess.run(
            [sys.executable, "-m", "trustless_mech.cli", *argv],
            cwd=tmp_path / "fresh", env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))

    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert shared == fresh
    assert tree_bytes(tmp_path / "shared") == tree_bytes(tmp_path / "fresh")
    doc = json.loads((tmp_path / "shared" / "out3" / "probe-school.report.json").read_text())
    assert list(doc["modes"]) == ["centralized", "decentralized"]
    assert not (tmp_path / "shared" / "out2").exists()


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_a_scenario_that_has_run_pickles_and_deep_copies(name, tmp_path):
    scenario = load_bundled(name)
    text, paths = cli._write_reports(tmp_path / "ran", scenario, cli._run_modes(scenario, None))
    assert {"truthful_inputs", "commitments"} <= vars(scenario).keys()
    for how, twin in (("pickle", pickle.loads(pickle.dumps(scenario))), ("deepcopy", copy.deepcopy(scenario))):
        assert twin == scenario
        twin_text, twin_paths = cli._write_reports(tmp_path / how, twin, cli._run_modes(twin, None))
        assert twin_text == text
        assert [p.read_bytes() for p in twin_paths] == [p.read_bytes() for p in paths]

def test_cli_attack_suite_shows_sealed_zeros(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["attack-suite", "--out", str(tmp_path / "suite")], tmp_path, monkeypatch, capsys
    )
    assert code == 0
    summary = json.loads((tmp_path / "suite" / "summary.json").read_text())
    assert len(summary["rows"]) == len(bundled_scenario_names())
    assert all(row["decentralized"] == "0" for row in summary["rows"])
    for name in bundled_scenario_names():
        assert (tmp_path / "suite" / f"{name}.report.json").exists()


def test_cli_beacon_uniformity_passes(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["beacon-uniformity", "--trials", "3000"], tmp_path, monkeypatch, capsys
    )
    assert code == 0
    assert "trials: 3000" in out
    assert out.rstrip().splitlines()[-1].startswith("PASS")


def test_cli_beacon_uniformity_fails_on_skewed_counts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "uniformity_histogram", lambda trials, seed: [trials] + [0] * 63)
    code, out, _ = run_cli(["beacon-uniformity", "--trials", "640"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert out.splitlines()[-1].startswith("FAIL: uniformity rejected")


def test_cli_invariant_violation_exits_2(tmp_path, monkeypatch, capsys):
    def broken(trials, seed):
        raise InvariantViolation("a trial went missing")

    monkeypatch.setattr(cli, "uniformity_histogram", broken)
    code, out, err = run_cli(["beacon-uniformity", "--trials", "10"], tmp_path, monkeypatch, capsys)
    assert (code, out, err) == (2, "", "invariant violation: a trial went missing\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "x.json", "--mode", "bogus"],
        ["beacon-uniformity"],
        ["beacon-uniformity", "--trials", "abc"],
    ],
    ids=["unknown-choice", "missing-trials", "non-integer-trials"],
)
def test_cli_usage_error_exits_2_with_usage_and_no_traceback(argv, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "trustless_mech.cli", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage:")
    assert "Traceback" not in done.stderr


# sha256 of `beacon-uniformity --trials 20000 --seed S` stdout, the op the
# benchmark times, frozen from the per-draw histogram loop
BEACON_UNIFORMITY_SHA256 = {
    0: "97cf49ebfac597343f7b8a75f024dab6004cd44794ad719b34e147e8b6e4fa2d",
    1: "0a6bd7db55e26b2656140c9dc69cf79eea3ebd233140f46fcbbf054c9560e127",
    7: "ca8e95e532f831979bc80ec64fc445a6e572d92ff2903e59c7afa146e247c87f",
}


@pytest.mark.parametrize("seed", sorted(BEACON_UNIFORMITY_SHA256))
def test_cli_beacon_uniformity_output_matches_the_pinned_digest(seed, tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["beacon-uniformity", "--trials", "20000", "--seed", str(seed)], tmp_path, monkeypatch, capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BEACON_UNIFORMITY_SHA256[seed]


def test_beacon_uniformity_digest_matches_the_digest_the_ci_workflow_pins():
    # the installed-package CI job checks the seed-1 output with `sha256sum --check`
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    found = re.findall(
        r"trustless-mech beacon-uniformity --trials 20000 --seed (\d+) > beacon\.txt\n"
        r'\s*echo "([0-9a-f]{64})  beacon\.txt" \| sha256sum --check',
        workflow.read_text(),
    )
    assert len(found) == 1
    seed, pin = found[0]
    assert pin == BEACON_UNIFORMITY_SHA256[int(seed)]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--trials", "0"], "--trials"),
        (["--trials", "-5"], "--trials"),
        (["--trials", "10", "--seed", "-1"], "--seed"),
        (["--trials", "10", "--seed", str(2**64)], "--seed"),
    ],
)
def test_cli_beacon_uniformity_names_the_bad_flag(argv, flag, tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["beacon-uniformity", *argv], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def test_cli_beacon_uniformity_prints_what_scipy_prints(tmp_path, monkeypatch, capsys):
    mismatched = []
    for seed in range(60):
        trials = 500 + 97 * seed
        _, out, _ = run_cli(
            ["beacon-uniformity", "--trials", str(trials), "--seed", str(seed)],
            tmp_path, monkeypatch, capsys,
        )
        result = scipy.stats.chisquare(uniformity_histogram(trials, seed=seed))
        expected = [
            f"chi-square statistic: {result.statistic:.4f}",
            f"p-value: {result.pvalue:.6f}",
        ]
        if out.splitlines()[2:4] != expected:
            mismatched.append(seed)
    assert mismatched == []


def test_the_cli_imports_neither_scipy_nor_numpy():
    # either one would add about a second of start-up to every command
    probe = "import sys, trustless_mech.cli; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def _run_cli_in_c_locale(utf8_mode: int, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """The CLI in a subprocess under the C locale, with UTF-8 mode set by ``utf8_mode``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))
    }
    env.update(PYTHONPATH=str(src), PYTHONCOERCECLOCALE="0", LC_ALL="C")
    cwd.mkdir()
    return subprocess.run(
        [sys.executable, "-X", f"utf8={utf8_mode}", "-m", "trustless_mech.cli", *args],
        cwd=cwd, env=env, capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("field", ["agent", "name"])
def test_run_under_an_ascii_locale_ends_in_a_diagnostic_or_the_utf8_bytes(field, tmp_path):
    # an agent name reaches only the report text and stdout; a scenario name
    # also reaches the report paths
    doc = scenario_to_dict(load_bundled("fpa_leak"))
    if field == "agent":
        doc["agents"][0]["agent"] = "zo\u00eb"
    else:
        doc["name"] = "zo\u00eb"
    (tmp_path / "s.json").write_text(json.dumps(doc))
    args = ["run", str(tmp_path / "s.json"), "--out", "out"]
    utf8 = _run_cli_in_c_locale(1, args, tmp_path / "utf8")
    assert utf8.returncode == 0, utf8.stderr
    ascii_run = _run_cli_in_c_locale(0, args, tmp_path / "ascii")
    assert b"Traceback" not in ascii_run.stderr
    if ascii_run.returncode != 0:
        assert ascii_run.returncode == 1
        assert ascii_run.stderr.startswith(b"error: ")
    written = tmp_path / "ascii" / "out"
    for path in written.iterdir() if written.exists() else ():
        assert path.read_bytes() == (tmp_path / "utf8" / "out" / path.name).read_bytes()


def test_a_bad_field_is_named_once():
    # the type error comes from the field itself, not from wrapping the
    # dataclass that holds it
    doc = minimal_doc()
    doc["schedule"]["commit_deadline"] = 2.0
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == "field 'schedule.commit_deadline': expected int, got float"

    doc = minimal_doc()
    doc["adversary"] = {"kind": "miner_censor_reveals", "target": 3, "censor_until": 4}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == "field 'adversary.target': expected str, got int"


def test_a_dataclass_error_still_names_its_object():
    doc = minimal_doc()
    doc["schedule"]["reveal_deadline"] = 2
    with pytest.raises(ScenarioError, match=r"^field 'schedule': need 0 < commit deadline"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "field, keys",
    [
        ("adversery", ()),
        ("schedule.reveal", ("schedule",)),
        ("mechanism.with_beacons", ("mechanism",)),
        ("mechanism.schools[1].seats", (*SCHOOL, 1)),
        ("agents[0].rank", ("agents", 0)),
        ("adversary.targets", ("adversary",)),
        ("miner.target", ("miner",)),
    ],
)
def test_unknown_keys_are_rejected_by_path(field, keys):
    doc = boston_doc()
    doc["adversary"] = {"kind": "boston_sell_rankings", "target": "bo"}
    doc["miner"] = {"mode": "censor", "targets": ["ann"], "until": 3}
    parent = doc
    for key in keys:
        parent = parent[key]
    parent[field.rsplit(".", 1)[-1]] = 1
    with pytest.raises(ScenarioError, match=re.escape(f"field '{field}': unknown key")):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "keys, field",
    [
        (("",), '[""]'),
        (("schedule", "it's"), 'schedule["it\\u0027s"]'),
        (("schedule.commit_deadline",), '["schedule.commit_deadline"]'),
        (("schedule", "reveal[0]"), 'schedule["reveal[0]"]'),
    ],
)
def test_an_unknown_key_that_is_no_plain_name_is_named_as_a_json_string(keys, field):
    doc = boston_doc()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = 1
    with pytest.raises(ScenarioError, match=re.escape(f"field '{field}': unknown key")):
        scenario_from_dict(doc)


def test_every_key_the_writer_emits_is_known():
    # a censoring adversary and a censoring miner cannot share a scenario,
    # and only an auction agent carries a valuation, so three documents
    # cover every key
    doc = boston_doc()
    doc["mechanism"]["priority_mode"] = None
    doc["mechanism"]["with_beacon"] = True
    doc["agents"][0].update(contribution=9)
    with_adversary = doc | {
        "adversary": {"kind": "miner_censor_reveals", "target": "bo", "censor_until": 4}
    }
    with_miner = doc | {"miner": {"mode": "censor", "targets": ["ann"], "until": 3}}
    with_valuation = minimal_doc()
    with_valuation["agents"][0].update(valuation=1)
    for each in (with_adversary, with_miner, with_valuation):
        scenario = scenario_from_dict(each)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


CENSOR_ANN = {"kind": "miner_censor_reveals", "target": "ann"}


@pytest.mark.parametrize(
    "miner, field",
    [
        ({"mode": "censor", "targets": ["zzz"], "until": 5}, "miner.targets"),
        ({"mode": "censor", "targets": ["ann", "zzz"], "until": 5}, "miner.targets"),
        ({"mode": "censor", "targets": ["ann"], "until": -5}, "miner.until"),
        ({"mode": "censor", "targets": [], "until": 5}, "miner.targets"),
        # reveals are mined only after the commit deadline (2), so a miner
        # that stops censoring by then censors nothing
        ({"mode": "censor", "targets": ["ann"], "until": 0}, "miner.until"),
        ({"mode": "censor", "targets": ["ann"], "until": 2}, "miner.until"),
        # a scenario adversary that censors obeys the same rule, its one
        # rule for censor_until
        (CENSOR_ANN | {"censor_until": 0}, "adversary.censor_until"),
        (CENSOR_ANN | {"censor_until": 2}, "adversary.censor_until"),
        (CENSOR_ANN | {"censor_until": -1}, "adversary.censor_until"),
    ],
)
def test_a_censoring_miner_must_be_able_to_censor(miner, field):
    doc = minimal_doc()
    doc[field.split(".")[0]] = miner
    with pytest.raises(ScenarioError, match=re.escape(f"field '{field}'")):
        scenario_from_dict(doc)


def test_a_censoring_miner_names_each_target_once():
    # the policy holds a set, so a repeated target would be merged unseen
    # and written back once
    doc = minimal_doc()
    doc["miner"] = {"mode": "censor", "targets": ["bo", "ann", "bo"], "until": 4}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == "field 'miner.targets': lists agent 'bo' twice"


def test_a_censor_that_outlasts_the_commit_deadline_parses():
    adversary = CENSOR_ANN | {"censor_until": 3}
    scenario = scenario_from_dict(minimal_doc() | {"adversary": adversary})
    assert scenario.adversary.censor_until == 3
    miner = {"mode": "censor", "targets": ["bo"], "until": 3}
    scenario = scenario_from_dict(minimal_doc() | {"miner": miner})
    assert scenario.miner == MinerPolicy.censor({"bo"}, 3)


@pytest.mark.parametrize(
    "entry, field, problem",
    [
        ({"mode": "honest", "targets": ["zzz"], "until": -4}, "miner.targets", "honest miner"),
        ({"mode": "honest", "until": 5}, "miner.until", "honest miner"),
        ({"mode": "honest", "targets": []}, "miner.targets", "honest miner"),
        ({"kind": "fpa_tell_top_the_second", "target": "ann"}, "adversary.target", "target"),
        ({"kind": "spa_raise_second_below_top", "target": "bo"}, "adversary.target", "target"),
    ],
)
def test_a_field_its_kind_never_reads_is_rejected(entry, field, problem):
    doc = minimal_doc()
    doc[field.split(".")[0]] = entry
    with pytest.raises(ScenarioError, match=re.escape(f"field '{field}': ") + ".*" + problem):
        scenario_from_dict(doc)


def test_truthful_inputs_are_read_only():
    scenario = scenario_from_dict(minimal_doc())
    with pytest.raises(TypeError):
        scenario.truthful_inputs["cy"] = AgentInput(bid=1)
    assert list(scenario.truthful_inputs) == ["ann", "bo"]
    assert scenario.truthful_inputs is scenario.truthful_inputs


def pinned_run_doc() -> dict:
    """300 GSP bidders for 4 slots: four distinct top bids, then many tied
    ones. A miner censors every odd bidder's reveal past the reveal
    deadline, so half are excluded in the decentralized run and the beacon
    breaks a tie for the last slot; centrally, the top bidder is demoted."""
    names = [f"b{i:03d}" for i in range(300)]
    bids = [70, 65, 60, 50, *((i * 37) % 40 + 1 for i in range(4, 300))]
    return {
        "name": "pinned",
        "seed": 2024,
        "mechanism": {"kind": "gsp", "ctrs": ["0.5", "0.3", "0.2", "0.125"], "with_beacon": True},
        "schedule": {"commit_deadline": 2, "reveal_deadline": 5},
        "agents": [
            {"agent": name, "bid": bid, "valuation": bid + i % 3}
            for i, (name, bid) in enumerate(zip(names, bids))
        ],
        "adversary": {"kind": "gsp_demote_top_bidder"},
        "miner": {"mode": "censor", "targets": names[1::2], "until": 8},
    }


# sha256 of `run` on pinned_run_doc(): stdout, then the JSON and text
# reports, each framed by its name; recompute only for a change meant to
# alter report bytes
RUN_OUTPUT_SHA256 = "308ae8e5efbfe6706c674117ecdd42be52f6bac484f322cac4431442d4e4c730"


def test_run_output_matches_the_pinned_digest(tmp_path, monkeypatch, capsys):
    (tmp_path / "pinned.json").write_text(json.dumps(pinned_run_doc()))
    code, out, _ = run_cli(["run", "pinned.json", "--out", "out"], tmp_path, monkeypatch, capsys)
    assert code == 0
    text = (tmp_path / "out" / "pinned.report.txt").read_bytes()
    stdout = out.encode()
    assert stdout.startswith(text)
    assert stdout[len(text):] == b"wrote out/pinned.report.json\nwrote out/pinned.report.txt\n"
    digest = hashlib.sha256(b"\0stdout\0" + stdout)
    for name in ("pinned.report.json", "pinned.report.txt"):
        digest.update(b"\0" + name.encode() + b"\0" + (tmp_path / "out" / name).read_bytes())
    assert digest.hexdigest() == RUN_OUTPUT_SHA256
