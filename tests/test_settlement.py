"""Payload codecs and the bridge from verified reveals to mechanism outcomes."""

import json
from fractions import Fraction

import pytest

from trustless_mech import (
    AgentInput,
    LotteryMode,
    MechanismKind,
    MechanismTag,
    SchoolSpec,
    SettlementInput,
    SlotCTRs,
    aggregate,
    decode_agent_payload,
    derive_permutation,
    encode_agent_payload,
    settle,
    settle_inputs,
)
from trustless_mech.errors import ValidationError, WireFormatError
from trustless_mech.settlement import (
    NOTE_DEGENERATE_BEACON,
    NOTE_NO_PARTICIPANTS,
    NOTE_RANK_UTILITY,
)

FPA = MechanismKind(tag=MechanismTag.FIRST_PRICE)
SPA = MechanismKind(tag=MechanismTag.SECOND_PRICE)
BEACON = MechanismKind(tag=MechanismTag.BEACON)
FPA_WITH_BEACON = MechanismKind(tag=MechanismTag.FIRST_PRICE, with_beacon=True)
SCHOOLS = (
    SchoolSpec("north", 1, priority=("ann", "bo", "cy")),
    SchoolSpec("south", 1, priority=("ann", "bo", "cy")),
)
BOSTON = MechanismKind(tag=MechanismTag.BOSTON, schools=SCHOOLS)
BOSTON_LOTTERY = MechanismKind(
    tag=MechanismTag.BOSTON,
    schools=(SchoolSpec("north", 1), SchoolSpec("south", 1)),
    priority_mode=LotteryMode.PER_SCHOOL,
    with_beacon=True,
)


def test_bid_payload_is_eight_big_endian_bytes():
    data = encode_agent_payload(FPA, AgentInput(bid=10))
    assert data == b"\x00" * 7 + b"\x0a"
    assert decode_agent_payload(FPA, data) == AgentInput(bid=10)


def test_ranking_payload_uses_school_indices():
    data = encode_agent_payload(BOSTON, AgentInput(ranking=("south", "north")))
    assert data == b"\x02\x01\x00"
    assert decode_agent_payload(BOSTON, data) == AgentInput(ranking=("south", "north"))


def test_contribution_payload_is_eight_bytes():
    data = encode_agent_payload(BEACON, AgentInput(contribution=5))
    assert data == b"\x00" * 7 + b"\x05"
    assert decode_agent_payload(BEACON, data) == AgentInput(contribution=5)


def test_beacon_suffix_rides_behind_the_bid():
    data = encode_agent_payload(FPA_WITH_BEACON, AgentInput(bid=3, contribution=9))
    assert len(data) == 16
    assert data[:8] == b"\x00" * 7 + b"\x03"
    assert data[8:] == b"\x00" * 7 + b"\x09"
    assert decode_agent_payload(FPA_WITH_BEACON, data) == AgentInput(bid=3, contribution=9)


def test_payload_round_trips_for_every_mechanism_shape():
    cases = [
        (FPA, AgentInput(bid=0)),
        (SPA, AgentInput(bid=(1 << 64) - 1)),
        (BEACON, AgentInput(contribution=123456)),
        (BOSTON, AgentInput(ranking=())),
        (BOSTON, AgentInput(ranking=("north",))),
        (FPA_WITH_BEACON, AgentInput(bid=77, contribution=0)),
        (BOSTON_LOTTERY, AgentInput(ranking=("south",), contribution=4)),
    ]
    for mechanism, agent_input in cases:
        data = encode_agent_payload(mechanism, agent_input)
        assert decode_agent_payload(mechanism, data) == agent_input


def test_encode_rejects_missing_fields():
    with pytest.raises(ValidationError):
        encode_agent_payload(FPA, AgentInput())
    with pytest.raises(ValidationError):
        encode_agent_payload(BEACON, AgentInput(bid=1))
    with pytest.raises(ValidationError):
        encode_agent_payload(BOSTON, AgentInput(bid=1))
    with pytest.raises(ValidationError):
        encode_agent_payload(FPA_WITH_BEACON, AgentInput(bid=1))
    with pytest.raises(ValidationError):
        encode_agent_payload(BOSTON, AgentInput(ranking=("nowhere",)))


def test_decode_rejects_malformed_payloads():
    with pytest.raises(WireFormatError):
        decode_agent_payload(FPA, b"\x00" * 7)
    with pytest.raises(WireFormatError):
        decode_agent_payload(FPA_WITH_BEACON, b"\x00" * 7)
    with pytest.raises(WireFormatError):
        decode_agent_payload(BOSTON, b"\x01\x05")
    with pytest.raises(WireFormatError):
        decode_agent_payload(BOSTON, b"")


def test_settle_inputs_runs_the_auction():
    result = settle_inputs(FPA, {"alice": AgentInput(bid=10), "bob": AgentInput(bid=5)})
    assert result.participants == ("alice", "bob")
    assert result.auction.allocation == {0: "alice"}
    assert result.auction.payments == {"alice": 10}
    assert result.beacon is None
    assert result.notes == ()


def test_settle_inputs_with_no_participants():
    result = settle_inputs(SPA, {})
    assert result.participants == ()
    assert result.auction.allocation == {}
    assert NOTE_NO_PARTICIPANTS in result.notes


def test_degenerate_gsp_after_exclusions_is_noted_not_fatal():
    gsp_kind = MechanismKind(tag=MechanismTag.GSP, ctrs=SlotCTRs((Fraction(1), Fraction(1, 2))))
    result = settle_inputs(gsp_kind, {"alice": AgentInput(bid=4)}, excluded=frozenset({"bob", "cy"}))
    assert result.auction.allocation == {}
    assert result.excluded == ("bob", "cy")
    assert any("degenerate GSP" in note for note in result.notes)


@pytest.mark.parametrize("bids", [{}, {"alice": 4}, {"alice": 4, "bob": 7, "cy": 2}],
                         ids=["no-bids", "too-few-bids", "enough-bids"])
def test_a_gsp_outcome_is_always_per_click(bids):
    gsp_kind = MechanismKind(tag=MechanismTag.GSP, ctrs=SlotCTRs((Fraction(1), Fraction(1, 2))))
    result = settle_inputs(gsp_kind, {a: AgentInput(bid=b) for a, b in bids.items()})
    assert result.auction.ctrs == gsp_kind.ctrs
    assert result.canonical()["per_click"] is True


def test_beacon_contract_settles_to_permuted_lottery():
    inputs = {"A": AgentInput(contribution=3), "B": AgentInput(contribution=5)}
    result = settle_inputs(BEACON, inputs)
    assert result.beacon.value == 8
    assert result.beacon.contributors == ("A", "B")
    perm = derive_permutation(result.beacon, 2, domain=0)
    assert result.lottery == tuple(["A", "B"][p] for p in perm)


def test_beacon_contract_with_no_contributors_is_degenerate():
    result = settle_inputs(BEACON, {})
    assert result.beacon.value == 0
    assert result.lottery == ()
    assert NOTE_DEGENERATE_BEACON in result.notes


def test_attached_beacon_drives_the_tie_break():
    inputs = {
        "ann": AgentInput(bid=5, contribution=11),
        "bo": AgentInput(bid=5, contribution=31),
    }
    result = settle_inputs(FPA_WITH_BEACON, inputs)
    expected_beacon = aggregate({"ann": 11, "bo": 31})
    assert result.beacon == expected_beacon
    perm = derive_permutation(expected_beacon, 2, domain=0)
    expected_winner = [["ann", "bo"][p] for p in perm][0]
    assert result.auction.allocation == {0: expected_winner}
    # the tied price is the tied amount either way
    assert result.auction.payments == {expected_winner: 5}


def test_missing_contributions_fall_back_to_identifier_order():
    # nobody attached a contribution: note the degenerate beacon and settle
    # ties by identifier
    inputs = {"bo": AgentInput(bid=5), "ann": AgentInput(bid=5)}
    result = settle_inputs(FPA_WITH_BEACON, inputs)
    assert NOTE_DEGENERATE_BEACON in result.notes
    assert result.beacon is None
    assert result.auction.allocation == {0: "ann"}


def test_boston_settlement_with_fixed_priorities():
    inputs = {
        "ann": AgentInput(ranking=("north", "south")),
        "bo": AgentInput(ranking=("north", "south")),
        "cy": AgentInput(ranking=("south", "north")),
    }
    result = settle_inputs(BOSTON, inputs)
    assert result.matching.assignment == {"ann": "north", "bo": None, "cy": "south"}
    assert NOTE_RANK_UTILITY in result.notes


def test_boston_lottery_priorities_come_from_the_beacon():
    from trustless_mech.settlement import lottery_schools
    inputs = {
        "pat": AgentInput(ranking=("north",), contribution=5),
        "quinn": AgentInput(ranking=("north",), contribution=7),
        "rae": AgentInput(ranking=("north",), contribution=0),
    }
    result = settle_inputs(BOSTON_LOTTERY, inputs)
    beacon = aggregate({"pat": 5, "quinn": 7, "rae": 0})
    schools = lottery_schools(BOSTON_LOTTERY, result.participants, beacon)
    expected_winner = schools[0].priority[0]
    assert result.matching.assignment[expected_winner] == "north"
    losers = set(result.participants) - {expected_winner}
    assert all(result.matching.assignment[s] is None for s in losers)


def test_boston_lottery_without_contributions_uses_identifier_order():
    inputs = {
        "bo": AgentInput(ranking=("north",)),
        "ann": AgentInput(ranking=("north",)),
    }
    result = settle_inputs(BOSTON_LOTTERY, inputs)
    assert NOTE_DEGENERATE_BEACON in result.notes
    assert result.matching.assignment == {"ann": "north", "bo": None}


def test_settle_drops_and_reports_malformed_payloads():
    payloads = (
        ("alice", encode_agent_payload(FPA, AgentInput(bid=10))),
        ("mallory", b"\x00\x01"),
        ("bob", encode_agent_payload(FPA, AgentInput(bid=4))),
    )
    settlement_input = SettlementInput(
        contract_id="c", payloads=payloads, excluded=frozenset({"dave"})
    )
    result = settle(FPA, settlement_input)
    assert result.malformed == ("mallory",)
    assert result.participants == ("alice", "bob")
    assert result.excluded == ("dave",)
    assert result.auction.allocation == {0: "alice"}


def test_canonical_projection_is_json_ready_and_stable():
    inputs = {"alice": AgentInput(bid=10), "bob": AgentInput(bid=5)}
    a = settle_inputs(FPA, inputs).canonical()
    b = settle_inputs(FPA, inputs).canonical()
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["mechanism"] == "first_price"
    assert a["allocation"] == {"0": "alice"}
    assert a["payments"] == {"alice": 10}


def test_canonical_projection_carries_matching_and_beacon_sections():
    result = settle_inputs(BEACON, {"A": AgentInput(contribution=3)})
    doc = result.canonical()
    assert doc["beacon_value"] == 3
    assert doc["contributors"] == ["A"]
    assert doc["lottery"] == ["A"]

    boston_doc = settle_inputs(
        BOSTON, {"ann": AgentInput(ranking=("north",))}
    ).canonical()
    assert boston_doc["assignment"] == {"ann": "north"}
    assert boston_doc["round_assigned"] == {"ann": 1}
