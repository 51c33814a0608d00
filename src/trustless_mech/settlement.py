"""Turns verified reveal payloads into mechanism outcomes.

This is the glue between the contract runtime and the pure mechanisms: it
decodes each payload for the contract's mechanism kind, aggregates beacon
contributions when present, derives the tie-break permutation or lottery
priorities, and runs the allocation rule. Both execution modes funnel
through `settle_inputs`, so a centralized run and a decentralized run of
the same inputs settle identically by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .auctions import (
    Bid,
    decode_bid,
    encode_bid,
    first_price,
    gsp,
    second_price,
    AuctionOutcome,
)
from .beacon import (
    CONTRIBUTION_SIZE,
    BeaconOutput,
    aggregate,
    beacon_order,
    decode_contribution,
    encode_contribution,
)
from .contract import MechanismKind, MechanismTag, SettlementInput
from .errors import ValidationError, WireFormatError
from .school_choice import (
    Matching,
    PreferenceRanking,
    SchoolSpec,
    boston,
    decode_ranking,
    encode_ranking,
    lottery_priorities,
)

NOTE_DEGENERATE_BEACON = "degenerate beacon: no verified contributions, identifier-order fallback"
NOTE_NO_PARTICIPANTS = "no participants after exclusions; empty outcome"
NOTE_RANK_UTILITY = "school-choice utilities are ordinal ranks (package convention, not from the mechanism)"


@dataclass(frozen=True)
class AgentInput:
    """One agent's truthful (or deviated) mechanism input in plain form."""

    bid: int | None = None
    ranking: tuple[str, ...] | None = None
    contribution: int | None = None


@dataclass(frozen=True)
class SettlementResult:
    """Everything a settled contract produced, in comparable plain data."""

    tag: MechanismTag
    participants: tuple[str, ...]
    excluded: tuple[str, ...]
    malformed: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    auction: AuctionOutcome | None = None
    matching: Matching | None = None
    beacon: BeaconOutput | None = None
    lottery: tuple[str, ...] = ()

    def canonical(self) -> dict:
        """JSON-able projection used for reports and outcome comparisons."""
        doc: dict = {
            "mechanism": self.tag.value,
            "participants": list(self.participants),
            "excluded": sorted(self.excluded),
            "malformed": sorted(self.malformed),
            "notes": list(self.notes),
        }
        if self.auction is not None:
            doc["allocation"] = {str(k): v for k, v in sorted(self.auction.allocation.items())}
            doc["payments"] = dict(sorted(self.auction.payments.items()))
            doc["per_click"] = self.auction.per_click
        if self.matching is not None:
            doc["assignment"] = dict(sorted(self.matching.assignment.items()))
            doc["round_assigned"] = dict(sorted(self.matching.round_assigned.items()))
        if self.beacon is not None:
            doc["beacon_value"] = self.beacon.value
            doc["contributors"] = list(self.beacon.contributors)
        if self.lottery:
            doc["lottery"] = list(self.lottery)
        return doc


def encode_agent_payload(mechanism: MechanismKind, agent_input: AgentInput) -> bytes:
    """Mechanism portion of a reveal payload (salt excluded), bit-exact."""
    if mechanism.tag is MechanismTag.BEACON:
        if agent_input.contribution is None:
            raise ValidationError("beacon contract input needs a contribution")
        return encode_contribution(agent_input.contribution)

    if mechanism.tag is MechanismTag.BOSTON:
        if agent_input.ranking is None:
            raise ValidationError("school-choice input needs a ranking")
        index_of = {school: i for i, school in enumerate(mechanism.school_ids())}
        try:
            body = encode_ranking([index_of[s] for s in agent_input.ranking])
        except KeyError as exc:
            raise ValidationError(f"ranking names unknown school {exc.args[0]!r}") from exc
    else:
        if agent_input.bid is None:
            raise ValidationError(f"{mechanism.tag.value} input needs a bid")
        body = encode_bid(agent_input.bid)

    if mechanism.with_beacon:
        if agent_input.contribution is None:
            raise ValidationError("contract carries a beacon; input needs a contribution")
        body += encode_contribution(agent_input.contribution)
    return body


def decode_agent_payload(mechanism: MechanismKind, data: bytes) -> AgentInput:
    if mechanism.tag is MechanismTag.BEACON:
        return AgentInput(contribution=decode_contribution(data))

    contribution = None
    if mechanism.with_beacon:
        if len(data) < CONTRIBUTION_SIZE:
            raise WireFormatError("payload too short for appended contribution")
        contribution = decode_contribution(data[-CONTRIBUTION_SIZE:])
        data = data[:-CONTRIBUTION_SIZE]

    if mechanism.tag is MechanismTag.BOSTON:
        indices = decode_ranking(data)
        ids = mechanism.school_ids()
        for idx in indices:
            if idx >= len(ids):
                raise WireFormatError(f"school index {idx} out of range")
        return AgentInput(ranking=tuple(ids[i] for i in indices), contribution=contribution)
    return AgentInput(bid=decode_bid(data), contribution=contribution)


def input_beacon(inputs: Mapping[str, AgentInput]) -> BeaconOutput:
    """Aggregate of every input that carries a beacon contribution."""
    return aggregate(
        {a: inputs[a].contribution for a in sorted(inputs) if inputs[a].contribution is not None}
    )


def settle_inputs(
    mechanism: MechanismKind,
    inputs: dict[str, AgentInput],
    excluded: frozenset[str] = frozenset(),
    malformed: tuple[str, ...] = (),
) -> SettlementResult:
    """Run the mechanism over decoded inputs. Proceeds on any participant set,
    including the empty one left behind by mass exclusion."""
    participants = tuple(sorted(inputs))
    notes: list[str] = []

    beacon_output: BeaconOutput | None = None
    if mechanism.uses_beacon:
        beacon_output = input_beacon(inputs)
        if not beacon_output.contributors:
            notes.append(NOTE_DEGENERATE_BEACON)
            beacon_output = beacon_output if mechanism.tag is MechanismTag.BEACON else None

    result = dict(
        tag=mechanism.tag,
        participants=participants,
        excluded=tuple(sorted(excluded)),
        malformed=malformed,
        beacon=beacon_output,
    )

    if mechanism.tag is MechanismTag.BEACON:
        assert beacon_output is not None
        if beacon_output.contributors:
            result["lottery"] = beacon_order(beacon_output, beacon_output.contributors)
        return SettlementResult(notes=tuple(notes), **result)

    if mechanism.tag is MechanismTag.BOSTON:
        prefs = [
            PreferenceRanking(agent=a, ranking=inputs[a].ranking or ())
            for a in participants
        ]
        notes.append(NOTE_RANK_UTILITY)
        result["matching"] = boston(prefs, lottery_schools(mechanism, participants, beacon_output))
        return SettlementResult(notes=tuple(notes), **result)

    tie_break = None if beacon_output is None else beacon_order(beacon_output, participants)
    bids = [Bid(agent=a, amount=inputs[a].bid) for a in participants if inputs[a].bid is not None]
    if not bids:
        notes.append(NOTE_NO_PARTICIPANTS)
        result["auction"] = AuctionOutcome()
    elif mechanism.tag is MechanismTag.FIRST_PRICE:
        result["auction"] = first_price(bids, tie_break)
    elif mechanism.tag is MechanismTag.SECOND_PRICE:
        result["auction"] = second_price(bids, tie_break)
    else:
        assert mechanism.ctrs is not None
        if len(bids) <= len(mechanism.ctrs):
            notes.append(
                f"degenerate GSP instance after exclusions: {len(bids)} bidders "
                f"for {len(mechanism.ctrs)} slots; empty outcome"
            )
            result["auction"] = AuctionOutcome(ctrs=mechanism.ctrs)
        else:
            result["auction"] = gsp(bids, mechanism.ctrs, tie_break)
    return SettlementResult(notes=tuple(notes), **result)


def lottery_schools(
    mechanism: MechanismKind,
    participants: tuple[str, ...],
    beacon_output: BeaconOutput | None,
) -> list[SchoolSpec]:
    """Schools with the priorities settlement uses: their own without a lottery
    mode, the beacon lottery when the beacon has a contributor, else
    identifier order."""
    schools = list(mechanism.schools)
    if mechanism.priority_mode is None:
        return schools
    if beacon_output is None or not beacon_output.contributors:
        return [SchoolSpec(s.school, s.capacity, tuple(sorted(participants))) for s in schools]
    return lottery_priorities(participants, schools, beacon_output, mechanism.priority_mode)


def settle(settlement_input: SettlementInput) -> SettlementResult:
    """Decode verified payloads, then settle. Undecodable payloads drop their
    agent from the mechanism and are reported as malformed."""
    mechanism = settlement_input.mechanism
    inputs: dict[str, AgentInput] = {}
    malformed: list[str] = []
    for agent, payload in settlement_input.payloads:
        try:
            inputs[agent] = decode_agent_payload(mechanism, payload)
        except WireFormatError:
            malformed.append(agent)
    return settle_inputs(
        mechanism,
        inputs,
        excluded=settlement_input.excluded,
        malformed=tuple(sorted(malformed)),
    )
