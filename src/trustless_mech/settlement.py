"""Turns verified reveal payloads into mechanism outcomes.

This is the glue between the contract runtime and the pure mechanisms, and
the one module that knows which mechanism a run uses and how its reveals
are written: it defines `MechanismKind`, whose `wire_fields` lay a reveal
out, writes each field (`encode_field`) and reads it back, so the mechanism
modules hold no wire code. It decodes each opaque payload the contract
verified by the same `wire_fields` walk that encodes it, aggregates beacon
contributions when present, derives the tie-break permutation or lottery
priorities, and runs the allocation rule. Both execution modes funnel
through `settle_inputs`, so a centralized run and a decentralized run of the
same inputs settle identically by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from .auctions import (
    Bid,
    first_price,
    gsp,
    second_price,
    AuctionOutcome,
    SlotCTRs,
)
from .beacon import U64_MASK, BeaconOutput, aggregate, beacon_order
from .contract import SettlementInput
from .errors import ValidationError, WireFormatError
from .school_choice import (
    LotteryMode,
    Matching,
    SchoolSpec,
    boston,
    lottery_priorities,
)

NOTE_DEGENERATE_BEACON = "degenerate beacon: no verified contributions, identifier-order fallback"
NOTE_NO_PARTICIPANTS = "no participants after exclusions; empty outcome"
NOTE_RANK_UTILITY = "school-choice utilities are ordinal ranks (package convention, not from the mechanism)"

# Bytes of a bid or a contribution on the wire: one big-endian word.
_WORD_SIZE = 8


class MechanismTag(Enum):
    BEACON = "beacon"
    FIRST_PRICE = "first_price"
    SECOND_PRICE = "second_price"
    GSP = "gsp"
    BOSTON = "boston"


@dataclass(frozen=True)
class MechanismKind:
    """Which allocation rule settles the contract, plus its configuration.

    ``with_beacon`` appends an 8-byte beacon contribution to every reveal
    payload (the combined report-plus-random-bit message flow); the settled
    beacon then drives tie-breaking and school lotteries. A priority lottery
    mode requires it.
    """

    tag: MechanismTag
    ctrs: SlotCTRs | None = None
    schools: tuple[SchoolSpec, ...] = ()
    priority_mode: LotteryMode | None = None
    with_beacon: bool = False

    def __post_init__(self) -> None:
        if self.tag is MechanismTag.GSP and self.ctrs is None:
            raise ValidationError("GSP requires slot click-through rates")
        if self.tag is not MechanismTag.GSP and self.ctrs is not None:
            raise ValidationError(f"{self.tag.value} takes no slot rates")
        if self.tag is MechanismTag.BOSTON:
            if not self.schools:
                raise ValidationError("school choice requires at least one school")
            if len({s.school for s in self.schools}) != len(self.schools):
                raise ValidationError("school identifiers must be unique")
            if self.priority_mode is not None and not self.with_beacon:
                raise ValidationError("a priority lottery needs beacon contributions")
        else:
            if self.schools or self.priority_mode is not None:
                raise ValidationError(f"{self.tag.value} takes no school parameters")
        if self.tag is MechanismTag.BEACON and self.with_beacon:
            raise ValidationError("beacon contracts already carry contributions")

    @property
    def uses_beacon(self) -> bool:
        return self.tag is MechanismTag.BEACON or self.with_beacon

    @cached_property
    def school_index(self) -> Mapping[str, int]:
        """school id -> its index in ``schools``, the byte a ranking payload
        carries for it; built once per mechanism."""
        return MappingProxyType({s.school: i for i, s in enumerate(self.schools)})

    @cached_property
    def wire_fields(self) -> tuple[str, ...]:
        """The `AgentInput` fields a reveal payload carries, in wire order."""
        by_tag = {MechanismTag.BEACON: (), MechanismTag.BOSTON: ("ranking",)}
        report = by_tag.get(self.tag, ("bid",))
        return report + ("contribution",) if self.uses_beacon else report

    def __getstate__(self) -> dict:
        # the cached index does not pickle; both caches are rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


def encode_field(mechanism: MechanismKind, name: str, value) -> bytes:
    """Wire form of the reveal field ``name``, one of the mechanism's
    `wire_fields`, refused unless the value fits it. A bid and a
    contribution are one 8-byte big-endian word each; a ranking is one
    length byte and the index of each school it lists, one byte each."""
    if value is None:
        raise ValidationError(f"a {mechanism.tag.value} reveal needs a {name}")
    if name != "ranking":
        if not 0 <= value <= U64_MASK:
            raise WireFormatError(f"{name} {value} outside unsigned 64-bit wire range")
        return value.to_bytes(_WORD_SIZE, "big")
    try:
        indices = [mechanism.school_index[school] for school in value]
    except KeyError as exc:
        raise ValidationError(f"unknown school {exc.args[0]!r}") from None
    if len(indices) > 255:
        raise WireFormatError("ranking longer than 255 schools")
    for idx in indices:
        if idx > 255:
            raise WireFormatError(f"school index {idx} outside one byte")
    if len(set(indices)) != len(indices):
        raise WireFormatError("ranking repeats a school index")
    return bytes([len(indices), *indices])


def encode_agent_payload(mechanism: MechanismKind, agent_input: AgentInput) -> bytes:
    """Mechanism portion of a reveal payload (salt excluded), bit-exact."""
    body = b""
    for name in mechanism.wire_fields:
        body += encode_field(mechanism, name, getattr(agent_input, name))
    return body


def decode_agent_payload(mechanism: MechanismKind, data: bytes) -> AgentInput:
    """Inverse of `encode_agent_payload`: the mechanism's `wire_fields` read
    front to back. Bytes left over after the last field are malformed."""
    values = {}
    at = 0
    for name in mechanism.wire_fields:
        values[name], at = _decode_field(mechanism, name, data, at)
    if at != len(data):
        raise WireFormatError("payload has bytes after its last field")
    return AgentInput(**values)


def _decode_field(mechanism: MechanismKind, name: str, data: bytes, at: int) -> tuple[object, int]:
    """The reveal field ``name`` read from ``data`` at offset ``at``, and the
    offset after it: the inverse of `encode_field`."""
    if name != "ranking":
        end = at + _WORD_SIZE
        if end > len(data):
            raise WireFormatError(f"{name} must be {_WORD_SIZE} bytes, got {len(data) - at}")
        return int.from_bytes(data[at:end], "big"), end
    if at == len(data):
        raise WireFormatError("empty ranking payload")
    length = data[at]
    end = at + 1 + length
    indices = data[at + 1 : end]
    if len(indices) != length:
        raise WireFormatError(f"ranking payload declares {length} entries but carries {len(indices)}")
    if len(set(indices)) != length:
        raise WireFormatError("ranking payload repeats a school index")
    schools = mechanism.schools
    try:
        return tuple([schools[i].school for i in indices]), end
    except IndexError:
        idx = next(i for i in indices if i >= len(schools))
        raise WireFormatError(f"school index {idx} out of range") from None


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
        reports = {a: inputs[a].ranking or () for a in participants}
        notes.append(NOTE_RANK_UTILITY)
        result["matching"] = boston(reports, lottery_schools(mechanism, participants, beacon_output))
        return SettlementResult(notes=tuple(notes), **result)

    tie_break = None if beacon_output is None else beacon_order(beacon_output, participants)
    bids = [Bid(agent=a, amount=inputs[a].bid) for a in participants if inputs[a].bid is not None]
    if not bids:
        notes.append(NOTE_NO_PARTICIPANTS)
        result["auction"] = AuctionOutcome(ctrs=mechanism.ctrs)
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
) -> tuple[SchoolSpec, ...]:
    """Schools with the priorities settlement uses: their own without a lottery
    mode, the beacon lottery when the beacon has a contributor, else
    identifier order.

    One run settles the same lottery up to five times (four settlements and
    the ranking-sale plan), so the last one drawn is kept: the arguments
    alone decide it, and the result is an immutable tuple.
    """
    if mechanism.priority_mode is None:
        return mechanism.schools
    return _drawn_lottery(mechanism, participants, beacon_output)


@lru_cache(maxsize=1)
def _drawn_lottery(
    mechanism: MechanismKind,
    participants: tuple[str, ...],
    beacon_output: BeaconOutput | None,
) -> tuple[SchoolSpec, ...]:
    assert mechanism.priority_mode is not None
    if beacon_output is None or not beacon_output.contributors:
        order = tuple(sorted(participants))
        return tuple(SchoolSpec(s.school, s.capacity, order) for s in mechanism.schools)
    return tuple(
        lottery_priorities(participants, mechanism.schools, beacon_output, mechanism.priority_mode)
    )


def settle(mechanism: MechanismKind, settlement_input: SettlementInput) -> SettlementResult:
    """Decode verified payloads for the mechanism, then settle. Undecodable
    payloads drop their agent from the mechanism and are reported as malformed."""
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
