"""Allocation and payment rules for first-price, second-price, and GSP auctions.

Money is integer ticks with epsilon = 1 tick, so the classic bid-nudging
manipulations (b2 + eps, b1 - eps) are exact integer statements. Click-through
rates and utilities are exact rationals; 7.2 is represented as 36/5, never as
a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import MechSimError, ValidationError

EPSILON_TICKS = 1


class NoParticipants(MechSimError):
    """An auction was asked to run with no bids."""


class InstanceShape(MechSimError):
    """A GSP instance does not satisfy n > k >= 1."""


@dataclass(frozen=True)
class Bid:
    agent: str
    amount: int

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValidationError(f"bid from {self.agent!r} is negative: {self.amount}")


@dataclass(frozen=True)
class SlotCTRs:
    """Strictly decreasing per-slot click-through rates, each in (0, 1]."""

    rates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValidationError("at least one slot rate is required")
        for rate in self.rates:
            if not 0 < rate <= 1:
                raise ValidationError(f"click-through rate {rate} outside (0, 1]")
        for a, b in zip(self.rates, self.rates[1:]):
            if not a > b:
                raise ValidationError(f"slot rates must strictly decrease: {a} !> {b}")

    def __len__(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class AuctionOutcome:
    """Allocation (slot index -> agent) plus payments.

    Payments are per-item totals for single-item auctions and per-click
    prices when the outcome carries its slot rates ``ctrs`` (GSP).
    """

    allocation: dict[int, str] = field(default_factory=dict)
    payments: dict[str, int] = field(default_factory=dict)
    ctrs: SlotCTRs | None = None

    @property
    def per_click(self) -> bool:
        return self.ctrs is not None

    def slot_of(self, agent: str) -> int | None:
        for slot, holder in self.allocation.items():
            if holder == agent:
                return slot
        return None


def _rank_key(tie_break: Sequence[str] | None):
    """Sort key: higher amount first, then tie-break order (identifier order
    when no permutation is supplied)."""
    if tie_break is None:
        return lambda bid: (-bid.amount, bid.agent)
    position = {agent: i for i, agent in enumerate(tie_break)}
    missing = object()

    def key(bid: Bid):
        pos = position.get(bid.agent, missing)
        if pos is missing:
            raise ValidationError(f"tie-break order does not cover agent {bid.agent!r}")
        return (-bid.amount, pos)

    return key


def rank_bids(bids: Sequence[Bid], tie_break: Sequence[str] | None = None) -> list[Bid]:
    return sorted(bids, key=_rank_key(tie_break))


def first_price(bids: Sequence[Bid], tie_break: Sequence[str] | None = None) -> AuctionOutcome:
    """Highest bid wins and pays its own amount."""
    if not bids:
        raise NoParticipants("first-price auction needs at least one bid")
    winner = rank_bids(bids, tie_break)[0]
    return AuctionOutcome(allocation={0: winner.agent}, payments={winner.agent: winner.amount})


def second_price(bids: Sequence[Bid], tie_break: Sequence[str] | None = None) -> AuctionOutcome:
    """Highest bid wins and pays the second-highest amount (0 for a sole bidder)."""
    if not bids:
        raise NoParticipants("second-price auction needs at least one bid")
    ranked = rank_bids(bids, tie_break)
    price = ranked[1].amount if len(ranked) > 1 else 0
    return AuctionOutcome(allocation={0: ranked[0].agent}, payments={ranked[0].agent: price})


def gsp(
    bids: Sequence[Bid],
    ctrs: SlotCTRs,
    tie_break: Sequence[str] | None = None,
) -> AuctionOutcome:
    """Generalized second price: slot i to the i-th highest bidder at a
    per-click price equal to the (i+1)-th highest bid. Requires n > k >= 1."""
    k = len(ctrs)
    if len(bids) <= k:
        raise InstanceShape(f"GSP needs more bidders than slots: n={len(bids)}, k={k}")
    ranked = rank_bids(bids, tie_break)
    allocation = {slot: ranked[slot].agent for slot in range(k)}
    payments = {ranked[slot].agent: ranked[slot + 1].amount for slot in range(k)}
    return AuctionOutcome(allocation=allocation, payments=payments, ctrs=ctrs)


def auction_utility(valuation: int, agent: str, outcome: AuctionOutcome) -> Fraction | int:
    """Valuation minus payment for a slot holder, times the slot's rate when
    the outcome has rates. An agent with no slot gets exactly the ``int`` 0,
    so a single-item utility stays an ``int``."""
    slot = outcome.slot_of(agent)
    if slot is None:
        return 0
    margin = valuation - outcome.payments[agent]
    return margin if outcome.ctrs is None else outcome.ctrs.rates[slot] * margin


def seller_revenue(outcome: AuctionOutcome) -> Fraction:
    """Total payment flow to the seller; GSP prices weight by expected clicks."""
    if outcome.ctrs is None:
        return Fraction(sum(outcome.payments.values()))
    total = Fraction(0)
    for slot, agent in outcome.allocation.items():
        total += outcome.ctrs.rates[slot] * outcome.payments[agent]
    return total
