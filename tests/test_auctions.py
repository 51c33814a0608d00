"""First-price, second-price, and GSP auctions over integer tick bids."""

import random
from fractions import Fraction

import pytest

from trustless_mech import (
    Bid,
    EPSILON_TICKS,
    SlotCTRs,
    auction_utility,
    first_price,
    gsp,
    second_price,
    seller_revenue,
)
from trustless_mech.auctions import InstanceShape, NoParticipants
from trustless_mech.errors import ValidationError


def bids(**amounts: int) -> list[Bid]:
    return [Bid(agent, amount) for agent, amount in amounts.items()]


def random_bids(rng: random.Random, n: int, high: int = 100) -> list[Bid]:
    return [Bid(f"a{i}", rng.randrange(0, high)) for i in range(n)]


def test_epsilon_is_one_tick():
    assert EPSILON_TICKS == 1


def test_first_price_winner_pays_own_bid():
    outcome = first_price(bids(A=10, B=9))
    assert outcome.allocation == {0: "A"}
    assert outcome.payments == {"A": 10}
    assert not outcome.per_click


def test_first_price_sole_bidder_pays_own_bid():
    outcome = first_price(bids(A=7))
    assert outcome.payments == {"A": 7}


def test_first_price_tie_follows_tie_break_order():
    outcome = first_price(bids(A=5, B=5), tie_break=["B", "A"])
    assert outcome.allocation == {0: "B"}
    assert outcome.payments == {"B": 5}


def test_tie_without_permutation_falls_back_to_identifier_order():
    assert first_price(bids(B=5, A=5)).allocation == {0: "A"}
    assert second_price(bids(B=5, A=5)).allocation == {0: "A"}


def test_second_price_winner_pays_runner_up():
    outcome = second_price(bids(A=10, B=9, C=1))
    assert outcome.allocation == {0: "A"}
    assert outcome.payments == {"A": 9}


def test_second_price_sole_bidder_pays_zero():
    outcome = second_price(bids(A=7))
    assert outcome.payments == {"A": 0}


def test_second_price_tie_winner_pays_full_tied_amount():
    outcome = second_price(bids(A=5, B=5), tie_break=["B", "A"])
    assert outcome.allocation == {0: "B"}
    assert outcome.payments == {"B": 5}


def test_empty_auctions_are_rejected():
    with pytest.raises(NoParticipants):
        first_price([])
    with pytest.raises(NoParticipants):
        second_price([])
    # the shape check n > k already rules out an empty GSP
    with pytest.raises(InstanceShape):
        gsp([], SlotCTRs((Fraction(1),)))


def test_negative_bid_rejected():
    with pytest.raises(ValidationError):
        Bid("A", -1)


def test_tie_break_must_cover_every_bidder():
    with pytest.raises(ValidationError):
        first_price(bids(A=5, B=5), tie_break=["A"])


def test_gsp_two_slot_ladder():
    # bids 10 > 9 > 1 with rates (1.0, 0.8): slot 0 pays 9/click, slot 1 pays 1/click
    ctrs = SlotCTRs((Fraction(1), Fraction(4, 5)))
    outcome = gsp(bids(A=10, B=9, C=1), ctrs)
    assert outcome.allocation == {0: "A", 1: "B"}
    assert outcome.payments == {"A": 9, "B": 1}
    assert outcome.per_click and outcome.ctrs == ctrs
    assert seller_revenue(outcome) == Fraction(1) * 9 + Fraction(4, 5) * 1


def test_gsp_with_one_slot_is_second_price():
    rng = random.Random(13)
    ctrs = SlotCTRs((Fraction(1),))
    for _ in range(200):
        entries = random_bids(rng, rng.randrange(2, 6))
        g = gsp(entries, ctrs)
        s = second_price(entries)
        assert g.allocation == s.allocation
        assert g.payments == s.payments


def test_gsp_tie_follows_tie_break_order():
    ctrs = SlotCTRs((Fraction(1), Fraction(1, 2)))
    outcome = gsp(bids(A=5, B=5, C=2), ctrs, tie_break=["B", "A", "C"])
    assert outcome.allocation == {0: "B", 1: "A"}
    assert outcome.payments == {"B": 5, "A": 2}


def test_gsp_needs_more_bidders_than_slots():
    ctrs = SlotCTRs((Fraction(1), Fraction(1, 2)))
    with pytest.raises(InstanceShape):
        gsp(bids(A=5, B=4), ctrs)


def test_slot_rates_must_strictly_decrease_within_unit_interval():
    SlotCTRs((Fraction(1), Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValidationError):
        SlotCTRs((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValidationError):
        SlotCTRs((Fraction(1, 2), Fraction(3, 4)))
    with pytest.raises(ValidationError):
        SlotCTRs((Fraction(3, 2),))
    with pytest.raises(ValidationError):
        SlotCTRs((Fraction(0),))
    with pytest.raises(ValidationError):
        SlotCTRs(())


def test_gsp_utility_examples_are_exact_fractions():
    ctrs = SlotCTRs((Fraction(1), Fraction(4, 5)))
    outcome = gsp(bids(A=10, B=9, C=1), ctrs)
    top = auction_utility(10, "A", outcome)
    assert top == Fraction(1)
    lower = auction_utility(10, "B", outcome)
    assert lower == Fraction(36, 5)
    assert lower == Fraction(8, 10) * (10 - 1)


def test_gsp_utility_without_a_slot_is_zero():
    ctrs = SlotCTRs((Fraction(1), Fraction(4, 5)))
    outcome = gsp(bids(A=10, B=9, C=1), ctrs)
    assert outcome.slot_of("C") is None
    assert auction_utility(7, "C", outcome) == Fraction(0)
    assert type(auction_utility(7, "C", outcome)) is int


def test_gsp_utility_zero_margin():
    # per-click price equal to valuation nets exactly zero
    ctrs = SlotCTRs((Fraction(1),))
    outcome = gsp(bids(A=10, B=6), ctrs)
    assert auction_utility(6, "A", outcome) == Fraction(0)


def test_allocation_is_scale_free():
    rng = random.Random(17)
    ctrs = SlotCTRs((Fraction(1), Fraction(1, 3)))
    for _ in range(100):
        entries = random_bids(rng, rng.randrange(3, 7))
        factor = rng.randrange(2, 9)
        scaled = [Bid(b.agent, b.amount * factor) for b in entries]
        assert first_price(entries).allocation == first_price(scaled).allocation
        assert second_price(entries).allocation == second_price(scaled).allocation
        assert gsp(entries, ctrs).allocation == gsp(scaled, ctrs).allocation


def test_gsp_payment_sandwich():
    # per-click price of slot i never exceeds the slot holder's own bid and
    # never undercuts the price of the slot below
    rng = random.Random(19)
    ctrs = SlotCTRs((Fraction(1), Fraction(1, 2), Fraction(1, 4)))
    for _ in range(200):
        entries = random_bids(rng, rng.randrange(4, 9))
        outcome = gsp(entries, ctrs)
        amounts = {b.agent: b.amount for b in entries}
        prices = [outcome.payments[outcome.allocation[s]] for s in range(len(ctrs))]
        for slot in range(len(ctrs)):
            assert prices[slot] <= amounts[outcome.allocation[slot]]
        for upper, lower in zip(prices, prices[1:]):
            assert upper >= lower


def test_truthful_first_price_winner_nets_zero():
    rng = random.Random(23)
    for _ in range(100):
        entries = random_bids(rng, rng.randrange(1, 6))
        outcome = first_price(entries)
        winner = outcome.allocation[0]
        valuation = {b.agent: b.amount for b in entries}[winner]
        assert auction_utility(valuation, winner, outcome) == 0


def test_second_price_truthfulness_on_random_instances():
    # no unilateral deviation beats bidding the true valuation
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(2, 5)
        values = [rng.randrange(0, 12) for _ in range(n)]
        truthful = [Bid(f"a{i}", v) for i, v in enumerate(values)]
        base = second_price(truthful)
        for i in range(n):
            honest = auction_utility(values[i], f"a{i}", base)
            for deviation in range(0, 13):
                moved = list(truthful)
                moved[i] = Bid(f"a{i}", deviation)
                outcome = second_price(moved)
                assert auction_utility(values[i], f"a{i}", outcome) <= honest


def test_losers_never_pay():
    rng = random.Random(31)
    ctrs = SlotCTRs((Fraction(1), Fraction(1, 2)))
    for _ in range(100):
        entries = random_bids(rng, rng.randrange(3, 7))
        for outcome in [first_price(entries), second_price(entries), gsp(entries, ctrs)]:
            holders = set(outcome.allocation.values())
            assert set(outcome.payments) == holders
