"""Manipulation strategies against the two execution modes.

A centralized sequential operator sees every submission in plaintext as it
arrives, so it can leak standing inputs to a colluding participant who then
rebids. Under commit-reveal execution the operator's view before the commit
deadline holds commitment digests only, so the same strategies have nothing
to act on. That asymmetry is enforced structurally: every planner receives
an `OperatorView`, and a sealed view carries no plaintext to leak.

Each strategy pairs an honest baseline run with a manipulated run and
reports signed utility deltas for the seller, the colluding coalition, and
every agent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .auctions import EPSILON_TICKS, auction_utility, seller_revenue
from .chain import ChainState, MinerPolicy
from .contract import ContractState
from .errors import InvariantViolation
from .school_choice import SchoolSpec, boston, first_round_admissions, rank_utility
from .settlement import (
    AgentInput,
    MechanismKind,
    MechanismTag,
    SettlementResult,
    input_beacon,
    lottery_schools,
    settle,
    settle_inputs,
)

if TYPE_CHECKING:
    from .scenario import Scenario

NOTE_SEALED_VIEW = "operator view before the commit deadline holds digests only; nothing to leak"
NOTE_NO_MINER = "centralized sequential execution has no miner; censorship lever absent"


class ExecutionMode(Enum):
    CENTRALIZED_SEQUENTIAL = "centralized"
    DECENTRALIZED_COMMIT_REVEAL = "decentralized"


class LeakStrategyKind(Enum):
    FPA_TELL_TOP_THE_SECOND = "fpa_tell_top_the_second"
    SPA_RAISE_SECOND_BELOW_TOP = "spa_raise_second_below_top"
    GSP_RAISE_K_PLUS_ONE = "gsp_raise_k_plus_one"
    GSP_DEMOTE_TOP_BIDDER = "gsp_demote_top_bidder"
    BOSTON_SELL_RANKINGS = "boston_sell_rankings"
    MINER_CENSOR_REVEALS = "miner_censor_reveals"


class StrategyRule(NamedTuple):
    """The mechanisms a kind applies to, and the optional fields it takes."""

    mechanisms: tuple[MechanismTag, ...]
    takes: tuple[str, ...] = ()


# Read by `scenario._validate` alone: a new kind or field is one row here plus its rule there.
STRATEGY_RULES: dict[LeakStrategyKind, StrategyRule] = {
    LeakStrategyKind.FPA_TELL_TOP_THE_SECOND: StrategyRule((MechanismTag.FIRST_PRICE,)),
    LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP: StrategyRule((MechanismTag.SECOND_PRICE,)),
    LeakStrategyKind.GSP_RAISE_K_PLUS_ONE: StrategyRule((MechanismTag.GSP,)),
    LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER: StrategyRule((MechanismTag.GSP,)),
    LeakStrategyKind.BOSTON_SELL_RANKINGS: StrategyRule((MechanismTag.BOSTON,), ("target",)),
    LeakStrategyKind.MINER_CENSOR_REVEALS: StrategyRule(
        tuple(MechanismTag), ("target", "censor_until")
    ),
}


@dataclass(frozen=True)
class LeakStrategy:
    """One manipulation: its kind plus the parameters that kind needs.

    ``target`` identifies the informed student (ranking sale) or the censored
    agent (reveal censorship); ``censor_until`` is the last block height at
    which the miner withholds the target's reveal. A plain record: ``Scenario``
    checks it against its kind's ``STRATEGY_RULES`` row, naming the field at
    fault, and `plan_deviation` and `execute_run` run any record unchecked.
    """

    kind: LeakStrategyKind
    target: str | None = None
    censor_until: int | None = None


@dataclass(frozen=True)
class OperatorView:
    """What the operator can see when it would leak.

    Centralized sequential execution exposes every input on arrival, so
    ``plaintext`` maps each agent to their standing input. Commit-reveal
    execution exposes only the commitment digests before the commit
    deadline, so ``plaintext`` is None and no planner can read a bid or a
    ranking out of this object.
    """

    mode: ExecutionMode
    digests: Mapping[str, bytes]
    plaintext: Mapping[str, AgentInput] | None

    @property
    def sealed(self) -> bool:
        return self.plaintext is None


@dataclass(frozen=True)
class PlannedDeviation:
    """A strategy's whole effect on a run, as far as the view allows any.

    ``rebids`` replace the colluding agents' inputs; ``miner`` mines the
    reveal phase in place of the scenario's miner; ``coalition`` names the
    parties, as ``gain_per_party`` keys them (``"seller"``,
    ``"agent:<id>"``), whose gains sum to the coalition's.
    """

    rebids: Mapping[str, AgentInput]
    notes: tuple[str, ...] = ()
    miner: MinerPolicy | None = None
    coalition: frozenset[str] = frozenset()


def _ranked_bids(plaintext: Mapping[str, AgentInput]) -> list[tuple[int, str]]:
    pairs = [(inp.bid, agent) for agent, inp in plaintext.items() if inp.bid is not None]
    return sorted(pairs, key=lambda p: (-p[0], p[1]))


def _nothing(note: str) -> PlannedDeviation:
    return PlannedDeviation(rebids=MappingProxyType({}), notes=(note,))


def _rebid(
    plaintext: Mapping[str, AgentInput], agent: str, bid: int, party: str, note: str
) -> PlannedDeviation:
    """``agent`` rebids ``bid``; ``party`` is the coalition that gains by it."""
    return PlannedDeviation(
        rebids={agent: replace(plaintext[agent], bid=bid)},
        notes=(note,),
        coalition=frozenset({party}),
    )


def plan_deviation(
    strategy: LeakStrategy | None,
    mechanism: MechanismKind,
    view: OperatorView,
) -> PlannedDeviation:
    """Best response the coalition can construct from what the view exposes.

    No strategy (the honest baseline) plans nothing. Every strategy branch
    below needs ``view.plaintext``. A sealed view therefore short-circuits to
    an empty plan; there is no code path from digests to a rebid.
    """
    if strategy is None:
        return PlannedDeviation(rebids={})
    if strategy.kind is LeakStrategyKind.MINER_CENSOR_REVEALS:
        if view.mode is ExecutionMode.CENTRALIZED_SEQUENTIAL:
            return _nothing(NOTE_NO_MINER)
        assert strategy.target is not None and strategy.censor_until is not None
        return PlannedDeviation(
            rebids={},
            notes=(
                f"miner withholds reveals from {strategy.target!r} while height "
                f"<= {strategy.censor_until}",
            ),
            miner=MinerPolicy.censor({strategy.target}, strategy.censor_until),
            coalition=frozenset(f"agent:{a}" for a in view.digests if a != strategy.target),
        )

    if view.sealed:
        return _nothing(NOTE_SEALED_VIEW)
    plaintext = view.plaintext
    assert plaintext is not None
    ranked = _ranked_bids(plaintext)

    if strategy.kind is LeakStrategyKind.FPA_TELL_TOP_THE_SECOND:
        if len(ranked) < 2:
            return _nothing("fewer than two bids; nothing to undercut")
        (b1, top), (b2, _) = ranked[0], ranked[1]
        if b1 <= b2:
            return _nothing("top two bids tie; the leak buys nothing")
        rebid = b2 + EPSILON_TICKS
        return _rebid(plaintext, top, rebid, f"agent:{top}",
                      f"operator tells {top!r} the standing second bid {b2}; rebid {rebid}")

    if strategy.kind is LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP:
        if len(ranked) < 2:
            return _nothing("fewer than two bids; no second bid to raise")
        (b1, _), (b2, second) = ranked[0], ranked[1]
        if b1 <= b2:
            return _nothing("top two bids tie; raising the second changes nothing")
        rebid = b1 - EPSILON_TICKS
        return _rebid(plaintext, second, rebid, "seller",
                      f"operator has {second!r} rebid {rebid}, right below the top bid {b1}")

    if strategy.kind is LeakStrategyKind.GSP_RAISE_K_PLUS_ONE:
        assert mechanism.ctrs is not None
        k = len(mechanism.ctrs)
        if len(ranked) < k + 1:
            return _nothing(f"no bidder outside the {k} slots; nothing to raise")
        b_k = ranked[k - 1][0]
        b_k1, outsider = ranked[k]
        if b_k <= b_k1:
            return _nothing("boundary bids tie; raising would contest the last slot")
        rebid = b_k - EPSILON_TICKS
        return _rebid(plaintext, outsider, rebid, "seller",
                      f"operator has losing bidder {outsider!r} rebid {rebid}, right "
                      f"below the last winning bid {b_k}")

    if strategy.kind is LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER:
        assert mechanism.ctrs is not None
        if len(mechanism.ctrs) < 2:
            return _nothing("a single slot leaves no lower slot to fall to")
        if len(ranked) < 3:
            return _nothing("fewer than three bids; the demotion window is undefined")
        b2 = ranked[1][0]
        b3 = ranked[2][0]
        top = ranked[0][1]
        rebid = b3 + EPSILON_TICKS
        if rebid >= b2:
            return _nothing("no bid lies strictly between the second and third bids")
        return _rebid(plaintext, top, rebid, f"agent:{top}",
                      f"operator tells {top!r} the standing bids; rebid {rebid} takes "
                      f"the second slot at the third bid")

    if strategy.kind is LeakStrategyKind.BOSTON_SELL_RANKINGS:
        target = strategy.target
        assert target is not None
        if target not in plaintext or plaintext[target].ranking is None:
            return _nothing(f"target {target!r} submitted no ranking")
        reports = {a: inp.ranking or () for a, inp in sorted(plaintext.items())}
        schools = lottery_schools(mechanism, tuple(reports), input_beacon(plaintext))
        best = best_response_ranking(target, reports, schools)
        if best == reports[target]:
            return _nothing(f"truthful ranking is already a best response for {target!r}")
        return PlannedDeviation(
            rebids={target: replace(plaintext[target], ranking=best)},
            notes=(
                f"operator sells the other students' reports to {target!r}; "
                f"best-response ranking {list(best)}",
            ),
            coalition=frozenset({f"agent:{target}"}),
        )

    raise InvariantViolation(f"unhandled strategy kind {strategy.kind!r}")


def best_response_ranking(
    student: str,
    reports: Mapping[str, Sequence[str]],
    schools: Sequence[SchoolSpec],
) -> tuple[str, ...]:
    """A ranking maximizing ``student``'s rank utility under Boston, by its
    true ranking ``reports[student]``, the other reports fixed, among all
    ordered subsets of ``schools``.

    The truthful ranking wins ties; otherwise the answer is the first
    maximizer in enumeration order (shorter rankings first, then
    lexicographic in the order of ``schools``). Two facts make round 1
    decide it: a rejected applicant changes no one's admission, and a
    refusal is final, so a school that ever admits the student admits it
    when ranked first. The best value is thus the first school of the true
    ranking in ``first_round_admissions``, won by ranking it alone.
    """
    truthful = tuple(reports[student])
    admits = first_round_admissions(student, reports, schools)
    # rank_utility values a school listed past the n-th place (behind unknown
    # schools) no higher than none, and the empty ranking comes first
    best = next(((s,) for s in truthful[: len(schools)] if s in admits), ())
    # a truthful ranking naming an unknown school is no candidate, so no tie
    if {s.school for s in schools}.issuperset(truthful):
        if boston(reports, schools).assignment[student] == (best[0] if best else None):
            return truthful
    return best


def execute_run(
    scenario: "Scenario",
    mode: ExecutionMode,
    strategy: LeakStrategy | None = None,
) -> tuple[SettlementResult, PlannedDeviation]:
    """One full run in the given mode; ``strategy=None`` is the honest baseline.

    This engine runs any strategy it is given, unchecked; ``run_with_adversary``
    is the checked entry, which passes in the scenario's own adversary.

    Centralized: inputs reach the operator in plaintext and settle directly.
    Decentralized: inputs travel as the scenario's truthful commit and
    reveal messages (built once per scenario, since a sealed view plans no
    rebid). One contract state follows the run's chain: at the commit
    deadline the strategy is planned against the digests it has recorded,
    the first per agent for this contract. Reveals follow, and the same
    state reads on to the reveal deadline, verifying every opening, and
    settles. A miner policy acts only on the reveal phase, so the commit
    phase is mined honestly and the reveal phase by the plan's miner if it
    has one, else by the scenario's; everything else about the run is
    identical.
    """
    if mode is ExecutionMode.CENTRALIZED_SEQUENTIAL:
        truthful = scenario.truthful_inputs
        view = OperatorView(mode=mode, digests={}, plaintext=truthful)
        plan = plan_deviation(strategy, scenario.mechanism, view)
        inputs = {**truthful, **plan.rebids}
        return settle_inputs(scenario.mechanism, inputs), plan

    chain = ChainState()
    for commit, _ in scenario.messages.values():
        chain.submit(commit)
    chain.advance_to(scenario.schedule.commit_deadline)

    state = ContractState(scenario.name, scenario.schedule)
    state.follow(chain)
    digests = {agent: commitment.digest for agent, commitment in state.commitments.items()}
    view = OperatorView(mode=mode, digests=MappingProxyType(digests), plaintext=None)
    plan = plan_deviation(strategy, scenario.mechanism, view)
    if plan.rebids:
        raise InvariantViolation("a sealed view produced rebids; the projection leaked")

    for _, reveal in scenario.messages.values():
        chain.submit(reveal)
    chain.advance_to(scenario.schedule.reveal_deadline, plan.miner or scenario.miner)

    state.follow(chain)
    settlement_input = state.finalize(chain.height)
    return settle(scenario.mechanism, settlement_input), plan


def agent_utilities(
    scenario: "Scenario", result: SettlementResult
) -> dict[str, Fraction | int]:
    """Per-agent utility of a settled outcome, always against TRUE preferences.

    The settled outcome decides the rule: an auction outcome pays valuation
    minus payment (CTR-weighted for slot auctions), a matching pays the
    negative true rank of the assigned school, and a bare lottery pays 1 to
    the winner. Excluded agents get the empty-handed value of that rule. A
    utility is an exact ``int``, or a ``Fraction`` where a click-through
    rate enters (a GSP slot holder).
    """
    n_schools = len(scenario.mechanism.schools)
    out: dict[str, Fraction | int] = {}
    for spec in scenario.agents:
        agent = spec.agent
        if result.auction is not None:
            value = spec.valuation if spec.valuation is not None else (spec.bid or 0)
            util = auction_utility(value, agent, result.auction)
        elif result.matching is not None:
            assigned = result.matching.assignment.get(agent)
            util = rank_utility(spec.ranking or (), assigned, n_schools)
        else:
            util = 1 if result.lottery[:1] == (agent,) else 0
        out[agent] = util
    return out


def seller_take(result: SettlementResult) -> Fraction:
    if result.auction is None:
        return Fraction(0)
    return seller_revenue(result.auction)


@dataclass(frozen=True)
class ManipulationReport:
    """Honest run vs. manipulated run, with per-party utility deltas."""

    scenario: str
    mode: ExecutionMode
    strategy: LeakStrategyKind | None
    honest: SettlementResult
    manipulated: SettlementResult
    honest_utilities: dict[str, Fraction | int]
    manipulated_utilities: dict[str, Fraction | int]
    honest_revenue: Fraction
    manipulated_revenue: Fraction
    gain_per_party: dict[str, Fraction | int]
    notes: tuple[str, ...] = ()

    @property
    def all_deltas_zero(self) -> bool:
        return all(delta == 0 for delta in self.gain_per_party.values())

    def canonical(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode.value,
            "strategy": self.strategy.value if self.strategy else None,
            "honest": self.honest.canonical(),
            "manipulated": self.manipulated.canonical(),
            "utilities": {
                "honest": {a: exact_str(u) for a, u in self.honest_utilities.items()},
                "manipulated": {
                    a: exact_str(u) for a, u in self.manipulated_utilities.items()
                },
            },
            "revenue": {
                "honest": exact_str(self.honest_revenue),
                "manipulated": exact_str(self.manipulated_revenue),
            },
            "gains": {party: exact_str(d) for party, d in sorted(self.gain_per_party.items())},
            "notes": list(self.notes),
        }


def run_with_adversary(scenario: "Scenario", mode: ExecutionMode) -> ManipulationReport:
    """Pair the honest baseline with the run under ``scenario.adversary``, which
    ``Scenario`` checked when built, and account the deltas."""
    strategy = scenario.adversary
    honest_result, _ = execute_run(scenario, mode, strategy=None)
    manipulated_result, plan = execute_run(scenario, mode, strategy=strategy)

    honest_u = agent_utilities(scenario, honest_result)
    manip_u = agent_utilities(scenario, manipulated_result)
    honest_rev = seller_take(honest_result)
    manip_rev = seller_take(manipulated_result)

    gains: dict[str, Fraction | int] = {"seller": manip_rev - honest_rev}
    for agent in honest_u:
        gains[f"agent:{agent}"] = manip_u[agent] - honest_u[agent]
    gains["coalition"] = sum(gains[p] for p in plan.coalition)

    return ManipulationReport(
        scenario=scenario.name,
        mode=mode,
        strategy=strategy.kind if strategy else None,
        honest=honest_result,
        manipulated=manipulated_result,
        honest_utilities=honest_u,
        manipulated_utilities=manip_u,
        honest_revenue=honest_rev,
        manipulated_revenue=manip_rev,
        gain_per_party=gains,
        notes=plan.notes,
    )


def exact_str(value: Fraction | int) -> str:
    """Exact decimal string when the denominator is 2^a 5^b, else ``p/q``.

    Keeps report numbers bit-stable without floating point: 36/5 prints as
    ``7.2``, 1/3 prints as ``1/3``.
    """
    if type(value) is int:  # not bool: True still prints as 1 via Fraction
        return str(value)
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    scale = max(twos, fives)
    scaled = abs(f.numerator) * (10**scale // f.denominator)
    whole, part = divmod(scaled, 10**scale)
    sign = "-" if f.numerator < 0 else ""
    return f"{sign}{whole}.{str(part).zfill(scale)}"
