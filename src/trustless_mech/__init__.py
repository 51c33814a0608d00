"""Commit-reveal mechanism execution on a simulated block ledger.

Sealed-bid auctions (first-price, second-price, generalized second-price),
immediate-acceptance school choice, and a sum-aggregated randomness beacon,
each runnable two ways: through a centralized sequential operator who sees
every input on arrival, or through a two-phase commit-reveal contract that
sees only digests until the commit deadline. Manipulation strategies that
profit in the first mode provably find nothing to act on in the second,
and a censoring miner is defeated by a long enough reveal window.
"""

from .adversaries import (
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    ManipulationReport,
    OperatorView,
    agent_utilities,
    best_response_ranking,
    exact_str,
    plan_deviation,
    run_with_adversary,
)
from .auctions import (
    EPSILON_TICKS,
    AuctionOutcome,
    Bid,
    SlotCTRs,
    auction_utility,
    first_price,
    gsp,
    second_price,
    seller_revenue,
)
from .beacon import (
    BeaconOutput,
    HashStream,
    aggregate,
    beacon_order,
    chi_square_test,
    derive_permutation,
    uniformity_histogram,
)
from .chain import ChainState, Message, MessageKind, MinerPolicy
from .commitments import (
    Commitment,
    CommitOpening,
    make_commitment,
    verify_opening,
)
from .contract import ContractState, PhaseSchedule, SettlementInput, drive
from .errors import (
    InvariantViolation,
    MechSimError,
    ValidationError,
    WireFormatError,
)
from .scenario import (
    AgentSpec,
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    dump_scenario,
    load_bundled,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .school_choice import (
    LotteryMode,
    Matching,
    SchoolSpec,
    boston,
    lottery_priorities,
    rank_utility,
)
from .settlement import (
    AgentInput,
    MechanismKind,
    MechanismTag,
    SettlementResult,
    decode_agent_payload,
    encode_agent_payload,
    settle,
    settle_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "AgentInput",
    "AgentSpec",
    "AuctionOutcome",
    "BeaconOutput",
    "Bid",
    "ChainState",
    "CommitOpening",
    "Commitment",
    "ContractState",
    "EPSILON_TICKS",
    "ExecutionMode",
    "HashStream",
    "InvariantViolation",
    "LeakStrategy",
    "LeakStrategyKind",
    "LotteryMode",
    "ManipulationReport",
    "Matching",
    "MechSimError",
    "MechanismKind",
    "MechanismTag",
    "Message",
    "MessageKind",
    "MinerPolicy",
    "OperatorView",
    "PhaseSchedule",
    "Scenario",
    "ScenarioError",
    "SchoolSpec",
    "SettlementInput",
    "SettlementResult",
    "SlotCTRs",
    "ValidationError",
    "WireFormatError",
    "agent_utilities",
    "aggregate",
    "auction_utility",
    "beacon_order",
    "best_response_ranking",
    "boston",
    "bundled_scenario_names",
    "chi_square_test",
    "decode_agent_payload",
    "derive_permutation",
    "drive",
    "dump_scenario",
    "encode_agent_payload",
    "exact_str",
    "first_price",
    "gsp",
    "load_bundled",
    "load_scenario",
    "lottery_priorities",
    "make_commitment",
    "plan_deviation",
    "rank_utility",
    "run_with_adversary",
    "scenario_from_dict",
    "scenario_to_dict",
    "second_price",
    "seller_revenue",
    "settle",
    "settle_inputs",
    "uniformity_histogram",
    "verify_opening",
]
