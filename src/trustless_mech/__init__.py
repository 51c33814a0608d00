"""Commit-reveal mechanism execution on a simulated block ledger.

Sealed-bid auctions (first-price, second-price, generalized second-price),
immediate-acceptance school choice, and a sum-aggregated randomness beacon,
each runnable two ways: through a centralized sequential operator who sees
every input on arrival, or through a two-phase commit-reveal contract that
sees only digests until the commit deadline. Manipulation strategies that
profit in the first mode provably find nothing to act on in the second,
and a censoring miner is defeated by a long enough reveal window.

Each exported name resolves on first use (PEP 562): ``_EXPORTS`` names the
module that defines it, which is imported then, and the value is kept in
the package namespace so later reads are plain lookups. ``import
trustless_mech`` therefore loads no submodule, and a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# every exported name, once, with the module that defines it
_EXPORTS = {
    "AgentInput": "settlement",
    "AgentSpec": "scenario",
    "AuctionOutcome": "auctions",
    "BeaconOutput": "beacon",
    "Bid": "auctions",
    "ChainState": "chain",
    "CommitOpening": "commitments",
    "Commitment": "commitments",
    "ContractState": "contract",
    "EPSILON_TICKS": "auctions",
    "ExecutionMode": "adversaries",
    "HashStream": "beacon",
    "InvariantViolation": "errors",
    "LeakStrategy": "adversaries",
    "LeakStrategyKind": "adversaries",
    "LotteryMode": "school_choice",
    "ManipulationReport": "adversaries",
    "Matching": "school_choice",
    "MechSimError": "errors",
    "MechanismKind": "settlement",
    "MechanismTag": "settlement",
    "Message": "chain",
    "MessageKind": "chain",
    "MinerPolicy": "chain",
    "OperatorView": "adversaries",
    "PhaseSchedule": "contract",
    "Scenario": "scenario",
    "ScenarioError": "scenario",
    "SchoolSpec": "school_choice",
    "SettlementInput": "contract",
    "SettlementResult": "settlement",
    "SlotCTRs": "auctions",
    "ValidationError": "errors",
    "WireFormatError": "errors",
    "agent_utilities": "adversaries",
    "aggregate": "beacon",
    "auction_utility": "auctions",
    "beacon_order": "beacon",
    "best_response_ranking": "adversaries",
    "boston": "school_choice",
    "bundled_scenario_names": "scenario",
    "chi_square_test": "beacon",
    "decode_agent_payload": "settlement",
    "derive_permutation": "beacon",
    "dump_scenario": "scenario",
    "encode_agent_payload": "settlement",
    "exact_str": "adversaries",
    "first_price": "auctions",
    "gsp": "auctions",
    "load_bundled": "scenario",
    "load_scenario": "scenario",
    "lottery_priorities": "school_choice",
    "make_commitment": "commitments",
    "plan_deviation": "adversaries",
    "rank_utility": "school_choice",
    "run_with_adversary": "adversaries",
    "scenario_from_dict": "scenario",
    "scenario_to_dict": "scenario",
    "second_price": "auctions",
    "seller_revenue": "auctions",
    "settle": "settlement",
    "settle_inputs": "settlement",
    "uniformity_histogram": "beacon",
    "verify_opening": "commitments",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module that defines an exported ``name`` and keep its value.

    Any other name raises ``AttributeError``, which is also how ``from
    trustless_mech import cli`` falls through to the submodule.
    """
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
