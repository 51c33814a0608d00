"""Run every auction leak strategy against both execution modes.

A centralized sequential operator sees bids in plaintext as they arrive
and can leak them to a colluding bidder. The same strategies replayed
under commit-reveal execution plan against a digests-only view and gain
exactly nothing, which is the entire point of the protocol.
"""

from trustless_mech import (
    AgentSpec,
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    MechanismKind,
    MechanismTag,
    PhaseSchedule,
    Scenario,
    SlotCTRs,
    exact_str,
    run_with_adversary,
)
from fractions import Fraction

SCHEDULE = PhaseSchedule(commit_deadline=2, reveal_deadline=7)

CASES = [
    (
        "first-price undercut: operator tells the leader the runner-up bid",
        Scenario(
            name="fpa-demo", seed=1,
            mechanism=MechanismKind(tag=MechanismTag.FIRST_PRICE), schedule=SCHEDULE,
            agents=(AgentSpec("ana", bid=130), AgentSpec("bert", bid=90)),
            adversary=LeakStrategy(LeakStrategyKind.FPA_TELL_TOP_THE_SECOND),
        ),
    ),
    (
        "second-price squeeze: operator has the runner-up shade the top bid",
        Scenario(
            name="spa-demo", seed=2,
            mechanism=MechanismKind(tag=MechanismTag.SECOND_PRICE), schedule=SCHEDULE,
            agents=(AgentSpec("ana", bid=130), AgentSpec("bert", bid=90),
                    AgentSpec("cleo", bid=40)),
            adversary=LeakStrategy(LeakStrategyKind.SPA_RAISE_SECOND_BELOW_TOP),
        ),
    ),
    (
        "slot-auction squeeze: the first loser re-prices the last slot",
        Scenario(
            name="gsp-raise-demo", seed=3,
            mechanism=MechanismKind(tag=MechanismTag.GSP,
                                    ctrs=SlotCTRs((Fraction(1), Fraction(1, 2)))),
            schedule=SCHEDULE,
            agents=(AgentSpec("ana", bid=100), AgentSpec("bert", bid=60),
                    AgentSpec("cleo", bid=20)),
            adversary=LeakStrategy(LeakStrategyKind.GSP_RAISE_K_PLUS_ONE),
        ),
    ),
    (
        "slot-auction demotion: the top bidder drops to a cheaper slot",
        Scenario(
            name="gsp-demote-demo", seed=4,
            mechanism=MechanismKind(tag=MechanismTag.GSP,
                                    ctrs=SlotCTRs((Fraction(1), Fraction(4, 5)))),
            schedule=SCHEDULE,
            agents=(AgentSpec("ana", bid=10), AgentSpec("bert", bid=9),
                    AgentSpec("cleo", bid=1)),
            adversary=LeakStrategy(LeakStrategyKind.GSP_DEMOTE_TOP_BIDDER),
        ),
    ),
]


def main() -> None:
    for title, scenario in CASES:
        print(title)
        for mode in [ExecutionMode.CENTRALIZED_SEQUENTIAL,
                     ExecutionMode.DECENTRALIZED_COMMIT_REVEAL]:
            report = run_with_adversary(scenario, mode)
            gains = ", ".join(
                f"{party} {exact_str(delta):>5s}"
                for party, delta in sorted(report.gain_per_party.items())
            )
            print(f"  {mode.value:13s} {gains}")
        print()
    print("every coalition gain above is positive only in the centralized column:")
    print("sealed commitments leave the operator nothing to leak.")


if __name__ == "__main__":
    main()
