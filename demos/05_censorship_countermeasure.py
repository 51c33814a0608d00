"""A censoring miner vs. the reveal-window length bound.

A miner who controls block production for a bounded stretch can hold a
victim's reveal out of every block up to some height. If the window is
long enough, the delayed reveal still lands before the deadline and the
outcome is untouched. The countermeasure is purely parametric: pick the
reveal deadline so the window exceeds any plausible censorship run.
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
    run_with_adversary,
)

COMMIT_DEADLINE = 3


def census_run(reveal_deadline: int, censor_until: int):
    scenario = Scenario(
        name="censor-demo", seed=9,
        mechanism=MechanismKind(tag=MechanismTag.BEACON),
        schedule=PhaseSchedule(COMMIT_DEADLINE, reveal_deadline),
        agents=(
            AgentSpec("p0", contribution=11),
            AgentSpec("p1", contribution=22),
            AgentSpec("p2", contribution=33),
        ),
        adversary=LeakStrategy(
            LeakStrategyKind.MINER_CENSOR_REVEALS,
            target="p1", censor_until=censor_until),
    )
    return run_with_adversary(scenario, ExecutionMode.DECENTRALIZED_COMMIT_REVEAL)


def main() -> None:
    print("commit deadline T = 3; the miner censors p1's reveal")
    print()
    header = f"{'T prime':>8s} {'censored to':>12s} {'p1 revealed':>12s} {'beacon changed':>15s}"
    print(header)
    for reveal_deadline in [5, 8]:
        for censor_until in [4, 5, 6, 8, 9]:
            if censor_until > reveal_deadline + 1:
                continue
            report = census_run(reveal_deadline, censor_until)
            manipulated = report.manipulated
            revealed = "p1" not in manipulated.excluded
            changed = not report.all_deltas_zero
            print(f"{reveal_deadline:>8d} {censor_until:>12d}"
                  f" {str(revealed):>12s} {str(changed):>15s}")
    print()
    print("a reveal delayed past height T' is worthless, so the outcome")
    print("flips exactly when the censorship run covers the whole window.")
    print("sizing T' - T above the miner's reach makes censoring futile.")


if __name__ == "__main__":
    main()
