"""School assignment by immediate acceptance, and why honesty is fragile.

Round r sends every unassigned student to their r-th listed school; a
school admits up to capacity in priority order and those seats are final.
Listing a popular school first and losing it wastes the round, so a
student who KNOWS the other rankings can gain by reordering their list.
Commit-reveal execution removes exactly that knowledge.
"""

from trustless_mech import (
    AgentSpec,
    BeaconOutput,
    ExecutionMode,
    LeakStrategy,
    LeakStrategyKind,
    LotteryMode,
    MechanismKind,
    MechanismTag,
    PhaseSchedule,
    Scenario,
    SchoolSpec,
    best_response_ranking,
    boston,
    lottery_priorities,
    run_with_adversary,
)

SCHOOLS = (
    SchoolSpec("Cambridge", 1, priority=("Alice", "Bob", "Carol")),
    SchoolSpec("Oxford", 1, priority=("Alice", "Bob", "Carol")),
)


def show(matching) -> None:
    for student in sorted(matching.assignment):
        school = matching.assignment[student]
        where = school or "unassigned"
        rnd = matching.round_assigned.get(student)
        suffix = f" (round {rnd})" if rnd else ""
        print(f"  {student:6s} -> {where}{suffix}")


def main() -> None:
    # a report profile maps each student to the ranking they submit
    truthful = {
        "Alice": ("Oxford", "Cambridge"),
        "Bob": ("Oxford", "Cambridge"),
        "Carol": ("Cambridge", "Oxford"),
    }
    print("truthful reports:")
    show(boston(truthful, SCHOOLS))
    print()

    # Bob loses Oxford to Alice in round 1, and by round 2 Cambridge is gone.
    # Shown the other reports, Bob best-responds by ranking Cambridge alone.
    informed = {**truthful, "Bob": best_response_ranking("Bob", truthful, SCHOOLS)}
    print("Bob flips to Cambridge-first after seeing the other lists:")
    show(boston(informed, SCHOOLS))
    print()

    # the same manipulation through both execution modes
    scenario = Scenario(
        name="college-demo", seed=5,
        mechanism=MechanismKind(tag=MechanismTag.BOSTON, schools=SCHOOLS),
        schedule=PhaseSchedule(2, 7),
        agents=(
            AgentSpec("Alice", ranking=("Oxford", "Cambridge")),
            AgentSpec("Bob", ranking=("Oxford", "Cambridge")),
            AgentSpec("Carol", ranking=("Cambridge", "Oxford")),
        ),
        adversary=LeakStrategy(LeakStrategyKind.BOSTON_SELL_RANKINGS, target="Bob"),
    )
    for mode in [ExecutionMode.CENTRALIZED_SEQUENTIAL,
                 ExecutionMode.DECENTRALIZED_COMMIT_REVEAL]:
        report = run_with_adversary(scenario, mode)
        bob = report.manipulated.matching.assignment["Bob"]
        print(f"{mode.value:13s} operator sells rankings to Bob -> Bob gets "
              f"{bob or 'nothing'}, coalition gain "
              f"{report.gain_per_party['coalition']}")
    print()

    # when no fixed priorities exist, a beacon output draws the lottery
    plain = [SchoolSpec("Cambridge", 1), SchoolSpec("Oxford", 1)]
    students = ["Alice", "Bob", "Carol"]
    for mode in [LotteryMode.SINGLE, LotteryMode.PER_SCHOOL]:
        drawn = lottery_priorities(students, plain, BeaconOutput(12, ()), mode)
        orders = ", ".join(f"{s.school}: {' > '.join(s.priority)}" for s in drawn)
        print(f"{mode.value:18s} {orders}")


if __name__ == "__main__":
    main()
