"""Boston / Immediate Acceptance matching with optional beacon-driven lotteries.

Round r assigns every still-unassigned student to her r-th listed school if
seats remain, rationing over-demand by the school's priority order. Seats
granted in earlier rounds are never released, which is exactly what makes
truthful ranking unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .beacon import DOMAIN_TIE_BREAK, BeaconOutput, beacon_order
from .errors import ValidationError


class LotteryMode(Enum):
    SINGLE = "single_lottery"
    PER_SCHOOL = "per_school_lottery"


@dataclass(frozen=True)
class SchoolSpec:
    """One school: its capacity and a strict priority order over students."""

    school: str
    capacity: int
    priority: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValidationError(f"capacity of {self.school!r} is negative")
        if len(set(self.priority)) != len(self.priority):
            raise ValidationError(f"priority order for {self.school!r} repeats a student")

    @cached_property
    def rank(self) -> Mapping[str, int]:
        """student -> position in ``priority`` (0 first), read-only; built
        once per spec, so every matching over one drawn school list shares it."""
        return MappingProxyType({student: i for i, student in enumerate(self.priority)})

    def __getstate__(self) -> dict:
        # the cached table does not pickle; it is rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Matching:
    assignment: dict[str, str | None] = field(default_factory=dict)
    round_assigned: dict[str, int] = field(default_factory=dict)


def _priority_ranks(
    reports: Mapping[str, Sequence[str]], schools: Sequence[SchoolSpec]
) -> dict[str, Mapping[str, int]]:
    """Check that school ids are unique, that no ranking repeats a school,
    and that every ranked school exists and ranks every student; return each
    school's priority rank table (``SchoolSpec.rank``).

    The first fault in student order is reported, a student's repeated
    school before its unknown school before its missing priority rank.
    """
    priority_rank = {s.school: s.rank for s in schools}
    if len(priority_rank) != len(schools):
        raise ValidationError("school identifiers must be unique")
    known = priority_rank.keys()
    all_ranked = all(spec.rank.keys() >= reports.keys() for spec in schools)
    for student, ranking in reports.items():
        chosen = set(ranking)
        if len(chosen) != len(ranking):
            raise ValidationError(f"ranking for {student!r} repeats a school")
        if not chosen <= known:
            school = next(s for s in ranking if s not in known)
            raise ValidationError(f"student {student!r} ranked unknown school {school!r}")
        if not all_ranked:
            for spec in schools:
                if student not in spec.rank:
                    raise ValidationError(
                        f"school {spec.school!r} has no priority rank for {student!r}"
                    )
    return priority_rank


def boston(reports: Mapping[str, Sequence[str]], schools: Sequence[SchoolSpec]) -> Matching:
    """Run the immediate-acceptance rounds to completion over ``reports``
    (student -> ranking); keyed by student, a profile holds each one once."""
    priority_rank = _priority_ranks(reports, schools)
    matching = Matching(assignment=dict.fromkeys(reports))
    seats = {s.school: s.capacity for s in schools}
    unassigned = list(reports)
    for rnd in range(max(map(len, reports.values()), default=0)):
        applicants: dict[str, list[str]] = {}
        for student in unassigned:
            ranking = reports[student]
            if len(ranking) > rnd:
                applicants.setdefault(ranking[rnd], []).append(student)
        for school in sorted(applicants):
            pool = sorted(applicants[school], key=priority_rank[school].__getitem__)
            for student in pool[: seats[school]]:
                matching.assignment[student] = school
                matching.round_assigned[student] = rnd + 1
                seats[school] -= 1
        unassigned = [s for s in unassigned if matching.assignment[s] is None]
    return matching


def first_round_admissions(
    student: str, reports: Mapping[str, Sequence[str]], schools: Sequence[SchoolSpec]
) -> set[str]:
    """The schools that admit ``student`` if it ranks them first, the other
    reports fixed: those where fewer of the others ranking the school first
    outrank ``student`` than the school has seats. ``student``'s own entry,
    if any, is ignored; inputs are checked as ``boston`` checks them with
    that entry empty.
    """
    others = {**reports, student: ()}
    priority_rank = _priority_ranks(others, schools)
    ahead = dict.fromkeys(priority_rank, 0)
    for other, ranking in others.items():
        if ranking:
            ranks = priority_rank[ranking[0]]
            if ranks[other] < ranks[student]:
                ahead[ranking[0]] += 1
    return {s.school for s in schools if ahead[s.school] < s.capacity}


def lottery_priorities(
    students: Sequence[str],
    schools: Sequence[SchoolSpec],
    output: BeaconOutput,
    mode: LotteryMode,
) -> list[SchoolSpec]:
    """Replace every school's priority order with a beacon-drawn lottery.

    SINGLE draws one permutation, in stream domain ``DOMAIN_TIE_BREAK``,
    shared by all schools; PER_SCHOOL draws an independent permutation per
    school, the stream domain being the school's index in ``schools``.
    """
    if mode is LotteryMode.SINGLE:
        order = beacon_order(output, students, DOMAIN_TIE_BREAK)
        return [replace(spec, priority=order) for spec in schools]
    return [
        replace(spec, priority=beacon_order(output, students, index))
        for index, spec in enumerate(schools)
    ]


def rank_utility(true_ranking: Sequence[str], assigned: str | None, n_schools: int) -> int:
    """Ordinal utility: negative true rank of the assigned school.

    Unassigned (or assigned to a school the student never listed) is worse
    than any listed rank: -(n_schools + 1). Preferences here are ordinal,
    so this is the minimal faithful metric; reports flag it as such.
    """
    if assigned is not None and assigned in true_ranking:
        return -(true_ranking.index(assigned) + 1)
    return -(n_schools + 1)
