"""Boston / Immediate Acceptance matching with optional beacon-driven lotteries.

Round r assigns every still-unassigned student to her r-th listed school if
seats remain, rationing over-demand by the school's priority order. Seats
granted in earlier rounds are never released, which is exactly what makes
truthful ranking unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from .beacon import BeaconOutput, beacon_order
from .errors import ValidationError, WireFormatError


class LotteryMode(Enum):
    SINGLE = "single_lottery"
    PER_SCHOOL = "per_school_lottery"


@dataclass(frozen=True)
class PreferenceRanking:
    """A student's ordered school list; unlisted schools are unacceptable."""

    agent: str
    ranking: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.ranking)) != len(self.ranking):
            raise ValidationError(f"ranking for {self.agent!r} repeats a school")


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


@dataclass(frozen=True)
class Matching:
    assignment: dict[str, str | None] = field(default_factory=dict)
    round_assigned: dict[str, int] = field(default_factory=dict)


def _priority_ranks(
    prefs: Sequence[PreferenceRanking], schools: Sequence[SchoolSpec]
) -> dict[str, dict[str, int]]:
    """Check that school ids and students are unique and that every ranked
    school exists and ranks every student; return each school's priority
    rank table (student -> position, 0 first)."""
    priority_rank: dict[str, dict[str, int]] = {
        s.school: {student: i for i, student in enumerate(s.priority)} for s in schools
    }
    if len(priority_rank) != len(schools):
        raise ValidationError("school identifiers must be unique")
    students: set[str] = set()
    for pref in prefs:
        if pref.agent in students:
            raise ValidationError(f"student {pref.agent!r} has more than one ranking")
        students.add(pref.agent)
        for school in pref.ranking:
            if school not in priority_rank:
                raise ValidationError(
                    f"student {pref.agent!r} ranked unknown school {school!r}"
                )
        for spec in schools:
            if pref.agent not in priority_rank[spec.school]:
                raise ValidationError(
                    f"school {spec.school!r} has no priority rank for {pref.agent!r}"
                )
    return priority_rank


def boston(prefs: Sequence[PreferenceRanking], schools: Sequence[SchoolSpec]) -> Matching:
    """Run the immediate-acceptance rounds to completion."""
    priority_rank = _priority_ranks(prefs, schools)
    matching = Matching(assignment={p.agent: None for p in prefs})
    seats = {s.school: s.capacity for s in schools}
    unassigned = list(prefs)
    for rnd in range(max((len(p.ranking) for p in prefs), default=0)):
        applicants: dict[str, list[PreferenceRanking]] = {}
        for pref in unassigned:
            if len(pref.ranking) > rnd:
                applicants.setdefault(pref.ranking[rnd], []).append(pref)
        for school in sorted(applicants):
            pool = sorted(applicants[school], key=lambda p: priority_rank[school][p.agent])
            for pref in pool[: seats[school]]:
                matching.assignment[pref.agent] = school
                matching.round_assigned[pref.agent] = rnd + 1
                seats[school] -= 1
        unassigned = [p for p in unassigned if matching.assignment[p.agent] is None]
    return matching


def first_round_admissions(
    student: str, others: Sequence[PreferenceRanking], schools: Sequence[SchoolSpec]
) -> set[str]:
    """The schools that admit ``student`` if it ranks them first, ``others``
    fixed: those where fewer of the others ranking the school first outrank
    ``student`` than the school has seats. Inputs are checked as ``boston``
    checks ``others`` plus ``student`` with an empty ranking.
    """
    priority_rank = _priority_ranks([*others, PreferenceRanking(student, ())], schools)
    ahead = dict.fromkeys(priority_rank, 0)
    for pref in others:
        if pref.ranking:
            ranks = priority_rank[pref.ranking[0]]
            if ranks[pref.agent] < ranks[student]:
                ahead[pref.ranking[0]] += 1
    return {s.school for s in schools if ahead[s.school] < s.capacity}


def lottery_priorities(
    students: Sequence[str],
    schools: Sequence[SchoolSpec],
    output: BeaconOutput,
    mode: LotteryMode,
) -> list[SchoolSpec]:
    """Replace every school's priority order with a beacon-drawn lottery.

    SINGLE draws one permutation (stream domain 0) shared by all schools;
    PER_SCHOOL draws an independent permutation per school, the stream domain
    being the school's index in ``schools``.
    """
    if mode is LotteryMode.SINGLE:
        order = beacon_order(output, students, 0)
        return [replace(spec, priority=order) for spec in schools]
    return [
        replace(spec, priority=beacon_order(output, students, index))
        for index, spec in enumerate(schools)
    ]


def rank_utility(true_ranking: PreferenceRanking, assigned: str | None, n_schools: int) -> int:
    """Ordinal utility: negative true rank of the assigned school.

    Unassigned (or assigned to a school the student never listed) is worse
    than any listed rank: -(n_schools + 1). Preferences here are ordinal,
    so this is the minimal faithful metric; reports flag it as such.
    """
    if assigned is not None and assigned in true_ranking.ranking:
        return -(true_ranking.ranking.index(assigned) + 1)
    return -(n_schools + 1)


def encode_ranking(school_indices: Sequence[int]) -> bytes:
    """Reveal payload: one length byte, then school indices as unsigned bytes."""
    if len(school_indices) > 255:
        raise WireFormatError("ranking longer than 255 schools")
    for idx in school_indices:
        if not 0 <= idx <= 255:
            raise WireFormatError(f"school index {idx} outside one byte")
    return bytes([len(school_indices)]) + bytes(school_indices)


def decode_ranking(data: bytes) -> tuple[int, ...]:
    if not data:
        raise WireFormatError("empty ranking payload")
    length = data[0]
    if len(data) != 1 + length:
        raise WireFormatError(
            f"ranking payload declares {length} entries but carries {len(data) - 1}"
        )
    if len(set(data[1:])) != length:
        raise WireFormatError("ranking payload repeats a school index")
    return tuple(data[1:])
