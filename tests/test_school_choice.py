"""Immediate-acceptance school assignment and beacon-drawn lottery priorities."""

import dataclasses
import random

import pytest

from trustless_mech import (
    BeaconOutput,
    LotteryMode,
    PreferenceRanking,
    SchoolSpec,
    boston,
    lottery_priorities,
    rank_utility,
)
from trustless_mech import beacon
from trustless_mech.errors import ValidationError, WireFormatError
from trustless_mech.school_choice import decode_ranking, encode_ranking


def two_college_instance():
    schools = [
        SchoolSpec("Cambridge", 1, priority=("Alice", "Bob", "Carol")),
        SchoolSpec("Oxford", 1, priority=("Alice", "Bob", "Carol")),
    ]
    prefs = [
        PreferenceRanking("Alice", ("Oxford", "Cambridge")),
        PreferenceRanking("Bob", ("Oxford", "Cambridge")),
        PreferenceRanking("Carol", ("Cambridge", "Oxford")),
    ]
    return prefs, schools


def random_instance(rng: random.Random):
    n_schools = rng.randrange(1, 5)
    school_names = [f"s{i}" for i in range(n_schools)]
    students = [f"kid{i}" for i in range(rng.randrange(1, 7))]
    schools = []
    for name in school_names:
        order = students[:]
        rng.shuffle(order)
        schools.append(SchoolSpec(name, rng.randrange(0, 3), priority=tuple(order)))
    prefs = []
    for student in students:
        listed = rng.sample(school_names, rng.randrange(0, n_schools + 1))
        prefs.append(PreferenceRanking(student, tuple(listed)))
    return prefs, schools


def test_truthful_two_college_outcome():
    prefs, schools = two_college_instance()
    matching = boston(prefs, schools)
    assert matching.assignment == {"Alice": "Oxford", "Bob": None, "Carol": "Cambridge"}
    assert matching.round_assigned == {"Alice": 1, "Carol": 1}


def test_misreporting_second_choice_first_steals_the_seat():
    # Bob flips to Cambridge-first and wins it on priority, pushing Carol out
    prefs, schools = two_college_instance()
    prefs[1] = PreferenceRanking("Bob", ("Cambridge", "Oxford"))
    matching = boston(prefs, schools)
    assert matching.assignment == {"Alice": "Oxford", "Bob": "Cambridge", "Carol": None}
    assert matching.round_assigned == {"Alice": 1, "Bob": 1}


def test_singleton_instance():
    matching = boston(
        [PreferenceRanking("Ana", ("Hogwarts",))],
        [SchoolSpec("Hogwarts", 1, priority=("Ana",))],
    )
    assert matching.assignment == {"Ana": "Hogwarts"}
    assert matching.round_assigned == {"Ana": 1}


def test_seats_are_final_across_rounds():
    # C takes Y in round 1; B arrives in round 2 with higher priority at Y
    # and still loses, because immediate acceptance never releases a seat
    schools = [
        SchoolSpec("X", 1, priority=("A", "B", "C")),
        SchoolSpec("Y", 1, priority=("B", "C", "A")),
    ]
    prefs = [
        PreferenceRanking("A", ("X",)),
        PreferenceRanking("B", ("X", "Y")),
        PreferenceRanking("C", ("Y",)),
    ]
    matching = boston(prefs, schools)
    assert matching.assignment == {"A": "X", "B": None, "C": "Y"}


def test_assignment_round_equals_rank_of_assigned_school():
    rng = random.Random(37)
    for _ in range(200):
        prefs, schools = random_instance(rng)
        matching = boston(prefs, schools)
        for pref in prefs:
            school = matching.assignment[pref.agent]
            if school is not None:
                rank = pref.ranking.index(school) + 1
                assert matching.round_assigned[pref.agent] == rank


def test_capacities_are_never_exceeded():
    rng = random.Random(41)
    for _ in range(200):
        prefs, schools = random_instance(rng)
        matching = boston(prefs, schools)
        for spec in schools:
            filled = sum(1 for s in matching.assignment.values() if s == spec.school)
            assert filled <= spec.capacity


def test_students_only_get_schools_they_listed():
    rng = random.Random(43)
    for _ in range(200):
        prefs, schools = random_instance(rng)
        matching = boston(prefs, schools)
        for pref in prefs:
            school = matching.assignment[pref.agent]
            assert school is None or school in pref.ranking


def test_zero_capacity_school_admits_nobody():
    matching = boston(
        [PreferenceRanking("Ana", ("Closed", "Open"))],
        [SchoolSpec("Closed", 0, priority=("Ana",)), SchoolSpec("Open", 1, priority=("Ana",))],
    )
    assert matching.assignment == {"Ana": "Open"}
    assert matching.round_assigned == {"Ana": 2}


def test_distinct_first_choices_all_land_in_round_one():
    rng = random.Random(47)
    for _ in range(50):
        n = rng.randrange(1, 5)
        names = [f"s{i}" for i in range(n)]
        students = [f"kid{i}" for i in range(n)]
        schools = [SchoolSpec(name, 1, priority=tuple(students)) for name in names]
        firsts = names[:]
        rng.shuffle(firsts)
        prefs = []
        for student, first in zip(students, firsts):
            rest = [s for s in names if s != first]
            rng.shuffle(rest)
            prefs.append(PreferenceRanking(student, (first, *rest)))
        matching = boston(prefs, schools)
        for pref in prefs:
            assert matching.assignment[pref.agent] == pref.ranking[0]
            assert matching.round_assigned[pref.agent] == 1


def test_a_matching_is_frozen():
    prefs, schools = two_college_instance()
    matching = boston(prefs, schools)
    with pytest.raises(dataclasses.FrozenInstanceError):
        matching.assignment = {}


def test_unknown_school_error_names_the_student():
    with pytest.raises(ValidationError, match="Ana"):
        boston(
            [PreferenceRanking("Ana", ("Nowhere",))],
            [SchoolSpec("Somewhere", 1, priority=("Ana",))],
        )


def test_priority_order_must_cover_every_applicant():
    with pytest.raises(ValidationError, match="Bob"):
        boston(
            [PreferenceRanking("Ana", ("S",)), PreferenceRanking("Bob", ("S",))],
            [SchoolSpec("S", 2, priority=("Ana",))],
        )


def test_duplicate_ranking_entries_rejected():
    with pytest.raises(ValidationError):
        PreferenceRanking("Ana", ("S", "S"))


def test_duplicate_priority_entries_rejected():
    with pytest.raises(ValidationError):
        SchoolSpec("S", 1, priority=("Ana", "Ana"))


def test_negative_capacity_rejected():
    with pytest.raises(ValidationError):
        SchoolSpec("S", -1)


def test_single_lottery_gives_every_school_the_same_order():
    students = ["dee", "ann", "bo", "cy"]
    schools = [SchoolSpec("s0", 1), SchoolSpec("s1", 2), SchoolSpec("s2", 1)]
    out = lottery_priorities(students, schools, BeaconOutput(0, ()), LotteryMode.SINGLE)
    # frozen: value 0 over the sorted students [ann, bo, cy, dee]
    assert all(spec.priority == ("dee", "cy", "ann", "bo") for spec in out)
    assert [spec.school for spec in out] == ["s0", "s1", "s2"]
    assert [spec.capacity for spec in out] == [1, 2, 1]


def test_single_lottery_draws_its_order_once(monkeypatch):
    calls = []
    real = beacon.derive_permutation

    def counted(output, n, domain=0):
        calls.append(domain)
        return real(output, n, domain)

    monkeypatch.setattr(beacon, "derive_permutation", counted)
    schools = [SchoolSpec(f"s{i}", 1) for i in range(6)]
    out = lottery_priorities(["a", "b", "c"], schools, BeaconOutput(3, ()), LotteryMode.SINGLE)
    assert calls == [0]
    assert len({spec.priority for spec in out}) == 1


def test_per_school_lottery_draws_independent_orders():
    students = ["pat", "quinn", "rae"]
    schools = [SchoolSpec("s0", 1), SchoolSpec("s1", 1)]
    out = lottery_priorities(students, schools, BeaconOutput(12, ()), LotteryMode.PER_SCHOOL)
    # frozen: value 12, stream domain = school index
    assert out[0].priority == ("quinn", "rae", "pat")
    assert out[1].priority == ("rae", "pat", "quinn")


def test_lottery_order_ignores_student_listing_order():
    schools = [SchoolSpec("s0", 1)]
    a = lottery_priorities(["b", "a", "c"], schools, BeaconOutput(5, ()), LotteryMode.SINGLE)
    b = lottery_priorities(["c", "b", "a"], schools, BeaconOutput(5, ()), LotteryMode.SINGLE)
    assert a[0].priority == b[0].priority


def test_lottery_modes_agree_for_a_single_school():
    # school index 0 shares the single-lottery stream domain
    students = ["x", "y", "z"]
    schools = [SchoolSpec("only", 2)]
    single = lottery_priorities(students, schools, BeaconOutput(77, ()), LotteryMode.SINGLE)
    per = lottery_priorities(students, schools, BeaconOutput(77, ()), LotteryMode.PER_SCHOOL)
    assert single[0].priority == per[0].priority


def test_lottery_with_one_student():
    schools = [SchoolSpec("s0", 1), SchoolSpec("s1", 1)]
    out = lottery_priorities(["solo"], schools, BeaconOutput(9, ()), LotteryMode.PER_SCHOOL)
    assert all(spec.priority == ("solo",) for spec in out)


def test_rank_utility_is_negative_true_rank():
    ranking = PreferenceRanking("Ana", ("first", "second", "third"))
    assert rank_utility(ranking, "first", n_schools=3) == -1
    assert rank_utility(ranking, "second", n_schools=3) == -2
    assert rank_utility(ranking, "third", n_schools=3) == -3


def test_rank_utility_unassigned_is_worst():
    ranking = PreferenceRanking("Ana", ("first", "second"))
    assert rank_utility(ranking, None, n_schools=3) == -4
    # a school the student never listed counts the same as no school
    assert rank_utility(ranking, "elsewhere", n_schools=3) == -4
    assert rank_utility(ranking, None, n_schools=3) < rank_utility(ranking, "second", n_schools=3)


def test_ranking_wire_codec():
    assert encode_ranking([]) == b"\x00"
    assert encode_ranking([2, 0, 1]) == b"\x03\x02\x00\x01"
    assert decode_ranking(b"\x03\x02\x00\x01") == (2, 0, 1)
    assert decode_ranking(b"\x00") == ()
    with pytest.raises(WireFormatError):
        encode_ranking(list(range(256)))
    with pytest.raises(WireFormatError):
        encode_ranking([256])
    with pytest.raises(WireFormatError):
        decode_ranking(b"")
    with pytest.raises(WireFormatError):
        decode_ranking(b"\x02\x00")
    with pytest.raises(WireFormatError):
        decode_ranking(b"\x01\x00\x01")
    with pytest.raises(WireFormatError):
        decode_ranking(b"\x03\x01\x00\x01")
