"""Commit-reveal contract: deadlines, verification, exclusion, and chain replay."""

import random

import pytest

from trustless_mech import (
    ChainState,
    CommitOpening,
    ContractState,
    MechanismKind,
    MechanismTag,
    Message,
    MessageKind,
    MinerPolicy,
    PhaseSchedule,
    SchoolSpec,
    drive,
    make_commitment,
)
from trustless_mech.contract import (
    AlreadySettled,
    ContractRejection,
    commit_message,
    parse_reveal_payload,
    reveal_message,
)
from trustless_mech.errors import ValidationError, WireFormatError
from trustless_mech.school_choice import LotteryMode

CID = "auction-42"
SCHEDULE = PhaseSchedule(commit_deadline=3, reveal_deadline=8)


def opening_for(agent: str, payload: bytes) -> CommitOpening:
    # deterministic distinct salt per agent, sized correctly
    return CommitOpening(payload=payload, salt=agent.encode().ljust(32, b"\x00"))


def committed_contract(agents: dict[str, bytes]) -> tuple[ContractState, dict[str, CommitOpening]]:
    state = ContractState(CID, SCHEDULE)
    openings = {}
    for agent, payload in agents.items():
        openings[agent] = opening_for(agent, payload)
        state.accept_commit(1, agent, make_commitment(agent, CID, openings[agent]))
    return state, openings


def test_schedule_requires_positive_ordered_deadlines():
    with pytest.raises(ValidationError):
        PhaseSchedule(0, 5)
    with pytest.raises(ValidationError):
        PhaseSchedule(5, 5)
    with pytest.raises(ValidationError):
        PhaseSchedule(6, 5)


def accepted_at(height: int) -> list[str]:
    """Which of a commit, a reveal and then finalize an open contract takes at ``height``."""
    state, openings = committed_contract({"alice": b"a"})
    calls = {
        "commit": lambda: state.accept_commit(
            height, "bo", make_commitment("bo", CID, opening_for("bo", b"b"))
        ),
        "reveal": lambda: state.accept_reveal(height, "alice", openings["alice"]),
        "finalize": lambda: state.finalize(height),
    }
    accepted = []
    for name, call in calls.items():
        try:
            call()
        except ContractRejection:
            continue
        accepted.append(name)
    return accepted


def test_phase_boundaries():
    # T = 3 and T' = 8 are inclusive: each window ends at its deadline
    state, openings = committed_contract({"alice": b"a"})
    with pytest.raises(ContractRejection, match="commit from"):
        state.accept_commit(4, "bo", make_commitment("bo", CID, opening_for("bo", b"b")))
    state.accept_commit(3, "bo", make_commitment("bo", CID, opening_for("bo", b"b")))
    with pytest.raises(ContractRejection, match="outside"):
        state.accept_reveal(3, "alice", openings["alice"])
    with pytest.raises(ContractRejection, match="outside"):
        state.accept_reveal(9, "alice", openings["alice"])
    state.accept_reveal(4, "alice", openings["alice"])
    state.accept_reveal(8, "bo", opening_for("bo", b"b"))
    with pytest.raises(ContractRejection, match="finalize at height"):
        state.finalize(7)
    assert state.finalize(8).excluded == frozenset()


def test_settled_contract_reports_settled_phase_everywhere():
    state, openings = committed_contract({"alice": b"a"})
    state.finalize(8)
    for height in (1, 3, 4, 8, 9):
        with pytest.raises(AlreadySettled):
            state.accept_commit(height, "bo", make_commitment("bo", CID, opening_for("bo", b"b")))
        with pytest.raises(AlreadySettled):
            state.accept_reveal(height, "alice", openings["alice"])
        with pytest.raises(AlreadySettled):
            state.finalize(height)


def test_an_open_contract_reads_its_phase_from_the_schedule():
    assert {h: accepted_at(h) for h in (1, 3, 4, 8, 9)} == {
        1: ["commit"],
        3: ["commit"],
        4: ["reveal"],
        8: ["reveal", "finalize"],
        9: ["finalize"],
    }


def test_a_settled_contract_takes_no_more_messages():
    state, openings = committed_contract({"alice": b"a"})
    state.finalize(8)
    late = opening_for("bo", b"b")
    with pytest.raises(AlreadySettled):
        state.accept_commit(1, "bo", make_commitment("bo", CID, late))
    with pytest.raises(AlreadySettled):
        state.accept_reveal(5, "bo", late)
    with pytest.raises(AlreadySettled):
        state.accept_reveal(5, "alice", openings["alice"])
    assert list(state.commitments) == ["alice"]
    assert state.reveals == {}
    assert state.excluded == {"alice"}


def test_commit_accepted_at_exactly_the_deadline():
    state = ContractState(CID, SCHEDULE)
    state.accept_commit(3, "alice", make_commitment("alice", CID, opening_for("alice", b"x")))
    assert "alice" in state.commitments


def test_commit_rejected_one_block_after_the_deadline():
    state = ContractState(CID, SCHEDULE)
    with pytest.raises(ContractRejection, match="commit from"):
        state.accept_commit(4, "alice", make_commitment("alice", CID, opening_for("alice", b"x")))


def test_second_commit_rejected_and_first_stands():
    state, openings = committed_contract({"alice": b"one"})
    replacement = make_commitment("alice", CID, opening_for("alice", b"two"))
    with pytest.raises(ContractRejection, match="already committed"):
        state.accept_commit(2, "alice", replacement)
    state.accept_reveal(4, "alice", openings["alice"])
    assert state.reveals["alice"].payload == b"one"


def test_reveal_rejected_during_commit_phase():
    state, openings = committed_contract({"alice": b"x"})
    with pytest.raises(ContractRejection, match="outside"):
        state.accept_reveal(3, "alice", openings["alice"])


def test_reveal_rejected_after_reveal_deadline():
    state, openings = committed_contract({"alice": b"x"})
    with pytest.raises(ContractRejection, match="outside"):
        state.accept_reveal(9, "alice", openings["alice"])


def test_reveal_accepted_across_the_whole_window():
    for height in [4, 6, 8]:
        state, openings = committed_contract({"alice": b"x"})
        state.accept_reveal(height, "alice", openings["alice"])
        assert "alice" in state.reveals


def test_reveal_without_commit_rejected():
    state, _ = committed_contract({})
    with pytest.raises(ContractRejection, match="never committed"):
        state.accept_reveal(4, "ghost", opening_for("ghost", b"x"))


def test_altered_payload_excludes_silently():
    state, _ = committed_contract({"alice": b"bid-10"})
    state.accept_reveal(4, "alice", opening_for("alice", b"bid-99"))
    assert "alice" in state.excluded
    assert "alice" not in state.reveals


def test_altered_salt_also_excludes():
    state, openings = committed_contract({"alice": b"x"})
    tampered = CommitOpening(payload=b"x", salt=bytes(32))
    state.accept_reveal(4, "alice", tampered)
    assert "alice" in state.excluded


def test_excluded_agent_cannot_reveal_again_even_correctly():
    state, openings = committed_contract({"alice": b"x"})
    state.accept_reveal(4, "alice", opening_for("alice", b"y"))
    with pytest.raises(ContractRejection, match="is excluded"):
        state.accept_reveal(5, "alice", openings["alice"])


def test_duplicate_reveal_rejected():
    state, openings = committed_contract({"alice": b"x"})
    state.accept_reveal(4, "alice", openings["alice"])
    with pytest.raises(ContractRejection, match="already revealed"):
        state.accept_reveal(5, "alice", openings["alice"])


def test_finalize_with_every_reveal_in():
    state, openings = committed_contract({"carol": b"3", "alice": b"1", "bob": b"2"})
    for agent in openings:
        state.accept_reveal(4, agent, openings[agent])
    result = state.finalize(8)
    assert result.excluded == frozenset()
    assert result.payloads == (("alice", b"1"), ("bob", b"2"), ("carol", b"3"))
    assert result.contract_id == CID


def test_finalize_excludes_the_silent_agent():
    state, openings = committed_contract({"alice": b"1", "bob": b"2", "carol": b"3"})
    state.accept_reveal(4, "alice", openings["alice"])
    state.accept_reveal(4, "carol", openings["carol"])
    result = state.finalize(9)
    assert result.excluded == frozenset({"bob"})
    assert result.payloads == (("alice", b"1"), ("carol", b"3"))


def test_finalize_with_no_commitments():
    state, _ = committed_contract({})
    result = state.finalize(8)
    assert result.payloads == ()
    assert result.excluded == frozenset()


def test_finalize_too_early_and_at_the_deadline():
    state, _ = committed_contract({})
    with pytest.raises(ContractRejection, match="finalize at height"):
        state.finalize(7)
    state.finalize(8)


def test_finalize_twice_rejected():
    state, _ = committed_contract({})
    state.finalize(8)
    with pytest.raises(AlreadySettled):
        state.finalize(9)


def test_commitments_split_exactly_into_reveals_and_excluded():
    rng = random.Random(53)
    for _ in range(50):
        agents = {f"a{i}": bytes([i + 1]) for i in range(rng.randrange(0, 8))}
        state, openings = committed_contract(agents)
        for agent in agents:
            roll = rng.random()
            if roll < 0.4:
                state.accept_reveal(4, agent, openings[agent])
            elif roll < 0.7:
                state.accept_reveal(4, agent, opening_for(agent, b"forged"))
        result = state.finalize(8)
        revealed = {a for a, _ in result.payloads}
        assert revealed | result.excluded == set(agents)
        assert revealed & result.excluded == set()
        assert set(state.reveals) == revealed


def build_chain(openings: dict[str, CommitOpening], reveal_heights: dict[str, int],
                policy: MinerPolicy | None = None, through: int = 8) -> ChainState:
    chain = ChainState()
    for agent, opening in openings.items():
        chain.submit(commit_message(agent, CID, make_commitment(agent, CID, opening)))
    # batch all reveals by target submission height, lowest first
    targets = sorted(set(reveal_heights.values()))
    for target in targets:
        chain.advance_to(target, policy)
        for agent, at in reveal_heights.items():
            if at == target:
                chain.submit(reveal_message(agent, CID, openings[agent]))
    chain.advance_to(through, policy)
    return chain


def test_drive_matches_manual_replay():
    openings = {a: opening_for(a, p) for a, p in
                {"alice": b"10", "bob": b"20", "carol": b"30"}.items()}
    chain = build_chain(openings, {"alice": 3, "bob": 4, "carol": 5})
    driven, settlement = drive(chain, CID, SCHEDULE)

    manual = ContractState(CID, SCHEDULE)
    for agent, opening in openings.items():
        manual.accept_commit(1, agent, make_commitment(agent, CID, opening))
    manual.accept_reveal(4, "alice", openings["alice"])
    manual.accept_reveal(5, "bob", openings["bob"])
    manual.accept_reveal(6, "carol", openings["carol"])
    expected = manual.finalize(8)

    assert settlement == expected
    assert driven.rejections == []


def test_drive_is_idempotent():
    openings = {"alice": opening_for("alice", b"1")}
    chain = build_chain(openings, {"alice": 4})
    first = drive(chain, CID, SCHEDULE)[1]
    second = drive(chain, CID, SCHEDULE)[1]
    assert first == second


def test_drive_before_the_deadline_returns_no_settlement():
    openings = {"alice": opening_for("alice", b"1")}
    chain = build_chain(openings, {"alice": 4}, through=7)
    state, settlement = drive(chain, CID, SCHEDULE)
    assert settlement is None
    assert "alice" in state.reveals


def test_drive_records_late_commit_as_rejection():
    chain = ChainState()
    chain.advance_to(3)
    # submitted at height 3, included at height 4: one block too late
    opening = opening_for("alice", b"1")
    chain.submit(commit_message("alice", CID, make_commitment("alice", CID, opening)))
    chain.advance_to(8)
    state, settlement = drive(chain, CID, SCHEDULE)
    assert state.commitments == {}
    assert settlement.payloads == ()
    assert len(state.rejections) == 1
    assert "deadline" in state.rejections[0]


def test_drive_ignores_other_contracts():
    chain = ChainState()
    opening = opening_for("alice", b"1")
    chain.submit(commit_message("alice", "other", make_commitment("alice", "other", opening)))
    chain.advance_to(8)
    state, settlement = drive(chain, CID, SCHEDULE)
    assert state.commitments == {}
    assert state.rejections == []


def test_drive_rejects_malformed_commit_digest():
    chain = ChainState()
    from trustless_mech import Message, MessageKind
    chain.submit(Message("alice", CID, MessageKind.COMMIT, b"short"))
    chain.advance_to(8)
    state, _ = drive(chain, CID, SCHEDULE)
    assert state.commitments == {}
    assert len(state.rejections) == 1


@pytest.mark.parametrize("kind, size, rejection", [
    (MessageKind.COMMIT, 31, "height 1: commitment digest must be 32 bytes, got 31"),
    (MessageKind.COMMIT, 33, "height 1: commitment digest must be 32 bytes, got 33"),
    (MessageKind.REVEAL, 0, "height 5: opening payload must be non-empty"),
    (MessageKind.REVEAL, 32, "height 5: opening payload must be non-empty"),
])
def test_drive_records_a_message_of_the_wrong_size_as_a_rejection(kind, size, rejection):
    # the wire sizes are enforced by Commitment and CommitOpening alone
    chain = ChainState()
    if kind is MessageKind.COMMIT:
        chain.submit(Message("alice", CID, kind, bytes(size)))
    else:
        opening = opening_for("alice", b"1")
        chain.submit(commit_message("alice", CID, make_commitment("alice", CID, opening)))
        chain.advance_to(4)
        chain.submit(Message("alice", CID, kind, bytes(size)))
    chain.advance_to(8)
    state, settlement = drive(chain, CID, SCHEDULE)
    assert state.rejections == [rejection]
    assert state.reveals == {}
    assert settlement.payloads == ()


def test_censorship_past_the_reveal_deadline_excludes():
    # reveal submitted at height 4, censored through height 8 = T':
    # it first lands at height 9, after the window, so the agent is excluded
    openings = {"alice": opening_for("alice", b"1"), "bob": opening_for("bob", b"2")}
    policy = MinerPolicy.censor({"alice"}, until=8)
    chain = build_chain(openings, {"alice": 3, "bob": 3}, policy=policy, through=10)
    state, settlement = drive(chain, CID, SCHEDULE)
    assert settlement.excluded == frozenset({"alice"})
    assert [a for a, _ in settlement.payloads] == ["bob"]


def test_censorship_inside_the_window_only_delays():
    # censored through height 7 < T' = 8: the reveal lands at 8, still valid
    openings = {"alice": opening_for("alice", b"1")}
    policy = MinerPolicy.censor({"alice"}, until=7)
    chain = build_chain(openings, {"alice": 3}, policy=policy, through=10)
    state, settlement = drive(chain, CID, SCHEDULE)
    assert settlement.excluded == frozenset()
    assert [a for a, _ in settlement.payloads] == ["alice"]


def test_reveal_message_wire_round_trip():
    opening = opening_for("alice", b"\x01\x02\x03")
    msg = reveal_message("alice", CID, opening)
    assert parse_reveal_payload(msg.payload) == opening
    with pytest.raises(WireFormatError):
        parse_reveal_payload(bytes(32))
    with pytest.raises(WireFormatError):
        parse_reveal_payload(b"")


def test_mechanism_kind_validation():
    from fractions import Fraction
    from trustless_mech import SlotCTRs
    MechanismKind(tag=MechanismTag.GSP, ctrs=SlotCTRs((Fraction(1),)))
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.GSP)
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.FIRST_PRICE, ctrs=SlotCTRs((Fraction(1),)))
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.BOSTON)
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.BOSTON,
                      schools=(SchoolSpec("s", 1), SchoolSpec("s", 1)))
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.BOSTON, schools=(SchoolSpec("s", 1),),
                      priority_mode=LotteryMode.SINGLE)
    MechanismKind(tag=MechanismTag.BOSTON, schools=(SchoolSpec("s", 1),),
                  priority_mode=LotteryMode.SINGLE, with_beacon=True)
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.FIRST_PRICE, schools=(SchoolSpec("s", 1),))
    with pytest.raises(ValidationError):
        MechanismKind(tag=MechanismTag.BEACON, with_beacon=True)


def test_uses_beacon_flag():
    assert MechanismKind(tag=MechanismTag.BEACON).uses_beacon
    assert MechanismKind(tag=MechanismTag.FIRST_PRICE, with_beacon=True).uses_beacon
    assert not MechanismKind(tag=MechanismTag.FIRST_PRICE).uses_beacon
