"""Block-by-block message inclusion, the mempool, and miner censorship."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustless_mech import ChainState, Message, MessageKind, MinerPolicy
from trustless_mech.chain import MAX_PAYLOAD_BYTES, PayloadTooLarge


def commit_msg(sender: str, payload: bytes = b"\x00" * 32) -> Message:
    return Message(sender=sender, contract_id="c", kind=MessageKind.COMMIT, payload=payload)


def reveal_msg(sender: str, payload: bytes = b"\x01") -> Message:
    return Message(sender=sender, contract_id="c", kind=MessageKind.REVEAL, payload=payload)


def senders_by_height(chain: ChainState) -> list[tuple[int, list[str]]]:
    return [(h, [m.sender for m in block]) for h, block in chain.nonempty_blocks]


def state(chain: ChainState) -> tuple:
    """The whole ledger state; messages compare by value."""
    return chain.height, chain.nonempty_blocks, chain.mempool


def nonempty(blocks: list[list[Message]]) -> list[tuple[int, list[Message]]]:
    """Per-height blocks, block ``k`` at index ``k - 1``, as ``nonempty_blocks`` stores them."""
    return [(h, block) for h, block in enumerate(blocks, 1) if block]


def test_honest_miner_includes_next_block():
    chain = ChainState()
    chain.submit(commit_msg("alice"))
    chain.submit(commit_msg("bob"))
    assert chain.height == 0
    chain.advance_to(chain.height + 1)
    assert chain.height == 1
    assert senders_by_height(chain) == [(1, ["alice", "bob"])]
    assert chain.mempool == []


def test_inclusion_order_is_submission_order_within_block():
    chain = ChainState()
    for name in ["carol", "alice", "bob"]:
        chain.submit(commit_msg(name))
    chain.advance_to(chain.height + 1)
    assert senders_by_height(chain) == [(1, ["carol", "alice", "bob"])]


def test_censored_reveal_is_delayed_until_after_window():
    # reveal submitted at height 3, censored through height 5: first block it
    # can enter is height 6
    chain = ChainState()
    policy = MinerPolicy.censor({"alice"}, until=5)
    chain.advance_to(3, policy)
    chain.submit(reveal_msg("alice"))
    chain.advance_to(5, policy)
    assert chain.nonempty_blocks == []
    assert [m.sender for m in chain.mempool] == ["alice"]
    chain.advance_to(chain.height + 1, policy)
    assert chain.height == 6
    assert senders_by_height(chain) == [(6, ["alice"])]
    assert chain.mempool == []


def test_censorship_delays_never_drops():
    # the length bound: a message censored until U lands at exactly
    # max(submit_height, U) + 1 under a constant policy
    rng = random.Random(3)
    for _ in range(100):
        submit_at = rng.randrange(0, 8)
        until = rng.randrange(0, 12)
        chain = ChainState()
        policy = MinerPolicy.censor({"z"}, until=until)
        chain.advance_to(submit_at, policy)
        chain.submit(reveal_msg("z"))
        landing = max(submit_at, until) + 1
        chain.advance_to(landing + 2, policy)
        heights = [h for h, block in chain.nonempty_blocks for m in block if m.sender == "z"]
        assert heights == [landing]


def test_commits_are_never_censored():
    chain = ChainState()
    policy = MinerPolicy.censor({"alice"}, until=100)
    chain.submit(commit_msg("alice"))
    chain.advance_to(chain.height + 1, policy)
    assert senders_by_height(chain) == [(1, ["alice"])]


def test_non_targets_pass_through_a_censoring_miner():
    chain = ChainState()
    policy = MinerPolicy.censor({"alice"}, until=100)
    chain.submit(reveal_msg("alice"))
    chain.submit(reveal_msg("bob"))
    chain.advance_to(chain.height + 1, policy)
    assert senders_by_height(chain) == [(1, ["bob"])]
    assert [m.sender for m in chain.mempool] == ["alice"]


def test_every_message_is_in_exactly_one_place():
    # conservation: blocks and mempool partition the submitted messages
    rng = random.Random(9)
    chain = ChainState()
    policy = MinerPolicy.censor({"t0", "t1"}, until=6)
    submitted = 0
    for step in range(12):
        for _ in range(rng.randrange(0, 3)):
            sender = rng.choice(["t0", "t1", "u0", "u1"])
            kind = rng.choice([MessageKind.COMMIT, MessageKind.REVEAL])
            chain.submit(Message(sender, "c", kind, b"\x07"))
            submitted += 1
        chain.advance_to(chain.height + 1, policy if rng.random() < 0.7 else None)
    in_blocks = sum(len(b) for _, b in chain.nonempty_blocks)
    assert in_blocks + len(chain.mempool) == submitted


def test_payload_size_limit():
    chain = ChainState()
    chain.submit(commit_msg("a", payload=bytes(MAX_PAYLOAD_BYTES)))
    with pytest.raises(PayloadTooLarge):
        chain.submit(commit_msg("a", payload=bytes(MAX_PAYLOAD_BYTES + 1)))
    assert [m.payload for m in chain.mempool] == [bytes(MAX_PAYLOAD_BYTES)]


def test_the_ledger_state_is_deterministic_and_history_sensitive():
    def build(order):
        chain = ChainState()
        for name in order:
            chain.submit(commit_msg(name))
        chain.advance_to(1)
        chain.submit(reveal_msg(order[0]))
        chain.advance_to(2)
        return chain

    a = build(["x", "y"])
    b = build(["x", "y"])
    c = build(["y", "x"])
    assert state(a) == state(b)
    assert state(a) != state(c)


def test_the_ledger_state_distinguishes_block_boundaries():
    # same messages, different block placement
    one = ChainState()
    one.submit(commit_msg("a"))
    one.submit(commit_msg("b"))
    one.advance_to(2)

    two = ChainState()
    two.submit(commit_msg("a"))
    two.advance_to(1)
    two.submit(commit_msg("b"))
    two.advance_to(2)

    assert state(one) != state(two)


def test_advance_to_mines_exactly_to_target():
    chain = ChainState()
    chain.advance_to(7)
    assert chain.height == 7
    assert chain.nonempty_blocks == []
    chain.advance_to(7)
    assert chain.height == 7


def test_a_long_window_keeps_only_its_nonempty_blocks():
    # one block of commits, one of reveals released after the censor: the
    # heights between leave no entry, however many there are
    chain = ChainState()
    chain.submit(commit_msg("alice"))
    chain.submit(reveal_msg("bob"))
    chain.advance_to(10**30, MinerPolicy.censor({"bob"}, until=10**29))
    assert chain.height == 10**30
    assert [(h, [m.sender for m in b]) for h, b in chain.nonempty_blocks] == [
        (1, ["alice"]),
        (10**29 + 1, ["bob"]),
    ]
    assert chain.mempool == []


def test_a_reveal_held_past_the_target_height_stays_in_the_mempool():
    chain = ChainState()
    chain.submit(reveal_msg("bob"))
    chain.advance_to(10**20, MinerPolicy.censor({"bob"}, until=10**29))
    assert chain.nonempty_blocks == []
    assert [m.sender for m in chain.mempool] == ["bob"]


def test_a_message_is_recorded_at_the_height_of_its_block():
    chain = ChainState()
    chain.advance_to(1)
    chain.submit(commit_msg("a"))
    chain.advance_to(2)
    assert senders_by_height(chain) == [(2, ["a"])]


def test_honest_policy_is_the_default():
    assert not MinerPolicy.honest().censor_targets
    assert MinerPolicy.censor(set(), 5) == MinerPolicy.honest()
    chain = ChainState()
    chain.submit(reveal_msg("alice"))
    chain.advance_to(chain.height + 1)
    assert senders_by_height(chain) == [(1, ["alice"])]


SENDERS = ("t0", "t1", "u0", "u1")
policies = st.one_of(
    st.none(),
    st.just(MinerPolicy.honest()),
    st.builds(
        MinerPolicy.censor,
        st.frozensets(st.sampled_from(SENDERS)),
        st.integers(min_value=-1, max_value=10),
    ),
)
steps = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(SENDERS), st.sampled_from(MessageKind)), max_size=4),
        policies,
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_a_one_block_advance_to_matches_the_two_pass_rule(plan):
    # oracle: the rule as two list comprehensions over the mempool, one
    # keeping what the miner includes, one keeping what it holds
    chain = ChainState()
    blocks: list[list[Message]] = []
    mempool: list[Message] = []
    for height, (submissions, policy) in enumerate(plan):
        for i, (sender, kind) in enumerate(submissions):
            msg = Message(sender, "c", kind, bytes([height, i]))
            chain.submit(msg)
            mempool.append(msg)
        rule = policy or MinerPolicy.honest()
        blocks.append([m for m in mempool if not rule.censors(m, height + 1)])
        mempool = [m for m in mempool if rule.censors(m, height + 1)]
        chain.advance_to(chain.height + 1, policy)
        assert chain.height == height + 1
        assert chain.nonempty_blocks == nonempty(blocks)
        assert chain.mempool == mempool


class EveryBlock:
    """The oracle's ledger: one message list per height, empty blocks too."""

    def __init__(self) -> None:
        self.height = 0
        self.blocks: list[list[Message]] = []
        self.mempool: list[Message] = []


def per_block_oracle(chain: EveryBlock, height: int, policy: MinerPolicy | None) -> None:
    """``advance_to`` as one ``censors`` test per message per block."""
    rule = policy or MinerPolicy.honest()
    while chain.height < height:
        new_height = chain.height + 1
        chain.blocks.append([m for m in chain.mempool if not rule.censors(m, new_height)])
        chain.mempool = [m for m in chain.mempool if rule.censors(m, new_height)]
        chain.height = new_height


# "ghost" is a censor target that never sends
censor_policies = st.one_of(
    st.none(),
    st.just(MinerPolicy.honest()),
    st.builds(
        MinerPolicy.censor,
        st.frozensets(st.sampled_from((*SENDERS, "ghost"))),
        st.integers(min_value=-1, max_value=40),
    ),
)
advances = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(SENDERS), st.sampled_from(MessageKind)), max_size=4),
        censor_policies,
        st.integers(min_value=-2, max_value=8),  # target height, relative to the tip
        st.booleans(),  # one block instead of the relative target
    ),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(advances)
def test_advance_to_matches_the_per_block_rule(plan):
    chain, oracle = ChainState(), EveryBlock()
    for step, (submissions, policy, ahead, one_block) in enumerate(plan):
        for i, (sender, kind) in enumerate(submissions):
            msg = Message(sender, "c", kind, bytes([step, i]))
            chain.submit(msg)
            oracle.mempool.append(msg)
        target = chain.height + (1 if one_block else ahead)
        chain.advance_to(target, policy)
        per_block_oracle(oracle, target, policy)
        assert chain.height == oracle.height
        assert chain.nonempty_blocks == nonempty(oracle.blocks)
        assert chain.mempool == oracle.mempool
        assert all(block for _, block in chain.nonempty_blocks)
