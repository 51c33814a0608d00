"""Deterministic discrete-block ledger with a mempool and a pluggable miner policy.

Time is block height only. A censoring miner delays targeted reveal
messages (it never destroys them), which is exactly the adversary a long
enough reveal window defeats.

The ledger stores each message as sent and records the block that includes
it, appending blocks in height order only. ``ContractState.follow`` in
``contract`` is its one reader: a state reads the blocks appended since it
last followed. So any view of the chain, the operator's sealed view at the
commit deadline included, is a contract's replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import MechSimError

MAX_PAYLOAD_BYTES = 1024


class MessageKind(Enum):
    COMMIT = "commit"
    REVEAL = "reveal"


class PayloadTooLarge(MechSimError):
    """Submitted payload exceeds ``MAX_PAYLOAD_BYTES``."""


@dataclass(frozen=True)
class Message:
    """One ledger message: a commitment digest or a reveal for some contract."""

    sender: str
    contract_id: str
    kind: MessageKind
    payload: bytes


@dataclass(frozen=True)
class MinerPolicy:
    """A miner's censorship rule; it acts only on the reveal phase.

    Delays reveal messages from ``censor_targets`` while the new block's
    height is still <= ``censor_until``; a miner with no targets is honest.
    Commit messages are never censored, so every policy mines the commit
    phase honestly: the modeled manipulation is the miner "not processing"
    second-phase messages.
    """

    censor_targets: frozenset[str] = frozenset()
    censor_until: int = 0

    @classmethod
    def honest(cls) -> "MinerPolicy":
        return cls()

    @classmethod
    def censor(cls, targets: frozenset[str] | set[str], until: int) -> "MinerPolicy":
        """Withhold ``targets``' reveals through height ``until``; no targets is honest."""
        targets = frozenset(targets)
        return cls(censor_targets=targets, censor_until=until) if targets else cls()

    def censors(self, msg: Message, new_height: int) -> bool:
        return (
            msg.kind is MessageKind.REVEAL
            and msg.sender in self.censor_targets
            and new_height <= self.censor_until
        )


class ChainState:
    """Block height, the non-empty blocks, and the pending mempool.

    ``nonempty_blocks`` holds ``(height, messages)`` for each block with a
    message, in height order; empty blocks leave no entry. Height 0 is the
    empty genesis state.
    """

    def __init__(self) -> None:
        self.height = 0
        self.nonempty_blocks: list[tuple[int, list[Message]]] = []
        self.mempool: list[Message] = []

    def submit(self, msg: Message) -> None:
        """Append ``msg`` to the mempool as given."""
        if len(msg.payload) > MAX_PAYLOAD_BYTES:
            raise PayloadTooLarge(
                f"payload from {msg.sender!r} is {len(msg.payload)} bytes, "
                f"limit {MAX_PAYLOAD_BYTES}"
            )
        self.mempool.append(msg)

    def advance_to(self, height: int, policy: MinerPolicy | None = None) -> None:
        """Mine blocks until the chain reaches ``height``.

        Nothing is submitted in between, so one rule mines the range: the
        first new block takes what the policy does not hold at its height;
        what it holds stays held through ``censor_until`` and enters block
        ``censor_until + 1`` if the range reaches it.
        """
        if self.height >= height:
            return
        policy = policy or MinerPolicy.honest()
        first = self.height + 1
        if not policy.censor_targets or first > policy.censor_until:
            included, held = self.mempool, []  # nothing can be censored at this height
        else:
            included, held = [], []
            for m in self.mempool:
                (held if policy.censors(m, first) else included).append(m)
        if included:
            self.nonempty_blocks.append((first, included))
        if held and policy.censor_until < height:
            self.nonempty_blocks.append((policy.censor_until + 1, held))
            held = []
        self.mempool = held
        self.height = height
