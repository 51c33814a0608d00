"""Deterministic discrete-block ledger with a mempool and a pluggable miner policy.

Time is block height only. A censoring miner delays targeted reveal
messages (it never destroys them), which is exactly the adversary a long
enough reveal window defeats.
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


class DeadlineOutOfRange(MechSimError):
    """Queried deadline lies beyond the current chain height."""


@dataclass(frozen=True)
class Message:
    """One ledger message: a commitment digest or a reveal for some contract.

    ``submitted_at`` is stamped by the ledger at submission time; whatever the
    sender put there is overwritten.
    """

    sender: str
    contract_id: str
    kind: MessageKind
    payload: bytes
    submitted_at: int = -1


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

    def submit(self, msg: Message) -> Message:
        """Append ``msg`` to the mempool, stamped with the current height."""
        if len(msg.payload) > MAX_PAYLOAD_BYTES:
            raise PayloadTooLarge(
                f"payload from {msg.sender!r} is {len(msg.payload)} bytes, "
                f"limit {MAX_PAYLOAD_BYTES}"
            )
        stamped = Message(msg.sender, msg.contract_id, msg.kind, msg.payload, self.height)
        self.mempool.append(stamped)
        return stamped

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

    def included_with_heights(self, deadline: int | None = None) -> list[tuple[int, Message]]:
        """(inclusion height, message) pairs through ``deadline`` (default: tip)."""
        deadline = self.height if deadline is None else deadline
        if deadline < 0 or deadline > self.height:
            raise DeadlineOutOfRange(
                f"deadline {deadline} outside chain height {self.height}"
            )
        return [
            (h, m) for h, block in self.nonempty_blocks if h <= deadline for m in block
        ]
