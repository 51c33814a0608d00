"""Deterministic discrete-block ledger with a mempool and a pluggable miner policy.

Time is block height only. A censoring miner delays targeted reveal
messages (it never destroys them), which is exactly the adversary a long
enough reveal window defeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import MechSimError

MAX_PAYLOAD_BYTES = 1024


class MessageKind(Enum):
    COMMIT = "commit"
    REVEAL = "reveal"


class PayloadTooLarge(MechSimError):
    """Submitted payload exceeds the configured size bound."""


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
    """Single monolithic miner policy for a run.

    Delays reveal messages from ``censor_targets`` while the new block's
    height is still <= ``censor_until``; a miner with no targets is honest.
    Commit messages are never censored: the modeled manipulation is the
    miner "not processing" second-phase messages.
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
    """Block height, ordered per-block message lists, and the pending mempool.

    Blocks are 1-indexed by height: ``blocks[k - 1]`` is the block mined at
    height ``k``. Height 0 is the empty genesis state.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES):
        self.height = 0
        self.blocks: list[list[Message]] = []
        self.mempool: list[Message] = []
        self.max_payload = max_payload

    def submit(self, msg: Message) -> Message:
        """Append ``msg`` to the mempool, stamped with the current height."""
        if len(msg.payload) > self.max_payload:
            raise PayloadTooLarge(
                f"payload from {msg.sender!r} is {len(msg.payload)} bytes, "
                f"limit {self.max_payload}"
            )
        stamped = Message(msg.sender, msg.contract_id, msg.kind, msg.payload, self.height)
        self.mempool.append(stamped)
        return stamped

    def advance_block(self, policy: MinerPolicy | None = None) -> None:
        """Mine one block: move every non-censored mempool message into it, in order."""
        policy = policy or MinerPolicy.honest()
        new_height = self.height + 1
        if not policy.censor_targets or new_height > policy.censor_until:
            included, held = self.mempool, []  # nothing can be censored at this height
        else:
            included, held = [], []
            for m in self.mempool:
                (held if policy.censors(m, new_height) else included).append(m)
        self.mempool = held
        self.blocks.append(included)
        self.height = new_height

    def advance_to(self, height: int, policy: MinerPolicy | None = None) -> None:
        """Mine blocks until the chain reaches ``height``.

        Nothing is submitted in between, so after the first block the
        mempool holds only reveals censored at that height, and they stay
        censored through ``censor_until``: those blocks are mined empty.
        """
        if self.height >= height:
            return
        policy = policy or MinerPolicy.honest()
        self.advance_block(policy)
        quiet = min(height, policy.censor_until) - self.height
        if quiet > 0:
            self.blocks.extend([] for _ in range(quiet))
            self.height += quiet
        while self.height < height:
            self.advance_block(policy)

    def messages_through(self, deadline: int) -> list[Message]:
        """All messages included in blocks 1..deadline, in inclusion order."""
        return [m for _, m in self.included_with_heights(deadline)]

    def included_with_heights(self, deadline: int | None = None) -> list[tuple[int, Message]]:
        """(inclusion height, message) pairs through ``deadline`` (default: tip)."""
        deadline = self.height if deadline is None else deadline
        if deadline < 0 or deadline > self.height:
            raise DeadlineOutOfRange(
                f"deadline {deadline} outside chain height {self.height}"
            )
        return [
            (k + 1, m) for k in range(deadline) for m in self.blocks[k]
        ]

    def canonical_bytes(self) -> bytes:
        """Stable byte serialization of the full ledger state (for determinism checks)."""

        def enc(m: Message) -> dict:
            return {
                "sender": m.sender,
                "contract": m.contract_id,
                "kind": m.kind.value,
                "payload": m.payload.hex(),
                "submitted_at": m.submitted_at,
            }

        doc = {
            "height": self.height,
            "blocks": [[enc(m) for m in block] for block in self.blocks],
            "mempool": [enc(m) for m in self.mempool],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
