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
    """Block height, the non-empty blocks, and the pending mempool.

    ``nonempty_blocks`` holds ``(height, messages)`` for each block with a
    message, in height order; empty blocks leave no entry. Height 0 is the
    empty genesis state.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES):
        self.height = 0
        self.nonempty_blocks: list[tuple[int, list[Message]]] = []
        self.mempool: list[Message] = []
        self.max_payload = max_payload

    @property
    def blocks(self) -> list[list[Message]]:
        """Every block, empty ones too: ``blocks[k - 1]`` is block ``k``. Not for the run path."""
        by_height = dict(self.nonempty_blocks)
        return [by_height.get(k, []) for k in range(1, self.height + 1)]

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
        self.advance_to(self.height + 1, policy)

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
            (h, m) for h, block in self.nonempty_blocks if h <= deadline for m in block
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
            "blocks": [[height, [enc(m) for m in block]] for height, block in self.nonempty_blocks],
            "mempool": [enc(m) for m in self.mempool],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
