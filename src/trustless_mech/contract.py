"""Smart-contract phase machine: commitments until T, verified reveals until T',
exclusion for everything else, then settlement input for the mechanism.

The contract is mechanism-agnostic: it holds digests, then openings, and
hands the verified payloads on as opaque bytes. Only
``settlement.settle(mechanism, ...)`` reads what an agent reported.

Deadlines are inclusive: commits are valid at heights <= T, reveals at
T < height <= T', and a contract settles at T' or later; ``accept_commit``,
``accept_reveal``, ``finalize`` and ``drive`` enforce them. Exclusion is
the only punishment; an excluded agent receives no good.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainState, Message, MessageKind
from .commitments import (
    SALT_SIZE,
    Commitment,
    CommitOpening,
    verify_opening,
)
from .errors import MechSimError, ValidationError, WireFormatError


class ContractRejection(MechSimError):
    """A message was rejected by the contract; never fatal during replay."""


class AlreadySettled(MechSimError):
    pass


@dataclass(frozen=True)
class PhaseSchedule:
    """Commit deadline T and reveal deadline T', in block heights."""

    commit_deadline: int
    reveal_deadline: int

    def __post_init__(self) -> None:
        if not 0 < self.commit_deadline < self.reveal_deadline:
            raise ValidationError(
                f"need 0 < commit deadline < reveal deadline, got "
                f"{self.commit_deadline} and {self.reveal_deadline}"
            )


@dataclass(frozen=True)
class SettlementInput:
    """Verified (agent, payload) pairs handed to the mechanism, in agent order."""

    contract_id: str
    payloads: tuple[tuple[str, bytes], ...]
    excluded: frozenset[str]


class ContractState:
    """One contract's commitment map, reveal map, and exclusion set."""

    def __init__(self, contract_id: str, schedule: PhaseSchedule):
        self.contract_id = contract_id
        self.schedule = schedule
        self.commitments: dict[str, Commitment] = {}
        self.reveals: dict[str, CommitOpening] = {}
        self.excluded: set[str] = set()
        self.settled = False
        self.rejections: list[str] = []

    def accept_commit(self, height: int, agent: str, commitment: Commitment) -> None:
        if self.settled:
            raise AlreadySettled(f"contract {self.contract_id!r} already settled")
        if height > self.schedule.commit_deadline:
            raise ContractRejection(
                f"commit from {agent!r} at height {height}, deadline "
                f"{self.schedule.commit_deadline}"
            )
        if agent in self.commitments:
            raise ContractRejection(f"{agent!r} already committed; first commitment stands")
        self.commitments[agent] = commitment

    def accept_reveal(self, height: int, agent: str, opening: CommitOpening) -> None:
        """Record a verified reveal, or exclude the agent on a digest mismatch."""
        if self.settled:
            raise AlreadySettled(f"contract {self.contract_id!r} already settled")
        if not (self.schedule.commit_deadline < height <= self.schedule.reveal_deadline):
            raise ContractRejection(
                f"reveal from {agent!r} at height {height} outside "
                f"({self.schedule.commit_deadline}, {self.schedule.reveal_deadline}]"
            )
        if agent not in self.commitments:
            raise ContractRejection(f"{agent!r} never committed")
        if agent in self.excluded:
            raise ContractRejection(f"{agent!r} is excluded")
        if agent in self.reveals:
            raise ContractRejection(f"{agent!r} already revealed")
        if verify_opening(self.commitments[agent], agent, self.contract_id, opening):
            self.reveals[agent] = opening
        else:
            self.excluded.add(agent)

    def finalize(self, height: int) -> SettlementInput:
        """Exclude every committed agent without a verified reveal and settle."""
        if self.settled:
            raise AlreadySettled(f"contract {self.contract_id!r} already settled")
        if height < self.schedule.reveal_deadline:
            raise ContractRejection(
                f"finalize at height {height}, reveal deadline "
                f"{self.schedule.reveal_deadline}"
            )
        self.excluded.update(set(self.commitments) - set(self.reveals))
        self.settled = True
        payloads = tuple(
            (agent, self.reveals[agent].payload) for agent in sorted(self.reveals)
        )
        return SettlementInput(
            contract_id=self.contract_id,
            payloads=payloads,
            excluded=frozenset(self.excluded),
        )


def commit_message(agent: str, contract_id: str, commitment: Commitment) -> Message:
    return Message(
        sender=agent,
        contract_id=contract_id,
        kind=MessageKind.COMMIT,
        payload=commitment.digest,
    )


def reveal_message(agent: str, contract_id: str, opening: CommitOpening) -> Message:
    """Reveal wire form: 32-byte salt followed by the mechanism payload."""
    return Message(
        sender=agent,
        contract_id=contract_id,
        kind=MessageKind.REVEAL,
        payload=opening.salt + opening.payload,
    )


def parse_reveal_payload(data: bytes) -> CommitOpening:
    return CommitOpening(payload=data[SALT_SIZE:], salt=data[:SALT_SIZE])


def drive(
    chain: ChainState,
    contract_id: str,
    schedule: PhaseSchedule,
) -> tuple[ContractState, SettlementInput | None]:
    """Replay every included message for the contract, in inclusion order,
    then finalize if the chain has reached the reveal deadline.

    Builds a fresh state each call, so driving the same chain twice is
    idempotent. Individual rejections are recorded, never fatal.
    """
    state = ContractState(contract_id, schedule)
    for height, block in chain.nonempty_blocks:
        for msg in block:
            if msg.contract_id != contract_id:
                continue
            try:
                if msg.kind is MessageKind.COMMIT:
                    state.accept_commit(height, msg.sender, Commitment(msg.payload))
                else:
                    state.accept_reveal(height, msg.sender, parse_reveal_payload(msg.payload))
            except (ContractRejection, WireFormatError) as exc:
                state.rejections.append(f"height {height}: {exc}")
    settlement = state.finalize(chain.height) if chain.height >= schedule.reveal_deadline else None
    return state, settlement
