"""Salted, domain-separated SHA-256 commitments with bit-exact verification.

Preimage layout (frozen wire format):

    domain tag (17 ASCII bytes) || contract id (one length byte + UTF-8)
    || agent id (one length byte + UTF-8) || salt (32 bytes) || payload

The salt defends low-entropy payloads (bids, rankings) against dictionary
search; the identifiers inside the preimage stop a front-runner from
replaying someone else's digest as their own.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .errors import WireFormatError

DOMAIN_TAG = b"trustless-mech/v1"
DIGEST_SIZE = 32
SALT_SIZE = 32


@dataclass(frozen=True)
class Commitment:
    """A 32-byte digest binding an agent to a hidden payload."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_SIZE:
            raise WireFormatError(
                f"commitment digest must be {DIGEST_SIZE} bytes, got {len(self.digest)}"
            )


@dataclass(frozen=True)
class CommitOpening:
    """The data that opens a commitment: the hidden payload plus its salt."""

    payload: bytes
    salt: bytes

    def __post_init__(self) -> None:
        if not self.payload:
            raise WireFormatError("opening payload must be non-empty")
        if len(self.salt) != SALT_SIZE:
            raise WireFormatError(
                f"salt must be {SALT_SIZE} bytes, got {len(self.salt)}"
            )


@functools.lru_cache(maxsize=1024)
def encode_identifier(ident: str) -> bytes:
    """UTF-8 identifier with a one-byte length prefix (wire limit: 255 bytes).

    Cached: a run encodes its contract id once per commitment and once per
    verified opening. Errors are not cached, so a bad identifier raises on
    every call.
    """
    raw = ident.encode("utf-8")
    if not raw:
        raise WireFormatError("identifier must be non-empty")
    if len(raw) > 255:
        raise WireFormatError(f"identifier too long for wire format: {len(raw)} bytes")
    return bytes([len(raw)]) + raw


def commitment_preimage(agent: str, contract_id: str, opening: CommitOpening) -> bytes:
    return (
        DOMAIN_TAG
        + encode_identifier(contract_id)
        + encode_identifier(agent)
        + opening.salt
        + opening.payload
    )


def make_commitment(agent: str, contract_id: str, opening: CommitOpening) -> Commitment:
    """Deterministic SHA-256 commitment over the domain-separated preimage."""
    digest = hashlib.sha256(commitment_preimage(agent, contract_id, opening)).digest()
    return Commitment(digest)


def verify_opening(
    commitment: Commitment, agent: str, contract_id: str, opening: CommitOpening
) -> bool:
    """True iff recomputing the commitment over the same fields reproduces the digest.

    Returns False on any mismatch; the caller decides the punishment.
    """
    preimage = commitment_preimage(agent, contract_id, opening)
    return hashlib.sha256(preimage).digest() == commitment.digest

