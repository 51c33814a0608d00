"""Salted hash commitments: binding, hiding, and the frozen wire format."""

import hashlib
import random

import pytest

from trustless_mech import CommitOpening, Commitment, make_commitment, random_salt, verify_opening
from trustless_mech.commitments import DIGEST_SIZE, DOMAIN_TAG, SALT_SIZE, encode_identifier
from trustless_mech.errors import WireFormatError

ZERO_SALT = bytes(SALT_SIZE)

# Digest of (agent "A", contract "C1", zero salt, payload 0x2a), computed once
# with a standalone hashlib script and frozen here.
FROZEN_DIGEST = "c9f3d91e91569dd0f9e716a64d156946ce8c8c17b660b86dcec60fd0bc416c27"


def hashlib_digest(agent: str, contract_id: str, salt: bytes, payload: bytes) -> bytes:
    """Second route to the digest, built from primitives only."""
    a = agent.encode()
    c = contract_id.encode()
    preimage = (
        DOMAIN_TAG
        + len(c).to_bytes(1, "big") + c
        + len(a).to_bytes(1, "big") + a
        + salt
        + payload
    )
    return hashlib.sha256(preimage).digest()


def test_frozen_digest_vector():
    opening = CommitOpening(payload=b"\x2a", salt=ZERO_SALT)
    c = make_commitment("A", "C1", opening)
    assert c.digest.hex() == FROZEN_DIGEST


def test_digest_matches_independent_reconstruction():
    rng = random.Random(7)
    for _ in range(200):
        agent = "agent-" + str(rng.randrange(1000))
        contract_id = "c" + str(rng.randrange(1000))
        salt = rng.randbytes(SALT_SIZE)
        payload = rng.randbytes(rng.randrange(1, 40))
        opening = CommitOpening(payload=payload, salt=salt)
        c = make_commitment(agent, contract_id, opening)
        assert c.digest == hashlib_digest(agent, contract_id, salt, payload)


def test_commit_is_deterministic():
    opening = CommitOpening(payload=b"xyz", salt=bytes(range(32)))
    a = make_commitment("alice", "auction-1", opening)
    b = make_commitment("alice", "auction-1", opening)
    assert a == b
    assert a.digest == b.digest


def test_digest_varies_with_every_field():
    base = make_commitment("alice", "c1", CommitOpening(b"pay", ZERO_SALT))
    other_payload = make_commitment("alice", "c1", CommitOpening(b"pby", ZERO_SALT))
    other_salt = make_commitment("alice", "c1", CommitOpening(b"pay", b"\x01" + bytes(31)))
    other_agent = make_commitment("alicf", "c1", CommitOpening(b"pay", ZERO_SALT))
    other_contract = make_commitment("alice", "c2", CommitOpening(b"pay", ZERO_SALT))
    digests = {base.digest, other_payload.digest, other_salt.digest,
               other_agent.digest, other_contract.digest}
    assert len(digests) == 5


def test_field_length_prefix_prevents_boundary_shifts():
    # "ab" + "c" and "a" + "bc" must not collide: lengths are part of the preimage
    one = make_commitment("c", "ab", CommitOpening(b"\x00", ZERO_SALT))
    two = make_commitment("bc", "a", CommitOpening(b"\x00", ZERO_SALT))
    assert one.digest != two.digest


def test_verify_accepts_the_original_opening():
    rng = random.Random(11)
    for _ in range(50):
        opening = CommitOpening(payload=rng.randbytes(12), salt=rng.randbytes(SALT_SIZE))
        c = make_commitment("bob", "c9", opening)
        assert verify_opening(c, "bob", "c9", opening)


def test_verify_rejects_any_altered_field():
    opening = CommitOpening(payload=b"\x01\x02\x03", salt=bytes(range(32)))
    c = make_commitment("bob", "c9", opening)
    assert not verify_opening(c, "bob", "c9", CommitOpening(b"\x01\x02\x04", opening.salt))
    assert not verify_opening(c, "bob", "c9", CommitOpening(opening.payload, bytes(32)))
    assert not verify_opening(c, "bo", "c9", opening)
    assert not verify_opening(c, "bob", "c8", opening)


def test_verify_rejects_single_bit_flips_in_payload():
    opening = CommitOpening(payload=bytes(8), salt=ZERO_SALT)
    c = make_commitment("a", "c", opening)
    for byte_index in range(8):
        for bit in range(8):
            mutated = bytearray(opening.payload)
            mutated[byte_index] ^= 1 << bit
            assert not verify_opening(c, "a", "c", CommitOpening(bytes(mutated), ZERO_SALT))


def test_no_collisions_across_many_random_openings():
    # binding in practice: 10^5 random openings, all digests distinct
    rng = random.Random(1)
    seen = set()
    for i in range(100_000):
        opening = CommitOpening(payload=i.to_bytes(8, "big"), salt=rng.randbytes(SALT_SIZE))
        seen.add(make_commitment("a", "c", opening).digest)
    assert len(seen) == 100_000


def test_salted_single_bit_payloads_are_unlinkable_by_digest():
    # hiding in practice: the same one-bit payload under fresh salts never repeats,
    # so the digest alone cannot reveal which bit was committed
    rng = random.Random(2)
    digests = set()
    for _ in range(10_000):
        payload = bytes([rng.randrange(2)])
        opening = CommitOpening(payload=payload, salt=rng.randbytes(SALT_SIZE))
        digests.add(make_commitment("voter", "poll", opening).digest)
    assert len(digests) == 10_000


def test_random_salt_is_well_sized_and_nonrepeating():
    salts = {random_salt() for _ in range(100)}
    assert len(salts) == 100
    assert all(len(s) == SALT_SIZE for s in salts)


def test_identifier_wire_limits():
    ok = "x" * 255
    opening = CommitOpening(b"\x01", ZERO_SALT)
    make_commitment(ok, ok, opening)
    with pytest.raises(WireFormatError):
        make_commitment("x" * 256, "c", opening)
    with pytest.raises(WireFormatError):
        make_commitment("a", "x" * 256, opening)
    with pytest.raises(WireFormatError):
        make_commitment("", "c", opening)
    with pytest.raises(WireFormatError):
        make_commitment("a", "", opening)


def test_identifier_errors_raise_on_every_call():
    # encode_identifier is cached; a failed encoding must not be
    for bad in ("", "x" * 256, "é" * 128):
        for _ in range(2):
            with pytest.raises(WireFormatError):
                encode_identifier(bad)
    assert encode_identifier("é" * 127) == bytes([254]) + ("é" * 127).encode()


def test_opening_payload_must_be_non_empty():
    with pytest.raises(WireFormatError):
        CommitOpening(payload=b"", salt=ZERO_SALT)


def test_opening_salt_must_be_exactly_32_bytes():
    with pytest.raises(WireFormatError):
        CommitOpening(payload=b"\x01", salt=bytes(31))
    with pytest.raises(WireFormatError):
        CommitOpening(payload=b"\x01", salt=bytes(33))


def test_commitment_digest_must_be_exactly_32_bytes():
    Commitment(digest=bytes(DIGEST_SIZE))
    with pytest.raises(WireFormatError):
        Commitment(digest=bytes(31))
    with pytest.raises(WireFormatError):
        Commitment(digest=bytes(33))


def test_non_ascii_identifiers_round_trip():
    opening = CommitOpening(payload=b"\x00", salt=ZERO_SALT)
    c = make_commitment("ágent", "cøntract", opening)
    assert verify_opening(c, "ágent", "cøntract", opening)
    assert c.digest == hashlib_digest("ágent", "cøntract", ZERO_SALT, b"\x00")
