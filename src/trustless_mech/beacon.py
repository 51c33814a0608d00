"""Randomness beacon: modular-sum aggregation and hash-stream permutations.

A contribution is an unsigned 64-bit integer. The beacon output is the sum
of all verified contributions mod 2^64, so a single honestly random
contributor makes the output uniform no matter what the others do.

Permutations for lotteries and tie-breaking come from a deterministic
SHA-256 byte stream seeded by the beacon value: block j is
SHA-256(seed_8be || domain_8be || j_8be). A stream hashes its 16-byte prefix
once and copies that state for each block, which gives the same digests for
less work. Every integer drawn from the stream, single or bulk draw or
shuffle index, comes from one word reader (big-endian words of the fewest
bytes that cover the bound) and one rejection rule (accept a word below the
largest multiple of the bound the width holds, take it mod the bound), so a
uniform stream yields exactly uniform draws and permutations.

The uniformity experiment (``uniformity_histogram``) chi-squares a 64-bin
histogram of beacon outputs, exactly and stdlib-only. It samples the SHA-256
stream behind the honest draw and cannot see the reduction mod 2^64; the
tests check that reduction exactly against ``aggregate``. It takes the same
draws as ``randbelow_many`` but applies the one rejection rule to the
stream's bytes: the honest draw's bound, 2^63 + 1, is its own limit, so a
word's high byte decides it (a high byte of 0x80 is compared in full), and
since 64 divides 256, an accepted word's low byte gives its bin.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError

U64_MASK = (1 << 64) - 1

# Stream domains used by scenario plumbing (permutation domains for school
# lotteries are the school indices themselves, with 0 doubling as the
# single-lottery / tie-break domain).
DOMAIN_TIE_BREAK = 0
DOMAIN_SALTS = 2**32 + 1
DOMAIN_CONTRIBUTIONS = 2**32 + 2
DOMAIN_UNIFORMITY = 2**32 + 3

# Most words ``HashStream.randbelow_many`` or ``uniformity_histogram`` reads
# at once, so a long run of draws holds at most 1024 words in memory however
# many are asked for.
DRAW_ROUND = 1024
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _check_u64(value: int, what: str) -> int:
    if not 0 <= value <= U64_MASK:
        raise ValidationError(f"{what} must be an unsigned 64-bit integer, got {value}")
    return value


def _word_width(bound: int) -> tuple[int, int]:
    """Bytes per word for a draw below ``bound``, and 256 to that power."""
    nbytes = ((bound - 1).bit_length() + 7) // 8
    return nbytes, 1 << (8 * nbytes)


@dataclass(frozen=True)
class BeaconOutput:
    """Aggregated public random value plus the agents that produced it."""

    value: int
    contributors: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_u64(self.value, "beacon value")


def aggregate(contributions: Mapping[str, int]) -> BeaconOutput:
    """Sum all contributions mod 2^64; contributors listed in identifier order.

    An empty map aggregates to 0 so settlement can proceed after mass
    exclusion; downstream consumers flag that degenerate case.
    """
    total = 0
    for agent in contributions:
        total += _check_u64(contributions[agent], f"contribution from {agent!r}")
    return BeaconOutput(value=total & U64_MASK, contributors=tuple(sorted(contributions)))


class HashStream:
    """Deterministic byte stream: block j = SHA-256(seed_8be || domain_8be || j_8be).

    The stream is blocks 0, 1, 2, ... joined end to end; ``read`` hands it
    out in order, hashing each block once, when a read first reaches it.
    The SHA-256 state after the 16-byte prefix is built once per stream, and
    each block copies it and hashes only j_8be. One seeded source backs
    every derived random quantity in the simulator: beacon permutations,
    scenario salts, honest contributions, and the uniformity experiment's
    draws.
    """

    def __init__(self, seed: int, domain: int = 0):
        self._prefix_state = hashlib.sha256(
            _check_u64(seed, "stream seed").to_bytes(8, "big")
            + _check_u64(domain, "stream domain").to_bytes(8, "big")
        )
        self._block_index = 0
        self._buffer = b""
        self._offset = 0

    def read(self, n: int) -> bytes:
        """The next ``n`` bytes of the stream; ``read(0)`` is ``b""``.

        Unread bytes stay in the buffer behind an offset, so a read that the
        buffer covers slices once and copies nothing else. A read the buffer
        falls short of keeps its unread tail and appends the blocks it needs,
        hashed in one pass and joined once; a read short of one block
        appends that block alone, which is cheaper than a join. ``n`` below
        0 raises ``ValidationError``.
        """
        if n < 0:
            raise ValidationError(f"read size n must be non-negative, got {n}")
        buffer, start = self._buffer, self._offset
        stop = start + n
        if len(buffer) < stop:
            first = self._block_index
            last = first + (stop - len(buffer) + 31) // 32
            copy = self._prefix_state.copy
            if last == first + 1:
                block = copy()
                block.update(first.to_bytes(8, "big"))
                buffer = buffer[start:] + block.digest()
            else:
                blocks = []
                for j in range(first, last):
                    block = copy()
                    block.update(j.to_bytes(8, "big"))
                    blocks.append(block.digest())
                buffer = buffer[start:] + b"".join(blocks)
            self._buffer, self._block_index, self._offset = buffer, last, n
            return buffer[:n]
        self._offset = stop
        return buffer[start:stop]

    def u64(self) -> int:
        return int.from_bytes(self.read(8), "big")

    def salt(self) -> bytes:
        return self.read(32)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound): the first of ``randbelow_many(bound, 1)``.

        Kept with no run-path caller: ``bench/tracer.py`` wraps it to count
        draws, and ``tests/test_beacon.py`` checks ``randbelow_many`` by it."""
        return next(self.randbelow_many(bound, 1))

    def randbelow_many(self, bound: int, count: int) -> Iterator[int]:
        """``count`` uniform integers in [0, bound): the accepted words, mod ``bound``.

        Words are read in rounds of at most ``DRAW_ROUND``, never more than
        the draws still owed, so no round reads past the last accepted draw;
        a round is read when the iterator reaches its first draw, and its
        accepted draws are handed out as one list. The arguments are checked
        here, not on the first ``next()``. ``uniformity_histogram`` takes the
        draws of ``randbelow_many(2**63 + 1, trials)`` from their bytes, and
        ``tests/test_beacon.py`` checks its reads against this.
        """
        if bound < 1:
            raise ValidationError(f"randbelow bound must be positive, got {bound}")
        if count < 0:
            raise ValidationError(f"draw count must be non-negative, got {count}")
        if bound == 1:
            return itertools.repeat(0, count)
        return itertools.chain.from_iterable(self._draw_rounds(bound, count))

    def _draw_rounds(self, bound: int, count: int) -> Iterator[list[int]]:
        nbytes, span = _word_width(bound)
        limit = span - span % bound
        missing = count
        while missing:
            words = self._words(nbytes, min(missing, DRAW_ROUND))
            accepted = [word % bound for word in words if word < limit]
            missing -= len(accepted)
            yield accepted

    def _words(self, nbytes: int, count: int) -> Sequence[int]:
        """The next ``count`` big-endian words of ``nbytes`` bytes, from one read."""
        data = self.read(nbytes * count)
        code = _WORD_FORMATS.get(nbytes)
        if code:
            return struct.unpack(f">{count}{code}", data)
        return [int.from_bytes(data[i : i + nbytes], "big") for i in range(0, len(data), nbytes)]

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of the identity permutation on {0..n-1}.

        The shuffle draws ``randbelow(i + 1)`` for i = n-1 down to 1, and
        leaves the stream where those calls would. The bounds that share a
        word width w, those in (256^(w-1), 256^w], are drawn together: one
        read takes a word for each bound still owed, and only the rejected
        words are read again, so no read passes the last accepted draw.
        ``n`` below 0 raises ``ValidationError``.
        """
        if n < 0:
            raise ValidationError(f"permutation size n must be non-negative, got {n}")
        perm = list(range(n))
        bound = n
        while bound > 1:
            nbytes, span = _word_width(bound)
            floor = span >> 8  # the bounds of this width are (floor, span]
            limit = span - span % bound
            while bound > floor:
                for word in self._words(nbytes, bound - floor):
                    if word < limit:
                        j = word % bound
                        bound -= 1
                        perm[bound], perm[j] = perm[j], perm[bound]
                        limit = span - span % bound
        return perm


def derive_permutation(
    output: BeaconOutput, n: int, domain: int = DOMAIN_TIE_BREAK
) -> list[int]:
    """Permutation of {0..n-1} derived from the beacon value.

    ``domain`` separates independent lotteries drawn from one beacon output
    (``DOMAIN_TIE_BREAK`` for the shared lottery and tie-breaking, school
    index for per-school lotteries).
    """
    if n < 1:
        raise ValidationError(f"permutation domain must be non-empty, got n={n}")
    return HashStream(output.value, domain).permutation(n)


def beacon_order(
    output: BeaconOutput, agents: Iterable[str], domain: int = DOMAIN_TIE_BREAK
) -> tuple[str, ...]:
    """``agents`` in identifier order, shuffled by the beacon permutation.

    The one source of every beacon-drawn order: the bare lottery, auction
    tie-breaking and school-choice priority lotteries.
    """
    ordered = sorted(agents)
    return tuple(ordered[p] for p in derive_permutation(output, len(ordered), domain))


# The uniformity experiment's fixed contributions: zero, 1 and 2^64 - 1
# (which cancel mod 2^64), and a dense bit pattern. They sum to
# 0x0123456789ABCDEF, so with an honest draw of at most 2^63 no trial's sum
# reaches 2^64.
ADVERSARY_CONSTANTS = {
    "adv_zero": 0,
    "adv_one": 1,
    "adv_max": U64_MASK,
    "adv_bits": 0x0123456789ABCDEF,
}


UNIFORMITY_BINS = 64
# Accepted draws' low bytes a histogram holds before it counts them, so its
# memory stays flat however many trials are asked for.
_TALLY_BYTES = 64 * DRAW_ROUND


def uniformity_histogram(trials: int, seed: int = 0) -> list[int]:
    """Histogram of aggregate(...) mod ``UNIFORMITY_BINS`` with one honest
    contributor.

    Each trial sums one uniform draw on {0..2^63} with the four fixed
    adversarial constants; the returned counts feed a chi-square check. The
    constants sum to 0x0123456789ABCDEF and 2^63 + 0x0123456789ABCDEF <
    2^64, so no trial wraps, and 64 bins, which divide 2^64, could not see
    a wrap anyway: the counts sample the SHA-256 stream behind the honest
    draw and cannot see the reduction mod 2^64. The constants' sum is
    aggregated once: every draw is a valid u64, so adding it mod 2^64 is
    exactly ``aggregate`` over all five contributions.

    The draws are those of ``randbelow_many(2**63 + 1, trials)``, read from
    the stream in the same rounds, but the one rejection rule is applied to
    each round's bytes, not to drawn integers. The rule's limit is the bound
    itself, 2^63 + 1: a word whose high byte is below 0x80 is accepted, one
    whose high byte is above it is rejected, and only a word whose high byte
    is 0x80 is compared in full. So an accepted word is its own draw, and as
    the bin count divides 256, the draw's bin is its low byte mod the bin
    count. The accepted low bytes are kept, each mapped by one table to the
    bin of its sum with the constants, and counted once per bin.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    bins = UNIFORMITY_BINS
    bound = 2**63 + 1
    nbytes, span = _word_width(bound)
    limit = span - span % bound
    # every accepted word is its own draw, and its low byte gives its bin
    assert limit == bound and 256 % bins == 0
    top = limit >> (8 * nbytes - 8)
    below_top = bytes(byte < top for byte in range(256))
    shift = aggregate(ADVERSARY_CONSTANTS).value % bins
    sum_bin = bytes((byte + shift) % bins for byte in range(256))
    stream = HashStream(seed, DOMAIN_UNIFORMITY)
    counts = [0] * bins
    kept = bytearray()
    owed = trials
    while owed:
        data = stream.read(nbytes * min(owed, DRAW_ROUND))
        high = data[0::nbytes]
        accepted = bytearray(high.translate(below_top))
        tie = high.find(top)
        while tie >= 0:
            accepted[tie] = int.from_bytes(data[tie * nbytes : (tie + 1) * nbytes], "big") < limit
            tie = high.find(top, tie + 1)
        before = len(kept)
        kept.extend(itertools.compress(data[nbytes - 1 :: nbytes], accepted))
        owed -= len(kept) - before
        if len(kept) >= _TALLY_BYTES or not owed:
            binned = kept.translate(sum_bin)
            counts = [count + binned.count(b) for b, count in enumerate(counts)]
            kept.clear()
    return counts


def chi_square_sf(statistic: float, df: int) -> float:
    """Upper tail of the chi-square distribution with ``df`` degrees of freedom.

    This is the regularized upper incomplete gamma Q(df/2, y) at
    y = statistic/2, in its closed form for integer and half-integer order:

        Q(n, y)       = sum_{k<n} y^k e^-y / k!
        Q(n + 1/2, y) = erfc(sqrt y) + sum_{k<n} y^(k+1/2) e^-y / Gamma(k + 3/2)

    Each term is taken in log space, so a large ``y`` cannot overflow.
    """
    if df < 1:
        raise ValidationError(f"df must be at least 1, got {df}")
    y = statistic / 2
    if y <= 0:
        return 1.0
    n, odd = divmod(df, 2)
    order = 0.5 * odd
    log_y = math.log(y)
    terms = [math.exp((k + order) * log_y - y - math.lgamma(k + order + 1)) for k in range(n)]
    if odd:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def chi_square_test(counts: Sequence[int]) -> tuple[float, float]:
    """Pearson's chi-square statistic of ``counts`` against equal expected
    counts, and its p-value with len(counts) - 1 degrees of freedom."""
    if len(counts) < 2:
        raise ValidationError(f"counts must have at least 2 bins, got {len(counts)}")
    expected = sum(counts) / len(counts)
    if expected <= 0:
        raise ValidationError(f"counts must total at least 1, got {sum(counts)}")
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    return statistic, chi_square_sf(statistic, len(counts) - 1)
