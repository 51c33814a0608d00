"""Beacon aggregation, the hash stream, and derived permutations.

The frozen vectors and the reference stream below were produced by a
standalone hashlib script, so the package and the test reach each value
by different code paths.
"""

import hashlib
import random
import tracemalloc

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trustless_mech import beacon as beacon_module
from trustless_mech import BeaconOutput, HashStream, aggregate, derive_permutation, uniformity_histogram
from trustless_mech.beacon import (
    ADVERSARY_CONSTANTS,
    DOMAIN_UNIFORMITY,
    DRAW_ROUND,
    U64_MASK,
    chi_square_sf,
    chi_square_test,
)
from trustless_mech.errors import ValidationError


class ReferenceStream:
    """Independent reimplementation of the byte stream and shuffle."""

    def __init__(self, seed: int, domain: int = 0):
        self.seed = seed
        self.domain = domain
        self.block = 0
        self.buf = b""

    def read(self, n: int) -> bytes:
        while len(self.buf) < n:
            self.buf += hashlib.sha256(
                self.seed.to_bytes(8, "big")
                + self.domain.to_bytes(8, "big")
                + self.block.to_bytes(8, "big")
            ).digest()
            self.block += 1
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def randbelow(self, bound: int) -> int:
        if bound == 1:
            return 0
        nbytes = ((bound - 1).bit_length() + 7) // 8
        span = 1 << (8 * nbytes)
        limit = span - span % bound
        while True:
            draw = int.from_bytes(self.read(nbytes), "big")
            if draw < limit:
                return draw % bound

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def test_aggregate_sums_contributions():
    out = aggregate({"A": 3, "B": 5})
    assert out.value == 8
    assert out.contributors == ("A", "B")


def test_aggregate_empty_map_is_zero_with_no_contributors():
    out = aggregate({})
    assert out.value == 0
    assert out.contributors == ()


def test_aggregate_wraps_mod_2_to_the_64():
    out = aggregate({"A": U64_MASK, "B": 2})
    assert out.value == 1


def test_aggregate_value_ignores_identifier_names():
    a = aggregate({"A": 10, "B": 20, "C": 12})
    b = aggregate({"x": 10, "y": 20, "z": 12})
    assert a.value == b.value == 42


def test_contributors_are_sorted_regardless_of_insertion_order():
    out = aggregate({"zed": 1, "amy": 2, "mia": 3})
    assert out.contributors == ("amy", "mia", "zed")


def test_aggregate_rejects_out_of_range_contributions():
    with pytest.raises(ValidationError):
        aggregate({"A": -1})
    with pytest.raises(ValidationError):
        aggregate({"A": 1 << 64})


def test_stream_u64_frozen_value():
    assert HashStream(0, 0).u64() == 11353731683375535838


def test_stream_matches_reference_bytes():
    rng = random.Random(5)
    for _ in range(30):
        seed = rng.randrange(1 << 64)
        domain = rng.randrange(1 << 33)
        ours = HashStream(seed, domain)
        ref = ReferenceStream(seed, domain)
        # mixed-size reads must still agree byte for byte
        for _ in range(10):
            n = rng.randrange(1, 50)
            assert ours.read(n) == ref.read(n)


def test_streams_with_different_domains_diverge():
    assert HashStream(42, 0).read(32) != HashStream(42, 1).read(32)
    assert HashStream(42, 0).read(32) != HashStream(43, 0).read(32)


def test_randbelow_stays_in_range_and_is_deterministic():
    rng = random.Random(6)
    for _ in range(200):
        bound = rng.randrange(1, 10_000)
        seed = rng.randrange(1 << 32)
        a = HashStream(seed).randbelow(bound)
        b = HashStream(seed).randbelow(bound)
        assert a == b
        assert 0 <= a < bound


def test_randbelow_rejects_non_positive_bounds():
    with pytest.raises(ValidationError):
        HashStream(0).randbelow(0)
    with pytest.raises(ValidationError):
        HashStream(0).randbelow(-3)


def test_salt_is_32_bytes_and_seed_dependent():
    assert len(HashStream(1).salt()) == 32
    assert HashStream(1).salt() != HashStream(2).salt()


def test_permutation_of_one_element():
    out = aggregate({"A": 99})
    assert derive_permutation(out, 1) == [0]


def test_frozen_permutation_vectors():
    zero = BeaconOutput(value=0, contributors=())
    assert derive_permutation(zero, 4, domain=0) == [3, 2, 0, 1]
    assert derive_permutation(zero, 4, domain=1) == [0, 2, 3, 1]
    seven = BeaconOutput(value=7, contributors=())
    assert derive_permutation(seven, 5, domain=0) == [2, 0, 3, 1, 4]


def test_permutation_matches_reference_shuffle():
    rng = random.Random(8)
    for _ in range(100):
        value = rng.randrange(1 << 64)
        n = rng.randrange(1, 40)
        domain = rng.choice([0, 1, 2, 7])
        out = BeaconOutput(value=value, contributors=())
        assert derive_permutation(out, n, domain=domain) == ReferenceStream(value, domain).permutation(n)


# 256 and 65536 are the last bounds of 1- and 2-byte words; a larger n
# starts its shuffle one width up, and n >= 65537 draws 3-byte words, which
# the permutation cannot unpack with struct
@pytest.mark.parametrize("n", [256, 257, 258, 1000, 65536, 65537, 65538])
def test_permutation_matches_reference_shuffle_at_every_word_width(n):
    ours, ref = HashStream(n, 4), ReferenceStream(n, 4)
    assert ours.permutation(n) == ref.permutation(n)
    # the stream stands where the per-index draws leave it
    assert ours.read(40) == ref.read(40)


def test_permutation_rejects_a_negative_size_and_leaves_the_stream_alone():
    ours = HashStream(1)
    with pytest.raises(ValidationError, match=r"\bn\b"):
        ours.permutation(-3)
    assert ours.permutation(0) == []
    assert ours.read(40) == HashStream(1).read(40)


def test_permutation_is_a_bijection():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randrange(1, 60)
        out = BeaconOutput(value=rng.randrange(1 << 64), contributors=())
        perm = derive_permutation(out, n)
        assert sorted(perm) == list(range(n))


def test_distinct_values_give_distinct_deck_orders():
    # 52-element permutations from 100 different beacon values never collide
    perms = {tuple(derive_permutation(BeaconOutput(v, ()), 52)) for v in range(100)}
    assert len(perms) == 100


def test_permutation_rejects_empty_domain():
    with pytest.raises(ValidationError):
        derive_permutation(BeaconOutput(0, ()), 0)


def test_beacon_output_validates_value_range():
    with pytest.raises(ValidationError):
        BeaconOutput(value=-1, contributors=())
    with pytest.raises(ValidationError):
        BeaconOutput(value=1 << 64, contributors=())


def test_adversary_constants_cover_the_extremes():
    values = set(ADVERSARY_CONSTANTS.values())
    assert 0 in values
    assert U64_MASK in values
    assert len(values) == 4


def test_uniformity_histogram_counts_every_trial_once():
    counts = uniformity_histogram(500, seed=3)
    assert len(counts) == 64
    assert sum(counts) == 500
    assert counts == uniformity_histogram(500, seed=3)
    assert counts != uniformity_histogram(500, seed=4)


def test_uniformity_histogram_rejects_zero_trials():
    with pytest.raises(ValidationError):
        uniformity_histogram(0)


def per_draw_histogram(seed: int, trials: int) -> list[int]:
    """The oracle: a ``randbelow`` per trial, and ``aggregate`` over all five
    contributions, which the histogram hoists."""
    stream = HashStream(seed, DOMAIN_UNIFORMITY)
    expected = [0] * 64
    for _ in range(trials):
        honest = stream.randbelow(2**63 + 1)
        expected[aggregate({"honest": honest, **ADVERSARY_CONSTANTS}).value % 64] += 1
    return expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, U64_MASK),
    trials=st.integers(1, 400),
)
def test_uniformity_histogram_matches_manual_aggregation(seed, trials):
    assert uniformity_histogram(trials, seed=seed) == per_draw_histogram(seed, trials)


@pytest.mark.parametrize("trials", [1023, 1024, 1025, 2049, 5000])
def test_uniformity_histogram_matches_the_per_draw_loop_across_rounds(trials):
    assert uniformity_histogram(trials, seed=17 * trials) == per_draw_histogram(17 * trials, trials)


def test_uniformity_histogram_memory_stays_flat():
    # draws are read DRAW_ROUND words at a time; drawing every trial at once
    # would hold several MB here
    tracemalloc.start()
    try:
        uniformity_histogram(50_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# Words whose high byte is 0x80, the limit's high byte, so only a full
# comparison with 2^63 + 1 decides them, and the accepted word just below.
# The one accepted tie, 2^63, is a 1 in 2^64 word, so no seed reaches it.
TIE_WORDS = [
    2**63,  # accepted, low byte 0
    2**63 + 1,  # rejected: the limit itself
    0x80FF_FFFF_FFFF_FFFF,  # rejected
    0x8000_0000_0000_0001,  # rejected, though its later bytes are all but zero
    2**63 - 1,  # accepted, high byte 0x7F
]


def serve_crafted_words(monkeypatch, words: list[int]) -> None:
    """Make every ``HashStream`` read ``words`` first and its own bytes after."""
    crafted = b"".join(word.to_bytes(8, "big") for word in words)
    real_read = HashStream.read

    def read(stream, n):
        served = getattr(stream, "crafted_served", 0)
        stream.crafted_served = served + n
        head = crafted[served : served + n]
        return head + real_read(stream, n - len(head))

    monkeypatch.setattr(HashStream, "read", read)


@pytest.mark.parametrize("trials", [5, 1024, 1100, 3000])
def test_uniformity_histogram_decides_high_byte_ties_by_the_whole_word(monkeypatch, trials):
    words = list(TIE_WORDS)
    # the tie words again across the first three round boundaries, where a
    # round reads DRAW_ROUND words while that many draws are owed
    for boundary in (DRAW_ROUND, 2 * DRAW_ROUND, 3 * DRAW_ROUND):
        filler = HashStream(boundary, 4).read(8 * (boundary - 3 - len(words)))
        words += [int.from_bytes(filler[i : i + 8], "big") for i in range(0, len(filler), 8)]
        words += TIE_WORDS
    words += [2**63] * 40
    serve_crafted_words(monkeypatch, words)
    assert uniformity_histogram(trials, seed=9) == per_draw_histogram(9, trials)


def record_read_sizes(monkeypatch) -> list[int]:
    sizes: list[int] = []
    real_read = HashStream.read

    def read(stream, n):
        sizes.append(n)
        return real_read(stream, n)

    monkeypatch.setattr(HashStream, "read", read)
    return sizes


@pytest.mark.parametrize("trials", [1, DRAW_ROUND - 1, DRAW_ROUND, DRAW_ROUND + 1, 20_000])
def test_uniformity_histogram_reads_what_the_bulk_draws_read(monkeypatch, trials):
    sizes = record_read_sizes(monkeypatch)
    uniformity_histogram(trials, seed=trials)
    histogram_sizes = sizes[:]
    sizes.clear()
    list(HashStream(trials, DOMAIN_UNIFORMITY).randbelow_many(2**63 + 1, trials))
    assert histogram_sizes == sizes


def assert_bulk_draws_match_single_draws(seed, bound, count):
    bulk, single = HashStream(seed, 9), ReferenceStream(seed, 9)
    assert list(bulk.randbelow_many(bound, count)) == [single.randbelow(bound) for _ in range(count)]
    # the stream is left at the same byte
    assert bulk.read(13) == single.read(13)
    assert bulk.permutation(50) == single.permutation(50)


# 256**(w-1) + 1 is the w-byte bound that rejects the most words, here for
# w = 3, 4, 5, 6, 7 and 9; 2**63 + 1 is the uniformity experiment's bound
@pytest.mark.parametrize(
    "bound",
    [1, 2, 255, 256, 257, 2**16 - 1, 2**16 + 1, 2**24 + 1, 2**32 + 1, 2**40 + 1, 2**48 + 1, 2**63 + 1, 2**64 + 1],
)
@pytest.mark.parametrize("count", [0, 1, DRAW_ROUND - 1, DRAW_ROUND, DRAW_ROUND + 1, 3 * DRAW_ROUND])
def test_randbelow_many_matches_randbelow(bound, count):
    assert_bulk_draws_match_single_draws(bound % 1009 + count, bound, count)


@st.composite
def bounds_of_every_width(draw):
    width = draw(st.integers(1, 9))
    return draw(st.integers(256 ** (width - 1) + 1, 256**width))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, U64_MASK),
    bound=st.one_of(st.integers(1, 3), bounds_of_every_width()),
    count=st.integers(0, 3 * DRAW_ROUND + 1),
)
def test_randbelow_many_matches_randbelow_on_generated_bounds(seed, bound, count):
    assert_bulk_draws_match_single_draws(seed, bound, count)


@pytest.mark.parametrize("bound, count", [(0, 5), (-3, 5), (5, -1)])
def test_randbelow_many_rejects_bad_arguments_at_the_call(bound, count):
    with pytest.raises(ValidationError):
        HashStream(0).randbelow_many(bound, count)


class CountingHashlib:
    """Stands in for ``beacon.hashlib`` and counts the digests taken from
    the SHA-256 states it builds and from every copy of them.

    A stream hashes a block when it takes a digest, so the count is the
    number of blocks hashed, whether a block is hashed from scratch or from
    a copy of the stream's prefixed state.
    """

    def __init__(self):
        self.digests = 0

    def sha256(self, data=b""):
        return CountingSha256(self, hashlib.sha256(data))


class CountingSha256:
    def __init__(self, counter: CountingHashlib, state):
        self._counter, self._state = counter, state

    def copy(self):
        return CountingSha256(self._counter, self._state.copy())

    def update(self, data):
        self._state.update(data)

    def digest(self):
        self._counter.digests += 1
        return self._state.digest()


def test_read_of_a_negative_size_raises_and_leaves_the_stream_alone(monkeypatch):
    counting = CountingHashlib()
    monkeypatch.setattr(beacon_module, "hashlib", counting)
    ours = HashStream(11, 3)
    ours.read(8)
    with pytest.raises(ValidationError, match=r"\bn\b"):
        ours.read(-1)
    assert ours.read(0) == b""
    assert counting.digests == 1
    fresh = HashStream(11, 3)
    fresh.read(8)
    assert ours.read(8) == fresh.read(8)


def test_read_of_zero_bytes_hashes_nothing(monkeypatch):
    counting = CountingHashlib()
    monkeypatch.setattr(beacon_module, "hashlib", counting)
    assert HashStream(0).read(0) == b""
    assert counting.digests == 0


# read sizes from 0 to 300 blocks' worth, weighted towards block boundaries
# and one byte either side of them
READ_SIZES = st.one_of(
    st.sampled_from([0, 1, 8, 31, 32, 33, 63, 64, 65, 8191, 8192, 8193]),
    st.integers(0, 300 * 32),
)
STREAM_CALLS = st.one_of(
    st.tuples(st.just("read"), READ_SIZES),
    st.tuples(st.just("u64")),
    st.tuples(st.just("salt")),
    st.tuples(st.just("randbelow"), st.one_of(st.integers(1, 3), bounds_of_every_width())),
    st.tuples(
        st.just("randbelow_many"),
        st.one_of(st.integers(1, 3), bounds_of_every_width()),
        st.integers(0, 2 * DRAW_ROUND + 1),
    ),
    st.tuples(st.just("permutation"), st.integers(0, 300)),
)


def reference_call(ref: ReferenceStream, call: tuple):
    name, *args = call
    if name == "u64":
        return int.from_bytes(ref.read(8), "big")
    if name == "salt":
        return ref.read(32)
    if name == "randbelow_many":
        bound, count = args
        return [ref.randbelow(bound) for _ in range(count)]
    return getattr(ref, name)(*args)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, U64_MASK), calls=st.lists(STREAM_CALLS, max_size=12))
def test_stream_matches_reference_bytes_across_many_blocks(seed, calls):
    counting = CountingHashlib()
    ref = ReferenceStream(seed, 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beacon_module, "hashlib", counting)
        # built under the patch, so the stream's prefixed state is counted too
        ours = HashStream(seed, 5)
        for name, *args in calls:
            got = getattr(ours, name)(*args)
            if name == "randbelow_many":
                got = list(got)
            assert got == reference_call(ref, (name, *args))
        # both streams stand at the same byte
        assert ours.read(40) == ref.read(40)
    # every block consumed was hashed exactly once
    assert counting.digests == ref.block


@pytest.mark.parametrize("counts", [[], [7], [0, 0]])
def test_chi_square_test_rejects_too_few_bins_or_trials(counts):
    with pytest.raises(ValidationError, match="counts"):
        chi_square_test(counts)


def test_chi_square_test_of_equal_counts_is_zero_with_p_one():
    assert chi_square_test([5, 5, 5]) == (0.0, 1.0)


@pytest.mark.parametrize("df", [1, 2, 7, 15, 63, 64, 255, 999, 4095])
def test_chi_square_sf_matches_scipy(df):
    xs = [(3 * df + 50) * i / 400 for i in range(401)]
    worst = 0.0
    for x, ref in zip(xs, scipy.stats.chi2.sf(xs, df)):
        if ref > 1e-250:
            worst = max(worst, abs(chi_square_sf(x, df) - ref) / ref)
    assert worst <= 1e-10


def test_chi_square_sf_does_not_overflow_far_in_the_tail():
    # y = x/2 above ~709 overflows a plain y^k/k! recurrence to nan
    for df in (1, 2, 63, 64):
        for x in (1500.0, 1e6):
            assert 0.0 <= chi_square_sf(x, df) <= 1e-250


def test_chi_square_sf_rejects_zero_degrees_of_freedom():
    with pytest.raises(ValidationError, match="df"):
        chi_square_sf(1.0, 0)


# Fixed adversary vectors for the exact one-honest-player check. The first
# two sum below 2^64; the rest wrap once or twice on their own.
SHIFT_VECTORS = [
    {"bits": 0x0123456789ABCDEF},
    {"a": 2**62, "b": 2**62 + 7},
    ADVERSARY_CONSTANTS,
    {"a": 2**63, "b": 2**63 + 2**20},
    {"a": U64_MASK, "b": U64_MASK, "c": 2**40},
]
WINDOW = 2**16


@pytest.mark.parametrize("adversary", SHIFT_VECTORS)
def test_one_honest_value_maps_a_window_one_to_one_across_the_wrap(adversary):
    # For a fixed adversary sum s, h -> (h + s) mod 2^64 is a bijection. The
    # honest window is placed so that h + s crosses a multiple of 2^64 in
    # its middle, so the reduction itself is what is checked.
    shift = sum(adversary.values()) % 2**64
    start = 2**64 - shift - WINDOW // 2
    assert 0 <= start and start + WINDOW <= 2**64  # every honest value is a u64
    outputs = [aggregate({**adversary, "honest": start + k}).value for k in range(WINDOW)]
    assert outputs == [(start + shift + k) % 2**64 for k in range(WINDOW)]
    assert outputs[WINDOW // 2 - 1] == U64_MASK and outputs[WINDOW // 2] == 0
    assert len(set(outputs)) == WINDOW
