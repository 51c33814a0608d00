"""Draw a fair lottery from player-submitted randomness.

Each player contributes an unsigned 64-bit number; the beacon output is
their sum mod 2^64. Because addition mod 2^64 is a group, ONE honestly
uniform contribution makes the output uniform no matter how the others
collude: a fixed shift maps the honest values one-to-one. The histogram
below, of four fixed adversarial constants plus one honest draw, samples
the hash stream behind that draw; with 16 bins it cannot see the
reduction mod 2^64, so it illustrates the spread rather than proving it.
"""

from trustless_mech import aggregate, beacon_order, uniformity_histogram

PLAYERS = {"ana": 7, "bert": 2**63, "cleo": 41, "drew": 2**64 - 5}


def main() -> None:
    output = aggregate(PLAYERS)
    print("contributions:")
    for agent, value in sorted(PLAYERS.items()):
        print(f"  {agent:5s} {value}")
    print(f"beacon value: {output.value}  (sum mod 2^64)")
    print()

    ranking = beacon_order(output, output.contributors)
    print(f"lottery order: {' > '.join(ranking)}")
    print(f"winner: {ranking[0]}")
    print()

    # a different value from any single player moves the whole draw
    nudged = aggregate({**PLAYERS, "ana": 8})
    reorder = beacon_order(nudged, nudged.contributors)
    print(f"ana contributes 8 instead of 7 -> order {' > '.join(reorder)}")
    print()

    # one honest player vs four fixed adversarial constants, 20k draws
    # 16 divides 64, so folding the 64 bins gives the counts mod 16
    wide = uniformity_histogram(trials=20_000, seed=7)
    counts = [sum(wide[b::16]) for b in range(16)]
    top = max(counts)
    print("output mod 16 with one honest player (20000 trials):")
    for bin_index, count in enumerate(counts):
        bar = "#" * round(40 * count / top)
        print(f"  {bin_index:2d} {count:5d} {bar}")
    print(f"bin counts range {min(counts)}..{max(counts)}, "
          f"ideal {20_000 // 16} per bin")


if __name__ == "__main__":
    main()
