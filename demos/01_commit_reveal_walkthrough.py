"""Walk one sealed-bid auction through its full commit-reveal lifecycle.

Three bidders commit salted digests before the commit deadline, reveal
their openings inside the reveal window, and the contract settles a
first-price auction. A fourth bidder tries to swap their bid at reveal
time and is excluded: the digest binds them to the committed amount.
"""

from trustless_mech import (
    AgentInput,
    ChainState,
    CommitOpening,
    ContractState,
    HashStream,
    MechanismKind,
    MechanismTag,
    PhaseSchedule,
    encode_agent_payload,
    make_commitment,
    settle,
)
from trustless_mech.beacon import DOMAIN_SALTS
from trustless_mech.contract import commit_message, reveal_message

CONTRACT = "sealed-fpa"
SCHEDULE = PhaseSchedule(commit_deadline=3, reveal_deadline=8)
MECHANISM = MechanismKind(tag=MechanismTag.FIRST_PRICE)

TRUE_BIDS = {"alice": 120, "bob": 95, "carol": 140, "mallory": 60}


def main() -> None:
    # salts come from the seed's salt stream, as a scenario draws them
    salts = HashStream(seed=2024, domain=DOMAIN_SALTS)
    chain = ChainState()

    print(f"schedule: commits through height {SCHEDULE.commit_deadline}, "
          f"reveals through height {SCHEDULE.reveal_deadline}")
    print()

    # commit phase: only digests travel, so nobody (not even the miner)
    # learns a bid before the commit deadline passes
    openings = {}
    for agent, bid in TRUE_BIDS.items():
        payload = encode_agent_payload(MECHANISM, AgentInput(bid=bid))
        openings[agent] = CommitOpening(payload=payload, salt=salts.salt())
        commitment = make_commitment(agent, CONTRACT, openings[agent])
        chain.submit(commit_message(agent, CONTRACT, commitment))
        print(f"height 0  {agent:8s} commits digest {commitment.digest.hex()[:16]}..")
    chain.advance_to(SCHEDULE.commit_deadline)
    print(f"\nchain at height {chain.height}: commit phase over, bids still secret")
    print()

    # reveal phase: mallory regrets the committed 60 and tries to reveal 150.
    # The digest check fails and the contract excludes them.
    for agent in ["alice", "bob", "carol"]:
        chain.submit(reveal_message(agent, CONTRACT, openings[agent]))
        print(f"height {chain.height}  {agent:8s} reveals bid {TRUE_BIDS[agent]}")
    forged = CommitOpening(
        payload=encode_agent_payload(MECHANISM, AgentInput(bid=150)),
        salt=openings["mallory"].salt,
    )
    chain.submit(reveal_message("mallory", CONTRACT, forged))
    print(f"height {chain.height}  mallory  reveals bid 150 (committed 60)")
    chain.advance_to(SCHEDULE.reveal_deadline)

    # settlement: the contract replays the chain, verifies every opening,
    # and settles at the reveal deadline; the auction reads what it verified
    state = ContractState(CONTRACT, SCHEDULE)
    state.follow(chain)
    result = settle(MECHANISM, state.finalize(chain.height))

    print()
    print(f"verified reveals: {', '.join(sorted(state.reveals))}")
    print(f"excluded:         {', '.join(sorted(result.excluded))}")
    winner = result.auction.allocation[0]
    print(f"winner:           {winner} pays {result.auction.payments[winner]}")
    print()
    print("mallory's forged reveal failed verification, so the committed bid")
    print("stayed binding and the exclusion punishment applied.")


if __name__ == "__main__":
    main()
