"""Seeded input generators for the benchmark workloads.

Pure standard library: the parent process builds every scenario file and
argv list from the workload seed before the measured interpreter starts, so
the program under test receives only files and arguments. The same seed
always yields byte-identical files.
"""

from __future__ import annotations

import json
import random

AUCTION_AGENTS = 1000
AUCTION_POOL = 24
GSP_CTRS = ["1.0", "0.75", "0.5"]
# Honest scenarios use a short reveal window; censoring ones a long window so
# held reveals sit in the mempool (and are re-scanned) for many blocks.
SHORT_SCHEDULE = {"commit_deadline": 2, "reveal_deadline": 6}
LONG_SCHEDULE = {"commit_deadline": 2, "reveal_deadline": 40}
RELEASE_BEFORE_DEADLINE = 30
RELEASE_AFTER_DEADLINE = 45

SCHOOL_STUDENTS = 60
SCHOOL_COUNT = 6  # adversaries.SEARCH_BOUND_SCHOOLS: the largest exhaustive search
SCHOOL_POOL = 8

BEACON_TRIALS = 20000
BEACON_POOL = 16

WORKLOADS = ("auction_commit_reveal", "school_choice_informed", "beacon_uniformity")


def _agent_names(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"a{i:0{width}d}" for i in range(n)]


def auction_scenario(seed: int, slot: int, n_agents: int = AUCTION_AGENTS) -> dict:
    """One sealed-bid auction scenario; the slot fixes its shape.

    Slots cycle first-price, second-price and GSP, alternate ``with_beacon``
    every three slots, and every fourth slot adds a censoring miner on half
    the agents, alternately releasing before and after the reveal deadline.
    """
    rng = random.Random(f"auction:{seed}:{slot}:{n_agents}")
    kind = ("first_price", "second_price", "gsp")[slot % 3]
    variant = (slot // 3) % 2
    mechanism: dict = {"kind": kind}
    if kind == "gsp":
        mechanism["ctrs"] = GSP_CTRS
        strategy = ("gsp_raise_k_plus_one", "gsp_demote_top_bidder")[variant]
    else:
        strategy = {"first_price": "fpa_tell_top_the_second",
                    "second_price": "spa_raise_second_below_top"}[kind]
    if variant:
        mechanism["with_beacon"] = True
    names = _agent_names(n_agents)
    doc = {
        "name": f"auction{slot:02d}",
        "seed": rng.getrandbits(64),
        "mechanism": mechanism,
        "schedule": SHORT_SCHEDULE,
        "agents": [{"agent": a, "bid": rng.randrange(1, 10**6)} for a in names],
        "adversary": {"kind": strategy},
    }
    if slot % 4 == 3:
        doc["schedule"] = LONG_SCHEDULE
        until = RELEASE_AFTER_DEADLINE if (slot // 4) % 2 else RELEASE_BEFORE_DEADLINE
        doc["miner"] = {
            "mode": "censor",
            "targets": sorted(rng.sample(names, n_agents // 2)),
            "until": until,
        }
    return doc


def school_scenario(seed: int, slot: int) -> dict:
    """Boston school choice with an informed student buying the others' rankings."""
    rng = random.Random(f"school:{seed}:{slot}")
    schools = [f"s{i}" for i in range(SCHOOL_COUNT)]
    names = _agent_names(SCHOOL_STUDENTS)
    return {
        "name": f"school{slot:02d}",
        "seed": rng.getrandbits(64),
        "mechanism": {
            "kind": "boston",
            "schools": [{"school": s, "capacity": rng.randint(6, 10)} for s in schools],
            "priority_mode": ("single_lottery", "per_school_lottery")[slot % 2],
            "with_beacon": True,
        },
        "schedule": SHORT_SCHEDULE,
        "agents": [
            {"agent": a, "ranking": rng.sample(schools, rng.randint(1, SCHOOL_COUNT))}
            for a in names
        ],
        "adversary": {"kind": "boston_sell_rankings", "target": rng.choice(names)},
    }


def scenario_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def build(workload: str, seed: int) -> tuple[dict[str, bytes], list[list[str]]]:
    """(relative path -> file bytes, op argv list) for one workload and seed.

    ``run`` argv lists leave ``--out`` to the caller, which picks the
    directory each op writes to.
    """
    if workload == "beacon_uniformity":
        rng = random.Random(f"beacon:{seed}")
        ops = [
            ["beacon-uniformity", "--trials", str(BEACON_TRIALS), "--seed", str(rng.getrandbits(32))]
            for _ in range(BEACON_POOL)
        ]
        return {}, ops
    if workload == "auction_commit_reveal":
        docs = [auction_scenario(seed, slot) for slot in range(AUCTION_POOL)]
    elif workload == "school_choice_informed":
        docs = [school_scenario(seed, slot) for slot in range(SCHOOL_POOL)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    files = {f"{doc['name']}.json": scenario_bytes(doc) for doc in docs}
    return files, [["run", path] for path in files]
