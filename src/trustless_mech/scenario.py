"""Scenario files: one JSON document describing a full mechanism run.

A scenario fixes the mechanism, the phase schedule, every agent's truthful
input, an optional manipulation strategy, the miner policy, and a 64-bit
seed. Honest agents' commitment salts (and beacon contributions, when the
file leaves them out) derive from the seed through the same hash stream
the beacon uses, so a scenario replays byte-identically.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from importlib import resources

from .adversaries import STRATEGY_RULES, LeakStrategy, LeakStrategyKind, exact_str
from .auctions import SlotCTRs
from .beacon import DOMAIN_CONTRIBUTIONS, DOMAIN_SALTS, U64_MASK, HashStream
from .chain import MinerPolicy
from .commitments import Commitment, CommitOpening, make_commitment
from .contract import PhaseSchedule
from .errors import ValidationError, WireFormatError
from .school_choice import LotteryMode, SchoolSpec, encode_ranking
from .settlement import (
    AUCTION_TAGS,
    AgentInput,
    MechanismKind,
    MechanismTag,
    encode_agent_payload,
)


# Bounds on one GSP rate string, checked before `Fraction` expands its
# exponent into a full integer: every float's repr fits both.
MAX_RATE_CHARS = 64
MAX_RATE_EXPONENT = 400


class ScenarioError(ValidationError):
    """Scenario parse or validation failure; the message names the field."""


@dataclass(frozen=True)
class AgentSpec:
    """One agent's truthful input. Unused fields stay None."""

    agent: str
    bid: int | None = None
    valuation: int | None = None
    ranking: tuple[str, ...] | None = None
    contribution: int | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    mechanism: MechanismKind
    schedule: PhaseSchedule
    agents: tuple[AgentSpec, ...]
    adversary: LeakStrategy | None = None
    miner: MinerPolicy = MinerPolicy.honest()

    def __post_init__(self) -> None:
        _validate(self)

    @cached_property
    def truthful_inputs(self) -> Mapping[str, AgentInput]:
        """agent -> truthful input, in agent list order, read-only.

        A beacon contribution the file leaves out is drawn from the seed's
        contribution stream, in agent list order; a mechanism without a
        beacon takes none.
        """
        contributions = HashStream(self.seed, DOMAIN_CONTRIBUTIONS)
        out: dict[str, AgentInput] = {}
        for spec in self.agents:
            contribution = spec.contribution
            if self.mechanism.uses_beacon and contribution is None:
                contribution = contributions.u64()
            out[spec.agent] = AgentInput(
                bid=spec.bid, ranking=spec.ranking, contribution=contribution
            )
        return MappingProxyType(out)

    @cached_property
    def commitments(self) -> Mapping[str, tuple[CommitOpening, Commitment]]:
        """agent -> (opening, commitment) of the truthful input, in agent list
        order, under the contract id ``name``.

        Salts come from the seed's salt stream, one per agent in agent list
        order, so each agent's salt is independent of the others' fields.
        Built once per scenario: a sealed operator view plans no rebid, so
        every decentralized run commits and reveals exactly these openings.
        The contract still verifies each one on every run.
        """
        salts = HashStream(self.seed, DOMAIN_SALTS)
        out: dict[str, tuple[CommitOpening, Commitment]] = {}
        for agent, inp in self.truthful_inputs.items():
            payload = encode_agent_payload(self.mechanism, inp)
            opening = CommitOpening(payload=payload, salt=salts.salt())
            out[agent] = (opening, make_commitment(agent, self.name, opening))
        return MappingProxyType(out)

    def __getstate__(self) -> dict:
        # the cached mappings do not pickle; they are rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _fail(path: str, problem: str) -> ScenarioError:
    return ScenarioError(f"field '{path}': {problem}")


def _validate(s: Scenario) -> None:
    if not s.name or len(s.name.encode()) > 255:
        raise _fail("name", "must be 1..255 encoded bytes")
    if s.name in (".", "..") or any(c in s.name for c in "/\\\0"):
        raise _fail("name", "must be one plain path component: it names the report files")
    if not 0 <= s.seed <= U64_MASK:
        raise _fail("seed", "must be an unsigned 64-bit integer")
    if not s.agents:
        raise _fail("agents", "at least one agent is required")

    tag = s.mechanism.tag
    # the agent fields the mechanism reads; any other would be dropped unread
    if tag in AUCTION_TAGS:
        read = ("bid", "valuation")
    else:
        read = ("ranking",) if tag is MechanismTag.BOSTON else ()
    seen: set[str] = set()
    for i, spec in enumerate(s.agents):
        path = f"agents[{i}]"
        if not spec.agent or len(spec.agent.encode()) > 255:
            raise _fail(f"{path}.agent", "must be 1..255 encoded bytes")
        if spec.agent in seen:
            raise _fail(f"{path}.agent", f"duplicate agent {spec.agent!r}")
        seen.add(spec.agent)
        for name in ("bid", "valuation", "ranking"):
            if name not in read and getattr(spec, name) is not None:
                raise _fail(f"{path}.{name}", f"a {tag.value} contract takes no {name}")
        if spec.bid is not None and not 0 <= spec.bid <= U64_MASK:
            raise _fail(f"{path}.bid", "must be an unsigned 64-bit integer")
        if spec.valuation is not None and spec.valuation < 0:
            raise _fail(f"{path}.valuation", "must be nonnegative")
        if spec.contribution is not None:
            if not s.mechanism.uses_beacon:
                raise _fail(f"{path}.contribution", f"a {tag.value} contract "
                            "without a beacon takes no contribution")
            if not 0 <= spec.contribution <= U64_MASK:
                raise _fail(f"{path}.contribution", "must be an unsigned 64-bit integer")
        if spec.ranking is not None and len(set(spec.ranking)) != len(spec.ranking):
            raise _fail(f"{path}.ranking", "lists a school twice")

    if tag in AUCTION_TAGS:
        for i, spec in enumerate(s.agents):
            if spec.bid is None:
                raise _fail(f"agents[{i}].bid", f"required for a {tag.value} auction")
    if tag is MechanismTag.BOSTON:
        index_of = s.mechanism.school_index
        for i, spec in enumerate(s.agents):
            if spec.ranking is None:
                raise _fail(f"agents[{i}].ranking", "required for school choice")
            for school in spec.ranking:
                if school not in index_of:
                    raise _fail(f"agents[{i}].ranking", f"unknown school {school!r}")
            try:  # the reveal carries the ranking as one byte per school index
                encode_ranking([index_of[school] for school in spec.ranking])
            except WireFormatError as exc:
                raise _fail(f"agents[{i}].ranking", str(exc)) from exc
        mode = s.mechanism.priority_mode
        for j, school_spec in enumerate(s.mechanism.schools):
            path = f"mechanism.schools[{j}].priority"
            if mode is not None:
                # the lottery replaces every priority order, so a list would be ignored
                if school_spec.priority:
                    raise _fail(path, f"must be empty under {mode.value}")
            elif missing := seen - set(school_spec.priority):
                raise _fail(
                    path, f"school {school_spec.school!r} priority omits {sorted(missing)}"
                )

    if s.adversary is not None:
        kind = s.adversary.kind
        rule = STRATEGY_RULES[kind]
        for name in (f.name for f in fields(LeakStrategy) if f.name != "kind"):
            if getattr(s.adversary, name) is None:
                if name in rule.takes:
                    raise _fail(f"adversary.{name}", f"required for {kind.value}")
            elif name not in rule.takes:
                raise _fail(f"adversary.{name}", f"{kind.value} takes no {name}")
        if tag not in rule.mechanisms:
            raise _fail("adversary.kind", f"strategy {kind.value} does not apply to a "
                        f"{tag.value} contract")
        if kind is LeakStrategyKind.MINER_CENSOR_REVEALS and s.miner.censor_targets:
            raise _fail("adversary.kind", "miner_censor_reveals would mine the reveal phase "
                        "in place of the censoring miner; use one or the other")
        if s.adversary.target is not None and s.adversary.target not in seen:
            raise _fail("adversary.target", f"unknown agent {s.adversary.target!r}")
        if s.adversary.censor_until is not None:
            _check_censor_until(s, "adversary.censor_until", s.adversary.censor_until)

    if s.miner.censor_targets:
        for target in sorted(s.miner.censor_targets):
            if target not in seen:
                raise _fail("miner.targets", f"unknown agent {target!r}")
        _check_censor_until(s, "miner.until", s.miner.censor_until)


def _check_censor_until(s: Scenario, path: str, until: int) -> None:
    """Reveals are mined only after the commit deadline (at least 1), so a
    censor that stops by then, or at a negative height, censors nothing."""
    if until <= s.schedule.commit_deadline:
        raise _fail(path, "must be after the commit deadline, when reveals start")


def _check_keys(doc: dict, known: tuple[str, ...], path: str) -> None:
    """Reject a key the format does not define, so a misspelling is not dropped."""
    for key in doc:
        if key not in known:
            if not key or not set(key).isdisjoint("'.["):  # the quoted path would misread it
                name = json.dumps(key).replace("'", "\\u0027")
                path, key = path.removesuffix("."), f"[{name}]"
            raise _fail(f"{path}{key}", f"unknown key; expected one of {', '.join(known)}")


def _get(doc: dict, key: str, kind: type, path: str, *, required: bool = True, default=None):
    if key not in doc or doc[key] is None:
        if required:
            raise _fail(f"{path}{key}", "missing")
        return default
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise _fail(f"{path}{key}", "expected an integer, got a boolean")
    if not isinstance(value, kind):
        raise _fail(f"{path}{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    # A JSON "\ud800" escape decodes to a lone surrogate, which cannot be encoded.
    if kind is str and not value.isascii() and any("\ud800" <= c <= "\udfff" for c in value):
        raise _fail(f"{path}{key}", "holds a lone surrogate, which is not text")
    return value


def _get_enum(
    doc: dict, key: str, enum: type[Enum], path: str, noun: str, *, required: bool = True
):
    raw = _get(doc, key, str, path, required=required)
    try:
        return None if raw is None else enum(raw)
    except ValueError:
        raise _fail(f"{path}{key}", f"unknown {noun} {raw!r}") from None


def _build(record: type, path: str, **values):
    """Construct a record from fields already read; ``path`` names the rule it breaks."""
    try:
        return record(**values)
    except ValidationError as exc:
        raise _fail(path, str(exc)) from exc


def _get_strings(doc: dict, key: str, path: str, *, required: bool = True) -> list[str] | None:
    """A list field whose entries must all be strings."""
    value = _get(doc, key, list, path, required=required)
    if value is not None and not all(isinstance(item, str) for item in value):
        raise _fail(f"{path}{key}", "expected a list of strings")
    return value


def _parse_rate(value: object) -> Fraction:
    text = str(value)
    if len(text) > MAX_RATE_CHARS:
        raise ValidationError(f"rate longer than {MAX_RATE_CHARS} characters")
    exponent = re.search(r"e([-+]?\d[\d_]*)", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1].replace("_", ""))) > MAX_RATE_EXPONENT:
        raise ValidationError(f"rate {text!r} has an exponent beyond {MAX_RATE_EXPONENT}")
    return Fraction(text)


def _parse_mechanism(doc: dict, path: str = "mechanism.") -> MechanismKind:
    _check_keys(doc, ("kind", "ctrs", "schools", "priority_mode", "with_beacon"), path)
    tag = _get_enum(doc, "kind", MechanismTag, path, "mechanism")

    rates = _get(doc, "ctrs", list, path, required=False)
    try:
        ctrs = None if rates is None else SlotCTRs(rates=tuple(_parse_rate(x) for x in rates))
    except (ValueError, ZeroDivisionError, ValidationError) as exc:
        raise _fail(f"{path}ctrs", str(exc)) from None

    schools = []
    for i, entry in enumerate(_get(doc, "schools", list, path, required=False, default=())):
        spath = f"{path}schools[{i}]."
        if not isinstance(entry, dict):
            raise _fail(spath[:-1], "expected an object")
        _check_keys(entry, ("school", "capacity", "priority"), spath)
        school = _get(entry, "school", str, spath)
        capacity = _get(entry, "capacity", int, spath)
        if capacity < 0:
            raise _fail(f"{spath}capacity", "must be nonnegative")
        priority = _get_strings(entry, "priority", spath, required=False) or []
        schools.append(_build(SchoolSpec, f"{spath}priority", school=school,
                              capacity=capacity, priority=tuple(priority)))

    return _build(
        MechanismKind, path[:-1], tag=tag, ctrs=ctrs, schools=tuple(schools),
        priority_mode=_get_enum(doc, "priority_mode", LotteryMode, path, "mode", required=False),
        with_beacon=_get(doc, "with_beacon", bool, path, required=False, default=False),
    )


def _parse_agents(raw: list, path: str = "agents") -> tuple[AgentSpec, ...]:
    out = []
    for i, entry in enumerate(raw):
        apath = f"{path}[{i}]."
        if not isinstance(entry, dict):
            raise _fail(apath[:-1], "expected an object")
        _check_keys(entry, ("agent", "bid", "valuation", "ranking", "contribution"), apath)
        ranking = _get_strings(entry, "ranking", apath, required=False)
        out.append(
            AgentSpec(
                agent=_get(entry, "agent", str, apath),
                bid=_get(entry, "bid", int, apath, required=False),
                valuation=_get(entry, "valuation", int, apath, required=False),
                ranking=None if ranking is None else tuple(ranking),
                contribution=_get(entry, "contribution", int, apath, required=False),
            )
        )
    return tuple(out)


def _parse_adversary(doc: dict | None) -> LeakStrategy | None:
    if doc is None:
        return None
    path = "adversary."
    _check_keys(doc, ("kind", "target", "censor_until"), path)
    return LeakStrategy(
        kind=_get_enum(doc, "kind", LeakStrategyKind, path, "strategy"),
        target=_get(doc, "target", str, path, required=False),
        censor_until=_get(doc, "censor_until", int, path, required=False),
    )


def _parse_miner(doc: dict | None) -> MinerPolicy:
    if doc is None:
        return MinerPolicy.honest()
    path = "miner."
    _check_keys(doc, ("mode", "targets", "until"), path)
    mode = _get(doc, "mode", str, path)
    if mode not in ("honest", "censor"):
        raise _fail(f"{path}mode", f"unknown miner mode {mode!r}")
    if mode == "honest":
        for key in ("targets", "until"):
            if key in doc:
                raise _fail(f"{path}{key}", f"an honest miner takes no {key}")
        return MinerPolicy.honest()
    targets = _get_strings(doc, "targets", path)
    if not targets:
        raise _fail(f"{path}targets", "a censoring miner needs at least one target")
    if len(set(targets)) < len(targets):  # the policy's set would merge them unseen
        twice = next(t for i, t in enumerate(targets) if t in targets[:i])
        raise _fail(f"{path}targets", f"lists agent {twice!r} twice")
    until = _get(doc, "until", int, path)
    return MinerPolicy.censor(set(targets), until)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys(
        doc, ("name", "seed", "mechanism", "schedule", "agents", "adversary", "miner"), ""
    )
    schedule_doc = _get(doc, "schedule", dict, "")
    _check_keys(schedule_doc, ("commit_deadline", "reveal_deadline"), "schedule.")
    schedule = _build(
        PhaseSchedule, "schedule",
        commit_deadline=_get(schedule_doc, "commit_deadline", int, "schedule."),
        reveal_deadline=_get(schedule_doc, "reveal_deadline", int, "schedule."),
    )
    return Scenario(
        name=_get(doc, "name", str, ""),
        seed=_get(doc, "seed", int, ""),
        mechanism=_parse_mechanism(_get(doc, "mechanism", dict, "")),
        schedule=schedule,
        agents=_parse_agents(_get(doc, "agents", list, "")),
        adversary=_parse_adversary(_get(doc, "adversary", dict, "", required=False)),
        miner=_parse_miner(_get(doc, "miner", dict, "", required=False)),
    )


def _set_fields(record) -> dict:
    """A record's set fields under their own names: tuples as lists, enums as values."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return {
        name: list(v) if isinstance(v, tuple) else v.value if isinstance(v, Enum) else v
        for name, v in values if v is not None
    }


def scenario_to_dict(s: Scenario) -> dict:
    mech: dict = {"kind": s.mechanism.tag.value}
    if s.mechanism.ctrs is not None:
        mech["ctrs"] = [exact_str(r) for r in s.mechanism.ctrs.rates]
    if s.mechanism.schools:
        mech["schools"] = [_set_fields(sc) for sc in s.mechanism.schools]
    if s.mechanism.priority_mode is not None:
        mech["priority_mode"] = s.mechanism.priority_mode.value
    if s.mechanism.with_beacon:
        mech["with_beacon"] = True
    doc: dict = {
        "name": s.name,
        "seed": s.seed,
        "mechanism": mech,
        "schedule": _set_fields(s.schedule),
        "agents": [_set_fields(spec) for spec in s.agents],
    }
    if s.adversary is not None:
        doc["adversary"] = _set_fields(s.adversary)
    if s.miner.censor_targets:
        doc["miner"] = {
            "mode": "censor",
            "targets": sorted(s.miner.censor_targets),
            "until": s.miner.censor_until,
        }
    return doc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object, refusing a key given twice: plain decoding keeps the
    last value and drops the rest without a word."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ScenarioError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _from_text(text: str, source: str) -> Scenario:
    """Decode one scenario document; every error is prefixed with ``source``."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ScenarioError as exc:  # raised by _unique_keys
        raise ScenarioError(f"{source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError(f"{source}: JSON nested too deeply") from None
    except ValueError as exc:  # the only other ValueError: int() refuses a long literal
        raise ScenarioError(f"{source}: integer literal has too many digits") from exc
    try:
        return scenario_from_dict(doc)
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def _read_text(ref, source: str) -> str:
    """The UTF-8 text of ``ref`` (a path or a package resource); other bytes
    fail naming ``source`` and the first bad byte."""
    try:
        return ref.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{source}: not UTF-8 text: byte {exc.start}: {exc.reason}") from exc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = _read_text(path, str(path))
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    return _from_text(text, str(path))


def dump_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")


def bundled_scenario_names() -> list[str]:
    root = resources.files("trustless_mech") / "scenarios"
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> Scenario:
    ref = resources.files("trustless_mech") / "scenarios" / f"{name}.json"
    source = f"bundled scenario {name!r}"
    try:
        text = _read_text(ref, source)
    except FileNotFoundError:
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        ) from None
    return _from_text(text, source)
