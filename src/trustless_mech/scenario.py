"""Scenario files: one JSON document describing a full mechanism run.

A scenario fixes the mechanism, the phase schedule, every agent's truthful
input, an optional manipulation strategy, the miner policy, and a 64-bit
seed. Honest agents' commitment salts (and beacon contributions, when the
file leaves them out) derive from the seed through the same hash stream
the beacon uses, so a scenario replays byte-identically. An agent, schedule,
school or adversary object is read and written as exactly its record's fields.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache, cached_property
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, get_args, get_origin, get_type_hints

from importlib import resources

from .adversaries import STRATEGY_RULES, LeakStrategy, LeakStrategyKind, exact_str
from .auctions import SlotCTRs
from .beacon import DOMAIN_CONTRIBUTIONS, DOMAIN_SALTS, U64_MASK, HashStream
from .chain import Message, MinerPolicy
from .commitments import CommitOpening, encode_identifier, make_commitment
from .contract import PhaseSchedule, commit_message, reveal_message
from .errors import ValidationError, WireFormatError
from .school_choice import LotteryMode, SchoolSpec
from .settlement import (
    AgentInput,
    MechanismKind,
    MechanismTag,
    encode_agent_payload,
    encode_field,
)


# Bounds on one GSP rate string, checked before `Fraction` expands its
# exponent into a full integer: every float's repr fits both.
MAX_RATE_CHARS = 64
MAX_RATE_EXPONENT = 400

# `run` writes `<name>.report.json`, and a file name holds at most 255 bytes.
MAX_NAME_BYTES = 255 - len(".report.json")

# `_unique_keys` files an object's first repeated key under this entry: no JSON
# key, always a string, equals it, and an object quoted whole still reads it.
_REPEATED = ("repeated key",)


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
    def messages(self) -> Mapping[str, tuple[Message, Message]]:
        """agent -> (commit, reveal) ledger messages of the truthful input, in
        agent list order, under the contract id ``name``.

        Salts come from the seed's salt stream, one per agent in agent list
        order, so each agent's salt is independent of the others' fields.
        Built once per scenario: a sealed operator view plans no rebid and a
        message is immutable, so every decentralized run submits these same
        ones. The contract still verifies each opening on every run.
        """
        salts = HashStream(self.seed, DOMAIN_SALTS)
        out: dict[str, tuple[Message, Message]] = {}
        for agent, inp in self.truthful_inputs.items():
            payload = encode_agent_payload(self.mechanism, inp)
            opening = CommitOpening(payload=payload, salt=salts.salt())
            commitment = make_commitment(agent, self.name, opening)
            out[agent] = (commit_message(agent, self.name, commitment),
                          reveal_message(agent, self.name, opening))
        return MappingProxyType(out)

    def __getstate__(self) -> dict:
        # the cached mappings do not pickle; they are rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _fail(path: str, problem: str) -> ScenarioError:
    return ScenarioError(f"field '{path}': {problem}")


def _validate(s: Scenario) -> None:
    try:
        encode_identifier(s.name)
    except WireFormatError as exc:
        raise _fail("name", str(exc)) from exc
    if (s.name in (".", "..") or any(c in s.name for c in "/\\\0")
            or len(s.name.encode("utf-8")) > MAX_NAME_BYTES):
        raise _fail("name", f"must be one plain path component of at most {MAX_NAME_BYTES} "
                    "bytes: it names the report files")
    if not 0 <= s.seed <= U64_MASK:
        raise _fail("seed", "must be an unsigned 64-bit integer")
    if not s.agents:
        raise _fail("agents", "at least one agent is required")

    tag = s.mechanism.tag
    wire = s.mechanism.wire_fields  # what a reveal carries; an auction also reads a valuation
    seen: set[str] = set()
    for i, spec in enumerate(s.agents):
        name = "agent"
        try:
            encode_identifier(spec.agent)
            if spec.agent in seen:
                raise ValidationError(f"duplicate agent {spec.agent!r}")
            seen.add(spec.agent)
            for name in ("bid", "valuation", "ranking", "contribution"):
                value = getattr(spec, name)
                if name in wire:  # a contribution left out is drawn from the seed
                    if value is not None or name != "contribution":
                        encode_field(s.mechanism, name, value)
                elif name == "valuation" and "bid" in wire:
                    if value is not None and value < 0:
                        raise ValidationError("must be nonnegative")
                elif value is not None:
                    beacon = " without a beacon" if name == "contribution" else ""
                    raise ValidationError(f"a {tag.value} contract{beacon} takes no {name}")
        except (ValidationError, WireFormatError) as exc:
            raise _fail(f"agents[{i}].{name}", str(exc)) from exc

    mode = s.mechanism.priority_mode
    for j, school_spec in enumerate(s.mechanism.schools):
        path = f"mechanism.schools[{j}].priority"
        if mode is not None:
            # the lottery replaces every priority order, so a list would be ignored
            if school_spec.priority:
                raise _fail(path, f"must be empty under {mode.value}")
        elif missing := seen - set(school_spec.priority):
            raise _fail(path, f"school {school_spec.school!r} priority omits {sorted(missing)}")
        elif strangers := set(school_spec.priority) - seen:
            raise _fail(path, f"school {school_spec.school!r} priority names non-agents "
                        f"{sorted(strangers)}")

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


def _key_path(path: str, key: str) -> str:
    """``key`` in the object at ``path``, bracketed as JSON if a quoted path would misread it."""
    if key and set(key).isdisjoint("'.["):
        return f"{path}{key}"
    name = json.dumps(key).replace("'", "\\u0027")
    return f"{path.removesuffix('.')}[{name}]"


def _check_keys(doc: dict, known: tuple[str, ...], path: str) -> None:
    """Reject a repeated key or one the format does not define: its value would be dropped."""
    if _REPEATED in doc:
        raise _fail(_key_path(path, doc[_REPEATED]), "duplicate key")
    for key in doc:
        if key not in known:
            raise _fail(_key_path(path, key), f"unknown key; expected one of {', '.join(known)}")


# The noun a diagnostic gives an unknown value of each enum the format reads.
_ENUM_NOUNS = {MechanismTag: "mechanism", LotteryMode: "mode", LeakStrategyKind: "strategy"}


def _get(doc: dict, key: str, kind: type, path: str, *, required: bool = True, default=None):
    """``doc[key]`` as ``kind``, or ``default`` if missing or null and not ``required``.
    An enum of `_ENUM_NOUNS` is read from its value; ``tuple`` reads a list of strings."""
    value = doc.get(key)
    if value is None:
        if required:
            raise _fail(f"{path}{key}", "missing")
        return default
    if kind in _ENUM_NOUNS:
        value = _get(doc, key, str, path)
        try:
            return kind(value)
        except ValueError:
            raise _fail(f"{path}{key}", f"unknown {_ENUM_NOUNS[kind]} {value!r}") from None
    if kind is tuple:
        value = _get(doc, key, list, path)
        if not all(isinstance(item, str) for item in value):
            raise _fail(f"{path}{key}", "expected a list of strings")
        return tuple(value)
    if kind is int and isinstance(value, bool):
        raise _fail(f"{path}{key}", "expected an integer, got a boolean")
    if not isinstance(value, kind):
        raise _fail(f"{path}{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    # A JSON "\ud800" escape decodes to a lone surrogate, which cannot be encoded.
    if kind is str and not value.isascii() and any("\ud800" <= c <= "\udfff" for c in value):
        raise _fail(f"{path}{key}", "holds a lone surrogate, which is not text")
    return value


@cache
def _layout(record: type) -> tuple[tuple[str, ...], tuple[tuple[str, type, bool], ...]]:
    """A record's keys in field order, each with the type `_get` reads (``X``
    for ``X | None``, ``tuple`` for ``tuple[str, ...]``) and whether it has no default."""
    hints = get_type_hints(record)
    layout = []
    for f in (f for f in fields(record) if f.init):
        kind = hints[f.name]
        kind = get_args(kind)[0] if type(None) in get_args(kind) else kind
        layout.append((f.name, get_origin(kind) or kind,
                       f.default is MISSING and f.default_factory is MISSING))
    return tuple(name for name, _, _ in layout), tuple(layout)


def _read_fields(record: type, doc, path: str) -> dict:
    """A plain record's fields, read from an object keyed by exactly those
    fields; one with a default may be left out or null, and keeps its default."""
    if not isinstance(doc, dict):
        raise _fail(path[:-1], "expected an object")
    keys, layout = _layout(record)
    _check_keys(doc, keys, path)
    values = {}
    for name, kind, required in layout:
        if required or doc.get(name) is not None:
            values[name] = _get(doc, name, kind, path)
    return values


def _read(record: type, doc, path: str):
    """A plain record read from the object at ``path``, which its own checks blame."""
    return _build(record, path[:-1], _read_fields(record, doc, path))


def _build(record: type, path: str, values: dict):
    """Construct a record from fields already read; ``path`` names the rule it breaks."""
    try:
        return record(**values)
    except ValidationError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_rate(entry: tuple[int, object]) -> Fraction:
    """Rate entry ``(i, value)``: a string, or a JSON number read through its repr."""
    i, value = entry
    kind = {bool: "boolean", list: "array", dict: "object", type(None): "null"}.get(type(value))
    if kind:
        raise ValidationError(f"entry {i} is a JSON {kind}, not a rate string or number")
    text = str(value)
    if len(text) > MAX_RATE_CHARS:
        raise ValidationError(f"rate longer than {MAX_RATE_CHARS} characters")
    exponent = re.search(r"e([-+]?\d[\d_]*)", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1].replace("_", ""))) > MAX_RATE_EXPONENT:
        raise ValidationError(f"rate {text!r} has an exponent beyond {MAX_RATE_EXPONENT}")
    return Fraction(text)


def _parse_mechanism(doc: dict, path: str = "mechanism.") -> MechanismKind:
    _check_keys(doc, ("kind", "ctrs", "schools", "priority_mode", "with_beacon"), path)
    tag = _get(doc, "kind", MechanismTag, path)

    rates = _get(doc, "ctrs", list, path, required=False)
    try:
        ctrs = None if rates is None else SlotCTRs(rates=tuple(map(_parse_rate, enumerate(rates))))
    except (ValueError, ZeroDivisionError, ValidationError) as exc:
        raise _fail(f"{path}ctrs", str(exc)) from None

    schools = []
    for i, entry in enumerate(_get(doc, "schools", list, path, required=False, default=())):
        spath = f"{path}schools[{i}]."
        values = _read_fields(SchoolSpec, entry, spath)
        if values["capacity"] < 0:  # SchoolSpec's own check would blame the priority
            raise _fail(f"{spath}capacity", "must be nonnegative")
        schools.append(_build(SchoolSpec, f"{spath}priority", values))

    return _build(MechanismKind, path[:-1], dict(
        tag=tag, ctrs=ctrs, schools=tuple(schools),
        priority_mode=_get(doc, "priority_mode", LotteryMode, path, required=False),
        with_beacon=_get(doc, "with_beacon", bool, path, required=False, default=False),
    ))


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
    targets = _get(doc, "targets", tuple, path)
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
    _check_keys(doc, tuple(f.name for f in fields(Scenario)), "")
    schedule = _read(PhaseSchedule, _get(doc, "schedule", dict, ""), "schedule.")
    return Scenario(
        name=_get(doc, "name", str, ""),
        seed=_get(doc, "seed", int, ""),
        mechanism=_parse_mechanism(_get(doc, "mechanism", dict, "")),
        schedule=schedule,
        agents=tuple(_read(AgentSpec, entry, f"agents[{i}].")
                     for i, entry in enumerate(_get(doc, "agents", list, ""))),
        adversary=None if _get(doc, "adversary", dict, "", required=False) is None
        else _read(LeakStrategy, doc["adversary"], "adversary."),
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
    """One JSON object, noting its first repeated key for `_check_keys` to name:
    plain decoding keeps the last value and drops the rest without a word."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            doc.setdefault(_REPEATED, key)
        doc[key] = value
    return doc


def _from_text(text: str, source: str) -> Scenario:
    """Decode one scenario document; every error is prefixed with ``source``."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
