"""Opt-in per-layer tracing, installed from outside the package.

`install` replaces every public function of the package's layer modules at
every binding a caller can reach: the defining module, each module that
imported the name with ``from .x import y``, and the package namespace. It
also wraps the public methods of `ChainState` and `Scenario` as spans, and
`HashStream.read` and `HashStream.randbelow` as counters of bytes and
draws. The program's source is never edited.

A span records its name, start, end and parent. Self time is the span's
duration minus the duration of its direct children, so the self times of
one op sum to its root ``cli.main`` span. Per-op totals accumulate in
memory; full span lists are kept only for ops traced with ``record=True``
(one op per run), because a beacon op alone opens ~20k spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
from collections import Counter
from time import perf_counter

LAYERS = (
    "commitments", "chain", "contract", "settlement", "auctions",
    "beacon", "school_choice", "adversaries", "scenario", "cli",
)

SPANNED_CLASSES = {"chain": ("ChainState",), "scenario": ("Scenario",)}
# The per-agent path a decentralized run adds over a centralized one.
COMMIT_PATH = ("commitments", "chain", "contract", "settlement")


class OpTrace:
    """Aggregates of one traced op: per span name [self s, total s, calls]."""

    def __init__(self, record: bool):
        self.stats: dict[str, list] = {}
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple[int, int, str, float, float]] | None = [] if record else None

    def self_s(self, name: str) -> float:
        return self.stats[name][0] if name in self.stats else 0.0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][2] if name in self.stats else 0


class Tracer:
    def __init__(self):
        self.op = OpTrace(record=False)
        self._stack: list[list] = []  # frames: [child duration, span id]
        self._ids = itertools.count(1)
        self._accumulators: dict[str, list] = {}
        self._in_randbelow = 0

    def begin_op(self, record: bool = False) -> None:
        for acc in self._accumulators.values():
            acc[:] = (0.0, 0.0, 0)
        self.op = OpTrace(record)

    def end_op(self) -> OpTrace:
        op, self.op = self.op, OpTrace(record=False)
        op.stats = {name: list(acc) for name, acc in self._accumulators.items() if acc[2]}
        return op

    def _span(self, name: str, fn, after=None):
        stack, next_id = self._stack, self._ids.__next__
        acc = self._accumulators.setdefault(name, [0.0, 0.0, 0])

        def traced(*args, **kwargs):
            frame = [0.0, next_id()]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                acc[0] += duration - frame[0]
                acc[1] += duration
                acc[2] += 1
                if stack:
                    stack[-1][0] += duration
                spans = self.op.spans
                if spans is not None:
                    spans.append((frame[1], parent, name, t0, t1))
            if after is not None:
                after(self.op.counters, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_stream(self, stream_cls) -> None:
        """Count HashStream bytes and draws. These methods run per drawn
        integer, so they count instead of timing; their time stays in the
        calling span's self time."""
        read, randbelow = stream_cls.read, stream_cls.randbelow

        def counted_read(stream, n):
            counters = self.op.counters
            counters["beacon.stream_bytes"] += n
            if self._in_randbelow:
                counters["beacon.randbelow.draws"] += 1
            return read(stream, n)

        def counted_randbelow(stream, bound):
            if bound > 1:
                self.op.counters["beacon.randbelow.accepted"] += 1
            self._in_randbelow += 1
            try:
                return randbelow(stream, bound)
            finally:
                self._in_randbelow -= 1

        counted_read.__wrapped__, counted_randbelow.__wrapped__ = read, randbelow
        stream_cls.read, stream_cls.randbelow = counted_read, counted_randbelow

    def install(self, package: str = "trustless_mech") -> None:
        """Wrap every public layer function at every binding callers use."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if obj is getattr(modules["adversaries"], "execute_run", None):
                    replacements[id(obj)] = self._execute_run(obj)
                else:
                    replacements[id(obj)] = self._span(f"{layer}.{attr}", obj, AFTER.get(f"{layer}.{attr}"))
            for cls_name in SPANNED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    setattr(cls, attr, self._span(name, obj, AFTER.get(name)))
        self._count_stream(modules["beacon"].HashStream)
        for module in (importlib.import_module(package), *modules.values()):
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _execute_run(self, fn):
        """One span per mode, so centralized and decentralized time split."""
        by_mode: dict[str, object] = {}

        def execute_run(scenario, mode, strategy=None):
            traced = by_mode.get(mode.value)
            if traced is None:
                traced = by_mode[mode.value] = self._span(f"adversaries.execute_run.{mode.value}", fn)
            return traced(scenario, mode, strategy)

        execute_run.__wrapped__ = fn
        return execute_run


def _after_advance_block(counters, _result, args):
    counters["chain.mempool_carried"] += len(args[0].mempool)


def _after_drive(counters, result, _args):
    state, settlement = result
    counters["contract.rejections"] += len(state.rejections)
    if settlement is not None:
        counters["contract.excluded"] += len(settlement.excluded)


def _after_settle(counters, result, _args):
    counters["settlement.malformed"] += len(result.malformed)


def _after_histogram(counters, result, args):
    if sum(result) != args[0]:
        counters["beacon.histogram_total_mismatch"] += 1


AFTER = {
    "chain.ChainState.advance_block": _after_advance_block,
    "contract.drive": _after_drive,
    "settlement.settle": _after_settle,
    "beacon.uniformity_histogram": _after_histogram,
}


# Per-layer metric -> (unit, how it is read from the op traces, span or
# counter names). "calls" counts spans, "self_ms" sums self time, "total_ms"
# sums span duration including children, "count" sums a counter. Every value
# is a mean per traced op.
PER_LAYER = {
    "commitments.make_commitment.calls": ("count", "calls", ["commitments.make_commitment"]),
    "commitments.make_commitment.self_ms": ("ms", "self_ms", ["commitments.make_commitment", "commitments.commitment_preimage", "commitments.encode_identifier"]),
    "commitments.verify_opening.calls": ("count", "calls", ["commitments.verify_opening"]),
    "commitments.verify_opening.self_ms": ("ms", "self_ms", ["commitments.verify_opening"]),
    "chain.submit.calls": ("count", "calls", ["chain.ChainState.submit"]),
    "chain.submit.self_ms": ("ms", "self_ms", ["chain.ChainState.submit", "contract.commit_message", "contract.reveal_message"]),
    "chain.advance_block.calls": ("count", "calls", ["chain.ChainState.advance_block"]),
    "chain.advance_block.self_ms": ("ms", "self_ms", ["chain.ChainState.advance_block", "chain.ChainState.advance_to"]),
    "chain.mempool_carried": ("count", "count", ["chain.mempool_carried"]),
    "chain.read.self_ms": ("ms", "self_ms", ["chain.ChainState.messages_through", "chain.ChainState.included_with_heights"]),
    "contract.drive.calls": ("count", "calls", ["contract.drive"]),
    "contract.drive.self_ms": ("ms", "self_ms", ["contract.drive", "contract.parse_reveal_payload"]),
    "contract.rejections": ("count", "count", ["contract.rejections"]),
    "contract.excluded": ("count", "count", ["contract.excluded"]),
    "settlement.encode.self_ms": ("ms", "self_ms", ["settlement.encode_agent_payload", "auctions.encode_bid", "beacon.encode_contribution", "school_choice.encode_ranking"]),
    "settlement.settle.self_ms": ("ms", "self_ms", ["settlement.settle", "settlement.decode_agent_payload", "auctions.decode_bid", "beacon.decode_contribution", "school_choice.decode_ranking"]),
    "settlement.settle_inputs.self_ms": ("ms", "self_ms", ["settlement.settle_inputs", "settlement.lottery_schools"]),
    "settlement.malformed": ("count", "count", ["settlement.malformed"]),
    "auctions.allocate.calls": ("count", "calls", ["auctions.first_price", "auctions.second_price", "auctions.gsp"]),
    "auctions.allocate.self_ms": ("ms", "self_ms", ["auctions.first_price", "auctions.second_price", "auctions.gsp", "auctions.rank_bids"]),
    "beacon.aggregate.calls": ("count", "calls", ["beacon.aggregate"]),
    "beacon.aggregate.self_ms": ("ms", "self_ms", ["beacon.aggregate"]),
    "beacon.derive_permutation.calls": ("count", "calls", ["beacon.derive_permutation"]),
    "beacon.derive_permutation.self_ms": ("ms", "self_ms", ["beacon.derive_permutation"]),
    "beacon.stream_bytes": ("bytes", "count", ["beacon.stream_bytes"]),
    "beacon.uniformity_histogram.self_ms": ("ms", "self_ms", ["beacon.uniformity_histogram"]),
    "school_choice.boston.calls": ("count", "calls", ["school_choice.boston"]),
    "school_choice.boston.self_ms": ("ms", "self_ms", ["school_choice.boston"]),
    "school_choice.lottery_priorities.self_ms": ("ms", "self_ms", ["school_choice.lottery_priorities"]),
    "adversaries.best_response_ranking.calls": ("count", "calls", ["adversaries.best_response_ranking"]),
    "adversaries.best_response_ranking.self_ms": ("ms", "self_ms", ["adversaries.best_response_ranking", "school_choice.rank_utility"]),
    "adversaries.plan_deviation.self_ms": ("ms", "self_ms", ["adversaries.plan_deviation"]),
    "adversaries.execute_run.centralized_ms": ("ms", "total_ms", ["adversaries.execute_run.centralized"]),
    "adversaries.execute_run.decentralized_ms": ("ms", "total_ms", ["adversaries.execute_run.decentralized"]),
    "adversaries.execute_run.self_ms": ("ms", "self_ms", ["adversaries.execute_run.centralized", "adversaries.execute_run.decentralized"]),
    "adversaries.agent_utilities.self_ms": ("ms", "self_ms", ["adversaries.agent_utilities"]),
    "adversaries.exact_str.calls": ("count", "calls", ["adversaries.exact_str"]),
    "adversaries.exact_str.self_ms": ("ms", "self_ms", ["adversaries.exact_str"]),
    "scenario.load_scenario.self_ms": ("ms", "self_ms", ["scenario.load_scenario", "scenario.scenario_from_dict"]),
    "scenario.resolved_inputs.self_ms": ("ms", "self_ms", ["scenario.Scenario.resolved_inputs"]),
}


def per_layer_metrics(ops: list[OpTrace]) -> dict[str, tuple[float, str]]:
    """Mean-per-op value and unit of every per-layer metric, plus each layer's self time."""
    n = len(ops)

    def read(kind: str, names: list[str]) -> float:
        if kind == "calls":
            return sum(op.calls(k) for op in ops for k in names) / n
        if kind == "count":
            return sum(op.counters[k] for op in ops for k in names) / n
        seconds = OpTrace.self_s if kind == "self_ms" else OpTrace.total_s
        return sum(seconds(op, k) for op in ops for k in names) * 1000 / n

    out = {name: (read(kind, names), unit) for name, (unit, kind, names) in PER_LAYER.items()}
    draws = sum(op.counters["beacon.randbelow.draws"] for op in ops)
    accepted = sum(op.counters["beacon.randbelow.accepted"] for op in ops)
    out["beacon.randbelow.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    for layer in LAYERS:
        prefix = f"{layer}."
        total = sum(st[0] for op in ops for k, st in op.stats.items() if k.startswith(prefix))
        out[layer_metric(layer)] = (total * 1000 / n, "ms")
    out["commit_path.self_ms"] = (sum(out[layer_metric(layer)][0] for layer in COMMIT_PATH), "ms")
    return out


def layer_metric(layer: str) -> str:
    """Name of a layer's whole self time (the CLI's is ``cli.self_ms``)."""
    return "cli.self_ms" if layer == "cli" else f"layer.{layer}.self_ms"
