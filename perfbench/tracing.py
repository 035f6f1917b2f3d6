"""Outside-in layer tracing for one ``python -m repro`` invocation.

The library has no telemetry of its own, so the benchmark wraps the public
calls of each layer where the calling module looks them up, records one span
per call (name, start, end, parent) in memory, and writes them out when the
pass ends.  Counters ride beside the spans: tasks, steps, dice and bytes are
exact, so they repeat from run to run.

A span's layer is the part of its name before the first dot.  A layer's self
time is the time of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in the order the split is printed.
LAYERS = ("cli", "analysis", "core", "fleet", "sim", "variation", "store")

#: The span wrapping ``repro.store.cli.main`` — the whole pass.
ROOT_SPAN = "cli.main"

Counter = Callable[[Tuple[Any, ...], Any], Dict[str, int]]


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Optional[Counter] = None
    ) -> Callable[..., Any]:
        """*fn* recording one span per call and adding *count*'s increments."""
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                for key, value in count(args, result).items():
                    counters[key] += value
            return result

        return traced

    def count_calls(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* bumping counter *key* on every call, without a span."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON."""
        document = {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(document))


def _result_bytes(args: Tuple[Any, ...], _: Any) -> Dict[str, int]:
    store, manifest = args[0], args[1]
    path = store.run_dir(manifest.run_id) / "result.json"
    return {"puts": 1, "result_bytes": path.stat().st_size}


def _run_steps(_: Tuple[Any, ...], results: Any) -> Dict[str, int]:
    return {"run_steps": sum(len(result.times_s) for result in results)}


def _die_steps(_: Tuple[Any, ...], traces: Any) -> Dict[str, int]:
    steps = getattr(traces, "steps", None)
    return {} if steps is None else {"die_steps": steps * traces.count}


def _dice(_: Tuple[Any, ...], population: Any) -> Dict[str, int]:
    return {"dice_sampled": population.count}


def install(tracer: Tracer) -> Callable[..., Any]:
    """Wrap each layer's public calls; returns the traced CLI ``main``.

    Functions are patched in the module that looks them up at call time
    (``run_id_for_task`` in ``repro.store.cache``, ``encode_value`` in
    ``repro.store.artifacts`` ...); methods are patched on their class.
    """
    from repro.analysis import fleet as analysis_fleet
    from repro.analysis import study as analysis_study
    from repro.fleet.profiles import ScenarioGenerator
    from repro.fleet.qos import QosReport
    from repro.sim.dynamics import BatchedDynamicsSimulator
    from repro.store import artifacts, cache, cli
    from repro.store.index import RunIndex
    from repro.variation import population, sampler, streaming

    wrap = tracer.wrap

    def patch(owner: Any, attr: str, name: str, count: Optional[Counter] = None):
        setattr(owner, attr, wrap(name, getattr(owner, attr), count))

    patch(cache, "run_id_for_task", "store.run_id", lambda a, r: {"run_id_calls": 1})
    patch(artifacts, "encode_value", "store.encode")
    patch(artifacts, "decode_value", "store.decode")
    patch(artifacts.RunStore, "put", "store.put", _result_bytes)
    patch(artifacts.RunStore, "load_value", "store.load", lambda a, r: {"loads": 1})
    artifacts.RunStore.__contains__ = tracer.count_calls(
        "lookups", artifacts.RunStore.__contains__
    )
    patch(RunIndex, "rebuild", "store.index")

    patch(BatchedDynamicsSimulator, "run_batch", "sim.run_batch", _run_steps)
    patch(BatchedDynamicsSimulator, "run_population", "sim.run_population", _die_steps)

    from_result = QosReport.__dict__["from_result"].__func__
    QosReport.from_result = classmethod(wrap("fleet.qos", from_result))
    patch(analysis_fleet, "aggregate_reports", "fleet.aggregate")
    patch(ScenarioGenerator, "ensemble", "fleet.ensemble")

    patch(sampler.DiePopulationSampler, "sample_range", "variation.sample", _dice)
    patch(streaming, "condense_population_traces", "variation.condense")

    patch(analysis_study.Study, "run", "analysis.study")
    patch(analysis_fleet.FleetStudy, "run", "analysis.fleet_study")
    patch(population.PopulationStudy, "run", "analysis.population_study")

    build_engine = wrap("core.build_engine", analysis_study.build_engine)
    for module in (analysis_study, population, streaming):
        module.build_engine = build_engine

    return wrap(ROOT_SPAN, cli.main)


# -- aggregation -----------------------------------------------------------------------


def _span_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    times: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        entry = times[span["name"]]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child_time[index]
    return times


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(document: Dict[str, Any], tasks: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    *tasks* is the pass's grid size (executed + served).
    """
    times = _span_times(document["spans"])
    counters = defaultdict(int, document["counters"])

    def calls(name: str) -> float:
        return times[name]["calls"] if name in times else 0

    def total(name: str) -> float:
        return times[name]["total"] if name in times else 0.0

    def own(name: str) -> float:
        return times[name]["self"] if name in times else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in times.items():
        layer_self[name.split(".", 1)[0]] += entry["self"]
    wall = total(ROOT_SPAN)

    metrics: Dict[str, Tuple[float, str]] = {
        "store.put_ms": (1e3 * _ratio(own("store.put"), counters["puts"]), "ms"),
        "store.encode_ms": (1e3 * _ratio(total("store.encode"), calls("store.encode")), "ms"),
        "store.load_ms": (1e3 * _ratio(own("store.load"), counters["loads"]), "ms"),
        "store.decode_ms": (1e3 * _ratio(total("store.decode"), calls("store.decode")), "ms"),
        "store.run_id_calls": (_ratio(counters["run_id_calls"], tasks), "count"),
        "store.run_id_us": (1e6 * _ratio(total("store.run_id"), calls("store.run_id")), "us"),
        "store.result_kb": (_ratio(counters["result_bytes"], counters["puts"]) / 1024, "kB"),
        "store.index_ms": (1e3 * total("store.index"), "ms"),
        "store.hit_ratio": (_ratio(counters["loads"], counters["lookups"]), "ratio"),
        "sim.run_batch_steps_per_s": (
            _ratio(counters["run_steps"], total("sim.run_batch")), "1/s"
        ),
        "sim.run_population_die_steps_per_s": (
            _ratio(counters["die_steps"], total("sim.run_population")), "1/s"
        ),
        "fleet.qos_ms": (1e3 * _ratio(total("fleet.qos"), calls("fleet.qos")), "ms"),
        "fleet.ensemble_ms": (
            1e3 * _ratio(total("fleet.ensemble"), calls("fleet.ensemble")), "ms"
        ),
        "fleet.aggregate_ms": (
            1e3 * _ratio(total("fleet.aggregate"), calls("fleet.aggregate")), "ms"
        ),
        "variation.sample_dice_per_s": (
            _ratio(counters["dice_sampled"], total("variation.sample")), "1/s"
        ),
        "variation.condense_ms": (
            1e3 * _ratio(total("variation.condense"), calls("variation.condense")), "ms"
        ),
        "analysis.study_self_ms": (1e3 * own("analysis.study"), "ms"),
        "core.build_engine_ms": (1e3 * total("core.build_engine"), "ms"),
        "cli.self_ms": (1e3 * own(ROOT_SPAN), "ms"),
        "traced_s": (wall, "s"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_ms"] = (1e3 * layer_self[layer], "ms")
    for key in (
        "run_id_calls", "run_steps", "die_steps", "dice_sampled",
        "result_bytes", "lookups", "loads",
    ):
        metrics[f"count.{key}"] = (float(counters[key]), "count")
    return metrics
