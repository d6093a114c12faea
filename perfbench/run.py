"""The repository's benchmark: one command, five workloads, every result checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpcds_standalone --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's own
functions.  ``--trace 1`` first runs an untraced half window, then wraps the
layers' entry points (see ``tracing.py``) and runs a traced half window; it
reports the per-layer metrics, each per completed operation, plus the tracing
overhead (traced minus untraced end-to-end metrics).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(fingerprint, per-kind latencies, gate details) and, for traced runs, the
spans go to ``perfbench/out/``.  See ``perfbench/README.md`` for the
workloads, metrics and the layer-to-end-to-end map, and for why
``served_mixed`` runs here but is not listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import sys
from typing import Any

import measure
import tracing

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Per-layer metrics: name -> (unit, source).  Sources: ("span", name,
#: "calls" | "s" | "self_s"), ("count", name), ("layer", name) for a layer's
#: self time, or ("derived", name) filled in by :func:`per_layer_metrics`.
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {}


def _span_metrics(span: str, *parts: str) -> None:
    units = {"calls": "calls/op", "s": "s/op", "self_s": "s/op"}
    for part in parts:
        PER_LAYER[f"{span}.{part}"] = (units[part], ("span", span, part))


_span_metrics("indexes.bulk_insert", "calls", "s")
PER_LAYER["indexes.bulk_insert.entries_copied"] = (
    "entries/op", ("count", "indexes.bulk_insert.entries_copied"))
_span_metrics("planner.plan_query", "calls", "s")
_span_metrics("planner.plan_find", "calls", "s")
_span_metrics("indexes.point_lookup", "calls", "s")
_span_metrics("sharding.executor.launch", "calls", "s")
PER_LAYER["sharding.executor.gather.wait_s"] = ("s/op", ("span", "sharding.executor.gather", "s"))
for _name, _unit in (("router.operations", "count/op"), ("router.targeted_operations", "count/op"),
                     ("router.broadcast_operations", "count/op"),
                     ("router.documents_shipped", "docs/op"), ("router.bytes_shipped", "B/op"),
                     ("network.messages", "count/op"), ("network.bytes_transferred", "B/op"),
                     ("network.modelled_s", "s/op"), ("core.semi_join.docs", "docs/op")):
    PER_LAYER[_name] = (_unit, ("count", _name))
_span_metrics("core.embed_documents", "calls", "s")
_span_metrics("core.translate", "self_s")
_span_metrics("aggregation.run_pipeline", "calls", "s")
for _operation in ("find", "aggregate", "insert_many", "update"):
    _span_metrics(f"collection.{_operation}", "calls", "s")
for _direction in ("encode", "decode"):
    _span_metrics(f"bson.{_direction}", "calls", "s")
    PER_LAYER[f"bson.{_direction}.bytes"] = ("B/op", ("count", f"bson.{_direction}.bytes"))
_span_metrics("protocol.encode_frame", "calls", "s")
_span_metrics("protocol.recv_frame", "calls", "s")
for _opcode in ("find", "get_more", "insert_many", "update_one"):
    PER_LAYER[f"server.{_opcode}.s"] = ("s/op", ("count", f"server.{_opcode}.s"))
_span_metrics("server.dispatch", "calls", "s")
_span_metrics("client.read", "s")
_span_metrics("client.write", "s")
_span_metrics("wal.append", "calls", "s")
_span_metrics("wal.flush", "calls", "s")
PER_LAYER["wal.bytes"] = ("B/op", ("count", "wal.bytes"))
PER_LAYER["wal.bytes_per_user_byte"] = ("ratio", ("derived", "wal.bytes_per_user_byte"))
LAYERS = ("core", "collection", "planner", "indexes", "aggregation", "bson", "wal",
          "router", "sharding", "protocol", "server", "client")
for _layer in LAYERS:
    PER_LAYER[f"self.{_layer}.s"] = ("s/op", ("layer", _layer))
PER_LAYER["trace.unattributed_s"] = ("s/op", ("layer", "op"))
PER_LAYER["trace.ops"] = ("count", ("derived", "trace.ops"))
PER_LAYER["trace.spans_dropped"] = ("count", ("derived", "trace.spans_dropped"))
PER_LAYER["trace.overhead.ops_per_s"] = ("ops/s", ("derived", "trace.overhead.ops_per_s"))
#: One latency metric per slot of a workload's kinds (``slots``): Q7, Q21,
#: Q46 and Q50 on the TPC-DS workloads; point find, top-10 and paged reads,
#: insert and update on the served workloads.
LATENCY_METRICS = ("kind1_mean_ms", "kind2_mean_ms", "kind3_mean_ms", "kind4_mean_ms")
for _name in LATENCY_METRICS:
    PER_LAYER[f"trace.overhead.{_name}"] = ("ms", ("derived", f"trace.overhead.{_name}"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "ops/s",
    **dict.fromkeys(LATENCY_METRICS, "ms"),
}


def workload_class(name: str) -> Any:
    import served_workload
    import tpcds_workloads

    classes = {
        "tpcds_standalone": tpcds_workloads.TpcdsStandalone,
        "tpcds_denormalized": tpcds_workloads.TpcdsDenormalized,
        "tpcds_sharded": tpcds_workloads.TpcdsSharded,
        "served_mixed": served_workload.ServedMixed,
        "served_sharded": served_workload.ServedSharded,
    }
    if name not in classes:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(classes)}")
    return classes[name]


def latency_summary(window: Any, groups: dict[str, tuple[str, ...]]) -> dict[str, Any]:
    """Per-kind latency statistics and pooled percentiles per group of kinds, in ms."""
    summary: dict[str, Any] = {"kinds": {}}
    for kind, samples in window.samples.items():
        if samples:
            summary["kinds"][kind] = {
                "n": len(samples),
                "p50_ms": statistics.median(samples) * 1e3,
                "mean_ms": statistics.fmean(samples) * 1e3,
            }
    for group, kinds in groups.items():
        pooled = [s for kind in kinds for s in window.samples[kind]]
        if pooled:
            summary[f"{group}_n"] = len(pooled)
            summary[f"{group}_p50_ms"] = measure.percentile(pooled, 0.5) * 1e3
            summary[f"{group}_p99_ms"] = measure.percentile(pooled, 0.99) * 1e3
    return summary


def end_to_end_metrics(window: Any, setup_s: float, slots: tuple[tuple[str, ...], ...],
                       scaled: bool = True) -> dict[str, float]:
    """The gated metrics; with *scaled*, times are at the reference host speed.

    ``setup_s`` is passed in already scaled or not, to match.
    """
    if not all(window.samples.values()):
        raise SystemExit("a kind of operation completed no successful sample")
    speed = window.speed if scaled else 1.0
    # Means, not medians: on the served workloads a read's latency is bimodal
    # (alone, or queued behind the other client's insert for a switch
    # interval), and a median jumps between the modes where a mean moves
    # with their mix.
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": measure.peak_rss_mb(),
        "ops_per_s": window.answered / window.elapsed_s / speed,
    }
    for name, kinds in zip(LATENCY_METRICS, slots, strict=True):
        metrics[name] = statistics.fmean(
            s for kind in kinds for s in window.samples[kind]) * 1e3 * speed
    return metrics


def per_layer_metrics(tracer: Any, traced: Any, untraced: Any, setup_s: float,
                      slots: tuple[tuple[str, ...], ...]) -> dict[str, float]:
    ops = max(1, traced.attempted)
    layers = tracer.layer_self_seconds()
    before = end_to_end_metrics(untraced, setup_s, slots)
    after = end_to_end_metrics(traced, setup_s, slots)
    user_bytes = traced.counts.get("user_write_bytes", 0)
    derived = {
        "wal.bytes_per_user_byte": tracer.counters["wal.bytes"] / user_bytes if user_bytes else 0.0,
        "trace.ops": traced.attempted,
        "trace.spans_dropped": tracer.dropped,
        "trace.overhead.ops_per_s": after["ops_per_s"] - before["ops_per_s"],
        **{f"trace.overhead.{name}": after[name] - before[name] for name in LATENCY_METRICS},
    }
    metrics: dict[str, float] = {}
    for name, (_unit, source) in PER_LAYER.items():
        kind = source[0]
        if kind == "span":
            calls, total_s, self_s = tracer.totals.get(source[1], (0, 0.0, 0.0))
            value = {"calls": calls, "s": total_s, "self_s": self_s}[source[2]] / ops
        elif kind == "count":
            value = (traced.counts.get(source[1], 0.0)
                     + tracer.counters.get(source[1], 0.0)) / ops
        elif kind == "layer":
            value = layers.get(source[1], 0.0) / ops
        else:
            value = derived[source[1]]
        metrics[name] = value
    return metrics


def measured_window(workload: Any, state: Any, seed: int, seconds: float,
                    tracer: Any) -> Any:
    with measure.SpeedProbe() as probe:
        window = workload.window(state, seed, seconds, tracer)
    window.speed = probe.speed
    return window


def run(args: argparse.Namespace) -> dict[str, Any]:
    workload = workload_class(args.workload)(ROOT)
    with measure.SpeedProbe() as setup_probe:
        state, raw_setup_s, setup_runs = workload.setup(args.seed)
    setup_s = raw_setup_s * setup_probe.speed
    gc.collect()
    windows = {}
    tracer = None
    if not args.trace:
        windows["untraced"] = measured_window(workload, state, args.seed, args.seconds, None)
    else:
        half = args.seconds / 2.0
        windows["untraced"] = measured_window(workload, state, args.seed, half, None)
        tracer = tracing.install(tracing.Tracer())
        try:
            windows["traced"] = measured_window(workload, state, args.seed, half, tracer)
        finally:
            tracer.uninstall()
    repeat_errors = workload.check_repeatable(state, args.seed)
    gate_failed, gate_messages, gate_details = workload.finish(state)

    attempted = sum(w.attempted for w in windows.values())
    failed = sum(w.failed for w in windows.values()) + gate_failed + len(repeat_errors)
    errors = [e for w in windows.values() for e in w.errors] + gate_messages + repeat_errors
    if tracer is None:
        values = end_to_end_metrics(windows["untraced"], setup_s, workload.slots)
        units = END_TO_END_UNITS
    else:
        values = per_layer_metrics(tracer, windows["traced"], windows["untraced"], setup_s,
                                   workload.slots)
        units = {name: unit for name, (unit, _source) in PER_LAYER.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": measure.fingerprint(
            ROOT, generator_seed=workload.generator_seed, flush_policy=workload.flush_policy,
            clients=workload.clients),
        "setup_runs_s": setup_runs,
        "speed": {"setup": setup_probe.summary(),
                  **{name: w.speed for name, w in windows.items()}},
        "unscaled_metrics": end_to_end_metrics(
            windows["untraced"], raw_setup_s, workload.slots, scaled=False),
        "latency": {name: latency_summary(w, workload.latency_groups)
                    for name, w in windows.items()},
        # Every successful operation's latency in ms, per window and kind, in
        # the order each client completed them.
        "samples_ms": {name: {kind: [round(s * 1e3, 4) for s in samples]
                              for kind, samples in w.samples.items()}
                       for name, w in windows.items()},
        "error_rate": failed / max(1, attempted),
        "errors": errors[:20],
        "gate": gate_details,
        "metrics": values,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        # One span file per workload, replaced by each traced run.
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
    for line in errors[:20]:
        print(f"error: {line}")
    print(json.dumps({"fingerprint": record["fingerprint"], "latency": record["latency"],
                      "error_rate": record["error_rate"]}, default=str))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"the program's source is not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Every workload is bound by the interpreter lock, so a second core adds
    # no parallelism, only wake-up latency when the lock changes threads
    # across cores; that latency moved sharded query medians by up to 2x
    # between processes.  One core keeps runs comparable.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
