"""Before/after benchmark for the concurrent scatter-gather engine.

Run directly (``PYTHONPATH=src python benchmarks/parallel_scatter_bench.py``)
to compare the sequential scatter baseline (``executor_mode="serial"``, the
pre-concurrency router) against the parallel worker-pool scatter
(``executor_mode="thread"``) on a Table 4.5-style broadcast query mix over a
3-shard cluster.

Two configurations are measured:

* **realtime network emulation** — ``NetworkModel(realtime=True)`` makes
  every routed message really wait for its simulated duration, emulating the
  paper's machine boundaries in wall-clock time.  This is where concurrency
  pays: the serial router pays the *sum* of per-shard network waits, the
  parallel router overlaps them and approaches the *slowest single shard*
  (the acceptance target: parallel wall ≤ 1.4x slowest shard).
* **in-process only** — no realtime waits, pure CPU.  Reported for honesty:
  pure-Python scans serialize on the GIL, so thread mode shows no CPU
  speedup there.

The observed numbers are recorded in
``benchmarks/results/parallel_scatter_before_after.txt`` and, machine
readable, in ``benchmarks/results/BENCH_parallel_scatter.json``.  Set
``REPRO_SCATTER_BENCH_SCALE=tiny`` for a CI-sized smoke run.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from repro.sharding import NetworkModel, ShardedCluster

TINY = os.environ.get("REPRO_SCATTER_BENCH_SCALE", "full").lower() == "tiny"
DOCS = 1_500 if TINY else 30_000
ROUNDS = 2 if TINY else 5
LATENCY_SECONDS = 0.002 if TINY else 0.005
SHARDS = 3

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def make_documents(count: int) -> list[dict]:
    random.seed(20151109)
    return [
        {
            "item_sk": i,
            "store": random.randrange(12),
            "quantity": random.randrange(1, 100),
            "price": round(random.uniform(1.0, 500.0), 2),
            "category": f"cat{i % 25}",
        }
        for i in range(count)
    ]


def build_cluster(mode: str, model: NetworkModel | None) -> ShardedCluster:
    cluster = ShardedCluster(
        shard_count=SHARDS, executor_mode=mode, network_model=model
    )
    cluster.enable_sharding("bench")
    cluster.shard_collection("bench", "sales", {"item_sk": "hashed"})
    cluster.get_database("bench")["sales"].insert_many(make_documents(DOCS))
    cluster.balance()
    cluster.reset_metrics()
    return cluster


def broadcast_mix(cluster: ShardedCluster) -> list[float]:
    """Run the broadcast query mix; returns the slowest-branch time per op.

    Every operation here lacks the shard key, so each one fans out to all
    three shards (the expensive Section 4.3 case).  After each operation the
    router's last scatter report gives the wall time of its slowest shard
    branch — the floor a perfectly parallel router could reach.
    """
    sales = cluster.get_database("bench")["sales"]
    slowest: list[float] = []

    def record() -> None:
        report = cluster.router.last_scatter_report or {}
        branches = report.get("shards", {})
        slowest.append(
            max((t["totalSeconds"] for t in branches.values()), default=0.0)
        )

    for round_no in range(ROUNDS):
        sales.find({"store": round_no % 12}).to_list()
        record()
        sales.find(
            {"quantity": {"$gte": 50}},
            {"_id": 0, "item_sk": 1, "price": 1},
            sort=[("price", -1)],
            limit=100,
        ).to_list()
        record()
        sales.count_documents({"category": f"cat{round_no % 25}"})
        record()
        sales.distinct("category", {"store": {"$lte": 5}})
        record()
        sales.aggregate(
            [
                {"$match": {"quantity": {"$gte": 20}}},
                {"$group": {"_id": "$store", "revenue": {"$sum": "$price"}}},
                {"$sort": {"_id": 1}},
            ]
        )
        record()
    return slowest


def run_configuration(mode: str, model: NetworkModel | None) -> dict:
    cluster = build_cluster(mode, model)
    try:
        started = time.perf_counter()
        slowest_branches = broadcast_mix(cluster)
        wall = time.perf_counter() - started
        metrics = cluster.router.metrics
        return {
            "mode": mode,
            "wall_seconds": wall,
            "slowest_shard_seconds": sum(slowest_branches),
            "sum_of_shard_work_seconds": metrics.shard_seconds_total,
            "observed_makespan_seconds": metrics.parallel_shard_seconds,
            "operations": metrics.operations,
            "documents_shipped": metrics.documents_shipped,
        }
    finally:
        cluster.close()


def compare(label: str, model: NetworkModel | None) -> dict:
    serial = run_configuration("serial", model)
    thread = run_configuration("thread", model)
    speedup = serial["wall_seconds"] / thread["wall_seconds"]
    # How close the parallel wall clock gets to the slowest-single-shard
    # floor of the same run (1.0 = perfect overlap; acceptance: <= 1.4).
    floor_ratio = thread["wall_seconds"] / max(thread["slowest_shard_seconds"], 1e-9)
    print(f"\n[{label}]")
    for row in (serial, thread):
        print(
            f"  {row['mode']:>6}: wall={row['wall_seconds']:7.3f} s   "
            f"slowest-shard floor={row['slowest_shard_seconds']:7.3f} s   "
            f"sum-of-shard-work={row['sum_of_shard_work_seconds']:7.3f} s   "
            f"docs_shipped={row['documents_shipped']:,}"
        )
    print(
        f"  parallel speedup (serial/thread): x{speedup:.2f}   "
        f"thread wall / slowest shard: x{floor_ratio:.2f}"
    )
    return {
        "label": label,
        "serial": serial,
        "thread": thread,
        "speedup_serial_over_thread": speedup,
        "thread_wall_over_slowest_shard": floor_ratio,
    }


def main() -> None:
    print(
        f"parallel scatter bench: docs={DOCS:,} shards={SHARDS} rounds={ROUNDS} "
        f"broadcast ops/round=5 latency={LATENCY_SECONDS * 1e3:.1f} ms "
        f"cpus={os.cpu_count()}"
    )
    realtime = compare(
        "realtime network emulation (machine-boundary waits are real)",
        NetworkModel(latency_seconds=LATENCY_SECONDS, realtime=True),
    )
    cpu_only = compare("in-process only (no realtime waits; GIL-bound on 1 core)", None)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": "parallel_scatter",
        "scale": "tiny" if TINY else "full",
        "config": {
            "documents": DOCS,
            "shards": SHARDS,
            "rounds": ROUNDS,
            "broadcast_ops_per_round": 5,
            "latency_seconds": LATENCY_SECONDS,
            "cpus": os.cpu_count(),
        },
        "configurations": [realtime, cpu_only],
        "acceptance": {
            "criterion": "thread wall <= 1.4x slowest single shard (realtime mix)",
            "thread_wall_over_slowest_shard": realtime[
                "thread_wall_over_slowest_shard"
            ],
            "passed": realtime["thread_wall_over_slowest_shard"] <= 1.4,
        },
    }
    out_path = RESULTS_DIR / "BENCH_parallel_scatter.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path.relative_to(RESULTS_DIR.parent.parent)}")
    if not payload["acceptance"]["passed"]:
        raise SystemExit("acceptance criterion failed: parallel wall > 1.4x slowest shard")


if __name__ == "__main__":
    main()
