"""Served workloads: two closed-loop socket clients against a durable store.

``served_sharded`` serves a 3-shard ``ShardedCluster`` (one write-ahead log
per shard, ``fsync="batch"``, serial scatter), hash-sharded on ``order_id``;
``served_mixed``
serves a stand-alone ``DocumentStoreClient`` with a write-ahead log
(``fsync="batch"``).  Both hold ``ORDERS`` order documents, indexed on
``order_id`` and ``store``, behind a ``DocumentStoreServer`` in this process.
Each of ``CLIENTS`` threads owns one ``RemoteClient`` connection and draws
operations from ``MIX``; every reply is checked as it arrives.

Initial orders have ``order_id = 10 * i``.  Inserted orders take random keys
between them (offset by the client index), so every 5-document insert lands
in the middle of both indexes instead of on the append fast path.  Keys are
never reused.  Once a client holds more than ``LIVE_BATCHES`` acknowledged
insert batches, each further insert is followed by a ``delete_many`` of its
oldest batch, so the store keeps its size for the whole run instead of
growing with every window.

After the run, every acknowledged insert still live is read back through the
``order_id`` index, every acknowledged delete is checked to be gone from the
collection and that index, per-store counts answered by the ``store`` index
are compared with a collection scan, and the ``hits`` counter bumped by the
acknowledged ``$inc`` updates is summed.  Each mismatch is one failed
operation.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from measure import Window, timed_setups
from repro.documentstore import DocumentStoreClient
from repro.documentstore.bson import document_size
from repro.server import DocumentStoreServer, RemoteClient
from repro.sharding import ShardedCluster
from tpcds_workloads import CLUSTER_COUNTS

ORDERS = 20_000
STORES = 100
CLIENTS = 2
FSYNC = "batch"
# A build takes about 1.8 s (served_sharded); three give a median without
# stretching the runs of a full comparison past their time limit.
SETUP_REPEATS = 3
WARMUP_SECONDS = 0.5
#: (operation kind, weight in percent)
MIX = (("point", 50), ("top10", 15), ("paged", 15), ("insert", 10), ("update", 10))
READS = ("point", "top10", "paged")
#: "delete" is not drawn from the mix: it follows an insert once a client
#: holds LIVE_BATCHES batches.
WRITES = ("insert", "update", "delete")
KINDS = READS + WRITES
INSERT_BATCH = 5
LIVE_BATCHES = 4
PAGE_SIZE = 8
PAGED_LIMIT = 24
SHARDS = 3
#: The interpreter's thread switch interval while a served workload runs.
#: A read or update that arrives while the other client's insert holds the
#: interpreter lock waits up to one interval per hand-off; at the default
#: 5 ms those waits made the per-kind means swing with how often the two
#: clients collided.  Over six alternating 16 s runs, 1 ms cut the quartile
#: spread of the update mean from 0.36 to 0.06 and of ops_per_s from 0.21
#: to 0.05.
SWITCH_INTERVAL_S = 0.001


def make_orders(seed: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    return [
        {
            "order_id": 10 * i,
            "store": rng.randrange(STORES),
            "amount": round(rng.uniform(1.0, 500.0), 2),
            "hits": 0,
        }
        for i in range(ORDERS)
    ]


@dataclass
class Served:
    orders: list[dict[str, Any]]
    data_dir: str
    store: DocumentStoreClient | ShardedCluster
    server: DocumentStoreServer
    #: per client: acknowledged insert batches not yet deleted, oldest first
    live: list[deque[list[int]]] = field(
        default_factory=lambda: [deque() for _ in range(CLIENTS)])
    acked_deletes: list[int] = field(default_factory=list)
    #: keys of deletes that did not acknowledge a whole batch (state unknown)
    unsettled: list[int] = field(default_factory=list)
    acked_increments: int = 0
    used_keys: set[int] = field(default_factory=set)
    windows: int = 0

    @property
    def collection(self):
        return self.store["bench"]["orders"]


class _Client(threading.Thread):
    """One closed-loop client: its own connection, operation stream and checks."""

    def __init__(self, index: int, served: Served, rng: random.Random,
                 start: threading.Barrier, times: list[float], tracer: Any) -> None:
        super().__init__(name=f"served-client-{index}", daemon=True)
        self.index = index
        self.served = served
        self.rng = rng
        self.start_barrier = start
        self.times = times  # [measure_from, stop_at], set once all clients connected
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.attempted = 0
        self.answered = 0
        self.failed = 0
        self.errors: list[str] = []
        self.live = served.live[index]
        self.acked_deletes: list[int] = []
        self.unsettled: list[int] = []
        self.acked_increments = 0
        self.user_write_bytes = 0

    def run(self) -> None:
        kinds = [kind for kind, _weight in MIX]
        weights = [weight for _kind, weight in MIX]
        try:
            with RemoteClient(self.served.server.address, pool_size=1) as client:
                orders = client["bench"]["orders"]
                self.start_barrier.wait()
                while True:
                    now = time.perf_counter()
                    if now >= self.times[1]:
                        break
                    (kind,) = self.rng.choices(kinds, weights)
                    self._attempt(kind, orders, now)
                    if kind == "insert" and len(self.live) > LIVE_BATCHES:
                        self._attempt("delete", orders, now)
        except Exception as exc:  # noqa: BLE001 - counted and reported in the result
            self.errors.append(f"client {self.index}: {type(exc).__name__}: {exc}")
            self.failed += 1

    def _attempt(self, kind: str, orders: Any, now: float) -> None:
        """One counted operation; it is measured once the warm-up is over."""
        self.attempted += 1
        self.answered += now >= self.times[0]
        try:
            elapsed, ok = self._operation(kind, orders)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failed += 1
        elif now >= self.times[0]:
            self.samples[kind].append(elapsed)

    def _span(self, name: str, new_op: bool = False):
        return self.tracer.span(name, new_op=new_op) if self.tracer else nullcontext()

    def _operation(self, kind: str, orders: Any) -> tuple[float, bool]:
        """Run one operation; returns (seconds, reply correct)."""
        rng = self.rng
        store = rng.randrange(STORES)
        with self._span(f"op.{kind}", new_op=True):
            if kind == "point":
                position = rng.randrange(ORDERS)
                with self._span("client.read"):
                    started = time.perf_counter()
                    document = orders.find_one({"order_id": 10 * position})
                    elapsed = time.perf_counter() - started
                expected = self.served.orders[position]
                return elapsed, (
                    document is not None
                    and document["store"] == expected["store"]
                    and document["amount"] == expected["amount"]
                )
            if kind == "top10":
                with self._span("client.read"):
                    started = time.perf_counter()
                    documents = orders.find(
                        {"store": store}, {"_id": 0, "order_id": 1, "amount": 1},
                        sort=[("amount", -1)], limit=10,
                    ).to_list()
                    elapsed = time.perf_counter() - started
                amounts = [document["amount"] for document in documents]
                return elapsed, len(amounts) == 10 and amounts == sorted(amounts, reverse=True)
            if kind == "paged":
                with self._span("client.read"):
                    started = time.perf_counter()
                    documents = orders.find(
                        {"store": store}, {"_id": 0}, batch_size=PAGE_SIZE, limit=PAGED_LIMIT,
                    ).to_list()
                    elapsed = time.perf_counter() - started
                return elapsed, (
                    len(documents) == PAGED_LIMIT
                    and all(document["store"] == store for document in documents)
                )
            if kind == "insert":
                documents = [self._new_order(store) for _ in range(INSERT_BATCH)]
                self.user_write_bytes += sum(document_size(d) for d in documents)
                with self._span("client.write"):
                    started = time.perf_counter()
                    result = orders.insert_many(documents)
                    elapsed = time.perf_counter() - started
                ok = len(result.inserted_ids) == INSERT_BATCH
                if ok:
                    self.live.append([d["order_id"] for d in documents])
                return elapsed, ok
            if kind == "delete":
                keys = self.live.popleft()
                # Unsettled until the delete acknowledges the whole batch.
                self.unsettled.extend(keys)
                self.user_write_bytes += document_size({"order_id": {"$in": keys}})
                with self._span("client.write"):
                    started = time.perf_counter()
                    result = orders.delete_many({"order_id": {"$in": keys}})
                    elapsed = time.perf_counter() - started
                ok = result.deleted_count == len(keys)
                if ok:
                    del self.unsettled[-len(keys):]
                    self.acked_deletes.extend(keys)
                return elapsed, ok
            position = rng.randrange(ORDERS)
            query = {"order_id": 10 * position}
            update = {"$inc": {"hits": 1}}
            self.user_write_bytes += document_size(query) + document_size(update)
            with self._span("client.write"):
                started = time.perf_counter()
                result = orders.update_one(query, update)
                elapsed = time.perf_counter() - started
            ok = result.matched_count == 1 and result.modified_count == 1
            if ok:
                self.acked_increments += 1
            return elapsed, ok

    def _new_order(self, store: int) -> dict[str, Any]:
        used = self.served.used_keys  # offsets differ per client, so no lock is needed
        while True:
            key = 10 * self.rng.randrange(ORDERS) + 1 + self.index
            if key not in used:
                used.add(key)
                break
        return {
            "order_id": key,
            "store": store,
            "amount": round(self.rng.uniform(1.0, 500.0), 2),
            "hits": 0,
        }


class ServedMixed:
    name = "served_mixed"
    flush_policy = FSYNC
    clients = CLIENTS
    latency_groups = {"read": READS, "write": WRITES}
    #: The kinds behind each latency metric.  Deletes are housekeeping that
    #: keeps the store's size steady; they count in ops_per_s only.
    slots = (("point",), ("top10", "paged"), ("insert",), ("update",))

    def __init__(self, root: Any) -> None:
        self.scratch = root / "perfbench" / "out"
        self.generator_seed: int | None = None

    def _open_store(self, data_dir: str) -> Any:
        return DocumentStoreClient(name="served-bench", data_dir=data_dir, fsync=FSYNC)

    @staticmethod
    def _scan(served: Served) -> Any:
        """Every stored order, read without any index."""
        return served.collection.raw_documents()

    def _build(self, orders: list[dict[str, Any]]) -> Served:
        data_dir = tempfile.mkdtemp(prefix="served-", dir=self.scratch)
        store = self._open_store(data_dir)
        collection = store["bench"]["orders"]
        for start in range(0, len(orders), 1000):
            collection.insert_many(orders[start:start + 1000])
        collection.create_index("order_id")
        collection.create_index("store")
        server = DocumentStoreServer(store, max_connections=CLIENTS + 4).start()
        return Served(orders=orders, data_dir=data_dir, store=store, server=server)

    @staticmethod
    def _release(served: Served) -> None:
        served.server.shutdown()
        served.store.close()
        shutil.rmtree(served.data_dir, ignore_errors=True)

    def setup(self, seed: int) -> tuple[Served, float, list[float]]:
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self.generator_seed = seed
        self.scratch.mkdir(parents=True, exist_ok=True)
        orders = make_orders(seed)
        return timed_setups(lambda: self._build(orders), SETUP_REPEATS, self._release)

    def window(self, served: Served, seed: int, seconds: float, tracer: Any) -> Window:
        served.windows += 1
        barrier = threading.Barrier(CLIENTS + 1)
        times = [float("inf"), float("inf")]
        clients = [
            _Client(index, served, random.Random(seed * 7919 + served.windows * 131 + index),
                    barrier, times, tracer)
            for index in range(CLIENTS)
        ]
        server_before = self._server_seconds(served)
        for client in clients:
            client.start()
        barrier.wait()
        now = time.perf_counter()
        times[0] = now + WARMUP_SECONDS
        times[1] = now + WARMUP_SECONDS + seconds
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - times[0]
        server_after = self._server_seconds(served)
        counts = {name: value - server_before.get(name, 0.0)
                  for name, value in server_after.items()}
        counts["user_write_bytes"] = sum(c.user_write_bytes for c in clients)
        for client in clients:
            served.acked_deletes.extend(client.acked_deletes)
            served.unsettled.extend(client.unsettled)
            served.acked_increments += client.acked_increments
        return Window(
            samples={kind: [s for c in clients for s in c.samples[kind]] for kind in KINDS},
            elapsed_s=elapsed,
            attempted=sum(c.attempted for c in clients),
            failed=sum(c.failed for c in clients),
            errors=[e for c in clients for e in c.errors],
            counts=counts,
            answered=sum(c.answered for c in clients),
        )

    @staticmethod
    def _server_seconds(served: Served) -> dict[str, float]:
        """Cumulative busy seconds per opcode, from the server's own statistics."""
        status = served.server.server_status()
        return {
            f"server.{opcode}.s": summary["mean_ms"] * summary["count"] / 1e3
            for opcode, summary in status["latency_ms"].items()
        }

    def check_repeatable(self, served: Served, seed: int) -> list[str]:
        """Nothing to compare: with two concurrent clients the counts vary by design."""
        return []

    def finish(self, served: Served) -> tuple[int, list[str], dict[str, Any]]:
        """Stop serving, then check every acknowledged write against each index."""
        served.server.shutdown()
        try:
            return self._gate(served)
        finally:
            self._release(served)

    def _gate(self, served: Served) -> tuple[int, list[str], dict[str, Any]]:
        collection = served.collection
        scan_ids = set()
        scan_per_store: Counter[int] = Counter()
        hits = 0
        for document in self._scan(served):
            scan_ids.add(document["order_id"])
            scan_per_store[document["store"]] += 1
            hits += document.get("hits", 0)
        read_errors: list[str] = []

        def index_count(query: dict[str, Any]) -> int | None:
            """Documents matching *query*, answered through its index (None if it raised)."""
            try:
                return len(collection.find(query, {"_id": 0, "order_id": 1}).to_list())
            except Exception as exc:  # noqa: BLE001 - a corrupt index fails its read-back
                read_errors.append(f"{query}: {type(exc).__name__}: {exc}")
                return None

        live = [key for batches in served.live for batch in batches for key in batch]
        lost_documents = sum(1 for key in live if key not in scan_ids)
        missing_from_order_index = sum(
            1 for key in live if index_count({"order_id": key}) != 1)
        # Keys of a delete that failed are already counted with that delete.
        undeleted = sum(
            1 for key in served.acked_deletes
            if key in scan_ids or index_count({"order_id": key}) != 0)
        store_index_mismatch = 0
        for store in range(STORES):
            answered = index_count({"store": store})
            # A read-back that raised is one failure; a wrong count is one per document.
            store_index_mismatch += (
                1 if answered is None else abs(answered - scan_per_store[store]))
        lost_increments = abs(hits - served.acked_increments)
        failed = (lost_documents + missing_from_order_index + undeleted
                  + store_index_mismatch + lost_increments)
        messages = []
        if failed:
            messages.append(
                f"{self.name} gate: {len(live)} acknowledged inserts live, "
                f"{lost_documents} missing from the collection, "
                f"{missing_from_order_index} not found through the order_id index; "
                f"{len(served.acked_deletes)} acknowledged deletes, {undeleted} still found "
                f"in the collection or the order_id index; "
                f"{store_index_mismatch} store-index count mismatches against a scan, "
                f"{len(read_errors)} index reads raised; "
                f"{served.acked_increments} acknowledged $inc, {lost_increments} lost"
            )
        messages.extend(read_errors[:3])
        details = {
            "live_inserts": len(live),
            "acked_deletes": len(served.acked_deletes),
            "unsettled_deletes": len(served.unsettled),
            "acked_increments": served.acked_increments,
            "documents": len(scan_ids),
            "lost_documents": lost_documents,
            "missing_from_order_index": missing_from_order_index,
            "undeleted": undeleted,
            "store_index_mismatch": store_index_mismatch,
            "index_reads_raised": len(read_errors),
            "lost_increments": lost_increments,
        }
        return failed, messages, details


class ServedSharded(ServedMixed):
    """The same clients and checks against a durable 3-shard cluster.

    Each shard runs its operations under its own lock, so two clients'
    writes never interleave inside one shard's index maintenance.  The
    router runs a request's shard branches one after another on the
    server's session thread: on the one CPU the benchmark uses, the thread
    executor's pool only adds thread handoffs, whose cost follows the host
    (over six alternating runs it widened the quartile spread of the
    top-10/paged latency from 0.10 to 0.20).  ``tpcds_sharded`` measures the
    thread executor.
    """

    name = "served_sharded"

    def _open_store(self, data_dir: str) -> Any:
        cluster = ShardedCluster(shard_count=SHARDS, name="served-bench",
                                 data_dir=data_dir, fsync=FSYNC, executor_mode="serial")
        cluster.shard_collection("bench", "orders", {"order_id": "hashed"})
        return cluster

    @staticmethod
    def _scan(served: Served) -> Any:
        for shard in served.store.shards:
            yield from shard.collection("bench", "orders").raw_documents()

    def window(self, served: Served, seed: int, seconds: float, tracer: Any) -> Window:
        cluster = served.store
        # Zero the router's and the network's counters, which also clears
        # the network's message log, so the heap does not grow window by window.
        cluster.reset_metrics()
        window = super().window(served, seed, seconds, tracer)
        snapshots = {"router": cluster.router.metrics.snapshot(),
                     "network": cluster.network.stats.snapshot()}
        for name, (source, field_name) in CLUSTER_COUNTS.items():
            window.counts[name] = snapshots[source][field_name]
        return window
