"""The TPC-DS workloads: one client cycling the paper's four queries.

``tpcds_standalone`` runs them normalized on one store (Experiment 2),
``tpcds_denormalized`` on the denormalized collections of one store
(Experiment 3) and ``tpcds_sharded`` normalized on a 3-shard cluster
(Experiment 1).  Every workload has the same four kinds, Q7, Q21, Q46 and
Q50, in that order.

The data are the 12 query tables of TPC-DS at ``SCALE_SMALL`` from the
generator seed the paper artifacts use.  The workload seed shuffles the order
of the queries inside every cycle; it does not regenerate the data, because
the per-query cost depends strongly on the generated data (Query 46 took
99–184 ms over four generator seeds), which would swamp run-to-run noise.

Every timed execution is checked against the result digest taken in set-up,
and its counts (router operations, network messages and bytes, semi-joined
documents) must equal the set-up execution's.  The counts are also kept per
workload, seed and source digest under ``perfbench/out``; a later run of the
same code with the same seed must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from measure import Window, source_digest, timed_setups
from repro.core import ExperimentHarness, run_denormalized_query, run_normalized_query
from repro.tpcds.queries import QUERY_IDS
from repro.tpcds.scaling import SCALE_SMALL

GENERATOR_SEED = 20151109
#: Per-query counts that must repeat exactly between executions and runs.
COUNT_NAMES = ("router.operations", "network.messages", "network.bytes_transferred",
               "core.semi_join.docs")
#: Per-layer metric name -> (counter source, field of its snapshot).
CLUSTER_COUNTS = {
    "router.operations": ("router", "operations"),
    "router.targeted_operations": ("router", "targeted_operations"),
    "router.broadcast_operations": ("router", "broadcast_operations"),
    "router.documents_shipped": ("router", "documents_shipped"),
    "router.bytes_shipped": ("router", "bytes_shipped"),
    "network.messages": ("network", "messages"),
    "network.bytes_transferred": ("network", "bytes_transferred"),
    "network.modelled_s": ("network", "simulated_seconds"),
}


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest(rows: list[dict[str, Any]]) -> str:
    """Order-independent digest of a result set (floats to 9 significant digits)."""
    lines = sorted(json.dumps(_canonical(row), sort_keys=True, default=str) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Deployment:
    database: Any
    cluster: Any = None
    #: kind -> (result digest, repeatable counts, result rows), from set-up.
    reference: dict[str, tuple[str, tuple[int, ...], int]] = field(default_factory=dict)
    setup_errors: list[str] = field(default_factory=list)


class TpcdsWorkload:
    """Shared closed loop; subclasses build the deployment and name the query kinds."""

    name = ""
    flush_policy = "none (in-memory store)"
    generator_seed = GENERATOR_SEED
    clients = 1
    latency_groups: dict[str, tuple[str, ...]] = {}
    setup_repeats = 1
    kinds: tuple[tuple[str, int, str], ...] = ()

    def __init__(self, root: Any) -> None:
        self.root = root
        self.out = root / "perfbench" / "out"

    @property
    def slots(self) -> tuple[tuple[str, ...], ...]:
        """The kinds behind each latency metric: one query each."""
        return tuple((kind,) for kind, _query_id, _model in self.kinds)

    def _build(self) -> Deployment:
        raise NotImplementedError

    @staticmethod
    def _release(deployment: Deployment) -> None:
        if deployment.cluster is not None:
            deployment.cluster.close()

    def _execute(self, deployment: Deployment, query_id: int, model: str,
                 tracer: Any = None) -> tuple[list[dict[str, Any]], dict[str, float], float]:
        """Run one query; returns (results, counts, seconds)."""
        cluster = deployment.cluster
        if cluster is not None:
            # As ExperimentHarness does before every query.  The network also
            # keeps every message in a log that only a reset clears, so the
            # heap would otherwise grow for the whole run.
            cluster.reset_metrics()
        with tracer.span("core.translate") if tracer else nullcontext():
            started = time.perf_counter()
            if model == "normalized":
                report = run_normalized_query(deployment.database, query_id)
                results, semi_joined = report.results, report.semi_join_documents
            else:
                results, semi_joined = run_denormalized_query(deployment.database, query_id), 0
            elapsed = time.perf_counter() - started
        counts = dict.fromkeys(CLUSTER_COUNTS, 0)
        if cluster is not None:
            router = cluster.router.metrics.snapshot()
            network = cluster.network.stats.snapshot()
            counts = {
                name: (network if source == "network" else router)[field_name]
                for name, (source, field_name) in CLUSTER_COUNTS.items()
            }
        counts["core.semi_join.docs"] = semi_joined
        return results, counts, elapsed

    def setup(self, seed: int) -> tuple[Deployment, float, list[float]]:
        deployment, setup_s, setup_runs = timed_setups(
            self._build, self.setup_repeats, self._release)
        for kind, query_id, model in self.kinds:
            results, counts, _elapsed = self._execute(deployment, query_id, model)
            repeatable = tuple(counts[name] for name in COUNT_NAMES)
            deployment.reference[kind] = (digest(results), repeatable, len(results))
        deployment.setup_errors = self._check_result_counts(deployment)
        return deployment, setup_s, setup_runs

    def _check_result_counts(self, deployment: Deployment) -> list[str]:
        """Result rows per query must agree across data models and deployments."""
        raise NotImplementedError

    def window(self, deployment: Deployment, seed: int, seconds: float, tracer: Any) -> Window:
        """Whole cycles of every query kind, in a seeded order, for at least *seconds*."""
        rng = random.Random(seed)
        samples: dict[str, list[float]] = {kind: [] for kind, _q, _m in self.kinds}
        totals: dict[str, float] = dict.fromkeys((*CLUSTER_COUNTS, "core.semi_join.docs"), 0)
        attempted = failed = 0
        errors: list[str] = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            cycle = list(self.kinds)
            rng.shuffle(cycle)
            for kind, query_id, model in cycle:
                attempted += 1
                try:
                    with tracer.span(f"op.{kind}", new_op=True) if tracer else nullcontext():
                        results, counts, elapsed = self._execute(
                            deployment, query_id, model, tracer)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    failed += 1
                    errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                for name, value in counts.items():
                    totals[name] += value
                expected_digest, expected_counts, _rows = deployment.reference[kind]
                repeatable = tuple(counts[name] for name in COUNT_NAMES)
                if digest(results) != expected_digest:
                    failed += 1
                    errors.append(f"{kind}: result differs from the set-up digest")
                elif repeatable != expected_counts:
                    failed += 1
                    errors.append(
                        f"{kind}: counts {repeatable} differ from set-up {expected_counts}")
                else:
                    samples[kind].append(elapsed)
        return Window(samples, time.perf_counter() - started, attempted, failed, errors, totals,
                      answered=attempted)

    def check_repeatable(self, deployment: Deployment, seed: int) -> list[str]:
        """Compare per-query counts with an earlier run of the same code, workload and seed.

        The file is keyed by a digest of ``src/``: a change to the program may
        legitimately change the counts, and it starts a new reference.
        """
        counts = {kind: list(reference[1]) for kind, reference in deployment.reference.items()}
        version = source_digest(self.root)[:16]
        path = self.out / f"counts-{self.name}-seed{seed}-src{version}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            return [
                f"{kind}: {dict(zip(COUNT_NAMES, counts[kind]))} differ from an earlier run "
                f"of this code with seed {seed}: "
                f"{dict(zip(COUNT_NAMES, earlier.get(kind, [])))}"
                for kind in counts if earlier.get(kind) != counts[kind]
            ]
        self.out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []

    def finish(self, deployment: Deployment) -> tuple[int, list[str], dict[str, Any]]:
        details = {
            kind: {"rows": rows, **dict(zip(COUNT_NAMES, counts))}
            for kind, (_digest, counts, rows) in deployment.reference.items()
        }
        self._release(deployment)
        return len(deployment.setup_errors), deployment.setup_errors, details


class TpcdsStandalone(TpcdsWorkload):
    """Experiment 2: the normalized model on one store.

    Its row counts are cross-checked by the other two workloads, which
    compare against a normalized standalone store.
    """

    name = "tpcds_standalone"
    # A load takes about 0.5 s, too short for one build to give a steady time.
    setup_repeats = 5
    kinds = tuple((f"q{q}", q, "normalized") for q in QUERY_IDS)

    def _build(self) -> Deployment:
        return Deployment(ExperimentHarness(seed=GENERATOR_SEED).standalone_database(SCALE_SMALL))

    def _check_result_counts(self, deployment: Deployment) -> list[str]:
        return []


class TpcdsDenormalized(TpcdsWorkload):
    """Experiment 3: the denormalized model on one store."""

    name = "tpcds_denormalized"
    # One set-up loads and then denormalizes (about 10 s); two give a median.
    setup_repeats = 2
    kinds = tuple((f"q{q}_denorm", q, "denormalized") for q in QUERY_IDS)

    def _build(self) -> Deployment:
        harness = ExperimentHarness(seed=GENERATOR_SEED)
        return Deployment(harness.standalone_denormalized_database(SCALE_SMALL))

    def _check_result_counts(self, deployment: Deployment) -> list[str]:
        """The same store keeps the normalized collections it was denormalized from."""
        errors = []
        for query_id in QUERY_IDS:
            normalized = run_normalized_query(deployment.database, query_id).result_documents
            denormalized = deployment.reference[f"q{query_id}_denorm"][2]
            if normalized != denormalized:
                errors.append(f"Query {query_id}: {normalized} normalized rows but "
                              f"{denormalized} denormalized rows")
        return errors


class TpcdsSharded(TpcdsWorkload):
    """Experiment 1: the normalized model on a 3-shard cluster (harness defaults)."""

    name = "tpcds_sharded"
    setup_repeats = 3
    kinds = tuple((f"q{q}", q, "normalized") for q in QUERY_IDS)

    def _build(self) -> Deployment:
        cluster, routed = ExperimentHarness(seed=GENERATOR_SEED).sharded_database(SCALE_SMALL)
        return Deployment(routed, cluster)

    def _check_result_counts(self, deployment: Deployment) -> list[str]:
        standalone = ExperimentHarness(seed=GENERATOR_SEED).standalone_database(SCALE_SMALL)
        errors = []
        for query_id in QUERY_IDS:
            expected = run_normalized_query(standalone, query_id).result_documents
            sharded = deployment.reference[f"q{query_id}"][2]
            if sharded != expected:
                errors.append(
                    f"Query {query_id}: {sharded} sharded rows but {expected} standalone rows")
        return errors
