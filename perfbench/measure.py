"""Statistics, resource readings and the environment fingerprint."""

from __future__ import annotations

import gc
import hashlib
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


@dataclass
class Window:
    """One measured stretch of a workload."""

    #: kind -> latencies in seconds of the operations that succeeded
    samples: dict[str, list[float]]
    elapsed_s: float
    attempted: int
    failed: int
    errors: list[str]
    #: per-layer counters accumulated over the window, by metric name
    counts: dict[str, float]
    #: operations answered, correctly or not, after the warm-up
    answered: int
    #: host speed over the window, from a :class:`SpeedProbe` (1 = reference)
    speed: float = 1.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Interpolated percentile of *values* (``fraction`` in 0..1)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Thread CPU seconds the probe's work takes on the reference host (the
#: median on a 2-vCPU x86_64 VM with Python 3.11); see :class:`SpeedProbe`.
REFERENCE_PROBE_S = 2.4e-3
PROBE_INTERVAL_S = 0.1


_PROBE_TABLE = {f"k{i}": i for i in range(8192)}
_PROBE_KEYS = [f"k{(i * 7919) % 8192}" for i in range(8192)]


def _probe_work() -> int:
    """A fixed piece of Python: dictionary lookups, arithmetic and a sort.

    It allocates almost no objects the cyclic garbage collector tracks, so a
    collection of the program's heap is never triggered from, and charged
    to, the probe.
    """
    values = [_PROBE_TABLE[key] * 31 % 1009 for key in _PROBE_KEYS]
    values.sort()
    return values[len(values) // 2]


class SpeedProbe:
    """Samples how fast the host runs a fixed piece of work during a stretch.

    On a shared virtual machine the same CPU-bound Python loop takes from 1x
    to 1.7x its best time from one second to the next, and whole minutes run
    30 % slower than others, so wall times of the program drift with the
    host.  A thread times :func:`_probe_work` every ``PROBE_INTERVAL_S``
    with its own CPU clock, which waiting for the interpreter lock does not
    advance.  :attr:`speed` is the reference time over the mean probe time:
    below 1 on a slow stretch.  Dividing a rate, or multiplying a duration,
    by it gives the value at the reference host speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            started = time.thread_time()
            _probe_work()
            self.samples.append(time.thread_time() - started)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a stretch shorter than one interval
            started = time.thread_time()
            _probe_work()
            self.samples.append(time.thread_time() - started)

    @property
    def speed(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)

    def summary(self) -> dict[str, float]:
        return {"n": len(self.samples), "mean_ms": statistics.fmean(self.samples) * 1e3,
                "speed": self.speed}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], T], repeats: int,
                 release: Callable[[T], None]) -> tuple[T, float, list[float]]:
    """Build *repeats* times, releasing all but the last; returns it and the median time."""
    times: list[float] = []
    built: T | None = None
    for _ in range(repeats):
        if built is not None:
            release(built)
            built = None
            gc.collect()
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
    gc.collect()
    assert built is not None
    return built, statistics.median(times), times


def _commit(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except OSError:
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over the program's source files, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: pathlib.Path, **extra: object) -> dict[str, object]:
    """The environment every result is recorded with.

    Outside a git repository the commit is replaced by a digest of ``src/``.
    """
    commit = _commit(root)
    version = {"commit": commit} if commit else {"src_sha256": source_digest(root)}
    return {
        **version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **extra,
    }
