"""Helpers shared by the benchmark driver and its served-side process.

Nothing here imports :mod:`repro`; the driver and the child put
``src/`` on ``sys.path`` themselves before importing the program.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
from typing import Dict, Optional, Sequence, Tuple

#: The benchmark directory and the checkout root that holds ``src/``.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Results are comparable only between machines with this many CPUs;
#: every result records whether it was produced on such a machine.
REFERENCE_CPU_COUNT = 2

#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def add_program_to_path() -> None:
    import sys
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --- statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """p99, or the highest percentile with ten samples beyond it.

    With fewer than 1,000 samples p99 has fewer than ten samples
    beyond it, so the tail falls back to the eleventh-largest value
    (the maximum below eleven samples).  Returns ``(value, label)`` so
    every reported tail says which percentile it is.
    """
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return max(values), "max"
    if n - math.ceil(0.99 * n) >= TAIL_MIN_BEYOND:
        return nearest_rank(values, 0.99), "p99"
    ordered = sorted(values)
    return ordered[n - TAIL_MIN_BEYOND - 1], \
        f"p{100.0 * (n - TAIL_MIN_BEYOND) / n:.1f}"


# --- process facts --------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """This process's resident set right now."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


# --- provenance -----------------------------------------------------------

def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else None


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(seed: int, tiers: Dict[str, Dict[str, int]],
               files: Dict[str, int]) -> Dict[str, object]:
    """Where a result came from: inputs, machine and program version."""
    cpus = os.cpu_count()
    return {
        "seed": seed,
        "tiers": tiers,
        "file_bytes": files,
        "cpu_count": cpus,
        "reference_cpu_count": REFERENCE_CPU_COUNT,
        "comparable_cpu_count": cpus == REFERENCE_CPU_COUNT,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }


# --- answers --------------------------------------------------------------

def canonical(payload) -> bytes:
    """The program's canonical JSON, recomputed here for comparison."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def served_data(body: bytes) -> Optional[bytes]:
    """Canonical bytes of a response envelope's ``data``, or None."""
    try:
        envelope = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(envelope, dict) or "data" not in envelope:
        return None
    return canonical(envelope["data"])


def write_json(path: pathlib.Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
