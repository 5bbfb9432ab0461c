"""Shared helpers: statistics, digests, process state and machine provenance.

Nothing here imports the program under test, so ``run.py`` can load it
before it knows whether the checkout is valid.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

#: The seed the pinned digests and fingerprints were recorded at.
DEFAULT_SEED = 2006

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method); 0.0 if empty."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50.0)


#: Fewest decisions in one window of :func:`windowed_percentile`.
WINDOW_SAMPLES = 200


def windowed_percentile(ordered, q: float) -> float:
    """Median over consecutive windows of the ``q``-th percentile of each.

    ``ordered`` holds latencies in completion order.  It is cut into as many
    equal windows as fit with at least :data:`WINDOW_SAMPLES` samples and
    ten beyond the percentile (one window when fewer fit), so a burst of
    host noise shorter than half the run moves the result far less than it
    moves the percentile of the pooled samples.
    """
    per_window = max(WINDOW_SAMPLES, math.ceil(10 / (1 - q / 100)))
    windows = max(1, len(ordered) // per_window)
    bounds = [len(ordered) * index // windows for index in range(windows + 1)]
    return median([percentile(ordered[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])])


def digest(records) -> str:
    """sha256 over the canonical JSON of ``records``."""
    payload = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def recertify(path, model) -> tuple:
    """``(passed, message)``: the bound-set archive at ``path`` reloaded with
    its R3xx certificates recomputed against ``model``."""
    from repro.io import load_bound_set

    try:
        bound_set = load_bound_set(path, model=model, recertify=True)
    except Exception as error:  # noqa: BLE001 - AnalysisError, missing or corrupt file
        return False, f"bound set {Path(path).name} failed R3xx recertification: {type(error).__name__}: {error}"
    return True, f"bound set {Path(path).name} recertified ({bound_set.vectors.shape[0]} vectors)"


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_env(root: Path) -> dict:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads() -> dict:
    """Default BLAS to one thread here and in every child; return the caller's settings.

    Two processes or connection threads already share this 2-CPU box; letting
    BLAS start a second thread in each makes a depth-2 decision both slower
    and far noisier (same campaign, same process: p50 124-138 ms with two
    threads, 84-97 ms with one).  Values the caller set are kept.
    """
    caller = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    return caller


# -- provenance --------------------------------------------------------------


def _source_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        vendor = {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        }
    except (TypeError, KeyError):
        vendor = {"name": None}
    vendor["threads"] = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    return vendor


def machine_state(root: Path, caller_blas_threads: dict) -> dict:
    """Commit, CPU, load, BLAS threading and library versions of this run.

    ``blas.threads`` holds the thread settings every process of the run
    used; ``blas.caller_threads`` what the caller had set.
    """
    import numpy as np
    import scipy

    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "loadavg": list(os.getloadavg()),
        "blas": {**_blas(), "caller_threads": caller_blas_threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "executable": sys.executable,
    }
