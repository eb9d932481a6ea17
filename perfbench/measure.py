"""Measurement helpers: percentiles, process accounting, run stamps."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Fewest samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float], pct: float) -> Tuple[float, bool]:
    """The *pct* percentile of *values*, and whether at least
    :data:`TAIL_BEYOND` samples lie beyond it (if not, the value is not
    the tail it names)."""
    n = len(values)
    return percentile(values, pct), n - math.ceil(pct / 100.0 * n) >= TAIL_BEYOND


#: Calibration-kernel time that defines "reference speed" (seconds).
CALIBRATION_REFERENCE_S = 0.008


def calibration_kernel() -> None:
    """A fixed slice of work shaped like the program's hot loops.

    Damped-least-squares steps over a chain of 4x4 transforms: small
    numpy matrices, ``linalg.solve``, interpreter overhead.  It depends on
    nothing in ``src/``, so its time tracks only the machine."""
    rng = np.random.default_rng(0)
    q = rng.normal(size=6)
    target = np.array([0.3, 0.1, 0.2])
    best: Dict[int, float] = {}
    for step in range(150):
        m = np.eye(4)
        for k in range(6):
            c, s = np.cos(q[k]), np.sin(q[k])
            m = m @ np.array([[c, -s, 0.0, 0.1], [s, c, 0.0, 0.0],
                              [0.0, 0.0, 1.0, 0.05], [0.0, 0.0, 0.0, 1.0]])
        error = target - m[:3, 3]
        jac = rng.normal(size=(3, 6))
        q = q + 0.01 * (jac.T @ np.linalg.solve(jac @ jac.T + 0.0025 * np.eye(3), error))
        best[step % 17] = float(np.linalg.norm(error))


class KernelHelper:
    """A separate process that times :func:`calibration_kernel` on request
    (``perfbench/calibrator.py``).

    The kernel runs apart from the benchmark process so it never shares
    that process's heap or garbage collector, and it runs while the
    benchmark process is blocked waiting for its answer."""

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None

    def time(self, cores: Sequence[int]) -> float:
        """Mean kernel seconds over *cores*, pinned to each in turn."""
        if self.proc is None:
            env = dict(os.environ, PYTHONPATH=str(ROOT))
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.calibrator"], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self.proc.stdin.write(",".join(str(core) for core in cores) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"calibration helper exited with {self.proc.wait()}")
        return float(answer)

    def stop(self) -> None:
        """Close the helper's input and wait for it to exit."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


#: The one helper a run uses; the run stops it when it ends.
HELPER = KernelHelper()


def current_core() -> int:
    """The core this process last ran on (``/proc``)."""
    with open("/proc/self/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return int(fields[36])  # stat field 39, "processor"


class Calibration:
    """Machine-speed samples taken between a run's operations.

    The host this benchmark was built on changes speed by up to ~1.7x
    within a minute (other tenants), while the ratio of an operation's
    time to the adjacent kernel samples stays within a few percent.
    Times are therefore reported at reference speed: each operation's
    time divided by :meth:`local`, the kernel time around it over
    :data:`CALIBRATION_REFERENCE_S`.

    A sample taken while a *watched* process (the service under load)
    used CPU is busy: that work would slow the kernel and so be divided
    out of the figures.  Busy samples are kept for the record but not
    used."""

    def __init__(self, every_core: bool = False, watch: Sequence[int] = ()) -> None:
        self.samples: List[float] = []
        self.busy: List[bool] = []
        #: Sample each core in turn and keep the mean: for load that runs
        #: in other processes (the host slows cores independently).
        self.every_core = every_core
        self.watch = list(watch)

    def sample(self) -> None:
        cores = sorted(os.sched_getaffinity(0)) if self.every_core else [current_core()]
        before = [cpu_seconds(pid) for pid in self.watch]
        self.samples.append(HELPER.time(cores))
        self.busy.append([cpu_seconds(pid) for pid in self.watch] != before)

    def clean(self) -> List[int]:
        """Indices of the samples no watched process was busy during."""
        return [i for i, busy in enumerate(self.busy) if not busy]

    def factor(self) -> float:
        """Run-wide slowdown against reference speed (median clean sample)."""
        return median([self.samples[i] for i in self.clean()]) / CALIBRATION_REFERENCE_S

    def local(self, index: int) -> float:
        """Slowdown around the operation between samples *index* and
        *index + 1*: the median of the four nearest clean samples."""
        nearest = sorted(self.clean(), key=lambda i: abs(i - index - 0.5))[:4]
        return median([self.samples[i] for i in nearest]) / CALIBRATION_REFERENCE_S


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process *pid* so far (``/proc``)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of process *pid*, in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of process *pid*."""
    children: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children", "r", encoding="ascii") as handle:
                children.extend(int(c) for c in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(children))


def _commit() -> str:
    if not (ROOT / ".git").exists():  # a bare checkout; never ask a parent repository
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(seed: int) -> Dict[str, object]:
    """The fields every output record carries."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "seed": seed,
    }
