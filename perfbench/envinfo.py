"""Environment record and import-time breakdown for benchmark runs."""

from __future__ import annotations

import glob
import importlib.metadata
import os
import platform
import subprocess
import sys


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _last_level_cache() -> str | None:
    best = None
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level, size = _read(f"{d}/level"), _read(f"{d}/size")
        if level and size and (best is None or int(level) > best[0]):
            best = (int(level), size.strip())
    return f"L{best[0]} {best[1]}" if best else None


def _version(pkg: str) -> str | None:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "llc": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": nproc(),
    }


def parse_importtime(text: str) -> dict:
    """Import cost by package from `python -X importtime` output, in ms.

    numpy_ms and scipy_ms are the cumulative times of each package's
    imports that no numpy or scipy import encloses (so they include
    whatever those imports pull in, and numpy modules that scipy loads
    count as scipy);
    self_ms is the summed self time of the spectral_distill modules;
    total_ms is the cumulative time of every top-level import.
    """
    entries = []  # (depth, name, self_us, cumulative_us), in print order
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))

    def package(name):
        return name.split(".")[0]

    out = {"numpy_ms": 0.0, "scipy_ms": 0.0, "self_ms": 0.0, "total_ms": 0.0}
    # Children print before their parent; walk backwards to see parents first.
    stack = []  # (depth, package) of the current ancestors
    for depth, name, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = package(name)
        outer = all(p not in ("numpy", "scipy") for _, p in stack)
        if depth == 0:
            out["total_ms"] += cum_us / 1e3
        if outer and pkg in ("numpy", "scipy"):
            out[f"{pkg}_ms"] += cum_us / 1e3
        if pkg == "spectral_distill":
            out["self_ms"] += self_us / 1e3
        stack.append((depth, pkg))
    return out


def import_breakdown(root: str, env: dict, timeout: float = 60.0) -> dict:
    """parse_importtime of one fresh `import spectral_distill.cli`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spectral_distill.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing spectral_distill.cli failed:\n{proc.stderr}")
    return parse_importtime(proc.stderr)
