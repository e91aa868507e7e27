"""Benchmark workloads and the package import shared by every benchmark process.

Each workload is a set of seeded synthetic maps plus the ``mapsparse
sparsify`` arguments one job passes. README.md in this directory says why
each exists.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Pinned before numpy is imported, so BLAS/OpenMP pools stay single-threaded.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig keyword arguments other than the seed
    capacity_m: int
    window: int = 0  # 0 sparsifies the whole map in one graph
    # Maps per run. On the smaller maps job time varies from seed to seed by
    # more than a run may spread, so a run cycles over several maps of its seed.
    maps: int = 1

    def synth_config(self, seed: int, map_index: int):
        """Generator settings of map ``map_index`` of the run with this seed."""
        from mapsparse.synth import SynthConfig

        return SynthConfig(seed=seed * self.maps + map_index, **self.synth)

    def sparsify_argv(self, map_path: Path, out_path: Path, report_path: Path) -> list[str]:
        argv = ["sparsify", "--map", str(map_path), "--capacity-m", str(self.capacity_m)]
        if self.window:
            argv += ["--window", str(self.window)]
        return argv + ["--out", str(out_path), "--report", str(report_path)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_whole",
            dict(n_points=2000, n_keyframes=50, trajectory="circle",
                 trajectory_scale=2.0, extent=12.0, dropout=0.4),
            capacity_m=100,
            maps=8,
        ),
        Workload(
            "wide_keypoints",
            dict(n_points=40000, n_keyframes=20, trajectory="circle",
                 trajectory_scale=6.0, extent=12.0, dropout=0.85),
            capacity_m=1000,
        ),
        Workload(
            "windowed",
            dict(n_points=3000, n_keyframes=100, trajectory="line",
                 trajectory_scale=60.0, extent=60.0, dropout=0.4),
            capacity_m=100,
            window=10,
            maps=2,
        ),
    )
}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def import_mapsparse():
    """Import the package from this checkout's ``src``, never from elsewhere.

    Raises ImportError when the checkout holds no package, so that a run
    without the program fails instead of timing some other copy.
    """
    if not (SRC / "mapsparse" / "__init__.py").is_file():
        raise ImportError(f"no mapsparse package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("mapsparse")
    if Path(pkg.__file__).resolve().parent != SRC / "mapsparse":
        raise ImportError(f"mapsparse was imported from {pkg.__file__}, not from {SRC}")
    return pkg
