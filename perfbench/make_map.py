"""One set-up step, run in a process of its own: import, generate, save.

    python3 perfbench/make_map.py --workload NAME --seed N --map-index I --out PATH

Prints one JSON line with the timings of the three steps. Running it apart
from the jobs keeps the generator's memory out of the jobs' peak RSS and
makes the package import a cold one, as a user's first command sees it.
"""

from __future__ import annotations

import argparse
import json
import time

from workloads import WORKLOADS, import_mapsparse, pin_threads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--map-index", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin_threads()

    t0 = time.perf_counter()
    mapsparse = import_mapsparse()
    t1 = time.perf_counter()
    slam_map, _ = mapsparse.generate(WORKLOADS[args.workload].synth_config(args.seed, args.map_index))
    t2 = time.perf_counter()
    mapsparse.save_map(slam_map, args.out)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "generate_s": t2 - t1,
        "save_s": t3 - t2,
        "observations": slam_map.n_observations,
    }))


if __name__ == "__main__":
    main()
