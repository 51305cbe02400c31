"""cProfile table for one fig5 sweep point (m = 1/3, terminal, horizon 1e3).

    python3 bench/profile_fig5.py

Prints the 15 functions with the most self time over 2000 replications.
cProfile charges a cost to every Python call and none to work inside numpy,
so the shares it shows lean toward call-heavy code; use it to find
candidates, and the benchmark to measure them.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ITERATIONS = 2000
TOP = 15


def main() -> int:
    sys.path.insert(0, SRC)
    from versionage import derive_seed, monte_carlo
    from versionage.experiments import fig5_network

    network = fig5_network(1.0 / 3.0)
    seed = derive_seed(1, "sweep", "source_mean", 1)
    monte_carlo(network, targets=["n3"], iterations=10, master_seed=seed)
    profiler = cProfile.Profile()
    profiler.enable()
    monte_carlo(network, targets=["n3"], iterations=ITERATIONS, master_seed=seed)
    profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats("tottime").print_stats(TOP)
    print(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
