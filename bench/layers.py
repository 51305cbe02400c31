"""Isolated, warmed-up timings of each layer's public calls.

Each figure is the median over several repeats of a fixed batch of calls, so
one slow repeat (another process taking the core) does not move it.  These
calls are not traced.
"""

from __future__ import annotations

import statistics
import time

from workloads import HORIZON, general_network

FAMILIES = {
    "exponential": {"type": "exponential", "rate": 1.0},
    "uniform": {"type": "uniform", "lo": 0.0, "hi": 2.0},
    "rayleigh": {"type": "rayleigh", "sigma": 1.0},
    "chi_square": {"type": "chi_square", "k": 1},
    "beta": {"type": "beta", "alpha": 2.0, "beta": 3.0},
    "pareto1": {"type": "pareto1", "shape": 3.0, "scale": 1.0 / 3.0},
    "deterministic": {"type": "deterministic", "c": 1.0},
}

BATCH = 1024
LARGE = 1 << 20


def _median_per_call(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn(i)``."""
    fn(0)
    per_call = []
    for r in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(r * calls + i)
        per_call.append((time.perf_counter() - t0) / calls)
    return statistics.median(per_call)


def measure(seed: int) -> dict[str, float]:
    import versionage
    from versionage import CacheNetwork, RngStream, from_literal
    from versionage.experiments import fig5_network, fig6_network

    out: dict[str, float] = {}
    stream = RngStream(seed, "bench")
    out["rng.reseed_us"] = 1e6 * _median_per_call(
        lambda i: stream.reseed(seed, i, "source"), 500, 7
    )
    out["rng.stream_init_us"] = 1e6 * _median_per_call(
        lambda i: RngStream(seed, i, "source"), 500, 7
    )

    class CountingStream(RngStream):
        __slots__ = ("drawn",)

        def uniforms(self, n):
            self.drawn += n
            return super().uniforms(n)

    for family, lit in FAMILIES.items():
        dist = from_literal(lit)
        rng = RngStream(seed, "bench", family)
        out[f"distributions.{family}.batch1024_us"] = 1e6 * _median_per_call(
            lambda i: dist.sample_batch(rng, BATCH), 100, 7
        )
        out[f"distributions.{family}.large_ns_per_draw"] = 1e9 / LARGE * _median_per_call(
            lambda i: dist.sample_batch(rng, LARGE), 1, 3
        )
        if family in ("beta", "chi_square"):
            counting = CountingStream(seed, "bench", family, "count")
            counting.drawn = 0
            for _ in range(200):
                dist.sample_batch(counting, BATCH)
            out[f"distributions.{family}.uniforms_per_draw"] = counting.drawn / (200 * BATCH)

    for label, net, target in (
        ("fig5", fig5_network(1.0 / 3.0), "n3"),
        ("fig6_6", fig6_network(6), "n6"),
    ):
        reps = 100
        out[f"simulator.tree_rep_ms.{label}"] = 1e3 / reps * _median_per_call(
            lambda i: versionage.monte_carlo(
                net, targets=[target], horizon=HORIZON, iterations=reps, master_seed=seed + i
            ),
            1,
            3,
        )

    general = general_network()
    out["simulator.event_loop_rep_ms.general"] = 1e3 * _median_per_call(
        lambda i: versionage.simulate_once(general, HORIZON, seed, iteration=i), 5, 3
    )

    tiny = fig6_network(1)
    pool = {}
    for threads in (1, 2):
        pool[threads] = _median_per_call(
            lambda i: versionage.monte_carlo(
                tiny, horizon=10.0, iterations=8, master_seed=seed, threads=threads
            ),
            1,
            5,
        )
    out["simulator.pool_startup_ms"] = 1e3 * (pool[2] - pool[1])

    fig5 = fig5_network(1.0 / 3.0)
    out["analytic.expected_version_age_us"] = 1e6 * _median_per_call(
        lambda i: versionage.expected_version_age(fig5), 1000, 7
    )
    nodes, source, links = general.nodes, general.source_dist, general.links
    out["network.build_us"] = 1e6 * _median_per_call(
        lambda i: CacheNetwork(nodes, "src", source, links), 1000, 7
    )
    return out
