"""Closed-form long-run expected version age on paths and trees.

Each link contributes E[Y^2] / (2 E[Y]) -- the limiting mean backward
recurrence time of its update process.  A node's path sum is its sender's plus
its feed's contribution, and its expected age is that sum over the source's
mean inter-update time: additive in the links, invariant to their order along
a path, and inversely proportional to the source mean.

The closed form assumes non-arithmetic inter-update distributions; networks
containing deterministic links are still computed but carry a structured
warning, since the constant-interval case is exactly the operating point that
minimizes every link's contribution (variance zero gives the floor mean/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Distribution, positive_number
from .errors import InfiniteSecondMoment, InvalidParameter, NotATree
from .network import CacheNetwork

__all__ = [
    "AnalyticAge",
    "link_contribution",
    "expected_version_age",
    "expected_version_age_poisson",
]

_UNITS_PER_ONE = 1 << 1074  # every finite float is a whole number of units of 2**-1074


@dataclass(frozen=True)
class AnalyticAge:
    """Per-node expected age with the per-link breakdown behind it."""

    per_node: dict[str, float]
    contributions: dict[tuple[str, str], float]
    source_mean: float
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "source_mean": self.source_mean,
            "per_node": dict(self.per_node),
            "contributions": {f"{s}->{d}": c for (s, d), c in self.contributions.items()},
            "warnings": list(self.warnings),
        }


def link_contribution(dist: Distribution) -> float:
    """E[Y^2] / (2 E[Y]) for one link's inter-update time."""
    fault = dist.moment_fault()
    if fault:
        raise InfiniteSecondMoment(f"{dist} has {fault}")
    return dist.moments().mean_backward_recurrence


def expected_version_age(network: CacheNetwork) -> AnalyticAge:
    """Exact limiting expected version age at every node of a network in
    which every cache has exactly one feed (a path or a tree).

    One pass in depth order: a node's exact path sum, its sender's plus its
    feed's contribution, is rounded to a float once (so reordering links along
    a path cannot change any value) and divided by the source mean.  Raises
    :class:`NotATree` naming the first cache in depth order with several
    feeds, before any moment is checked; then :class:`InfiniteSecondMoment`
    naming the offending distribution, and :class:`InvalidParameter` naming a
    node whose age overflows a float.
    """
    senders = {}
    for node, feeds in network.feeds().items():
        if len(feeds) != 1:
            raise NotATree(f"closed form requires tree: {node} has {len(feeds)} feeds")
        senders[node] = feeds[0].src
    fault = network.source_dist.moment_fault()
    if fault:
        raise InfiniteSecondMoment(f"source distribution {network.source_dist} has {fault}")
    m0 = network.source_dist.moments()
    warnings: list[str] = []
    if network.source_dist.arithmetic:
        warnings.append(
            f"source distribution {network.source_dist} is arithmetic; "
            "the closed form assumes non-arithmetic inter-update times"
        )
    contributions: dict[tuple[str, str], float] = {}
    units = {}  # per cache, its feed's contribution in units of 2**-1074
    # per distinct law, its contribution and that in units: equal laws have
    # equal contributions, so each is computed once
    by_law: dict[Distribution, tuple[float, int]] = {}
    for link in network.links:
        known = by_law.get(link.dist)
        if known is None:
            try:
                contribution = link_contribution(link.dist)
            except InfiniteSecondMoment as exc:
                raise InfiniteSecondMoment(
                    f"link {link.src}->{link.dst}: {exc}"
                ) from None
            n, d = contribution.as_integer_ratio()
            known = by_law[link.dist] = (contribution, n * (_UNITS_PER_ONE // d))
        contributions[(link.src, link.dst)], units[link.dst] = known
        if link.dist.arithmetic:
            warnings.append(
                f"link {link.src}->{link.dst} has an arithmetic distribution {link.dist}; "
                "the closed form assumes non-arithmetic inter-update times"
            )
    per_node: dict[str, float] = {network.source: 0.0}
    exact = {network.source: 0}
    for node in senders:
        exact[node] = exact[senders[node]] + units[node]
        per_node[node] = exact[node] / _UNITS_PER_ONE / m0.mean
        if math.isinf(per_node[node]):
            raise InvalidParameter(f"node {node} has an expected age too large for a float (source mean {m0.mean:g})")
    return AnalyticAge(
        per_node=per_node,
        contributions=contributions,
        source_mean=m0.mean,
        warnings=tuple(warnings),
    )


def expected_version_age_poisson(source_rate: float, link_rates) -> float:
    """Special case when every process is Poisson: source_rate * sum(1/rate).

    Agrees with :func:`expected_version_age` over exponential specs to machine
    precision; kept as an independent formula so the two routes cross-check
    each other.
    """
    source_rate = positive_number("source rate", source_rate)
    rates = [positive_number("link rate", r) for r in link_rates]
    return source_rate * math.fsum(1.0 / r for r in rates)
