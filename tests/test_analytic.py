"""Closed-form expected version age: values, structure, and error handling."""

import itertools
import math
import random

import numpy as np
import pytest

from versionage import (
    Beta,
    CacheNetwork,
    ChiSquare,
    Deterministic,
    Exponential,
    InfiniteSecondMoment,
    InvalidParameter,
    NotATree,
    ParetoI,
    Rayleigh,
    RngStream,
    Uniform,
    expected_version_age,
    expected_version_age_poisson,
    fig5_network,
    fig6_network,
    fig7_network,
    link_contribution,
)

THREE_LINK_SUM = 2.5478845608028653  # rayleigh(1) + chi_square(1) + beta(2,3)


def chain(source_dist, link_dists):
    names = ["s"] + [f"n{i}" for i in range(1, len(link_dists) + 1)]
    links = [(names[i], names[i + 1], d) for i, d in enumerate(link_dists)]
    return CacheNetwork(nodes=names, source=names[0], source_dist=source_dist, links=links)


# -- link contributions -----------------------------------------------------------

def test_contribution_uniform_02():
    assert link_contribution(Uniform(lo=0.0, hi=2.0)) == 2.0 / 3.0


def test_contribution_exponential_is_mean():
    for rate in (0.5, 1.0, 3.0, 7.25):
        assert link_contribution(Exponential(rate=rate)) == pytest.approx(1.0 / rate, rel=1e-14)


def test_contribution_mean_one_uniform_family():
    for v in (0.05, 0.15, 0.25, 1.0 / 3.0):
        w = math.sqrt(3.0 * v)
        assert link_contribution(Uniform(lo=1.0 - w, hi=1.0 + w)) == pytest.approx(
            (1.0 + v) / 2.0, rel=1e-12
        )


def test_contribution_rejects_heavy_tails():
    with pytest.raises(InfiniteSecondMoment):
        link_contribution(ParetoI(shape=1.5, scale=1.0))


# -- expected age -----------------------------------------------------------------

def test_three_hop_chain_value():
    for m in (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        ages = expected_version_age(fig5_network(m))
        mu0 = 3.0 * m / 2.0
        assert ages.source_mean == pytest.approx(mu0, rel=1e-14)
        assert ages.per_node["n3"] == pytest.approx(THREE_LINK_SUM / mu0, rel=1e-12)


def test_both_poisson_single_link():
    for rate_s, rate in ((1.0, 1.0), (2.0, 0.5), (0.25, 4.0)):
        net = chain(Exponential(rate=rate_s), [Exponential(rate=rate)])
        ages = expected_version_age(net)
        assert ages.per_node["n1"] == pytest.approx(rate_s / rate, rel=1e-12)


def test_one_hop_general_link():
    rate_s = 3.0
    link = Rayleigh(sigma=2.0)
    m = link.moments()
    net = chain(Exponential(rate=rate_s), [link])
    ages = expected_version_age(net)
    assert ages.per_node["n1"] == pytest.approx(
        rate_s * m.second_moment / (2.0 * m.mean), rel=1e-12
    )


def test_four_hop_uniform_variance_family():
    for v in (0.05, 0.15, 0.25, 1.0 / 3.0):
        ages = expected_version_age(fig7_network(v))
        assert ages.per_node["n4"] == pytest.approx(4.0 * v + 4.0, rel=1e-12)


def test_multicast_tree_ages_per_leaf():
    net = CacheNetwork(
        nodes=["s", "a", "b", "c"],
        source="s",
        source_dist=Exponential(rate=2.0),
        links=[("s", "a", Uniform(lo=0.0, hi=2.0)), ("a", "b", Exponential(rate=1.0)),
               ("a", "c", Rayleigh(sigma=1.0))],
    )
    ages = expected_version_age(net)
    mu0 = 0.5
    c_sa = 2.0 / 3.0
    assert ages.per_node["s"] == 0.0
    assert ages.per_node["a"] == pytest.approx(c_sa / mu0, rel=1e-12)
    assert ages.per_node["b"] == pytest.approx((c_sa + 1.0) / mu0, rel=1e-12)
    assert ages.per_node["c"] == pytest.approx(
        (c_sa + math.sqrt(2.0 / math.pi)) / mu0, rel=1e-12
    )


def test_ordering_invariance_is_exact():
    dists = [Rayleigh(sigma=1.0), ChiSquare(k=1), Beta(alpha=2.0, beta=3.0)]
    source = ParetoI(shape=3.0, scale=1.0 / 3.0)
    reference = None
    for perm in itertools.permutations(dists):
        age = expected_version_age(chain(source, list(perm))).per_node["n3"]
        if reference is None:
            reference = age
        assert age == reference  # bitwise: the path sum is correctly rounded


def test_every_age_is_the_correctly_rounded_path_sum():
    # random trees of mixed laws whose contributions span 1e-150..1e150,
    # each with its links declared in three shuffled orders
    rnd = random.Random(2024)
    laws = [
        lambda x: Exponential(rate=1.0 / x),
        lambda x: Uniform(lo=0.0, hi=2.0 * x),
        lambda x: Rayleigh(sigma=x),
        lambda x: Deterministic(c=x),
        lambda x: Beta(alpha=rnd.uniform(0.5, 4.0), beta=rnd.uniform(0.5, 4.0)),
        lambda x: ChiSquare(k=rnd.randint(1, 5)),
    ]
    for _ in range(40):
        size = rnd.randint(1, 30)
        names = ["s"] + [f"c{i}" for i in range(1, size + 1)]
        links = [
            (names[rnd.randrange(i)], names[i], rnd.choice(laws)(10.0 ** rnd.uniform(-150, 150)))
            for i in range(1, size + 1)
        ]
        source = Exponential(rate=10.0 ** rnd.uniform(-3, 3))
        for _ in range(3):
            rnd.shuffle(links)
            net = CacheNetwork(nodes=rnd.sample(names, len(names)), source="s",
                               source_dist=source, links=links)
            ages = expected_version_age(net)
            for node in names:
                path, cur = [], node
                while cur != "s":
                    (link,) = net.feeds()[cur]
                    path.append(link_contribution(link.dist))
                    cur = link.src
                assert ages.per_node[node] == math.fsum(path) / ages.source_mean


def test_a_ten_thousand_hop_chain_takes_linear_time(alarm):
    alarm(2)
    ages = expected_version_age(fig6_network(10_000))
    assert ages.per_node["n10000"] == math.fsum([2.0 / 3.0] * 10_000) / 0.5


def test_each_distinct_law_is_computed_once(monkeypatch):
    # fig6 shares one law object across its 1 000 links, and the mixed chain
    # builds an equal law afresh for every link: either way each distinct
    # law's contribution is computed once, and every age is still the
    # correctly rounded sum of its path's per-link contributions
    from versionage import analytic

    calls = []
    monkeypatch.setattr(analytic, "link_contribution", lambda dist: calls.append(dist) or link_contribution(dist))
    laws = [lambda: Uniform(lo=0.0, hi=2.0), lambda: Rayleigh(sigma=1.0), lambda: ChiSquare(k=1),
            lambda: Exponential(rate=3.0)]
    mixed = chain(ParetoI(shape=3.0, scale=1.0 / 3.0), [laws[i % 4]() for i in range(1000)])
    for net, distinct in ((fig6_network(1000), 1), (mixed, 4)):
        calls.clear()
        ages = expected_version_age(net)
        assert len(calls) == distinct
        path = []
        for link in net.links:  # both chains declare their links in hop order
            path.append(link_contribution(link.dist))
            assert ages.contributions[(link.src, link.dst)] == path[-1]
            assert ages.per_node[link.dst] == math.fsum(path) / ages.source_mean


def test_a_shared_law_still_names_its_first_link_and_warns_per_link():
    bad, tick = ParetoI(shape=1.5, scale=1.0), Deterministic(c=1.0)
    with pytest.raises(InfiniteSecondMoment, match=r"link n1->n2: "):
        expected_version_age(chain(Exponential(rate=1.0), [Exponential(rate=1.0), bad, bad]))
    ages = expected_version_age(chain(Exponential(rate=1.0), [tick, Exponential(rate=1.0), tick, tick]))
    assert [w.split(" has ")[0] for w in ages.warnings] == ["link s->n1", "link n2->n3", "link n3->n4"]


def test_additivity_along_path():
    net = chain(
        ParetoI(shape=3.0, scale=0.5),
        [Rayleigh(sigma=1.0), ChiSquare(k=1), Beta(alpha=2.0, beta=3.0), Uniform(lo=0.0, hi=2.0)],
    )
    ages = expected_version_age(net)
    mu0 = ages.source_mean
    nodes = ["s", "n1", "n2", "n3", "n4"]
    for i, link in enumerate(net.links):
        inc = ages.per_node[nodes[i + 1]] - ages.per_node[nodes[i]]
        assert inc == pytest.approx(ages.contributions[(link.src, link.dst)] / mu0, rel=1e-13)


def test_deterministic_minimizes_contribution_at_fixed_mean():
    mean = 2.0
    competitors = [
        Exponential(rate=1.0 / mean),
        Uniform(lo=0.0, hi=2.0 * mean),
        Rayleigh(sigma=mean / math.sqrt(math.pi / 2.0)),
        ChiSquare(k=2),
        ParetoI(shape=3.0, scale=2.0 * mean / 3.0),
        Beta(alpha=2.0, beta=3.0),  # mean 0.4: scaled floor check below
    ]
    floor = link_contribution(Deterministic(c=mean))
    assert floor == mean / 2.0
    for spec in competitors[:-1]:
        assert spec.moments().mean == pytest.approx(mean, rel=1e-12)
        assert link_contribution(spec) > floor
    beta = competitors[-1]
    assert link_contribution(beta) > beta.moments().mean / 2.0


def test_source_rate_scaling():
    links = [Rayleigh(sigma=1.0), Uniform(lo=0.0, hi=2.0)]
    base = expected_version_age(chain(ParetoI(shape=3.0, scale=0.25), links)).per_node["n2"]
    for alpha in (2.0, 4.0, 8.0):  # powers of two scale the mean exactly
        scaled = expected_version_age(
            chain(ParetoI(shape=3.0, scale=0.25 * alpha), links)
        ).per_node["n2"]
        assert scaled == base / alpha


def test_source_is_age_zero_and_contributions_recorded():
    net = chain(Exponential(rate=1.0), [Uniform(lo=0.0, hi=2.0)])
    ages = expected_version_age(net)
    assert ages.per_node["s"] == 0.0
    assert ages.contributions == {("s", "n1"): 2.0 / 3.0}


# -- poisson special case ------------------------------------------------------------

def test_poisson_examples():
    assert expected_version_age_poisson(1.0, [1.0, 1.0]) == 2.0
    assert expected_version_age_poisson(1.0, []) == 0.0
    assert expected_version_age_poisson(2.0, [4.0]) == 0.5


def test_poisson_rejects_bad_rates():
    with pytest.raises(InvalidParameter):
        expected_version_age_poisson(0.0, [1.0])
    with pytest.raises(InvalidParameter):
        expected_version_age_poisson(1.0, [1.0, -2.0])


@pytest.mark.parametrize(
    "source_rate, link_rates",
    [(True, [1.0]), (math.inf, [1.0]), (math.nan, [1.0]), (2.0, [math.inf]), (1.0, [True])],
    ids=["source-bool", "source-infinite", "source-nan", "link-infinite", "link-bool"],
)
def test_poisson_rejects_non_finite_and_bool_rates(source_rate, link_rates):
    with pytest.raises(InvalidParameter, match="positive finite number"):
        expected_version_age_poisson(source_rate, link_rates)


def test_poisson_reduction_consistency():
    rng = RngStream(123, "rates")
    for _ in range(100):
        n = 1 + int(rng.uniforms(1)[0] * 5)
        rate_s = 0.25 + 4.0 * rng.uniforms(1)[0]
        rates = [0.25 + 4.0 * rng.uniforms(1)[0] for _ in range(n)]
        via_formula = expected_version_age_poisson(rate_s, rates)
        net = chain(Exponential(rate=rate_s), [Exponential(rate=r) for r in rates])
        via_engine = expected_version_age(net).per_node[f"n{n}"]
        assert via_engine == pytest.approx(via_formula, rel=1e-13)


# -- gating and warnings ---------------------------------------------------------------

def test_general_graph_rejected():
    net = CacheNetwork(
        nodes=["s", "a", "b", "c"],
        source="s",
        source_dist=Exponential(rate=1.0),
        links=[("s", "a", Exponential(rate=1.0)), ("s", "b", Exponential(rate=1.0)),
               ("a", "c", Exponential(rate=1.0)), ("b", "c", Exponential(rate=1.0))],
    )
    with pytest.raises(NotATree, match="closed form requires tree"):
        expected_version_age(net)


def test_infinite_second_moment_names_the_link():
    net = chain(Exponential(rate=1.0), [Exponential(rate=1.0), ParetoI(shape=1.5, scale=1.0)])
    with pytest.raises(InfiniteSecondMoment, match="n1->n2"):
        expected_version_age(net)
    bad_source = chain(ParetoI(shape=0.9, scale=1.0), [Exponential(rate=1.0)])
    with pytest.raises(InfiniteSecondMoment, match="source"):
        expected_version_age(bad_source)


def test_arithmetic_inputs_warn_but_compute():
    net = chain(Deterministic(c=0.5), [Deterministic(c=1.0), Exponential(rate=1.0)])
    ages = expected_version_age(net)
    assert ages.per_node["n2"] == pytest.approx((0.5 + 1.0) / 0.5, rel=1e-12)
    assert len(ages.warnings) == 2  # arithmetic source and arithmetic link
    assert any("source" in w for w in ages.warnings)
    assert any("s->n1" in w for w in ages.warnings)


def test_arithmetic_link_age_confirmed_by_simulation():
    # deterministic links fall outside the theorem's hypotheses; check the
    # simulator agrees with the formula anyway at this operating point
    from versionage import monte_carlo

    net = chain(Exponential(rate=2.0), [Deterministic(c=1.0)])
    predicted = expected_version_age(net).per_node["n1"]
    assert predicted == pytest.approx(1.0, rel=1e-12)  # (c/2) / 0.5
    out = monte_carlo(net, targets=["n1"], horizon=400.0, iterations=4000,
                      master_seed=29, estimator="time_average")["n1"]
    assert abs(out.mean - predicted) <= 4.0 * out.stderr
