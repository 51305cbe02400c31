"""Topology validation, the closed form's one-feed rule, and depth queries."""

import pytest

from versionage import (
    CacheNetwork,
    ConfigError,
    CycleThroughSource,
    Deterministic,
    DuplicateLink,
    Exponential,
    InvalidParameter,
    Link,
    NotATree,
    RngStream,
    SelfLoop,
    SourceHasIncoming,
    UnknownNode,
    UnreachableNode,
    expected_version_age,
)

E = Exponential(rate=1.0)


def net(nodes, links, source="s"):
    return CacheNetwork(nodes=nodes, source=source, source_dist=E, links=links)


def test_chain_is_path():
    n = net(["s", "a", "b"], [("s", "a", E), ("a", "b", E)])
    assert expected_version_age(n).per_node == {"s": 0.0, "a": 1.0, "b": 2.0}


def test_multicast_tree():
    n = net(
        ["s", "a", "b", "c", "d"],
        [("s", "a", E), ("s", "b", E), ("a", "c", E), ("a", "d", E)],
    )
    assert expected_version_age(n).per_node == {"s": 0.0, "a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}


def test_two_feeds_make_general():
    n = net(
        ["s", "a", "b", "c"],
        [("s", "a", E), ("s", "b", E), ("a", "c", E), ("b", "c", E)],
    )
    with pytest.raises(NotATree, match="^closed form requires tree: c has 2 feeds$"):
        expected_version_age(n)


def test_cache_cycle_is_general_but_valid():
    n = net(["s", "a", "b"], [("s", "a", E), ("a", "b", E), ("b", "a", E)])
    assert n.depth == {"s": 0, "a": 1, "b": 2}
    with pytest.raises(NotATree, match="^closed form requires tree: a has 2 feeds$"):
        expected_version_age(n)


def test_single_node_network_is_path():
    n = net(["s"], [])
    assert expected_version_age(n).per_node == {"s": 0.0}
    assert n.leaves() == []


@pytest.mark.parametrize(
    "nodes, links, err",
    [
        (["s", "a", "b"], [("s", "a", E)], UnreachableNode),
        (["s", "a"], [("s", "a", E), ("s", "a", E)], DuplicateLink),
        (["s", "a"], [("s", "a", E), ("a", "a", E)], SelfLoop),
        (["s", "a"], [("a", "s", E)], SourceHasIncoming),
        (["s", "a"], [("s", "a", E), ("a", "s", E)], CycleThroughSource),
        (["s", "a"], [("s", "x", E)], UnknownNode),
        # a link into the source comes before unreachable nodes; its sender's
        # reachability decides cycle or not, and the first such link decides
        (["s", "a", "b"], [("a", "s", E)], SourceHasIncoming),
        (["s", "a", "b"], [("s", "a", E), ("a", "s", E)], CycleThroughSource),
        (["s", "a", "b", "c"], [("s", "a", E), ("a", "b", E), ("b", "s", E)], CycleThroughSource),
        (["s", "a", "b"], [("s", "a", E), ("b", "s", E), ("a", "s", E)], SourceHasIncoming),
        (["s", "a", "b"], [("s", "a", E), ("a", "s", E), ("b", "s", E)], CycleThroughSource),
    ],
)
def test_structural_errors(nodes, links, err):
    with pytest.raises(err):
        net(nodes, links)


def test_undeclared_source_rejected():
    with pytest.raises(UnknownNode):
        CacheNetwork(nodes=["s", "a"], source="missing", source_dist=E, links=[("s", "a", E)])


@pytest.mark.parametrize(
    "entry",
    [("s", "a", E, 1), ("s", "a"), "sab", None, ("s", "a", "exponential")],
    ids=["four-fields", "two-fields", "string", "none", "dist-not-a-distribution"],
)
def test_malformed_link_entry_rejected(entry):
    with pytest.raises(InvalidParameter, match="link"):
        net(["s", "a"], [entry])


def test_node_ids_with_nul_are_rejected():
    # stream scopes join their parts with NUL, so these two links would draw
    # one random stream
    assert (RngStream(1, 0, "link", "a\0b", "c").uniforms(8).tobytes()
            == RngStream(1, 0, "link", "a", "b\0c").uniforms(8).tobytes())
    with pytest.raises(InvalidParameter, match="NUL"):
        net(["s", "a", "a\0b", "b\0c", "c"],
            [("s", "a", E), ("s", "a\0b", E), ("a\0b", "c", E), ("a", "b\0c", E)])
    with pytest.raises(InvalidParameter, match="NUL"):
        net(["s", "a\0"], [("s", "a\0", E)])
    config = {"nodes": ["s", "a\0b"], "source": "s", "source_dist": E.to_literal(),
              "links": [{"from": "s", "to": "a\0b", "dist": E.to_literal()}]}
    with pytest.raises(ConfigError, match=r"'nodes': node id 'a\\x00b' contains a NUL"):
        CacheNetwork.from_dict(config)


def test_link_objects_are_accepted():
    n = net(["s", "a", "b"], [("s", "a", E), ("a", "b", E)])
    again = net(["s", "a", "b"], n.links)
    assert again.links == n.links == (Link("s", "a", E), Link("a", "b", E))


def test_tree_path_lengths_and_link_coverage():
    n = net(
        ["s", "a", "b", "c", "d", "e"],
        [("s", "a", E), ("s", "b", E), ("a", "c", E), ("a", "d", E), ("c", "e", E)],
    )

    def path(node):
        hops = []
        while node != "s":
            (link,) = n.incoming(node)
            hops.append((link.src, link.dst))
            node = link.src
        return hops

    for node in n.nodes:
        assert len(path(node)) == n.depth[node]
    on_leaf_paths = {hop for leaf in n.leaves() for hop in path(leaf)}
    assert on_leaf_paths == {(l.src, l.dst) for l in n.links}


def test_tree_verdict_is_declaration_order_independent():
    nodes = ["s", "a", "b", "c", "d"]
    tree = [("s", "a", E), ("s", "b", E), ("a", "c", E), ("a", "d", E)]
    reference = expected_version_age(net(nodes, tree)).per_node
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        assert expected_version_age(net(nodes, [tree[i] for i in perm])).per_node == reference
        # a second feed into d, declared first or last
        shuffled = [("b", "d", E), *(tree[i] for i in perm)]
        for links in (shuffled, shuffled[::-1]):
            with pytest.raises(NotATree, match="d has 2 feeds"):
                expected_version_age(net(nodes, links))


def test_dump_round_trip():
    n = CacheNetwork(
        nodes=["s", "a", "b"],
        source="s",
        source_dist=Deterministic(c=0.5),
        links=[("s", "a", Exponential(rate=2)), ("a", "b", Deterministic(c=1.25))],
    )
    dumped = n.to_dict()
    # links carry no tie order, and integer parameters dump as floats
    assert dumped["links"][0] == {"from": "s", "to": "a", "dist": {"type": "exponential", "rate": 2.0}}
    assert type(dumped["links"][0]["dist"]["rate"]) is float
    again = CacheNetwork.from_dict(dumped)
    assert again.to_dict() == dumped
    assert again.nodes == n.nodes
    assert again.links == n.links
    assert repr(again) == repr(n) == "CacheNetwork(3 nodes, 2 links)"
