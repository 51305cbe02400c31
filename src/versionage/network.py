"""Cache-network topology: validation, depth and what a set of nodes reads.

A network is a directed graph of caches fed from one source node.  Any
validated network can be simulated; the closed form covers a network in
which every cache has exactly one feed (a path or a tree), and the simulator
traces back from its targets when every cache they read has one.  Links
carry no order: simultaneous deliveries read their senders' settled versions
(see :mod:`versionage.simulator`), so declaration order changes no result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .distributions import Distribution, from_literal
from .errors import (
    ConfigError,
    CycleThroughSource,
    DuplicateLink,
    InvalidParameter,
    SelfLoop,
    SourceHasIncoming,
    UnknownNode,
    UnreachableNode,
    VersionAgeError,
)

__all__ = ["Link", "CacheNetwork"]


@dataclass(frozen=True)
class Link:
    """A directed update link: at each renewal of ``dist`` the sender's
    version is copied to the receiver if it is fresher."""

    src: str
    dst: str
    dist: Distribution


class CacheNetwork:
    """Immutable after construction; freely shared.

    Structural validation happens here, so every constructed network is
    well formed: all link endpoints declared, no self-loops or duplicate
    links, nothing feeding back into the source, and every node reachable
    from the source.  Node ids may not contain NUL, which separates the
    parts of a random stream's scope: with it, the links "a\\0b"->"c" and
    "a"->"b\\0c" would draw the same stream.
    """

    def __init__(self, nodes, source: str, source_dist: Distribution, links):
        self.nodes: tuple[str, ...] = tuple(str(n) for n in nodes)
        self.source = str(source)
        self.source_dist = source_dist
        if len(set(self.nodes)) != len(self.nodes):
            raise UnknownNode("node ids must be unique")
        for n in self.nodes:
            if "\x00" in n:
                raise InvalidParameter(f"node id {n!r} contains a NUL character")
        if self.source not in self.nodes:
            raise UnknownNode(f"source {self.source!r} is not a declared node")

        self.links: tuple[Link, ...] = self._resolve_links(links)
        incoming: dict[str, list[Link]] = {n: [] for n in self.nodes}
        self._outgoing: dict[str, list[Link]] = {n: [] for n in self.nodes}
        for link in self.links:
            incoming[link.dst].append(link)
            self._outgoing[link.src].append(link)
        self._incoming = {n: tuple(feeds) for n, feeds in incoming.items()}

        self.depth = self._check_reachability()

    # -- construction helpers -------------------------------------------------

    def _resolve_links(self, links) -> tuple[Link, ...]:
        node_set = set(self.nodes)
        seen_pairs: set[tuple[str, str]] = set()
        resolved: list[Link] = []
        for entry in links:
            if isinstance(entry, Link):
                entry = (entry.src, entry.dst, entry.dist)
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3 and isinstance(entry[2], Distribution)):
                raise InvalidParameter(f"a link must be a Link or a (from, to, dist) triple, got {entry!r}")
            src, dst, dist = str(entry[0]), str(entry[1]), entry[2]
            if src not in node_set:
                raise UnknownNode(f"link {src!r}->{dst!r}: {src!r} is not a declared node")
            if dst not in node_set:
                raise UnknownNode(f"link {src!r}->{dst!r}: {dst!r} is not a declared node")
            if src == dst:
                raise SelfLoop(f"link {src!r}->{dst!r} is a self-loop")
            if (src, dst) in seen_pairs:
                raise DuplicateLink(f"link {src!r}->{dst!r} declared twice")
            seen_pairs.add((src, dst))
            resolved.append(Link(src=src, dst=dst, dist=dist))
        return tuple(resolved)

    def _check_reachability(self) -> dict[str, int]:
        """Each node's depth from the source, by one breadth-first search.  A
        link into the source closes a cycle if its sender is reachable."""
        depth = {self.source: 0}
        queue = deque([self.source])
        while queue:
            node = queue.popleft()
            for link in self._outgoing[node]:
                if link.dst not in depth:
                    depth[link.dst] = depth[node] + 1
                    queue.append(link.dst)
        if self._incoming[self.source]:
            link = self._incoming[self.source][0]
            if link.src in depth:
                raise CycleThroughSource(
                    f"link {link.src!r}->{link.dst!r} closes a cycle through the source"
                )
            raise SourceHasIncoming(f"source {self.source!r} has incoming link from {link.src!r}")
        missing = [n for n in self.nodes if n not in depth]
        if missing:
            raise UnreachableNode(f"nodes unreachable from source: {missing}")
        return depth

    # -- queries ---------------------------------------------------------------

    def leaves(self) -> list[str]:
        """Nodes with no outgoing links, excluding the source."""
        return [n for n in self.nodes if n != self.source and not self._outgoing[n]]

    def feeds(self, targets=None) -> dict[str, tuple[Link, ...]]:
        """The caches ``targets`` (default: every node) read, by depth, ties
        in declaration order, each with its incoming links in declaration
        order: each target but the source, and each cache with a path to one."""
        if targets is None:
            caches = [n for n in self.nodes if n != self.source]
        else:
            needed, stack = set(), list(targets)
            if any(t not in self.depth for t in stack):
                raise UnknownNode(f"targets reference undeclared nodes {[t for t in stack if t not in self.depth]}")
            while stack:
                node = stack.pop()
                if node != self.source and node not in needed:
                    needed.add(node)
                    stack.extend(link.src for link in self._incoming[node])
            caches = [n for n in self.nodes if n in needed]
        return {n: self._incoming[n] for n in sorted(caches, key=self.depth.__getitem__)}

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Normalized topology dump; re-parses to an identical network."""
        return {
            "nodes": list(self.nodes),
            "source": self.source,
            "source_dist": self.source_dist.to_literal(),
            "links": [
                {"from": link.src, "to": link.dst, "dist": link.dist.to_literal()}
                for link in self.links
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "CacheNetwork":
        """Parse a topology dict, the form :meth:`to_dict` writes.

        ``nodes``, ``source`` and ``source_dist`` are required and ``links``
        defaults to none.  A link entry takes ``from``, ``to`` and ``dist``,
        nothing else.  Malformed input raises
        :class:`ConfigError` naming the field, e.g. ``links[2]: dist: ...``.
        """
        _check_fields(obj, ("nodes", "source", "source_dist"), ("links",), "")
        nodes, links_lit = obj["nodes"], obj.get("links", [])
        if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
            raise ConfigError("'nodes' must be a list of strings")
        if not isinstance(obj["source"], str):
            raise ConfigError("'source' must be a string")
        if not isinstance(links_lit, list):
            raise ConfigError("'links' must be a list")
        source_dist = _parse_dist(obj["source_dist"], "source_dist")
        links = []
        for i, entry in enumerate(links_lit):
            ctx = f"links[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{ctx}: must be an object")
            _check_fields(entry, ("from", "to", "dist"), (), f"{ctx}: ")
            for end in ("from", "to"):
                if not isinstance(entry[end], str):
                    raise ConfigError(f"{ctx}: {end!r} must be a string")
            dist = _parse_dist(entry["dist"], f"{ctx}: dist")
            links.append((entry["from"], entry["to"], dist))
        try:
            return cls(nodes=nodes, source=obj["source"], source_dist=source_dist, links=links)
        except InvalidParameter as exc:
            raise ConfigError(f"'nodes': {exc}") from None

    def __repr__(self) -> str:
        return f"CacheNetwork({len(self.nodes)} nodes, {len(self.links)} links)"


def _check_fields(obj: dict, required: tuple, optional: tuple, ctx: str) -> None:
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{ctx}unknown fields {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{ctx}missing required field {key!r}")


def _parse_dist(literal, ctx: str) -> Distribution:
    try:
        return from_literal(literal)
    except VersionAgeError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None
