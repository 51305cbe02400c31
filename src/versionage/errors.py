"""Exception hierarchy shared by all versionage modules."""


class VersionAgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(VersionAgeError, ValueError):
    """A distribution or operation parameter violates its constraints."""


class InfiniteSecondMoment(VersionAgeError):
    """An operation requires a finite second moment (and so a finite mean) but
    the distribution lacks one."""


class NetworkError(VersionAgeError):
    """Base class for cache-network validation failures."""


class UnknownNode(NetworkError):
    """A link or target references a node id that was never declared."""


class SelfLoop(NetworkError):
    """A link connects a node to itself."""


class DuplicateLink(NetworkError):
    """Two links share the same (from, to) pair."""


class SourceHasIncoming(NetworkError):
    """A link terminates at the source node."""


class CycleThroughSource(NetworkError):
    """A link would close a cycle back into the source node."""


class UnreachableNode(NetworkError):
    """A declared node cannot be reached from the source."""


class NotATree(NetworkError):
    """The closed form was given a network in which some cache has several feeds."""


class ConfigError(VersionAgeError):
    """A run configuration file is malformed; message carries field context."""
