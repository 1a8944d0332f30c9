"""Structured view of a canonical URL.

:class:`ParsedURL` is the intermediate representation used by the
decomposition generator and the corpus statistics: it exposes the host, the
path segments and the query of a *canonical* URL (see
:mod:`repro.urls.canonicalize`) as plain Python values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CanonicalizationError
from repro.urls.canonicalize import canonicalize


@dataclass(frozen=True, slots=True)
class ParsedURL:
    """The components of a canonical URL.

    Attributes
    ----------
    scheme:
        ``http``, ``https``, ... (lowercase).
    host:
        Canonical hostname (lowercase, no trailing dot) or dotted-quad IP.
    port:
        Explicit non-default port, or ``None``.
    path:
        Canonical absolute path, always starting with ``/``.
    query:
        Query string without the leading ``?``, or ``None`` when absent.
    """

    scheme: str
    host: str
    port: int | None
    path: str
    query: str | None

    # -- derived views -------------------------------------------------------

    @property
    def host_is_ip(self) -> bool:
        """``True`` when the host is a dotted-quad IPv4 address."""
        return is_dotted_quad(self.host)

    @property
    def host_labels(self) -> tuple[str, ...]:
        """The dot-separated labels of the host, most significant last."""
        return tuple(self.host.split("."))

    @property
    def path_segments(self) -> tuple[str, ...]:
        """The non-empty segments of the path."""
        return tuple(segment for segment in self.path.split("/") if segment)

    @property
    def depth(self) -> int:
        """Number of path segments (0 for the root page)."""
        return len(self.path_segments)

    def expression(self) -> str:
        """The scheme-less canonical expression ``host/path[?query]``.

        This is the string that Safe Browsing hashes for the *exact* URL
        (its first decomposition).
        """
        text = f"{self.host}{self.path}"
        if self.query is not None:
            text += f"?{self.query}"
        return text

    def url(self) -> str:
        """Reassemble the full canonical URL including the scheme."""
        authority = self.host if self.port is None else f"{self.host}:{self.port}"
        text = f"{self.scheme}://{authority}{self.path}"
        if self.query is not None:
            text += f"?{self.query}"
        return text

    def with_path(self, path: str, query: str | None = None) -> "ParsedURL":
        """Return a copy of this URL with a different path/query."""
        if not path.startswith("/"):
            path = "/" + path
        return ParsedURL(self.scheme, self.host, self.port, path, query)


def is_dotted_quad(host: str) -> bool:
    """``True`` when ``host`` is a dotted-quad IPv4 address."""
    return host.count(".") == 3 and all(
        part.isdigit() and int(part) <= 255 for part in host.split(".")
    )


def parse_url(url: str, *, canonical: bool = False) -> ParsedURL:
    """Parse ``url`` into a :class:`ParsedURL`.

    ``url`` is canonicalized first unless ``canonical=True`` asserts that the
    caller already did so (used in hot loops by the corpus statistics).
    """
    text = url if canonical else canonicalize(url)

    if "://" not in text:
        raise CanonicalizationError(f"not a canonical URL: {url!r}")
    scheme, _, rest = text.partition("://")

    slash = rest.find("/")
    if slash < 0:
        authority, path_query = rest, "/"
    else:
        authority, path_query = rest[:slash], rest[slash:]

    if ":" in authority:
        host, _, port_text = authority.rpartition(":")
        port: int | None = int(port_text) if port_text.isdigit() else None
        if port is None:
            host = authority
    else:
        host, port = authority, None

    if "?" in path_query:
        path, _, query = path_query.partition("?")
        parsed_query: str | None = query
    else:
        path, parsed_query = path_query, None

    return ParsedURL(scheme=scheme, host=host, port=port, path=path or "/", query=parsed_query)
