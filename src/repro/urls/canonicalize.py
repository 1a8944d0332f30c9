"""Safe Browsing URL canonicalization.

The Safe Browsing API defines its own canonicalization procedure on top of
RFC 3986 so that every client hashes byte-identical expressions for the same
logical URL.  The procedure implemented here follows the published v3
developer documentation, which is also the behaviour the paper assumes:

1. Strip tab (``0x09``), carriage-return (``0x0D``) and line-feed (``0x0A``)
   characters, and leading/trailing whitespace.
2. Remove the fragment (everything from the first ``#``).
3. Add a scheme (``http://``) if missing, and drop the userinfo
   (``user:password@``) and a default port.
4. Repeatedly percent-decode the URL until it no longer changes.
5. Canonicalize the hostname: lowercase, remove leading/trailing dots,
   collapse consecutive dots, and normalize pure-numeric IPv4 forms
   (decimal, octal, hexadecimal, and shortened dotted forms) to dotted-quad.
6. Canonicalize the path: resolve ``/./`` and ``/../`` sequences, collapse
   duplicate slashes, use ``/`` when the path is empty.
7. Percent-encode every byte ``<= 0x20``, ``>= 0x7F``, and the characters
   ``#`` and ``%``, using uppercase hexadecimal.

The canonical *string* keeps the scheme (``http://host/path?query``); the
canonical *expressions* fed to the hash function are produced by
:mod:`repro.urls.decompose` and do not include the scheme.
"""

from __future__ import annotations

import re

from repro.exceptions import CanonicalizationError

_DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21}

_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):(?://)?")
_HEX_DIGITS = "0123456789abcdefABCDEF"

#: ASCII characters :func:`_percent_encode` must escape.
_NEEDS_ESCAPE_RE = re.compile(r"[\x00-\x20\x7f#%]")


def canonicalize(url: str) -> str:
    """Return the Safe Browsing canonical form of ``url``.

    The result always has the form ``scheme://host/path`` optionally followed
    by ``?query``.  Raises :class:`CanonicalizationError` when no hostname can
    be extracted.
    """
    if not isinstance(url, str):
        raise CanonicalizationError(f"expected a string URL, got {type(url).__name__}")

    text = _strip_control_characters(url)
    if not text:
        raise CanonicalizationError("empty URL")

    text = _strip_fragment(text)
    scheme, remainder = _split_scheme(text)
    remainder = _strip_userinfo(remainder)

    host_port, sep, path_query = _split_authority(remainder)
    host, port = _split_port(host_port)

    host = _repeated_percent_decode(host)
    host = _canonicalize_host(host)
    if not host:
        raise CanonicalizationError(f"no hostname in URL {url!r}")

    path, query = _split_path_query(path_query if sep else "")
    path = _repeated_percent_decode(path)
    path = _canonicalize_path(path)

    host = _percent_encode(host)
    path = _percent_encode(path)
    query = _percent_encode(query) if query is not None else None

    canonical = f"{scheme}://{host}"
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        canonical += f":{port}"
    canonical += path
    if query is not None:
        canonical += f"?{query}"
    return canonical


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------


def _strip_control_characters(url: str) -> str:
    """Remove embedded tab/CR/LF bytes and surrounding whitespace."""
    return url.replace("\t", "").replace("\r", "").replace("\n", "").strip()


def _strip_fragment(url: str) -> str:
    """Drop everything from the first ``#`` on."""
    index = url.find("#")
    return url if index < 0 else url[:index]


def _split_scheme(url: str) -> tuple[str, str]:
    """Split off the scheme, defaulting to ``http``.

    Returns ``(scheme, remainder)`` where ``remainder`` starts at the
    authority (host) component.
    """
    match = _SCHEME_RE.match(url)
    if match and "/" not in url[: match.start(0) + len(match.group(1))]:
        scheme = match.group(1).lower()
        remainder = url[match.end(0) :]
        return scheme, remainder
    return "http", url.lstrip("/")


def _strip_userinfo(remainder: str) -> str:
    """Remove a ``user:password@`` block that precedes the hostname.

    The authority ends at the first ``/`` **or** ``?`` (the fragment is
    already stripped); an ``@`` beyond that belongs to the path or query
    and must not be taken for a userinfo delimiter — otherwise
    ``http://example.com?x=@evil.com`` would hand the host to the attacker.
    """
    end = len(remainder)
    for terminator in "/?":
        index = remainder.find(terminator)
        if 0 <= index < end:
            end = index
    at = remainder.rfind("@", 0, end)
    if at < 0:
        return remainder
    return remainder[at + 1 :]


def _split_authority(remainder: str) -> tuple[str, bool, str]:
    """Split ``host[:port]`` from the path-and-query part."""
    slash = remainder.find("/")
    question = remainder.find("?")
    if question >= 0 and (slash < 0 or question < slash):
        # A '?' directly after the host means an empty path with a query.
        return remainder[:question], True, "/" + remainder[question:]
    if slash >= 0:
        return remainder[:slash], True, remainder[slash:]
    return remainder, False, ""


def _split_port(host_port: str) -> tuple[str, int | None]:
    """Split an explicit port off the host.

    A bare trailing colon (``host:``) is treated as no port, matching what
    browsers resolve.  Anything else that is not a decimal number in
    [1, 65535] is an error: silently folding ``:0x50`` into the hostname
    would canonicalize — and hash — a bogus expression.
    """
    if ":" not in host_port:
        return host_port, None
    host, _, port_text = host_port.rpartition(":")
    if not port_text:
        return host, None
    if port_text.isascii() and port_text.isdigit():
        port = int(port_text)
        if 1 <= port <= 65535:
            return host, port
    raise CanonicalizationError(
        f"invalid port {port_text!r} in authority {host_port!r}"
    )


def _split_path_query(path_query: str) -> tuple[str, str | None]:
    """Split the path from the query (``None`` when there is no ``?``)."""
    if not path_query:
        return "/", None
    if "?" in path_query:
        path, _, query = path_query.partition("?")
        return path or "/", query
    return path_query, None


def _repeated_percent_decode(text: str) -> str:
    """Percent-decode until a fixed point is reached (bounded)."""
    previous = None
    current = text
    # Safe Browsing decodes repeatedly; bound the loop to avoid pathological
    # inputs that keep introducing new escapes.
    for _ in range(32):
        if current == previous:
            break
        previous = current
        current = _percent_decode_once(current)
    return current


def _percent_decode_once(text: str) -> str:
    """Decode every valid ``%XX`` escape exactly once."""
    if "%" not in text:
        return text
    out: list[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if (
            char == "%"
            and index + 2 < length
            and text[index + 1] in _HEX_DIGITS
            and text[index + 2] in _HEX_DIGITS
        ):
            out.append(chr(int(text[index + 1 : index + 3], 16)))
            index += 3
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _canonicalize_host(host: str) -> str:
    """Lowercase, clean dots, and normalize numeric IPv4 hosts."""
    host = host.lower().strip(".")
    while ".." in host:
        host = host.replace("..", ".")
    ip = _normalize_ip(host)
    if ip is not None:
        return ip
    return host


def _normalize_ip(host: str) -> str | None:
    """Normalize decimal/octal/hex IPv4 notations to dotted-quad.

    Returns ``None`` when ``host`` is not a numeric IP form.  Hostnames made
    purely of digits and dots, hexadecimal (``0x``) notation, and single
    32-bit integers are all accepted, mirroring what browsers resolve.
    Every numeric form starts with an ASCII digit, so any other host is
    rejected before it is split.
    """
    if not host or not ("0" <= host[0] <= "9"):
        return None

    def parse_part(part: str) -> int | None:
        # int() also takes "_" separators, surrounding whitespace and
        # non-ASCII digits, none of which a browser resolves as an IP.
        if not (part.isascii() and part.isalnum()):
            return None
        try:
            if part.startswith("0x") or part.startswith("0X"):
                return int(part, 16)
            if part.startswith("0") and len(part) > 1 and part.isdigit():
                return int(part, 8)
            if part.isdigit():
                return int(part, 10)
        except ValueError:
            return None
        return None

    parts = host.split(".")
    values = [parse_part(part) for part in parts]
    if any(value is None for value in values) or not values:
        return None
    numbers = [value for value in values if value is not None]

    if len(numbers) == 1:
        total = numbers[0]
    elif len(numbers) <= 4:
        # The last component covers the remaining bytes.
        total = 0
        for value in numbers[:-1]:
            if value > 255:
                return None
            total = (total << 8) | value
        remaining_bytes = 4 - (len(numbers) - 1)
        last = numbers[-1]
        if last >= (1 << (8 * remaining_bytes)):
            return None
        total = (total << (8 * remaining_bytes)) | last
    else:
        return None

    if total >= (1 << 32):
        return None
    return ".".join(str((total >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _canonicalize_path(path: str) -> str:
    """Resolve dot segments and collapse duplicate slashes."""
    if not path:
        return "/"
    if not path.startswith("/"):
        path = "/" + path

    segments = path.split("/")
    resolved: list[str] = []
    for segment in segments[1:]:
        if segment == "" or segment == ".":
            continue
        if segment == "..":
            if resolved:
                resolved.pop()
            continue
        resolved.append(segment)

    canonical = "/" + "/".join(resolved)
    if path.endswith("/") and not canonical.endswith("/"):
        canonical += "/"
    # A path reduced to nothing is the root.
    if canonical == "":
        canonical = "/"
    return canonical


def _percent_encode(text: str) -> str:
    """Percent-encode bytes ``<= 0x20``, ``>= 0x7F``, ``#`` and ``%``."""
    if text.isascii() and _NEEDS_ESCAPE_RE.search(text) is None:
        return text
    out: list[str] = []
    for byte in text.encode("utf-8", errors="surrogatepass"):
        if byte <= 0x20 or byte >= 0x7F or byte in (0x23, 0x25):
            out.append(f"%{byte:02X}")
        else:
            out.append(chr(byte))
    return "".join(out)
