"""Property-based tests for canonicalization and decomposition invariants."""

from __future__ import annotations

import importlib
import string

from hypothesis import given, settings, strategies as st

from repro.exceptions import CanonicalizationError
from repro.urls.canonicalize import canonicalize
from repro.urls.decompose import decompositions
from repro.urls.hierarchy import registered_domain
from repro.urls.parse import parse_url

# -- strategies ---------------------------------------------------------------

_label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)

_host = st.builds(
    lambda labels, tld: ".".join(labels + [tld]),
    st.lists(_label, min_size=1, max_size=4),
    st.sampled_from(["com", "org", "net", "ru", "fr", "io"]),
)

_path_segment = st.text(
    alphabet=string.ascii_letters + string.digits + "-_",
    min_size=1, max_size=10,
)

_path = st.builds(
    lambda segments, trailing: "/" + "/".join(segments) + ("/" if trailing and segments else ""),
    st.lists(_path_segment, min_size=0, max_size=5),
    st.booleans(),
)

_query = st.one_of(
    st.none(),
    st.builds(lambda k, v: f"{k}={v}", _path_segment, _path_segment),
)


@st.composite
def urls(draw) -> str:
    host = draw(_host)
    path = draw(_path)
    query = draw(_query)
    scheme = draw(st.sampled_from(["http", "https"]))
    url = f"{scheme}://{host}{path}"
    if query is not None:
        url += f"?{query}"
    return url


# -- canonicalization properties ----------------------------------------------


class TestCanonicalizationProperties:
    @given(urls())
    @settings(max_examples=200)
    def test_idempotent(self, url: str):
        once = canonicalize(url)
        assert canonicalize(once) == once

    @given(urls())
    @settings(max_examples=200)
    def test_output_shape(self, url: str):
        canonical = canonicalize(url)
        assert "://" in canonical
        host_and_path = canonical.split("://", 1)[1]
        assert "/" in host_and_path

    @given(urls())
    @settings(max_examples=200)
    def test_no_uppercase_in_host(self, url: str):
        canonical = canonicalize(url.upper())
        host = canonical.split("://", 1)[1].split("/", 1)[0]
        assert host == host.lower()

    @given(urls(), st.sampled_from(["#frag", "#a/b?c", "#"]))
    @settings(max_examples=100)
    def test_fragment_never_survives(self, url: str, fragment: str):
        assert "#" not in canonicalize(url + fragment)

    @given(urls())
    @settings(max_examples=100)
    def test_parse_canonical_round_trip(self, url: str):
        canonical = canonicalize(url)
        assert parse_url(canonical, canonical=True).url() == canonical


# -- decomposition properties ---------------------------------------------------


class TestDecompositionProperties:
    @given(urls())
    @settings(max_examples=200)
    def test_at_least_one_decomposition(self, url: str):
        assert len(decompositions(url)) >= 1

    @given(urls())
    @settings(max_examples=200)
    def test_exact_expression_is_first_and_unique(self, url: str):
        decomps = decompositions(url)
        parsed = parse_url(url)
        assert decomps[0] == parsed.expression()
        assert len(decomps) == len(set(decomps))

    @given(urls())
    @settings(max_examples=200)
    def test_api_limit_of_30_expressions(self, url: str):
        assert len(decompositions(url)) <= 30

    @given(urls())
    @settings(max_examples=200)
    def test_registered_domain_root_present(self, url: str):
        parsed = parse_url(url)
        domain_root = f"{registered_domain(parsed.host)}/"
        assert domain_root in decompositions(url)

    @given(urls())
    @settings(max_examples=200)
    def test_every_decomposition_is_suffix_host_plus_prefix_path(self, url: str):
        parsed = parse_url(url)
        for expression in decompositions(url):
            host, _, path = expression.partition("/")
            assert parsed.host.endswith(host)
            assert ("/" + path).startswith("/")

    @given(urls())
    @settings(max_examples=100)
    def test_decompositions_of_decompositions_are_subsets(self, url: str):
        """Every decomposition, seen as a URL, decomposes into a subset."""
        decomps = set(decompositions(url))
        for expression in list(decomps)[:3]:
            nested = decompositions(f"http://{expression}")
            assert set(nested) <= decomps


# -- fast paths vs the char-by-char reference -----------------------------------
#
# canonicalize() returns early from its percent codec when a component has
# nothing to decode or escape, splits the authority with str.find, and
# rejects a host as an IP unless it starts with an ASCII digit.  The
# reference below keeps the original loops for those four steps and reuses
# the module's other steps unchanged; the two must agree on every input.

# The module itself: ``repro.urls.canonicalize`` names the function once the
# package has been imported.
_canon = importlib.import_module("repro.urls.canonicalize")

_REF_HEX = "0123456789abcdefABCDEF"


def _ref_percent_decode_once(text: str) -> str:
    out: list[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if (char == "%" and index + 2 < length
                and text[index + 1] in _REF_HEX and text[index + 2] in _REF_HEX):
            out.append(chr(int(text[index + 1:index + 3], 16)))
            index += 3
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _ref_repeated_percent_decode(text: str) -> str:
    previous = None
    current = text
    for _ in range(32):
        if current == previous:
            break
        previous = current
        current = _ref_percent_decode_once(current)
    return current


def _ref_percent_encode(text: str) -> str:
    out: list[str] = []
    for byte in text.encode("utf-8", errors="surrogatepass"):
        if byte <= 0x20 or byte >= 0x7F or byte in (0x23, 0x25):
            out.append(f"%{byte:02X}")
        else:
            out.append(chr(byte))
    return "".join(out)


def _ref_split_authority(remainder: str) -> tuple[str, bool, str]:
    for index, char in enumerate(remainder):
        if char in "/?":
            if char == "?":
                return remainder[:index], True, "/" + remainder[index:]
            return remainder[:index], True, remainder[index:]
    return remainder, False, ""


def _ref_normalize_ip(host: str) -> str | None:
    if not host:
        return None

    def parse_part(part: str) -> int | None:
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

    values = [parse_part(part) for part in host.split(".")]
    if any(value is None for value in values) or not values:
        return None
    if len(values) == 1:
        total = values[0]
    elif len(values) <= 4:
        total = 0
        for value in values[:-1]:
            if value > 255:
                return None
            total = (total << 8) | value
        remaining_bytes = 4 - (len(values) - 1)
        if values[-1] >= (1 << (8 * remaining_bytes)):
            return None
        total = (total << (8 * remaining_bytes)) | values[-1]
    else:
        return None
    if total >= (1 << 32):
        return None
    return ".".join(str((total >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _ref_canonicalize_host(host: str) -> str:
    host = host.lower().strip(".")
    while ".." in host:
        host = host.replace("..", ".")
    ip = _ref_normalize_ip(host)
    return host if ip is None else ip


def _reference_canonicalize(url: str) -> str:
    text = _canon._strip_control_characters(url)
    if not text:
        raise CanonicalizationError("empty URL")
    text = _canon._strip_fragment(text)
    scheme, remainder = _canon._split_scheme(text)
    remainder = _canon._strip_userinfo(remainder)
    host_port, sep, path_query = _ref_split_authority(remainder)
    host, port = _canon._split_port(host_port)
    host = _ref_canonicalize_host(_ref_repeated_percent_decode(host))
    if not host:
        raise CanonicalizationError(f"no hostname in URL {url!r}")
    path, query = _canon._split_path_query(path_query if sep else "")
    path = _canon._canonicalize_path(_ref_repeated_percent_decode(path))
    host = _ref_percent_encode(host)
    path = _ref_percent_encode(path)
    query = _ref_percent_encode(query) if query is not None else None
    canonical = f"{scheme}://{host}"
    if port is not None and port != _canon._DEFAULT_PORTS.get(scheme):
        canonical += f":{port}"
    canonical += path
    if query is not None:
        canonical += f"?{query}"
    return canonical


def _outcome(function, url: str):
    try:
        return function(url)
    except CanonicalizationError as exc:
        return ("error", str(exc))


# Pieces that stress every branch: valid, truncated and double-encoded
# escapes, control bytes, '#', '@', '?', non-ASCII and dot segments.
_TRICKY = st.sampled_from([
    "%41", "%2f", "%2F", "%25", "%2541", "%252F", "%", "%4", "%zz", "%%41",
    "%20", "%00", "%7f", "%E2%82%AC", "%23", "%3F", "\t", "\r", "\n", "\x00",
    "\x01", "\x1f", "\x7f", " ", "#", "@", "?", "&", "=", "é", "日本", "\U0001f600",
    ".", "..", "/", "//", "./", "../", "a", "Z", "0", "9", "-", "_",
])
_tricky_text = st.lists(_TRICKY, max_size=8).map("".join)


def _render(value: int, base: str) -> str:
    if base == "hex":
        return f"0x{value:x}"
    if base == "HEX":
        return f"0X{value:X}"
    if base == "oct":
        return f"0{value:o}"
    return str(value)


_bases = st.sampled_from(["dec", "hex", "HEX", "oct"])


@st.composite
def _ip_hosts(draw) -> str:
    count = draw(st.integers(min_value=1, max_value=5))
    parts = []
    for _ in range(count):
        value = draw(st.one_of(st.integers(0, 300),
                               st.integers(0, 2**33)))
        parts.append(_render(value, draw(_bases)))
    host = ".".join(parts)
    mangle = draw(st.sampled_from(
        ["", "", "", "_", "%20", " ", "٣", "x", "g", ".", "..", "%2e"]))
    if mangle:
        at = draw(st.integers(0, len(host)))
        host = host[:at] + mangle + host[at:]
    return host


_name_hosts = st.one_of(
    _host,
    st.builds(lambda host, extra: host + extra, _host,
              st.sampled_from(["", ".", "..", "%2E", "%41", "É", "日本", "%"])),
    st.builds(lambda label, host: f"{label}.{host}", _tricky_text, _host),
)


@st.composite
def tricky_urls(draw) -> str:
    scheme = draw(st.sampled_from(["http://", "https://", "HTTP://", "ftp://", "", "//"]))
    userinfo = draw(st.sampled_from(["", "", "user:pw@", "a@b@", "%40@"]))
    host = draw(st.one_of(_ip_hosts(), _name_hosts))
    port = draw(st.sampled_from(["", "", ":", ":80", ":443", ":8080", ":0x50"]))
    path = draw(st.lists(_tricky_text, max_size=4).map(
        lambda segments: "/" + "/".join(segments) if segments else ""))
    query = draw(st.one_of(st.none(), _tricky_text))
    fragment = draw(st.one_of(st.none(), _tricky_text))
    url = f"{scheme}{userinfo}{host}{port}{path}"
    if query is not None:
        url += f"?{query}"
    if fragment is not None:
        url += f"#{fragment}"
    padding = draw(st.sampled_from(["", " ", "\t", "\n "]))
    return padding + url + padding


class TestFastPathsMatchReference:
    @given(tricky_urls())
    @settings(max_examples=600, deadline=None)
    def test_canonicalize_equals_char_by_char_reference(self, url: str):
        assert _outcome(canonicalize, url) == _outcome(_reference_canonicalize, url)

    @given(urls())
    @settings(max_examples=200, deadline=None)
    def test_plain_urls_equal_reference(self, url: str):
        assert canonicalize(url) == _reference_canonicalize(url)

    @given(_ip_hosts())
    @settings(max_examples=400, deadline=None)
    def test_ip_normalization_equals_reference(self, host: str):
        assert _canon._normalize_ip(host) == _ref_normalize_ip(host)

    @given(st.text(max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_codec_equals_reference_on_any_text(self, text: str):
        assert _canon._percent_decode_once(text) == _ref_percent_decode_once(text)
        assert _canon._percent_encode(text) == _ref_percent_encode(text)
        assert _canon._split_authority(text) == _ref_split_authority(text)
