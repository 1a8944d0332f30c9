"""Property tests: ``decompositions`` equals the reference decomposer.

``decompositions`` slices host, path and query straight from a canonical
string and builds host suffixes and directory prefixes with plain string
operations.  The per-component code it replaced survives only here, as
:func:`reference_decompositions`, the independent oracle it is held to:
the same expressions in the same order, for string and :class:`ParsedURL`
input, under every policy.

The e2e benchmark cannot catch a wrong decomposer: its ground truth
(``workloads.PageLoads._malicious``) is computed with the same function.
The canonical URLs below are built from generated parts so that the shapes
the fast path special-cases all occur: dotted-quad IPs and the non-IP
``256.1.1.1``, explicit ports, empty and multi-``?`` queries, trailing and
repeated slashes, paths deeper than the directory cap, and hosts of one
label and of more than five.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import CanonicalizationError, DecompositionError
from repro.experiments.scale import SMALL, get_context
from repro.safebrowsing.lists import ListProvider
from repro.urls.decompose import (
    API_POLICY,
    EXHAUSTIVE_POLICY,
    DecompositionPolicy,
    decompositions,
)
from repro.urls.parse import ParsedURL, parse_url

SMALL_POLICY = DecompositionPolicy(max_host_suffixes=1, max_path_prefixes=2,
                                   include_query=False)
POLICIES = [API_POLICY, EXHAUSTIVE_POLICY, SMALL_POLICY,
            DecompositionPolicy(max_host_suffixes=0, max_path_prefixes=0)]
POLICY_IDS = ["api", "exhaustive", "small", "zero"]


# -- the reference --------------------------------------------------------------


def _reference_host_suffixes(host: str, policy: DecompositionPolicy,
                             is_ip: bool) -> list[str]:
    if not host:
        raise DecompositionError("empty host")
    if is_ip:
        return [host]
    labels = host.split(".")
    suffixes = [host]
    start = max(1, len(labels) - 5)
    candidates = []
    for index in range(start, len(labels) - 1):
        candidates.append(".".join(labels[index:]))
    for candidate in candidates[: policy.max_host_suffixes]:
        if candidate != host:
            suffixes.append(candidate)
    return suffixes


def _reference_path_prefixes(path: str, query: str | None,
                             policy: DecompositionPolicy) -> list[str]:
    if not path.startswith("/"):
        raise DecompositionError(f"path must start with '/': {path!r}")
    expressions: list[str] = []
    if query is not None and policy.include_query:
        expressions.append(f"{path}?{query}")
    expressions.append(path)
    segments = [segment for segment in path.split("/") if segment]
    prefixes: list[str] = ["/"]
    running = ""
    for segment in segments[:-1]:
        running += f"/{segment}"
        prefixes.append(running + "/")
    if path.endswith("/") and len(segments) >= 1:
        prefixes = [prefix for prefix in prefixes if prefix != path]
    for prefix in prefixes[: policy.max_path_prefixes]:
        if prefix not in expressions:
            expressions.append(prefix)
    return expressions


def reference_decompositions(url: str | ParsedURL, *,
                             policy: DecompositionPolicy = API_POLICY,
                             canonical: bool = False) -> list[str]:
    """The decomposer as it was before the string fast path: parse into a
    :class:`ParsedURL`, then cross host suffixes with path prefixes and drop
    repeated expressions."""
    parsed = url if isinstance(url, ParsedURL) else parse_url(url, canonical=canonical)
    labels = parsed.host.split(".")
    is_ip = len(labels) == 4 and all(label.isdigit() and int(label) <= 255
                                     for label in labels)
    hosts = _reference_host_suffixes(parsed.host, policy, is_ip)
    paths = _reference_path_prefixes(parsed.path, parsed.query, policy)
    expressions: list[str] = []
    seen: set[str] = set()
    for host in hosts:
        for path in paths:
            expression = f"{host}{path}"
            if expression not in seen:
                seen.add(expression)
                expressions.append(expression)
    return expressions


# -- strategies -------------------------------------------------------------------

_octet = st.integers(min_value=0, max_value=255).map(str)
_label = st.text(alphabet=string.ascii_lowercase + string.digits + "-",
                 min_size=1, max_size=6)

_hosts = st.one_of(
    st.builds(lambda *octets: ".".join(octets), _octet, _octet, _octet, _octet),
    st.sampled_from(["256.1.1.1", "1.2.3", "1.2.3.4.5", "01.2.3.4", "localhost"]),
    # One label up to well past the five the API starts from.
    st.lists(_label, min_size=1, max_size=9).map(".".join),
)

_ports = st.one_of(st.none(), st.integers(min_value=1, max_value=65535))

_segment = st.text(alphabet=string.ascii_letters + string.digits + "-_.%=",
                   min_size=1, max_size=5)


@st.composite
def _paths(draw) -> str:
    """Paths up to 8 directories deep, with or without a trailing slash,
    sometimes with one run of repeated slashes."""
    segments = draw(st.lists(_segment, max_size=8))
    path = "/" + "/".join(segments)
    if segments and draw(st.booleans()):
        path += "/"
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=0, max_value=len(path) - 1))
        if path[cut] == "/":
            path = path[:cut] + "/" * draw(st.integers(2, 3)) + path[cut + 1:]
    return path


_queries = st.one_of(
    st.none(),
    st.just(""),
    st.builds(lambda key, value: f"{key}={value}", _segment, _segment),
    st.builds(lambda *parts: "?".join(parts), _segment, _segment, _segment),
)


@st.composite
def canonical_urls(draw) -> str:
    """A canonical-form URL assembled from generated parts."""
    scheme = draw(st.sampled_from(["http", "https"]))
    host = draw(_hosts)
    port = draw(_ports)
    authority = host if port is None else f"{host}:{port}"
    url = f"{scheme}://{authority}{draw(_paths())}"
    query = draw(_queries)
    return url if query is None else f"{url}?{query}"


_policies = st.sampled_from(POLICIES)

_EDGE_URLS = [
    "http://256.1.1.1/a/b/c.html",
    "http://192.168.0.1:8080/a/b/?x=1",
    "http://a.b.c.d.e.f.g.h/1/2/3/4/5/6/7.html?q=1?r=2",
    "http://localhost/",
    "http://localhost/?",
    "http://a.b/x//y///z/",
    "http://a.b//",
    "https://x.y.z/1/2/3/4/5/6/",
]


class TestMatchesReference:
    @given(canonical_urls(), _policies)
    @settings(max_examples=400, deadline=None)
    @example("http://a.b.c.d.e.f.g.h/1/2/3/4/5/6/7.html?q=1?r=2", API_POLICY)
    @example("http://256.1.1.1/a/b/c/d/e/f.html", API_POLICY)
    @example("http://10.0.0.1:81/a/b/c/d/e/f.html", EXHAUSTIVE_POLICY)
    @example("http://a.b//", API_POLICY)
    def test_canonical_string(self, url, policy):
        assert (decompositions(url, policy=policy, canonical=True)
                == reference_decompositions(url, policy=policy, canonical=True))

    @given(canonical_urls(), _policies)
    @settings(max_examples=300, deadline=None)
    def test_parsed_url(self, url, policy):
        parsed = parse_url(url, canonical=True)
        assert (decompositions(parsed, policy=policy)
                == reference_decompositions(parsed, policy=policy))

    @given(canonical_urls(), _policies)
    @settings(max_examples=200, deadline=None)
    def test_raw_string_is_canonicalized_first(self, url, policy):
        assert (decompositions(url, policy=policy)
                == reference_decompositions(url, policy=policy))

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    @pytest.mark.parametrize("url", _EDGE_URLS)
    def test_edge_shapes(self, url, policy):
        for source in (url, parse_url(url, canonical=True)):
            assert (decompositions(source, policy=policy, canonical=True)
                    == reference_decompositions(source, policy=policy, canonical=True))

    def test_hand_built_host_with_a_slash_drops_repeats(self):
        # host + "/" and its suffix + "/q./" spell the same expression.
        parsed = ParsedURL("http", "/q./q.", None, "/q./", None)
        assert (decompositions(parsed) == reference_decompositions(parsed)
                == ["/q./q./q./", "/q./q./", "/q./"])

    def test_same_errors(self):
        for call in (decompositions, reference_decompositions):
            with pytest.raises(CanonicalizationError):
                call("no-scheme.example/", canonical=True)
            with pytest.raises(DecompositionError):
                call(ParsedURL("http", "", None, "/", None))
            with pytest.raises(DecompositionError):
                call(ParsedURL("http", "a.b", None, "x", None))


class TestSmallCorpusSweep:
    """Every SMALL-scale corpus URL and blacklisted expression decomposes
    exactly as the reference does."""

    @pytest.fixture(scope="class")
    def urls(self):
        context = get_context(SMALL)
        truth = context.snapshot(ListProvider.GOOGLE).ground_truth
        listed = sorted({f"http://{expression}"
                         for expressions in truth.values()
                         for expression in expressions})
        return context.url_pool("alexa") + context.url_pool("random") + tuple(listed)

    @pytest.mark.parametrize("policy", [API_POLICY, EXHAUSTIVE_POLICY],
                             ids=["api", "exhaustive"])
    def test_sweep(self, urls, policy):
        mismatches = []
        for url in urls:
            parsed = parse_url(url)
            expected = reference_decompositions(parsed, policy=policy)
            if (decompositions(url, policy=policy) != expected
                    or decompositions(parsed, policy=policy) != expected):
                mismatches.append(url)
        assert len(urls) > 10_000
        assert mismatches == []
