"""Property tests: privacy policies may reshape traffic, never verdicts.

The policy layer's contract: for every registered policy, the client's
final :class:`LookupResult` verdicts are identical to an undefended
client's over the same URL sequence — for both providers' list sets, on
every store backend and over both transports, for the scalar *and* the
batched lookup path.  (What the server
*sees* is allowed — indeed supposed — to differ; that part is covered by
the arms-race harness and the unit suite.)

Two layers of coverage:

* an exhaustive deterministic sweep over the full
  policy x provider x backend x transport grid with a fixed,
  collision-heavy workload
  (revisits, shared roots, deep hits, orphans) — every combination the
  issue cares about, every run;
* a hypothesis pass per policy drawing URL sequences, the provider, the
  backend and the transport, to shake out sequences the fixed workload
  misses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import ManualClock
from repro.datastructures import STORE_FACTORIES
from repro.hashing.digests import url_prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS, YANDEX_LISTS
from repro.safebrowsing.privacy import POLICY_FACTORIES, build_policy
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.transport import LOCAL_TRANSPORT_KINDS, build_transport

BACKENDS = sorted(STORE_FACTORIES)
#: The paper's two providers (Tables 1 and 3): the list set each serves and
#: the malware and phishing lists the workload is blacklisted into.  Yandex
#: serves sixteen URL lists beside its digest lists, so its clients keep and
#: query many more (mostly empty) local stores per lookup.
PROVIDERS = {
    "google": (GOOGLE_LISTS, "goog-malware-shavar", "googpub-phish-shavar"),
    "yandex": (YANDEX_LISTS, "ydx-malware-shavar", "ydx-phish-shavar"),
}
POLICIES = sorted(POLICY_FACTORIES)
# The hermetic sweep covers the direct-call kinds; the socket transport's
# equivalence is pinned by the network tier (test_prop_wire_transport).
TRANSPORTS = sorted(LOCAL_TRANSPORT_KINDS)

BLACKLISTED = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "deep.phishy.example.net/a/b/c.html",
    # The nested-subdomain + path-entry shape where a batch's earlier URL
    # can early-stop on the path entry while a later URL's only evidence
    # is the shared subdomain root (the stage-3 dedup regression).
    "example.com/x",
    "a.example.com/",
)

#: A prefix in the client database with no full digest behind it (paper
#: Section 7.2): policies must treat "the server confirms nothing" exactly
#: like the undefended client does.
ORPHAN_EXPRESSION = "orphan.example.org/"

#: Collision-heavy fixed workload: revisits, shared domain roots, hits at
#: several depths, safe URLs, and an orphan-prefix hit.
WORKLOAD = [
    "http://evil.example.com/malware/dropper.exe",
    "http://good.example.org/",
    "http://evil.example.com/",
    "http://phishy.example.net/login.html",
    "http://evil.example.com/malware/dropper.exe",     # revisit, warm cache
    "http://deep.phishy.example.net/a/b/c.html",
    "http://sub.good.example.org/index.html?q=1",
    "http://phishy.example.net/other.html",            # root hit only
    "http://orphan.example.org/",                      # orphan: no digest
    "http://deep.phishy.example.net/a/",
    "http://evil.example.com/clean.html",              # domain-root hit
    "http://a.example.com/x",                          # early-stops on example.com/x
    "http://b.a.example.com/y",                        # shares only a.example.com/
]

_hosts = st.sampled_from([
    "evil.example.com",
    "phishy.example.net",
    "deep.phishy.example.net",
    "good.example.org",
    "orphan.example.org",
    "a.example.com",
    "b.a.example.com",
])
_paths = st.sampled_from([
    "/", "/login.html", "/malware/dropper.exe", "/a/b/c.html", "/a/",
    "/index.html?q=1", "/x", "/y",
])
_urls = st.builds(lambda host, path: f"http://{host}{path}", _hosts, _paths)


def _build_server(provider: str) -> SafeBrowsingServer:
    lists, malware, phishing = PROVIDERS[provider]
    server = SafeBrowsingServer(lists, clock=ManualClock())
    server.blacklist(malware, BLACKLISTED[:2])
    server.blacklist(phishing, BLACKLISTED[2:])
    server.insert_orphan_prefixes(malware, [url_prefix(ORPHAN_EXPRESSION)])
    return server


def _client(provider: str, backend: str, transport: str, policy: str | None,
            name: str) -> SafeBrowsingClient:
    server = _build_server(provider)
    channel = build_transport(transport, server, latency_seconds=0.01,
                              jitter_seconds=0.005, seed=f"prop:{name}")
    privacy_policy = build_policy(policy, seed=f"prop:{name}") if policy else None
    return SafeBrowsingClient(transport=channel, name=name,
                              config=ClientConfig(store_backend=backend),
                              privacy_policy=privacy_policy)


def _verdicts_scalar(client: SafeBrowsingClient, urls: list[str]) -> list:
    return [client.lookup(url).verdict for url in urls]


def _verdicts_batched(client: SafeBrowsingClient, urls: list[str]) -> list:
    # Two batches so cross-batch memo state is exercised too.
    middle = len(urls) // 2
    results = client.check_urls(urls[:middle]) + client.check_urls(urls[middle:])
    return [result.verdict for result in results]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
@pytest.mark.parametrize("policy", POLICIES)
class TestVerdictEquivalenceSweep:
    """Every policy x both providers x every backend x both transports,
    fixed workload."""

    def test_scalar_verdicts_match_undefended(self, policy, provider, backend,
                                              transport):
        baseline = _client(provider, backend, transport, None, "baseline")
        defended = _client(provider, backend, transport, policy, "defended")
        assert (_verdicts_scalar(defended, WORKLOAD)
                == _verdicts_scalar(baseline, WORKLOAD))

    def test_batched_verdicts_match_undefended(self, policy, provider, backend,
                                               transport):
        baseline = _client(provider, backend, transport, None, "baseline")
        defended = _client(provider, backend, transport, policy, "defended")
        assert (_verdicts_batched(defended, WORKLOAD)
                == _verdicts_batched(baseline, WORKLOAD))


@pytest.mark.parametrize("policy", POLICIES)
class TestVerdictEquivalenceProperty:
    @given(urls=st.lists(_urls, max_size=16),
           provider=st.sampled_from(sorted(PROVIDERS)),
           backend=st.sampled_from(BACKENDS),
           transport=st.sampled_from(TRANSPORTS))
    @settings(max_examples=15, deadline=None)
    def test_any_sequence_keeps_verdicts(self, policy, urls, provider, backend,
                                         transport):
        baseline = _client(provider, backend, transport, None, "baseline")
        defended = _client(provider, backend, transport, policy, "defended")
        assert (_verdicts_scalar(defended, urls)
                == _verdicts_scalar(baseline, urls))
        # The same sequence through the batched path of fresh clients.
        baseline_batch = _client(provider, backend, transport, None,
                                 "baseline-batch")
        defended_batch = _client(provider, backend, transport, policy,
                                 "defended-batch")
        assert (_verdicts_batched(defended_batch, urls)
                == _verdicts_batched(baseline_batch, urls))
