"""Experiment scaling and shared, cached workloads.

The paper's corpora (10^6 hosts, 10^9 URLs) and blacklists (10^5 prefixes)
are too large for a test run, so every experiment accepts a :class:`Scale`
that controls the synthetic workload size.  :data:`SMALL` is sized for the
test suite (seconds), :data:`MEDIUM` for the benchmark run (tens of
seconds), and :data:`LARGE`/:data:`XLARGE` (~10^5/10^6 clients) for the
process-parallel fleet engine — ``slow``-marked, minutes of wall clock.
:func:`get_context` caches the expensive artifacts (corpora,
blacklist snapshots, inverted indexes) per scale, so the benchmark files can
share them instead of regenerating them per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.analysis.inverted_index import PrefixInvertedIndex
from repro.corpus.datasets import BlacklistSnapshot, DatasetBundle, build_blacklist_snapshot, build_dataset_bundle
from repro.safebrowsing.lists import ListProvider


@dataclass(frozen=True, slots=True)
class Scale:
    """Workload sizes for one experiment run.

    Attributes
    ----------
    name:
        Label recorded in reports.
    corpus_hosts:
        Number of sites per corpus (the paper uses 1,000,000).
    blacklist_fraction:
        Fraction of the paper-reported prefix counts used when populating
        the synthetic blacklists.
    stats_sites:
        Number of sites on which the per-site decomposition statistics are
        computed (Figures 5c-5f, 6).
    index_sites:
        Number of sites indexed by the provider's inverted index in the
        re-identification and tracking experiments.
    tracked_targets:
        Number of target URLs tracked in the Algorithm 1 experiment.
    clients:
        Number of simulated Safe Browsing clients in end-to-end experiments
        (and in the fleet traffic simulator).
    fleet_urls_per_client:
        Length of each simulated client's URL stream in the fleet simulator.
    fleet_batch_size:
        Page-load batch size used by the fleet simulator's batched mode.
    """

    name: str
    corpus_hosts: int
    blacklist_fraction: float
    stats_sites: int
    index_sites: int
    tracked_targets: int
    clients: int
    fleet_urls_per_client: int = 200
    fleet_batch_size: int = 50

    def __post_init__(self) -> None:
        if self.corpus_hosts <= 0 or self.stats_sites <= 0 or self.index_sites <= 0:
            raise ValueError("scale sizes must be positive")
        if self.clients <= 0:
            raise ValueError("scale must have at least one client")
        if not (0.0 < self.blacklist_fraction <= 1.0):
            raise ValueError("blacklist_fraction must be in (0, 1]")
        if self.fleet_urls_per_client <= 0 or self.fleet_batch_size <= 0:
            raise ValueError("fleet sizes must be positive")


#: Sized for the unit/integration test suite.
SMALL = Scale(
    name="small",
    corpus_hosts=120,
    blacklist_fraction=0.002,
    stats_sites=80,
    index_sites=60,
    tracked_targets=5,
    clients=4,
    fleet_urls_per_client=150,
    fleet_batch_size=25,
)

#: Sized for the benchmark run.
MEDIUM = Scale(
    name="medium",
    corpus_hosts=600,
    blacklist_fraction=0.01,
    stats_sites=300,
    index_sites=200,
    tracked_targets=15,
    clients=8,
    fleet_urls_per_client=2500,
    fleet_batch_size=125,
)

#: ~10^5 clients — the process-parallel fleet tier
#: (:mod:`repro.experiments.parallel`).  Population-scale: many short
#: sessions rather than few long ones, so the per-client stream is small
#: and the cost is dominated by client count — which is what the parallel
#: engine shards.  Runs at this tier are gated behind the ``slow`` marker.
LARGE = Scale(
    name="large",
    corpus_hosts=400,
    blacklist_fraction=0.002,
    stats_sites=120,
    index_sites=80,
    tracked_targets=25,
    clients=100_000,
    fleet_urls_per_client=6,
    fleet_batch_size=3,
)

#: ~10^6 clients — the ceiling tier.  Defined so shard plans, merge math
#: and CLI plumbing are exercised at the million-client shape; actually
#: *running* it is strictly a ``slow``-marked, opt-in affair.
XLARGE = Scale(
    name="xlarge",
    corpus_hosts=400,
    blacklist_fraction=0.002,
    stats_sites=120,
    index_sites=80,
    tracked_targets=25,
    clients=1_000_000,
    fleet_urls_per_client=3,
    fleet_batch_size=3,
)


class ExperimentContext:
    """Lazily built, cached workloads shared by the experiments at one scale."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale
        self._bundle: DatasetBundle | None = None
        self._snapshots: dict[ListProvider, BlacklistSnapshot] = {}
        self._indexes: dict[str, PrefixInvertedIndex] = {}
        self._url_pools: dict[str, tuple[str, ...]] = {}

    @property
    def bundle(self) -> DatasetBundle:
        """The Alexa-like and random-like corpora (Table 8)."""
        if self._bundle is None:
            self._bundle = build_dataset_bundle(self.scale.corpus_hosts)
        return self._bundle

    def snapshot(self, provider: ListProvider) -> BlacklistSnapshot:
        """The provisioned blacklist snapshot of one provider."""
        if provider not in self._snapshots:
            self._snapshots[provider] = build_blacklist_snapshot(
                provider,
                scale=self.scale.blacklist_fraction,
                multi_prefix_sites=self.bundle.alexa,
                multi_prefix_site_count=max(5, self.scale.tracked_targets),
            )
        return self._snapshots[provider]

    def inverted_index(self, corpus_label: str = "alexa") -> PrefixInvertedIndex:
        """The provider's web index over one corpus (sampled at scale)."""
        if corpus_label not in self._indexes:
            corpus = self.bundle.alexa if corpus_label == "alexa" else self.bundle.random
            self._indexes[corpus_label] = PrefixInvertedIndex.from_corpus(
                corpus, max_sites=self.scale.index_sites
            )
        return self._indexes[corpus_label]

    def url_pool(self, corpus_label: str = "alexa") -> tuple[str, ...]:
        """Every URL of one corpus, flattened for traffic sampling.

        The fleet simulator draws each client's stream from this pool; the
        flattening is cached because the pool is shared by every client and
        every simulated mode at one scale.
        """
        if corpus_label not in self._url_pools:
            if corpus_label == "alexa":
                corpus = self.bundle.alexa
            elif corpus_label == "random":
                corpus = self.bundle.random
            else:
                raise ValueError(f"unknown corpus label {corpus_label!r}; "
                                 f"expected 'alexa' or 'random'")
            self._url_pools[corpus_label] = tuple(corpus.all_urls())
        return self._url_pools[corpus_label]

    def provision_server(self, provider: ListProvider, *, clock=None,
                         **server_kwargs):
        """A fresh server provisioned with this scale's blacklist snapshot.

        Builds a :class:`~repro.safebrowsing.server.SafeBrowsingServer` over
        ``provider``'s lists and blacklists the cached snapshot's ground
        truth — the one provisioning sequence shared by the fleet
        simulator, the CLI's ``snapshot save`` and the benchmarks, so the
        three can never drift apart.  ``clock`` and any extra keyword
        arguments (``response_cache_seconds``, ``storage``, ...) are
        forwarded to the server constructor.  The context's own cached
        snapshot server is never returned: callers get a private instance
        they may freely mutate.
        """
        # Imported lazily: scale.py is imported by analysis-only paths that
        # never need the full server stack.
        from repro.safebrowsing.lists import lists_for_provider
        from repro.safebrowsing.server import SafeBrowsingServer

        snapshot = self.snapshot(provider)
        server = SafeBrowsingServer(lists_for_provider(provider),
                                    clock=clock, **server_kwargs)
        for list_name, expressions in snapshot.ground_truth.items():
            if expressions:
                server.blacklist(list_name, expressions)
        return server


@lru_cache(maxsize=8)
def _context_for(name: str, corpus_hosts: int, blacklist_fraction: float,
                 stats_sites: int, index_sites: int, tracked_targets: int,
                 clients: int, fleet_urls_per_client: int,
                 fleet_batch_size: int) -> ExperimentContext:
    return ExperimentContext(Scale(name, corpus_hosts, blacklist_fraction,
                                   stats_sites, index_sites, tracked_targets,
                                   clients, fleet_urls_per_client, fleet_batch_size))


def get_context(scale: Scale = SMALL) -> ExperimentContext:
    """Return the cached :class:`ExperimentContext` for ``scale``."""
    return _context_for(scale.name, scale.corpus_hosts, scale.blacklist_fraction,
                        scale.stats_sites, scale.index_sites, scale.tracked_targets,
                        scale.clients, scale.fleet_urls_per_client,
                        scale.fleet_batch_size)
