"""repro — a reproduction of *A Privacy Analysis of Google and Yandex Safe Browsing*.

The library re-implements, in pure Python, every system the paper by Gerbet,
Kumar and Lauradoux (DSN 2016) describes or depends on:

* the Safe Browsing v3 machinery (URL canonicalization, decompositions,
  hash-and-truncate, chunked list updates, client lookup flow, full-hash
  requests with the SB cookie) — :mod:`repro.urls`, :mod:`repro.hashing`,
  :mod:`repro.datastructures`, :mod:`repro.safebrowsing`;
* a synthetic web corpus with the power-law host-size distribution the paper
  measures on Common Crawl — :mod:`repro.corpus`;
* the privacy analysis itself: single-prefix anonymity (balls-into-bins and
  k-anonymity), multi-prefix re-identification with Type I/II/III collision
  classification, the tracking system of Algorithm 1, temporal correlation,
  blacklist audits (orphans, inversion, multi-prefix URLs) and the proposed
  mitigations — :mod:`repro.analysis`;
* experiment harnesses regenerating every table and figure of the paper's
  evaluation — :mod:`repro.experiments`.

Quick start
-----------

>>> from repro import decompositions, url_prefix
>>> decompositions("https://petsymposium.org/2016/cfp.php")[0]
'petsymposium.org/2016/cfp.php'
"""

from repro.exceptions import (
    AnalysisError,
    CanonicalizationError,
    CorpusError,
    DataStructureError,
    DecompositionError,
    ExperimentError,
    ListNotFoundError,
    PrefixError,
    ProtocolError,
    ReproError,
    UpdateError,
)
from repro.clock import Clock, ManualClock
from repro.hashing import (
    FullHash,
    Prefix,
    PrefixSet,
    digests_of,
    full_digest,
    prefixes_of,
    sha256_digest,
    url_prefix,
)
from repro.urls import (
    HostHierarchy,
    ParsedURL,
    canonicalize,
    decompositions,
    parse_url,
    registered_domain,
    second_level_domain,
)
from repro.datastructures import (
    BloomFilter,
    BloomPrefixStore,
    DeltaCodedPrefixStore,
    RawPrefixStore,
    store_memory_report,
)
from repro.safebrowsing import (
    ClientConfig,
    GOOGLE_LISTS,
    ListProvider,
    SafeBrowsingClient,
    SafeBrowsingServer,
    Verdict,
    YANDEX_LISTS,
)
from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    WebCorpus,
    build_blacklist_snapshot,
    build_dataset_bundle,
    collect_corpus_statistics,
    fit_power_law,
)
from repro.analysis import (
    BallsIntoBinsModel,
    BlacklistAuditor,
    CollisionType,
    PrefixInvertedIndex,
    ReidentificationEngine,
    TemporalCorrelator,
    TrackingSystem,
    privacy_metric,
    tracking_prefixes,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "BallsIntoBinsModel",
    "BlacklistAuditor",
    "BloomFilter",
    "BloomPrefixStore",
    "CanonicalizationError",
    "ClientConfig",
    "Clock",
    "CollisionType",
    "CorpusConfig",
    "CorpusError",
    "CorpusGenerator",
    "DataStructureError",
    "DecompositionError",
    "DeltaCodedPrefixStore",
    "ExperimentError",
    "FullHash",
    "GOOGLE_LISTS",
    "HostHierarchy",
    "ListNotFoundError",
    "ListProvider",
    "ManualClock",
    "ParsedURL",
    "Prefix",
    "PrefixError",
    "PrefixInvertedIndex",
    "PrefixSet",
    "ProtocolError",
    "RawPrefixStore",
    "ReidentificationEngine",
    "ReproError",
    "SafeBrowsingClient",
    "SafeBrowsingServer",
    "TemporalCorrelator",
    "TrackingSystem",
    "UpdateError",
    "Verdict",
    "WebCorpus",
    "YANDEX_LISTS",
    "build_blacklist_snapshot",
    "build_dataset_bundle",
    "canonicalize",
    "collect_corpus_statistics",
    "decompositions",
    "digests_of",
    "fit_power_law",
    "full_digest",
    "prefixes_of",
    "parse_url",
    "privacy_metric",
    "registered_domain",
    "second_level_domain",
    "sha256_digest",
    "store_memory_report",
    "tracking_prefixes",
    "url_prefix",
]
