"""The paper's primary contribution: the privacy analysis.

This package quantifies what a Safe Browsing provider can learn from the
32-bit prefixes its clients send:

* :mod:`repro.analysis.ballsbins` — the single-prefix anonymity-set bound of
  Section 5 (Raab-Steger maximum load, Poisson estimate, simulation) used to
  regenerate Table 5;
* :mod:`repro.analysis.kanonymity` — the k-anonymity privacy metric measured
  on a concrete URL universe;
* :mod:`repro.analysis.collisions` — Type I / II / III collision
  classification (Section 6.1, Table 6);
* :mod:`repro.analysis.inverted_index` — the provider's web index keyed by
  prefix, the data structure every re-identification needs;
* :mod:`repro.analysis.reidentification` — single- and multi-prefix URL
  re-identification;
* :mod:`repro.analysis.tracking` — Algorithm 1 and the end-to-end tracking
  system of Section 6.3, matched through a shadow-prefix inverted index;
* :mod:`repro.analysis.streaming` — online tracking detection over the
  server's request-log observer stream (fleet-scale adversary);
* :mod:`repro.analysis.temporal` — aggregation of a client's queries over
  time (the CFP-then-submission example);
* :mod:`repro.analysis.audit` — blacklist auditing: orphan prefixes,
  dictionary inversion, multi-prefix URLs (Section 7, Tables 10-12);
* :mod:`repro.analysis.mitigations` — scoring of the countermeasures
  discussed in Section 8 (dummy queries, one-prefix-at-a-time), which are
  installed as client privacy policies (:mod:`repro.safebrowsing.privacy`).
"""

from repro.analysis.ballsbins import (
    BallsIntoBinsModel,
    DOMAIN_COUNT_HISTORY,
    URL_COUNT_HISTORY,
    expected_max_load_poisson,
    max_load_upper_bound,
    simulate_max_load,
)
from repro.analysis.kanonymity import AnonymitySetReport, anonymity_sets, privacy_metric
from repro.analysis.collisions import (
    CollisionType,
    CollisionExample,
    classify_collision,
    collision_examples_for,
)
from repro.analysis.inverted_index import PrefixInvertedIndex
from repro.analysis.reidentification import (
    ReidentificationEngine,
    ReidentificationResult,
)
from repro.analysis.tracking import (
    ShadowPrefixIndex,
    TrackingDecision,
    TrackingOutcome,
    TrackingSystem,
    full_rescan_detect,
    tracking_prefixes,
)
from repro.analysis.streaming import StreamingTrackingDetector
from repro.analysis.temporal import TemporalCorrelator, CorrelatedVisit
from repro.analysis.audit import (
    BlacklistAuditor,
    InversionReport,
    MultiPrefixReport,
    OrphanReport,
)
from repro.analysis.mitigations import (
    MitigationComparison,
    compare_mitigations,
)

__all__ = [
    "AnonymitySetReport",
    "BallsIntoBinsModel",
    "BlacklistAuditor",
    "CollisionExample",
    "CollisionType",
    "CorrelatedVisit",
    "DOMAIN_COUNT_HISTORY",
    "InversionReport",
    "MitigationComparison",
    "MultiPrefixReport",
    "OrphanReport",
    "PrefixInvertedIndex",
    "ReidentificationEngine",
    "ReidentificationResult",
    "ShadowPrefixIndex",
    "StreamingTrackingDetector",
    "TemporalCorrelator",
    "TrackingDecision",
    "TrackingOutcome",
    "TrackingSystem",
    "URL_COUNT_HISTORY",
    "anonymity_sets",
    "classify_collision",
    "collision_examples_for",
    "compare_mitigations",
    "expected_max_load_poisson",
    "full_rescan_detect",
    "max_load_upper_bound",
    "privacy_metric",
    "simulate_max_load",
    "tracking_prefixes",
]
