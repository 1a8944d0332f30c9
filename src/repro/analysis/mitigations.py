"""Scoring for the Section 8 countermeasures.

The mitigations themselves — dummy queries, one-prefix-at-a-time, prefix
widening, query mixing — live in the first-class policy layer
(:mod:`repro.safebrowsing.privacy`), installed directly on
:class:`~repro.safebrowsing.client.SafeBrowsingClient` with
``privacy_policy=``; every full-hash fetch of ``lookup`` and
``check_urls`` goes through the policy, so both are defended.  This
module scores them:
:func:`compare_mitigations` turns two lookup traces (baseline vs.
mitigated) into a :class:`MitigationComparison` of re-identification
rates, using the same
:class:`~repro.analysis.reidentification.ReidentificationEngine` that
attacks the unprotected client.  The harness that drives it is
:mod:`repro.experiments.mitigation_comparison`; the fleet-scale arms race
(:mod:`repro.experiments.armsrace`) supersedes it for the full policy ×
adversary sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.reidentification import ReidentificationEngine
from repro.safebrowsing.protocol import LookupResult


@dataclass(frozen=True, slots=True)
class MitigationComparison:
    """Re-identification rates with and without a mitigation."""

    scenario: str
    urls_evaluated: int
    baseline_url_rate: float
    mitigated_url_rate: float
    baseline_domain_rate: float
    mitigated_domain_rate: float
    average_prefixes_sent_baseline: float
    average_prefixes_sent_mitigated: float

    @property
    def url_rate_improvement(self) -> float:
        """Absolute drop in URL re-identification achieved by the mitigation."""
        return self.baseline_url_rate - self.mitigated_url_rate


def _reidentify_from_results(engine: ReidentificationEngine,
                             results: Sequence[LookupResult]) -> tuple[float, float, float]:
    """(url rate, domain rate, avg prefixes sent) over lookups that contacted the server."""
    contacted = [result for result in results if result.contacted_server]
    if not contacted:
        return 0.0, 0.0, 0.0
    url_hits = 0
    domain_hits = 0
    total_prefixes = 0
    for result in contacted:
        total_prefixes += len(result.sent_prefixes)
        outcome = engine.reidentify_best_coverage(result.sent_prefixes)
        if outcome.identified_url == result.canonical_url:
            url_hits += 1
        entry_domain = engine.index.indexed_url(result.canonical_url).registered_domain \
            if result.canonical_url in engine.index else None
        if entry_domain is not None and outcome.identified_domain == entry_domain:
            domain_hits += 1
    count = len(contacted)
    return url_hits / count, domain_hits / count, total_prefixes / count


def compare_mitigations(scenario: str,
                        baseline_results: Sequence[LookupResult],
                        mitigated_results: Sequence[LookupResult],
                        engine: ReidentificationEngine) -> MitigationComparison:
    """Build a :class:`MitigationComparison` from two lookup traces."""
    base_url, base_domain, base_sent = _reidentify_from_results(engine, baseline_results)
    mit_url, mit_domain, mit_sent = _reidentify_from_results(engine, mitigated_results)
    return MitigationComparison(
        scenario=scenario,
        urls_evaluated=len(baseline_results),
        baseline_url_rate=base_url,
        mitigated_url_rate=mit_url,
        baseline_domain_rate=base_domain,
        mitigated_domain_rate=mit_domain,
        average_prefixes_sent_baseline=base_sent,
        average_prefixes_sent_mitigated=mit_sent,
    )
