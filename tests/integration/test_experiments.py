"""Integration tests for the experiment harnesses (one per table/figure).

Every harness must run at SMALL scale, return well-formed rows, and satisfy
the qualitative claims of the paper it reproduces (who wins, in which order,
by roughly what factor).  The benchmark suite re-runs the same harnesses at a
larger scale and records timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum

import pytest

pytest.importorskip("numpy")  # the corpus/fleet/analysis layers are numpy-backed

from repro.experiments.scale import SMALL, get_context
from repro.safebrowsing.lists import ListProvider


@pytest.fixture(scope="module", autouse=True)
def warm_context():
    """Build the shared SMALL-scale workloads once for this module."""
    context = get_context(SMALL)
    context.bundle  # force corpus generation
    return context


class TestListTables:
    def test_table1_rows(self):
        from repro.experiments.table01_google_lists import google_lists_rows, google_lists_table

        rows = google_lists_rows(SMALL)
        assert len(rows) == 5
        by_name = {row.name: row for row in rows}
        assert by_name["goog-malware-shavar"].measured_prefixes > \
            by_name["goog-whitedomain-shavar"].measured_prefixes
        assert "Table 1" in google_lists_table(SMALL).render()

    def test_table3_rows(self):
        from repro.experiments.table03_yandex_lists import yandex_lists_rows, yandex_lists_table

        rows = yandex_lists_rows(SMALL)
        assert len(rows) == 19
        by_name = {row.name: row for row in rows}
        assert by_name["ydx-malware-shavar"].measured_prefixes > \
            by_name["ydx-yellow-shavar"].measured_prefixes
        assert "Yandex" in yandex_lists_table(SMALL).render()

    def test_provider_overlap_is_small(self):
        from repro.experiments.table03_yandex_lists import provider_overlap_table

        table = provider_overlap_table(SMALL)
        assert len(table.rows) == 2


class TestCacheSizeTable:
    def test_table2_shape(self):
        from repro.experiments.table02_cache_size import cache_size_rows

        rows = cache_size_rows(entry_count=30_000, widths=(32, 64, 128))
        by_bits = {row.prefix_bits: row.report for row in rows}
        # Raw grows linearly with the width.
        assert by_bits[64].raw_bytes == 2 * by_bits[32].raw_bytes
        # The Bloom filter is width-independent.
        assert by_bits[32].bloom_bytes == by_bits[128].bloom_bytes
        # Delta coding loses its advantage as the width grows (paper claim).
        assert by_bits[32].delta_bytes < by_bits[32].raw_bytes
        assert not by_bits[128].bloom_wins or by_bits[128].bloom_bytes < by_bits[128].delta_bytes

    def test_table2_crossover_at_realistic_density(self):
        from repro.experiments.table02_cache_size import cache_size_rows

        rows = cache_size_rows(entry_count=150_000, widths=(32, 64))
        by_bits = {row.prefix_bits: row.report for row in rows}
        assert not by_bits[32].bloom_wins
        assert by_bits[64].bloom_wins
        assert 1.5 <= by_bits[32].compression_ratio <= 2.5


class TestPetsAndCollisionTables:
    def test_table4_prefixes_match_paper_exactly(self):
        from repro.experiments.table04_pets_decompositions import pets_decomposition_rows

        rows = pets_decomposition_rows()
        assert len(rows) == 3
        assert all(row.matches_paper for row in rows)

    def test_table6_classification(self):
        from repro.analysis.collisions import CollisionType
        from repro.experiments.table06_collision_types import collision_type_rows

        rows = collision_type_rows()
        by_label = {row.label: row for row in rows}
        assert by_label["Type I"].classification is CollisionType.TYPE_I
        # Real SHA-256 cannot produce the accidental collisions at 32 bits.
        assert by_label["Type II"].classification is CollisionType.NONE
        assert by_label["Type III"].classification is CollisionType.NONE
        assert by_label["Type I"].probability_bound == 1.0

    def test_table7_and_figure4(self):
        from repro.experiments.table07_domain_hierarchy import (
            hierarchy_rows,
            sample_decomposition_table,
        )

        table = sample_decomposition_table()
        assert len(table.rows) == 4  # the paper's 4 decompositions of a.b.c/1
        rows = hierarchy_rows()
        assert all(row.is_leaf == row.paper_says_leaf for row in rows)


class TestTable5:
    def test_balls_into_bins_shape(self):
        from repro.experiments.table05_balls_into_bins import balls_into_bins_rows

        rows = balls_into_bins_rows()
        urls_32 = {row.year: row for row in rows
                   if row.population == "URLs" and row.prefix_bits == 32}
        domains_32 = {row.year: row for row in rows
                      if row.population == "domains" and row.prefix_bits == 32}
        # URLs stay hidden behind a 32-bit prefix, domains do not.
        assert all(row.worst_case_uncertainty > 100 for row in urls_32.values())
        assert all(row.worst_case_uncertainty <= 10 for row in domains_32.values())
        # Uncertainty grows with the size of the web.
        assert urls_32[2013].worst_case_uncertainty > urls_32[2008].worst_case_uncertainty
        # 64-bit prefixes identify URLs nearly uniquely.
        urls_64 = [row for row in rows if row.population == "URLs" and row.prefix_bits == 64]
        assert all(row.worst_case_uncertainty <= 5 for row in urls_64)


class TestCorpusExperiments:
    def test_table8_ratios(self):
        from repro.experiments.table08_datasets import dataset_rows

        rows = {row.label: row for row in dataset_rows(SMALL)}
        assert rows["alexa"].urls_per_domain > rows["random"].urls_per_domain
        assert 1.0 <= rows["random"].decompositions_per_url <= 10.0

    def test_figure5_panels(self):
        from repro.experiments.fig05_distributions import figure5_data, headline_table

        panels = figure5_data(SMALL)
        assert [panel.figure_id for panel in panels] == [
            "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
        ]
        for panel in panels:
            assert len(panel.series) == 2  # alexa + random
        table = headline_table(SMALL)
        assert len(table.rows) >= 8

    def test_figure6_collisions(self):
        from repro.experiments.fig06_prefix_collisions import (
            collision_summaries,
            figure6_data,
            scaled_prefix_bits,
        )

        bits = scaled_prefix_bits(SMALL)
        assert 8 <= bits < 32
        summaries = collision_summaries(SMALL)
        at_32 = [s for s in summaries if s.prefix_bits == 32]
        reduced = [s for s in summaries if s.prefix_bits == bits]
        # At 32 bits the scaled corpus is below the birthday bound.
        assert all(s.colliding_fraction <= 0.05 for s in at_32)
        # At the reduced width the same pipeline does find collisions.
        assert any(s.colliding_hosts > 0 for s in reduced)
        figure = figure6_data(SMALL)
        assert figure.series


class TestAuditExperiments:
    def test_table9_and_10(self):
        from repro.experiments.table10_inversion import (
            dictionary_table,
            inversion_reports,
            inversion_table,
        )

        assert len(dictionary_table(SMALL).rows) == 4
        yandex_reports = inversion_reports(ListProvider.YANDEX, SMALL)
        by_key = {(r.list_name, r.dictionary_name): r for r in yandex_reports}
        porno_dns = by_key[("ydx-porno-hosts-top-shavar", "dns-census")]
        porno_phish = by_key[("ydx-porno-hosts-top-shavar", "phishing")]
        assert porno_dns.match_rate > porno_phish.match_rate
        assert inversion_table(SMALL).rows

    def test_table11(self):
        from repro.experiments.table11_orphans import orphan_reports

        google = {r.list_name: r for r in orphan_reports(ListProvider.GOOGLE, SMALL,
                                                         with_corpus=False)}
        yandex = {r.list_name: r for r in orphan_reports(ListProvider.YANDEX, SMALL,
                                                         with_corpus=False)}
        assert google["goog-malware-shavar"].orphan_fraction < 0.01
        assert yandex["ydx-phish-shavar"].orphan_fraction > 0.9
        assert yandex["ydx-malware-shavar"].orphan_fraction < 0.1

    def test_table12(self):
        from repro.experiments.table12_multi_prefix import multi_prefix_findings

        findings = {finding.provider: finding for finding in multi_prefix_findings(SMALL)}
        for finding in findings.values():
            assert finding.report.url_count >= 1
            assert finding.reidentified_domains >= 1


class TestTrackingAndMitigationExperiments:
    def test_algorithm1_experiment(self):
        from repro.experiments.alg1_tracking import pets_example_table, run_tracking_experiment

        result = run_tracking_experiment(SMALL, delta=4)
        assert result.targets > 0
        assert result.recall == pytest.approx(1.0)
        assert result.precision >= 0.9
        table = pets_example_table()
        assert len(table.rows) == 2

    def test_delta_sweep_improves_url_trackability(self):
        from repro.experiments.alg1_tracking import delta_sweep

        results = {result.delta: result for result in delta_sweep(SMALL, deltas=(2, 8))}
        assert results[8].url_trackable_targets >= results[2].url_trackable_targets

    def test_mitigation_experiment(self):
        from repro.experiments.mitigation_comparison import run_mitigation_experiment

        experiment = run_mitigation_experiment(SMALL)
        dummy = experiment.dummy_comparison
        one_prefix = experiment.one_prefix_comparison
        # Dummies do not reduce URL re-identification on multi-prefix hits.
        assert dummy.mitigated_url_rate == pytest.approx(dummy.baseline_url_rate)
        # One-prefix-at-a-time does.
        assert one_prefix.mitigated_url_rate < one_prefix.baseline_url_rate
        # But the domain is still learned.
        assert one_prefix.mitigated_domain_rate == pytest.approx(1.0)
        assert one_prefix.average_prefixes_sent_mitigated < \
            one_prefix.average_prefixes_sent_baseline


def _canonical(value):
    """A JSON-ready form of an experiment result with a stable order.

    Dataclasses become field dicts, enums their values, bytes hex; sets
    and dict items are sorted by their JSON text, so the digest does not
    depend on hash seeds.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return _canonical(value.value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return sorted(([_canonical(key), _canonical(item)]
                       for key, item in value.items()), key=json.dumps)
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    assert value is None or isinstance(value, (str, int, float)), type(value)
    return value


def result_digest(result) -> str:
    """SHA-256 over every field of an experiment result, nested included."""
    return hashlib.sha256(
        json.dumps(_canonical(result), sort_keys=True).encode("utf-8")).hexdigest()


class TestGoldenExperimentDigests:
    """Whole-result digests of the experiments that drive the client lookup.

    Recorded before the client's scalar and batched lookup paths were made
    one; a refactor of the client must leave every one of them as it is.
    The mitigation result carries each visit's ``LookupResult``, so its
    digest pins ``sent_prefixes`` and ``served_from_cache`` per URL.
    """

    GOLDEN = {
        "alg1_tracking:run_tracking_experiment":
            "6f0c2c45ddcb056e2d8adab35310309e22e4ba86537c7426ef3d4a658e0a5fad",
        "history_reconstruction:run_history_experiment":
            "7cfe252e37e1277fc6ffcf82a4cecbd732f3ae4db743d0229bc7d17be9572e8f",
        "mitigation_comparison:run_mitigation_experiment":
            "6f68c1d89fe78feedb219a36f1dc21e307e453c93d66013aa3b3ec48f3969ab8",
        "ecosystem_leakage:run_ecosystem_experiment":
            "cfa9bd046723044ef431e81816690f83fa0f8c5034bcc3502cd590d149e379c9",
    }

    @pytest.mark.parametrize("target", sorted(GOLDEN))
    def test_result_digest(self, target):
        import importlib

        module, function = target.split(":")
        run = getattr(importlib.import_module(f"repro.experiments.{module}"),
                      function)
        assert result_digest(run(SMALL)) == self.GOLDEN[target]
