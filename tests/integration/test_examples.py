"""Smoke tests: every example script runs to completion and prints output."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the corpus/fleet/analysis layers are numpy-backed

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXAMPLES = [
    ("quickstart.py", ["0xe70ee6d1", "prefixes revealed", "cookie="]),
    ("tracking_demo.py", ["Algorithm 1", "prospective PETS author", "visited"]),
    ("anonymity_analysis.py", ["Table 5", "anonymity sets", "domain roots"]),
    ("blacklist_audit.py", ["Inversion", "Orphan prefixes", "multiple matching prefixes"]),
    ("mitigation_comparison.py", ["baseline", "dummy queries", "one prefix at a time"]),
    ("fleet_demo.py", ["coalesced", "Fleet throughput", "traffic signatures match: True"]),
    ("network_fleet_demo.py", ["in-process (the reference)", "simulated network",
                               "server cache rate"]),
    ("adversary_fleet_demo.py", ["streaming detections: 3", "rotated out",
                                 "precision        : 1.00",
                                 "recall           : 1.00"]),
    ("armsrace_demo.py", ["prefixes on the wire : 10",
                          "tracker detections   : 0",
                          "Section 8 arms race at fleet scale",
                          "paper's Section 8 finding"]),
    ("parallel_fleet_demo.py", ["counters differing from the monolithic run: 0",
                                "traffic signatures match: True",
                                "population profile     : global-mix",
                                "sizes differ by <= 1"]),
    ("warm_start_demo.py", ["checksum verified",
                            "warm restart fetched   : 5 prefixes",
                            "store backend          : numpy",
                            "drifted threat caught  : True",
                            "lookup traffic identical "
                            "(persistence never changes verdicts): True"]),
]


@pytest.mark.parametrize("script, expected_fragments", EXAMPLES,
                         ids=[name for name, _ in EXAMPLES])
def test_example_runs(script: str, expected_fragments: list[str]):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for fragment in expected_fragments:
        assert fragment in completed.stdout, (
            f"expected {fragment!r} in the output of {script}"
        )
