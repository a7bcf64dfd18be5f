"""Byte-identity snapshot of simulation reports.

Every (preset, policy) pair at MICRO scale is run and the sha256 of its
canonical report JSON is compared with ``tests/data/report_fingerprints.json``.
A refactor that claims to leave behaviour unchanged must leave this test
passing without touching the data file.

Regenerate the data file (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.test_report_snapshot
"""

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import SimulationParams
from repro.core.system import POLICY_NAMES, run_policy
from repro.experiments.common import loaded_workload
from tests.scales import MICRO

PRESETS = ("synthetic", "cs-department", "worldcup")
DATA = Path(__file__).parent / "data" / "report_fingerprints.json"


@lru_cache(maxsize=None)
def _workload(preset):
    return loaded_workload(preset, MICRO)


def report_fingerprint(preset, policy):
    result = run_policy(_workload(preset), policy,
                        SimulationParams(n_backends=MICRO.n_backends),
                        warmup_fraction=MICRO.warmup_fraction,
                        window_s=MICRO.duration_s)
    blob = json.dumps(dataclasses.asdict(result.report), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("preset", PRESETS)
def test_report_fingerprint(expected, preset, policy):
    assert report_fingerprint(preset, policy) == expected[preset][policy]


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {preset: {policy: report_fingerprint(preset, policy)
                  for policy in POLICY_NAMES}
         for preset in PRESETS},
        indent=2, sort_keys=True) + "\n")
