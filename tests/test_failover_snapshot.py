"""Byte-identity snapshot of simulation reports under a backend outage.

Like :mod:`tests.test_report_snapshot`, but backend 0 crashes for the
middle third of the MICRO window, so every run also takes the policies'
crashed-backend branches (liveness filtering, reassignment, rebinding).
The sha256 of each canonical report JSON is compared with
``tests/data/failover_fingerprints.json``.  A refactor that claims to
leave behaviour unchanged must leave this test passing without touching
the data file.

Regenerate the data file (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.test_failover_snapshot
"""

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import SimulationParams
from repro.core.system import (
    MINING_POLICY_NAMES,
    POLICY_NAMES,
    build_policy,
    cache_bytes_for_fraction,
    mine_models,
)
from repro.experiments.common import loaded_workload
from repro.sim import ClusterSimulator, FailureSchedule
from tests.scales import MICRO

PRESETS = ("synthetic", "cs-department", "worldcup")
DATA = Path(__file__).parent / "data" / "failover_fingerprints.json"


@lru_cache(maxsize=None)
def _workload(preset):
    return loaded_workload(preset, MICRO)


def report_fingerprint(preset, policy):
    workload = _workload(preset)
    # The same parameters run_policy derives (30% of the site in memory).
    params = SimulationParams(n_backends=MICRO.n_backends).with_overrides(
        cache_bytes=cache_bytes_for_fraction(workload, 0.3,
                                             MICRO.n_backends))
    mining = None
    if policy in MINING_POLICY_NAMES:
        mining = mine_models(workload, params).runtime(params)
    chosen, replicator = build_policy(policy, mining, params)
    third = MICRO.duration_s / 3
    cluster = ClusterSimulator(
        workload.trace, chosen, params,
        replicator=replicator,
        warmup_fraction=MICRO.warmup_fraction,
        window_s=MICRO.duration_s,
        failures=FailureSchedule.single(0, at=third, duration=third),
    )
    blob = json.dumps(dataclasses.asdict(cluster.run().report),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("preset", PRESETS)
def test_failover_fingerprint(expected, preset, policy):
    assert report_fingerprint(preset, policy) == expected[preset][policy]


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {preset: {policy: report_fingerprint(preset, policy)
                  for policy in POLICY_NAMES}
         for preset in PRESETS},
        indent=2, sort_keys=True) + "\n")
