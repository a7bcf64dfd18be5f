"""Byte-identity snapshot of synthetic traffic generation.

For every preset at MICRO scale (base seed and one shifted seed), the
sha256 over the generated training-log records and the evaluation
trace built from the generated eval records is compared with
``tests/data/records_fingerprints.json``.  A change to the generator
that claims to keep its random draw order must leave this test passing
without touching the data file.

Regenerate the data file (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.test_records_snapshot
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.common import loaded_workload
from tests.scales import MICRO

PRESETS = ("synthetic", "cs-department", "worldcup")
SEED_OFFSETS = (0, 3)
DATA = Path(__file__).parent / "data" / "records_fingerprints.json"


def records_fingerprint(preset, seed_offset):
    wl = loaded_workload(preset, MICRO, seed_offset=seed_offset)
    h = hashlib.sha256()
    for rec in wl.training_records:
        h.update(repr(rec).encode())
    for req in wl.trace:
        h.update(repr(req).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed_offset", SEED_OFFSETS)
@pytest.mark.parametrize("preset", PRESETS)
def test_records_fingerprint(expected, preset, seed_offset):
    assert (records_fingerprint(preset, seed_offset)
            == expected[preset][str(seed_offset)])


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {preset: {str(off): records_fingerprint(preset, off)
                  for off in SEED_OFFSETS}
         for preset in PRESETS},
        indent=2, sort_keys=True) + "\n")
