"""Experiment scales shared by the test suite."""

from repro.experiments.common import ExperimentScale

#: Tiny but non-trivial scale: a few seconds for a whole test module.
MICRO = ExperimentScale(
    name="micro",
    duration_s=2.0,
    session_rates={"synthetic": 200.0, "cs-department": 180.0,
                   "worldcup": 160.0},
    n_backends=4,
    think_time_mean=0.15,
    max_session_pages=6,
)
