"""Direct tests of the figure-runner functions at a micro scale."""

from repro.experiments import (
    run_fig6,
    run_fig7,
    run_fig7_backend_sweep,
    run_fig8,
    run_fig9,
)
from tests.scales import MICRO


class TestRunFig6:
    def test_rows_structure(self):
        rows = run_fig6(MICRO, workloads=("synthetic",))
        assert len(rows) == 2  # lard + prord
        by_policy = {r.policy: r for r in rows}
        assert by_policy["lard"].dispatches == by_policy["lard"].requests
        assert (by_policy["prord"].dispatch_frequency
                < by_policy["lard"].dispatch_frequency)


class TestRunFig7:
    def test_rows_structure(self):
        rows = run_fig7(MICRO, workloads=("synthetic",))
        assert {r.policy for r in rows} == {
            "wrr", "lard", "ext-lard-phttp", "prord"}
        assert all(r.throughput_rps > 0 for r in rows)
        assert all(0 <= r.hit_rate <= 1 for r in rows)

    def test_backend_sweep(self):
        out = run_fig7_backend_sweep(MICRO, backend_counts=(4,),
                                     workload_name="synthetic")
        assert set(out) == {4}
        assert set(out[4]) == {"wrr", "lard", "ext-lard-phttp", "prord"}


class TestRunFig8:
    def test_memory_monotonicity(self):
        rows = run_fig8(MICRO, workload_name="synthetic",
                        fractions=(0.1, 1.0))
        assert len(rows) == 4
        lard = {r.memory_fraction: r for r in rows if r.policy == "lard"}
        assert lard[1.0].hit_rate >= lard[0.1].hit_rate - 0.02


class TestRunFig9:
    def test_all_configs_present(self):
        rows = run_fig9(MICRO, workload_name="synthetic")
        assert [r.policy for r in rows] == [
            "ext-lard-phttp", "lard-bundle", "lard-distribution",
            "lard-prefetch-nav", "prord",
        ]
        prord = rows[-1]
        assert prord.prefetches > 0
