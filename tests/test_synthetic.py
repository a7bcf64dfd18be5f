"""Tests for synthetic traffic generation and workload presets."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.logs import (
    SiteSpec,
    TraceGenerator,
    TrafficSpec,
    build_site,
    cs_department_workload,
    make_workload,
    synthetic_workload,
    worldcup_workload,
)
from repro.logs.synthetic import _cdf


@pytest.fixture(scope="module")
def small_site():
    return build_site(SiteSpec(categories=("x", "y"), pages_per_category=12,
                               seed=5))


class TestTrafficSpecValidation:
    @pytest.mark.parametrize("kw", [
        {"num_requests": 0},
        {"session_rate": 0},
        {"embed_request_prob": 1.5},
        {"link_follow_prob": -0.1},
        {"zipf_alpha": 1.0},
        {"category_mix": {"x": -1.0, "y": 3.0}},
        {"category_mix": {"x": float("nan"), "y": 1.0}},
        {"same_category_bias": 0.0},
        {"same_category_bias": -2.0},
        {"mean_session_pages": 0.5},
        {"think_time_mean": -1.0},
        {"embedded_gap": -0.05},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            TrafficSpec(**kw).validate()

    def test_bad_category_mix(self, small_site):
        spec = TrafficSpec(num_requests=10, category_mix={"nope": 1.0})
        with pytest.raises(ValueError, match="no weight"):
            TraceGenerator(small_site, spec)


#: Other draws the generator makes between its categorical picks.
_OTHER_DRAWS = {
    "random": lambda rng: rng.random(),
    "exponential": lambda rng: rng.exponential(0.7),
    "geometric": lambda rng: rng.geometric(0.2),
    "zipf": lambda rng: rng.zipf(1.5),
    "integers": lambda rng: rng.integers(7),
}


class TestCachedCDFDraws:
    @given(
        weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        others=st.lists(st.sampled_from(sorted(_OTHER_DRAWS)),
                        min_size=1, max_size=12),
    )
    def test_bisect_matches_generator_choice(self, weights, seed, others):
        w = np.array(weights)
        assume(w.sum() > 0)
        p = w / w.sum()
        cdf = _cdf(p)
        ours = np.random.default_rng(seed)
        numpys = np.random.default_rng(seed)
        for name in others:
            assert (bisect_right(cdf, ours.random())
                    == int(numpys.choice(len(p), p=p)))
            assert _OTHER_DRAWS[name](ours) == _OTHER_DRAWS[name](numpys)


class TestGeneration:
    def test_deterministic(self, small_site):
        spec = TrafficSpec(num_requests=300, seed=9)
        a = TraceGenerator(small_site, spec).generate_records()
        b = TraceGenerator(small_site, spec).generate_records()
        assert a == b

    def test_seed_varies_traffic(self, small_site):
        a = TraceGenerator(small_site, TrafficSpec(num_requests=300, seed=1)
                           ).generate_records()
        b = TraceGenerator(small_site, TrafficSpec(num_requests=300, seed=2)
                           ).generate_records()
        assert a != b

    def test_count_near_target(self, small_site):
        recs = TraceGenerator(small_site, TrafficSpec(num_requests=500)
                              ).generate_records()
        # The generator may overshoot by at most one page's bundle.
        assert 500 <= len(recs) <= 520

    def test_sorted_by_time(self, small_site):
        recs = TraceGenerator(small_site, TrafficSpec(num_requests=400)
                              ).generate_records()
        times = [r.timestamp for r in recs]
        assert times == sorted(times)

    def test_paths_exist_on_site(self, small_site):
        recs = TraceGenerator(small_site, TrafficSpec(num_requests=400)
                              ).generate_records()
        sizes = small_site.object_sizes()
        assert all(r.path in sizes and r.size == sizes[r.path] for r in recs)

    def test_trace_has_embedded_structure(self, small_site):
        trace = TraceGenerator(small_site, TrafficSpec(num_requests=600)
                               ).generate()
        embedded = [r for r in trace if r.is_embedded]
        assert embedded, "traffic should include embedded objects"
        assert all(r.parent is not None for r in embedded)

    def test_zipf_mode_skews_popularity(self, small_site):
        spec = TrafficSpec(num_requests=2000, zipf_alpha=1.3,
                           link_follow_prob=0.0, seed=3)
        recs = TraceGenerator(small_site, spec).generate_records()
        pages = [r.path for r in recs if r.path.endswith(".html")]
        counts = sorted(
            (pages.count(p) for p in set(pages)), reverse=True)
        top = sum(counts[:3])
        assert top > 0.4 * len(pages), "top-3 pages should dominate under Zipf"

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError):
            Website = __import__("repro.logs.site", fromlist=["Website"]).Website
            TraceGenerator(Website([], name="empty"), TrafficSpec())


class TestWorkloadPresets:
    def test_synthetic_stats(self):
        w = synthetic_workload(scale=0.05)
        assert w.name == "synthetic"
        assert len(w.trace) >= 1000
        assert w.num_files > 2000
        assert w.training_records

    def test_cs_department_categories(self):
        w = cs_department_workload(scale=0.02)
        names = {c.name for c in w.site.categories}
        assert "faculty" in names and "current-students" in names

    def test_worldcup_file_count_near_paper(self):
        w = worldcup_workload(scale=0.002)
        assert 3000 < w.num_files < 4600

    def test_make_workload_dispatch(self):
        w = make_workload("synthetic", scale=0.02)
        assert w.name == "synthetic"

    def test_make_workload_unknown(self):
        with pytest.raises(KeyError, match="unknown workload"):
            make_workload("nope")

    @pytest.mark.parametrize("factory", [
        cs_department_workload, worldcup_workload, synthetic_workload,
    ])
    def test_invalid_scale(self, factory):
        with pytest.raises(ValueError):
            factory(scale=0)

    def test_training_differs_from_eval(self):
        w = synthetic_workload(scale=0.02)
        train_paths = [r.path for r in w.training_records[:200]]
        eval_paths = [r.path for r in list(w.trace)[:200]]
        assert train_paths != eval_paths

    def test_summary_mentions_name(self):
        w = synthetic_workload(scale=0.02)
        assert "synthetic" in w.summary()
