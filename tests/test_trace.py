import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppvf import predictor, trace


def _flat_params(catalog, base=0.0, factor=0.0, dim=2, decay=0.01):
    return predictor.ModelParams(
        base_rate=np.full(catalog, base),
        target_factors=np.full((catalog, dim), factor),
        source_factors=np.full((catalog, dim), factor),
        decay=decay,
    )


def test_load_quantizes_by_flooring(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,7,3,0.4\n0,7,3,1.9\n")
    log = trace.load_trace(path, quantize_hours=1.0)
    assert list(log.timestamps) == [0.0, 1.0]


def test_load_catalog_from_max_video_id(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("2,1,5,10.0\n")
    log = trace.load_trace(path, quantize_hours=1.0)
    assert log.catalog_size == 6
    assert len(log) == 1
    assert log.timestamps[0] == 10.0
    assert log.edge_count == 3


@pytest.mark.parametrize("field", ["video", "edge"])
def test_event_log_rejects_negative_ids(field):
    # numpy indexing would wrap -1 silently to the last video or edge.
    video, edge = (-1, 0) if field == "video" else (0, -1)
    with pytest.raises(ValueError, match=f"{field} id outside"):
        trace.EventLog.from_events([trace.RequestEvent(edge, 0, video, 1.0)], catalog_size=3, edge_count=2, horizon=5.0)


def test_load_hundred_line_fixture_sorted_against_reference(tmp_path):
    rng = np.random.default_rng(42)
    rows = []
    for _ in range(100):
        rows.append(
            (int(rng.integers(0, 4)), int(rng.integers(0, 50)), int(rng.integers(0, 30)), float(rng.uniform(0, 500)))
        )
    path = tmp_path / "t.csv"
    path.write_text("".join(f"{e},{u},{v},{t}\n" for e, u, v, t in rows))
    log = trace.load_trace(path, quantize_hours=1.0)
    assert len(log) == 100

    quantized = [(e, u, v, float(np.floor(t))) for e, u, v, t in rows]
    reference = sorted(quantized, key=lambda r: r[3])
    got = [(ev.edge_id, ev.user_id, ev.video_id, ev.timestamp) for ev in log]
    assert [r[3] for r in got] == [r[3] for r in reference]
    assert sorted(got) == sorted(quantized)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# header\n\n0,1,2,3.0\n")
    assert len(trace.load_trace(path)) == 1


def test_load_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1,2,3.0\n0,1,oops,4.0\n")
    with pytest.raises(trace.TraceFormatError, match="line 2"):
        trace.load_trace(path)


def test_load_wrong_field_count_reports_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1,2\n")
    with pytest.raises(trace.TraceFormatError, match="line 1"):
        trace.load_trace(path)


def test_load_empty_file_is_an_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(trace.TraceFormatError):
        trace.load_trace(path)


def test_load_rejects_small_catalog_override(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1,5,1.0\n")
    with pytest.raises(trace.TraceFormatError):
        trace.load_trace(path, catalog_size=3)


def test_quantization_idempotent(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,0,0,7.25\n0,0,1,3.5\n")
    once = trace.load_trace(path, quantize_hours=0.25)
    path2 = tmp_path / "b.csv"
    trace.write_trace(once, path2)
    twice = trace.load_trace(path2, quantize_hours=0.25)
    assert np.array_equal(once.timestamps, twice.timestamps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4000), min_size=1, max_size=40), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_quantization_idempotent_on_grid(multiples, step):
    ts = np.array(multiples, dtype=np.float64) * step
    again = np.floor(ts / step + 1e-9) * step
    assert np.array_equal(ts, again)


def test_roundtrip_write_then_load(tmp_path):
    gt = _flat_params(4, base=0.1)
    log = trace.generate_synthetic(trace.SyntheticSpec(4, 2, 60.0, gt, rng_seed=5))
    path = tmp_path / "round.csv"
    trace.write_trace(log, path)
    back = trace.load_trace(path, quantize_hours=1e-9)
    assert len(back) == len(log)
    assert np.array_equal(back.video_ids, log.video_ids)


class TestSynthetic:
    def test_identical_seed_identical_log(self):
        gt = _flat_params(3, base=0.3)
        spec = trace.SyntheticSpec(3, 2, 100.0, gt, rng_seed=11)
        a = trace.generate_synthetic(spec)
        b = trace.generate_synthetic(spec)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.video_ids, b.video_ids)
        assert np.array_equal(a.user_ids, b.user_ids)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_zero_intensity_empty_log(self):
        gt = _flat_params(1, base=0.0)
        log = trace.generate_synthetic(trace.SyntheticSpec(1, 1, 50.0, gt, rng_seed=1))
        assert len(log) == 0

    def test_explosive_excitation_aborts(self):
        catalog, dim = 4, 2
        gt = predictor.ModelParams(
            base_rate=np.full(catalog, 0.1),
            target_factors=np.full((catalog, dim), 0.2),
            source_factors=np.full((catalog, dim), 0.2),
            decay=0.01,
        )
        assert trace.excitation_branching_ratio(gt) >= 1.0
        with pytest.raises(trace.StabilityError):
            trace.generate_synthetic(trace.SyntheticSpec(catalog, 1, 10.0, gt, rng_seed=0))

    def test_poisson_reduction_mean_within_three_se(self):
        # With zero excitation the thinning sampler is a superposed Poisson
        # process: each (edge, video) count has mean base * horizon.
        base, horizon, catalog, edge_count, n_seeds = 0.2, 50.0, 3, 2, 200
        gt = _flat_params(catalog, base=base)
        counts = []
        for seed in range(n_seeds):
            log = trace.generate_synthetic(
                trace.SyntheticSpec(catalog, edge_count, horizon, gt, rng_seed=seed)
            )
            for e in range(edge_count):
                for v in range(catalog):
                    counts.append(int(np.sum((log.edge_ids == e) & (log.video_ids == v))))
        counts = np.array(counts, dtype=np.float64)
        expected = base * horizon
        se = np.sqrt(expected / counts.size)
        assert abs(counts.mean() - expected) < 3 * se

    def test_base_rate_scale_multiplies_activity(self):
        gt = _flat_params(2, base=0.1)
        lo = trace.generate_synthetic(trace.SyntheticSpec(2, 1, 400.0, gt, base_rate_scale=1.0, rng_seed=3))
        hi = trace.generate_synthetic(trace.SyntheticSpec(2, 1, 400.0, gt, base_rate_scale=4.0, rng_seed=3))
        assert len(hi) > 2 * len(lo)


class TestPartition:
    def test_counts_sum_to_original(self):
        gt = _flat_params(4, base=0.2)
        log = trace.generate_synthetic(trace.SyntheticSpec(4, 2, 80.0, gt, rng_seed=2))
        parts = trace.partition_by_edge(log)
        assert sum(len(p) for p in parts) == len(log)

    def test_empty_log_gives_empty_parts(self):
        log = trace.EventLog.from_events([], catalog_size=3, edge_count=4, horizon=10.0)
        parts = trace.partition_by_edge(log)
        assert len(parts) == 4
        assert all(len(p) == 0 for p in parts)

    def test_known_per_edge_counts(self):
        events = []
        t = 0.0
        for edge, n in enumerate((3, 5, 2)):
            for _ in range(n):
                events.append(trace.RequestEvent(edge, 0, 0, t))
                t += 1.0
        log = trace.EventLog.from_events(events, catalog_size=1, edge_count=3, horizon=t + 1)
        sizes = [len(p) for p in trace.partition_by_edge(log)]
        assert sizes == [3, 5, 2]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=6),
                st.floats(min_value=0.0, max_value=99.0, allow_nan=False),
            ),
            max_size=50,
        )
    )
    def test_partition_is_a_bijection(self, rows):
        events = [trace.RequestEvent(e, u, v, t) for e, u, v, t in rows]
        log = trace.EventLog.from_events(events, catalog_size=7, edge_count=4, horizon=100.0)
        parts = trace.partition_by_edge(log)
        original = sorted((ev.edge_id, ev.user_id, ev.video_id, ev.timestamp) for ev in log)
        recombined = sorted(
            (ev.edge_id, ev.user_id, ev.video_id, ev.timestamp) for p in parts for ev in p
        )
        assert original == recombined
        for e, part in enumerate(parts):
            assert all(ev.edge_id == e for ev in part)
            assert np.all(np.diff(part.timestamps) >= 0)

    def test_before_keeps_strictly_earlier_requests(self):
        events = [trace.RequestEvent(0, 0, v, t) for v, t in enumerate((0.0, 1.0, 2.0, 2.0, 3.0))]
        log = trace.EventLog.from_events(events, catalog_size=5, edge_count=1, horizon=4.0)
        prefix = log.before(2.0)
        assert prefix.video_ids.tolist() == [0, 1]
        assert prefix.horizon == 2.0
        assert len(log.before(0.0)) == 0
        assert len(log.before(10.0)) == len(log)
