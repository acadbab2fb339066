import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppvf import predictor, trace

from oracles import event_log_from_events, thin_one_edge_with_choice, write_trace_per_event


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
        event_log_from_events([trace.RequestEvent(edge, 0, video, 1.0)], catalog_size=3, edge_count=2, horizon=5.0)


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


@pytest.mark.parametrize(
    "record",
    [
        "99999999999999999999,0,1,1",
        "0,0,99999999999999999999,1",
        "0,99999999999999999999,1,1",
        "0,-99999999999999999999,1,1",
        "0,0,1,1e308",
    ],
)
def test_load_rejects_unrepresentable_fields_with_line_number(tmp_path, record):
    path = tmp_path / "t.csv"
    path.write_text(f"0,0,0,0\n{record}\n")
    with pytest.raises(trace.TraceFormatError, match="line 2"):
        trace.load_trace(path)


@pytest.mark.parametrize("field", [0, 2])
def test_load_accepts_ids_up_to_their_limit_only(tmp_path, field):
    limit = trace.MAX_EDGE_ID if field == 0 else trace.MAX_VIDEO_ID
    ok, bad = (["0", "0", "0", "1.0"] for _ in range(2))
    ok[field], bad[field] = str(limit), str(limit + 1)
    path = tmp_path / "t.csv"
    path.write_text(",".join(ok) + "\n")
    log = trace.load_trace(path)
    assert (log.edge_count if field == 0 else log.catalog_size) == limit + 1
    path.write_text("0,0,0,0\n" + ",".join(bad) + "\n")
    with pytest.raises(trace.TraceFormatError, match=f"line 2: {'edge' if field == 0 else 'video'} id"):
        trace.load_trace(path)


def test_load_rejects_stamp_that_overflows_its_slot(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,1e300\n")
    with pytest.raises(trace.TraceFormatError, match="line 1"):
        trace.load_trace(path, quantize_hours=1e-10)


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
        scaled = dataclasses.replace(gt, base_rate=4.0 * gt.base_rate)
        lo = trace.generate_synthetic(trace.SyntheticSpec(2, 1, 400.0, gt, rng_seed=3))
        hi = trace.generate_synthetic(trace.SyntheticSpec(2, 1, 400.0, scaled, rng_seed=3))
        assert len(hi) > 2 * len(lo)

    def test_user_ids_fit_in_int64_up_to_the_bound(self):
        # User ids run up to edge_count * users_per_edge - 1.
        gt = _flat_params(2, base=0.5)
        for edges, users in ((1, 2**63), (2, 2**62)):
            log = trace.generate_synthetic(trace.SyntheticSpec(2, edges, 20.0, gt, rng_seed=1, users_per_edge=users))
            assert len(log) and log.user_ids.min() >= 0 and log.user_ids.dtype == np.int64
        with pytest.raises(ValueError, match="int64"):
            trace.SyntheticSpec(2, 1, 20.0, gt, users_per_edge=2**63 + 1)


def _stable_params(seed, catalog, dim, branching, decay):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 0.2, catalog)
    tgt = rng.uniform(0.0, 1.0, (catalog, dim))
    src = rng.uniform(0.0, 1.0, (catalog, dim))
    ratio = trace.excitation_branching_ratio(predictor.ModelParams(base, tgt, src, decay))
    scale = math.sqrt(branching / ratio) if ratio > 0 else 0.0
    return predictor.ModelParams(base, tgt * scale, src * scale, decay)


class TestThinningOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        catalog=st.integers(1, 40),
        edges=st.integers(1, 3),
        dim=st.integers(1, 3),
        branching=st.sampled_from([0.0, 0.3, 0.8]),
        decay=st.sampled_from([0.05, 0.5, 3.0]),
        base_rate_scale=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        horizon=st.floats(0.01, 25.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lean_thinning_matches_choice_thinning(
        self, tmp_path_factory, catalog, edges, dim, branching, decay, base_rate_scale, horizon, seed
    ):
        gt = _stable_params(seed, catalog, dim, branching, decay)
        gt = dataclasses.replace(gt, base_rate=base_rate_scale * gt.base_rate)
        spec = trace.SyntheticSpec(catalog, edges, horizon, gt, rng_seed=seed, users_per_edge=3)
        for edge in range(edges):
            lean_rng, oracle_rng = trace._edge_rng(spec, edge), trace._edge_rng(spec, edge)
            lean = trace._thin_one_edge(spec, edge, lean_rng)
            oracle = thin_one_edge_with_choice(spec, edge, oracle_rng)
            for got, want in zip(lean, oracle):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert lean_rng.random() == oracle_rng.random()
        log = trace.generate_synthetic(spec)
        out = tmp_path_factory.mktemp("thin")
        trace.write_trace(log, out / "lean.csv")
        write_trace_per_event(log, out / "oracle.csv")
        assert (out / "lean.csv").read_bytes() == (out / "oracle.csv").read_bytes()

    def test_uniform_on_a_cdf_step_draws_like_choice(self):
        # Equal intensities over four videos put the CDF steps at quarters,
        # and a generator whose uniforms are quarters lands on them, so a
        # search that breaks ties the other way than choice draws other videos.
        class QuarterGenerator(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.floor(super().random(size) * 4) / 4

        gt = _flat_params(4, base=0.5, factor=0.1)
        spec = trace.SyntheticSpec(4, 1, 30.0, gt, rng_seed=2)
        lean_rng, oracle_rng = (QuarterGenerator(np.random.PCG64(9)) for _ in range(2))
        lean = trace._thin_one_edge(spec, 0, lean_rng)
        oracle = thin_one_edge_with_choice(spec, 0, oracle_rng)
        assert len(oracle[2]) > 20
        for got, want in zip(lean, oracle):
            assert got.tobytes() == want.tobytes()
        assert lean_rng.random() == oracle_rng.random()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    def test_rejects_what_choice_rejects(self):
        # Base rates at the float maximum overflow the total intensity to infinity.
        gt = _stable_params(4, 5, 2, 0.3, 0.5)
        gt = dataclasses.replace(gt, base_rate=np.full(5, np.finfo(np.float64).max))
        spec = trace.SyntheticSpec(5, 1, 10.0, gt, rng_seed=4)
        with pytest.raises(ValueError):
            thin_one_edge_with_choice(spec, 0, trace._edge_rng(spec, 0))
        with pytest.raises(ValueError):
            trace._thin_one_edge(spec, 0, trace._edge_rng(spec, 0))

    def test_generated_trace_file_is_pinned(self, tmp_path):
        # sha256 of this file as written before the thinning loop dropped
        # rng.choice and the per-video counts.
        gt = _stable_params(17, 12, 3, 0.6, 0.2)
        log = trace.generate_synthetic(trace.SyntheticSpec(12, 3, 40.0, gt, rng_seed=23, users_per_edge=4))
        trace.write_trace(log, tmp_path / "pinned.csv")
        digest = hashlib.sha256((tmp_path / "pinned.csv").read_bytes()).hexdigest()
        assert digest == "6bfb2e35c126391a38b1701967db42f3f7a41047810c4138a585a2706e8ca148"


class TestPartition:
    def test_counts_sum_to_original(self):
        gt = _flat_params(4, base=0.2)
        log = trace.generate_synthetic(trace.SyntheticSpec(4, 2, 80.0, gt, rng_seed=2))
        parts = trace.partition_by_edge(log)
        assert sum(len(p) for p in parts) == len(log)

    def test_empty_log_gives_empty_parts(self):
        log = event_log_from_events([], catalog_size=3, edge_count=4, horizon=10.0)
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
        log = event_log_from_events(events, catalog_size=1, edge_count=3, horizon=t + 1)
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
        log = event_log_from_events(events, catalog_size=7, edge_count=4, horizon=100.0)
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
        log = event_log_from_events(events, catalog_size=5, edge_count=1, horizon=4.0)
        prefix = log.before(2.0)
        assert prefix.video_ids.tolist() == [0, 1]
        assert prefix.horizon == 2.0
        assert len(log.before(0.0)) == 0
        assert len(log.before(10.0)) == len(log)
