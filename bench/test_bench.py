"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import importlib
import sys
import threading

import pytest

import spans
import workloads

# Small enough for a test, large enough that every output check applies:
# the CFAR entry point refuses fewer than 100/pfa = 1e6 cells.
TINY_TRIALS = {
    "ber_awgn_k127": 256,
    "ber_rician_k511": 256,
    "radar_scene": 2,
    "cfar_calibrate": 1024,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_output_checks(name, monkeypatch):
    workload = workloads.WORKLOADS[name]
    monkeypatch.setenv("MOCZSIM_THREADS", str(workload.threads))
    prepared = workloads.Prepared(workload, trials=TINY_TRIALS[name])
    call = prepared.call(seed=7, index=0)
    assert call.problems == []
    assert call.failed == 0
    assert len(call.records) == prepared.records_per_call
    assert call.work > 0


def test_checks_catch_bad_records():
    cfg = workloads.Prepared(workloads.WORKLOADS["ber_awgn_k127"], trials=16).cfg
    good = [{"snr_db": s, "ber": b, "packets": 16}
            for s, b in zip(cfg.snr_grid_db, (0.03, 0.01, 0.002, 0.0002))]
    assert workloads.check("ber", cfg, good)[0] == set()
    rising = [dict(r) for r in good]
    rising[2]["ber"] = 0.02
    assert workloads.check("ber", cfg, rising)[0] == {2}
    gap = [dict(r) for r in good]
    gap[3]["ber"] = 0.0015
    assert workloads.check("ber", cfg, gap)[0] == {3}


def test_self_time_subtracts_nested_spans():
    rec = spans.Recorder()
    t = 1
    rec.spans = [
        spans.Span(1, spans.RUN_SPAN, 0.0, 20.0, None, t, None),
        spans.Span(3, "radar.estimate_delay", 2.0, 12.0, 1, t, 2),
        spans.Span(4, "radar.correlation_value_at.delay", 4.0, 9.0, 3, t, 2),
    ]
    rec.units = [spans.Unit(2, (3, 0, 0), 1.0, t, 1)]
    own = spans.self_times(spans.unit_spans(rec.spans, rec.units))
    assert own[3] == pytest.approx(5.0)  # 10 s span minus its 5 s child
    assert own[4] == pytest.approx(5.0)
    assert own[2] == pytest.approx(1.0)  # unit 1..12 minus estimate_delay
    assert own[1] == pytest.approx(9.0)  # run 0..20 minus the unit

    metrics = spans.layer_metrics(rec, workers=1)
    assert metrics["radar.estimate_delay.self_s"][0] == pytest.approx(5.0)
    assert metrics["radar.estimate_delay.share"][0] == pytest.approx(0.25)
    assert metrics["radar.correlation_value_at.delay.calls"][0] == 1
    assert metrics["simulate.self_s"][0] == pytest.approx(10.0)
    assert metrics["simulate.pool_idle_s"][0] == pytest.approx(9.0)
    assert metrics["simulate.unit.p50_ms"][0] == pytest.approx(11_000.0)


def test_covered_merges_overlapping_children():
    assert spans.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]) == 6.0


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in spans.wrapped_names()}


def test_traced_run_records_nesting_and_restores_every_name(monkeypatch):
    monkeypatch.setenv("MOCZSIM_THREADS", "1")
    prepared = workloads.Prepared(workloads.WORKLOADS["radar_scene"], trials=1)
    before = _originals()
    rec = spans.Recorder()
    with spans.traced(rec):
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a), fn in before.items())
        calls = [prepared.call(7, i, lambda entry, cfg: rec.root(spans.RUN_SPAN, entry, cfg))
                 for i in range(2)]
    assert [c.failed for c in calls] == [0, 0]
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} not restored"

    by_id = {s.id: s for s in rec.spans}
    delay_parents = {by_id[s.parent].name for s in rec.spans
                     if s.name == "radar.correlation_value_at.delay"}
    assert delay_parents == {"radar.estimate_delay"}
    assert len(rec.units) == 2 * prepared.records_per_call  # one CPI per range point
    runs = [s for s in rec.spans if s.name == spans.RUN_SPAN]
    assert [s.unit for s in runs] == [None, None]  # a call never joins the last unit
    metrics = spans.layer_metrics(rec, workers=1)
    assert metrics["huffman.encode_batch.calls"][0] == 8
    assert metrics["simulate.unit.tail_ms"][0] < 1e3 * min(s.end - s.start for s in runs)
    assert metrics["radar.correlation_value_at.doppler.calls"][0] > 0


def test_wrappers_restored_after_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("boom")
    assert _originals() == before


def test_recorder_is_thread_safe():
    rec = spans.Recorder()

    def leaf():
        return None

    def outer():
        return rec.call("outer", lambda: rec.call("inner", leaf, (), {}), (), {})

    def worker(i):
        rec.mark_unit((i,))
        for _ in range(200):
            outer()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(rec.spans) == 8 * 200 * 2
    assert len({s.id for s in rec.spans} | {u.id for u in rec.units}) == 8 * 400 + 8
    by_id = {s.id: s for s in rec.spans}
    for s in rec.spans:
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
        else:
            assert s.parent is None
