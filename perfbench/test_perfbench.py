"""Checks on the benchmark's own scoring and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import time
from pathlib import Path

import pytest

import ops
import traced
from speed import HostSpeed
from mixdih import search

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out" / "test"


@pytest.fixture(scope="module")
def descent_inputs():
    return ops.descent_setup()


def test_shortened_descent_is_a_failed_operation(descent_inputs):
    p, stab = descent_inputs
    reports = []

    def short():
        reports.append(ops.descent(p, stab, 1, levels=2))
        return reports[-1]

    with HostSpeed(pin_caller=True) as speed:
        records = ops.closed_loop(short, ops.descent_ok, 0, speed)
    assert reports[0].survivor_counts == [2, 2]
    assert len(records) == 1 and records[0]["ok"] is False


def test_crashed_operation_is_a_failed_operation():
    def crash():
        raise RuntimeError("boom")

    with HostSpeed(pin_caller=False) as speed:
        record = ops.attempt(crash, lambda result: True, speed)
    assert record["ok"] is False and record["raw_wall_s"] >= 0


def _write_reports(out_dir, closure_order, status="pass"):
    for target in ops.CERTIFY_TARGETS:
        checks = [{"name": f"{target}_consistency_violations", "status": status, "actual": 0}]
        if target == "h56":
            checks += [
                {"name": "h56_closure_order", "status": "pass", "actual": closure_order},
                {"name": "h56_normality_hypotheses", "status": "pass",
                 "actual": [30, True, 15, True, True, True]},
            ]
        (out_dir / f"verify-{target}.json").write_text(json.dumps({"target": target, "checks": checks}))
    return {"out_dir": str(out_dir), "codes": {t: 0 for t in ops.CERTIFY_TARGETS}}


def test_certify_check_scores_the_claims():
    OUT.mkdir(parents=True, exist_ok=True)
    assert ops.certify_ok(_write_reports(OUT, 1800))
    assert not ops.certify_ok(_write_reports(OUT, 1799))
    assert not ops.certify_ok(_write_reports(OUT, 1800, status="fail"))
    result = _write_reports(OUT, 1800)
    result["codes"]["toy2"] = 1
    assert not ops.certify_ok(result)


def test_tracer_self_time_and_patch_restore(descent_inputs):
    p, _ = descent_inputs
    tr = traced.Tracer(fold={"b.inner"})
    inner = tr.span("b.inner", lambda: sum(range(1000)))
    outer = tr.span("a.outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tr.calls == {"a.outer": 1, "b.inner": 3}
    assert tr.self_time["a.outer"] == pytest.approx(tr.total["a.outer"] - tr.total["b.inner"])
    assert [span[2] for span in tr.spans] == ["a.outer"]  # folded spans are not kept

    original_descend, original_multiply = search.descend, p.multiply
    with traced.patched(traced.descent_layers(tr, p)):
        assert p.multiply is not original_multiply and "inverse" in vars(p)
    assert search.descend is original_descend and p.multiply is original_multiply
    assert "inverse" not in vars(p)


def test_host_speed_visits_every_cpu_and_restores():
    allowed = os.sched_getaffinity(0)
    seen = set()
    with HostSpeed(pin_caller=True) as speed:
        deadline = time.monotonic() + 2.0 * len(allowed)
        while seen != allowed and time.monotonic() < deadline:
            current = os.sched_getaffinity(0)
            assert len(current) == 1
            seen |= current
        now = time.perf_counter()
        assert speed.scale(now - 0.5, now) > 0
    assert seen == allowed
    assert os.sched_getaffinity(0) == allowed
