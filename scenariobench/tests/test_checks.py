"""Output checks, run summaries and ``-X importtime`` parsing."""

import json
import math
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def child_row(**outcomes) -> dict:
    o = {
        "arrived_interactive": 100.0,
        "arrived_batch": 0.0,
        "served": 100.0,
        "carbon_mg_per_req": 0.2,
        "accuracy_loss_pct": 3.0,
        "sla_attainment": 1.0,
        "served_req_frac": 1.0,
        "unserved_req_frac": 0.0,
        "batch_deadline_attainment": 1.0,
        "batch_completed": 0.0,
        "batch_pending": 0.0,
    }
    o.update(outcomes)
    layers = {
        name: 1.0
        for name in run.LAYERS
        if name not in ("unserved_req_frac", "trace.overhead_frac")
    }
    return {
        "run_id": "r", "seed": 0, "traced": False, "ok": True, "errors": [],
        "report_sha256": "abc", "outcomes": o, "setup_s": 1.5,
        "total_s": 4.0, "region_epochs_per_s": 400.0, "peak_rss_mb": 120.0,
        "layers": layers,
        "host": {"reference_ops_per_s": run.REFERENCE_OPS_PER_S},
    }


def test_good_outputs_pass():
    assert run.output_errors(child_row()) == []
    batch = child_row(
        arrived_batch=50.0, batch_completed=30.0, batch_pending=20.0, served=140.0
    )
    assert run.output_errors(batch) == []


@pytest.mark.parametrize(
    "outcomes, needle",
    [
        ({"carbon_mg_per_req": math.nan}, "not finite"),
        ({"sla_attainment": math.inf}, "not finite"),
        ({"served": 100.001}, "served"),
        (
            {"arrived_batch": 50.0, "batch_completed": 30.0, "batch_pending": 19.0},
            "batch completed + pending",
        ),
    ],
)
def test_bad_outputs_fail(outcomes, needle):
    errors = run.output_errors(child_row(**outcomes))
    assert any(needle in e for e in errors), errors


def test_leftover_wrappers_fail_the_run():
    row = child_row()
    row["wrappers_left"] = ["RegionalService.step"]
    assert run.output_errors(row)


def test_disagreeing_runs_of_one_seed_fail():
    rows = [child_row(), child_row(), child_row(carbon_mg_per_req=0.2000000001)]
    metrics, failed = run.summarize(rows, trace=False)
    assert failed == 1 and not rows[2]["ok"]
    assert metrics["carbon_mg_per_req"]["value"] == 0.2
    rows = [child_row(), child_row()]
    rows[1]["report_sha256"] = "other"
    assert run.summarize(rows, trace=False)[1] == 1


def test_times_are_scaled_to_the_reference_host_speed():
    rows = [child_row(), child_row(), child_row()]
    for row, speed in zip(rows, (1.0, 2.0, 3.0)):
        row["host"]["reference_ops_per_s"] = speed * run.REFERENCE_OPS_PER_S
    metrics, _ = run.summarize(rows, trace=False)
    # The median host ran twice as fast as the reference kernel.
    assert metrics["setup_s"]["value"] == 3.0
    assert metrics["total_s"]["value"] == 8.0
    assert metrics["region_epochs_per_s"]["value"] == 200.0
    assert metrics["peak_rss_mb"]["value"] == 120.0


def test_every_emitted_metric_is_declared_with_unit_and_direction():
    declared = {
        section: {m["name"]: m for m in BENCHMARK[section]}
        for section in ("end_to_end", "per_layer")
    }
    untraced = [child_row(), child_row()]
    traced = child_row()
    traced["traced"] = True
    e2e, failed = run.summarize(untraced, trace=False)
    layers, failed_traced = run.summarize([child_row(), traced], trace=True)
    assert failed == failed_traced == 0
    for section, metrics, table in (
        ("end_to_end", e2e, run.E2E),
        ("per_layer", layers, run.LAYERS),
    ):
        assert set(metrics) == set(declared[section]) == set(table)
        for name, m in metrics.items():
            assert m["unit"] == declared[section][name]["unit"] == table[name][0]
            assert declared[section][name]["better"] == table[name][1]
    assert "setup_s" in e2e and e2e["setup_s"]["unit"] == "s"


def test_benchmark_json_lists_the_workloads_run_py_knows():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert BENCHMARK["command"] == ["python3", "scenariobench/run.py"]
    root = Path(__file__).resolve().parents[2]
    for w in run.WORKLOADS.values():
        assert (root / w.scenario).is_file()


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     scipy._lib
import time:       200 |        300 |   scipy
import time:       400 |       1000 | scipy.stats
import time:        50 |         50 |     numpy.core
import time:        10 |         60 |   numpy
import time:        20 |         20 |     scipy.special
import time:        30 |         50 |   repro.utils.stats
import time:         5 |       1200 | repro
unrelated stderr line
"""


def test_importtime_sums_outermost_package_entries():
    # scipy.stats (1000 us, includes scipy) at the top, plus
    # scipy.special nested under repro.utils.stats, not under scipy.
    assert run.importtime_s(IMPORTTIME, "scipy") == pytest.approx(1020e-6)
    assert run.importtime_s(IMPORTTIME, "repro") == pytest.approx(1200e-6)
    assert run.importtime_s(IMPORTTIME, "numpy") == pytest.approx(60e-6)
    assert run.importtime_s("", "repro") == 0.0
