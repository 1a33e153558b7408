"""Scenario benchmark: cold-process runs of the checked-in fleet scenarios.

    python3 scenariobench/run.py --workload geo-gating --seed 0 --seconds 35 --trace 0

Run from the repository root.  One parent process drives a closed loop:
it launches a fresh interpreter (``child.py``) on the workload's scenario
file with ``--seed`` written into ``ScenarioSpec.seed``, waits for it to
finish, checks its outputs and launches the next, until ``--seconds``
have passed.  Each child runs the fleet on the serial region driver, so
at most one simulation is busy at a time.

``--trace 0`` reports the end-to-end metrics (medians over the children,
times scaled to a reference host speed, see ``REFERENCE_OPS_PER_S``);
``--trace 1`` alternates untraced children with traced ones (layer
wrappers installed, ``-X importtime``) and reports the per-layer metrics,
including the tracing overhead.  Every child's row, with its seed and the
host's calibration, goes to ``.bench_out/results.jsonl`` and the spans of
traced children to ``.bench_out/spans-*.jsonl``.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    scenario: str
    why: str


WORKLOADS = {
    "geo-gating": Workload(
        "examples/scenarios/diurnal_gating.toml",
        "3 regions, forecast router, diurnal demand, forecast pre-wake: "
        "routing, forecasting, gating and DES measurement lead; caches miss "
        "often; no batch class",
    ),
    "batch-shift": Workload(
        "examples/scenarios/load_shifting.toml",
        "2 regions, carbon-greedy, reactive gating, deferrable batch: the "
        "only path through admit-batch, the temporal planner and its "
        "per-slot demand loop",
    ),
    "const-mixed": Workload(
        "examples/scenarios/mixed_scheme.toml",
        "3 regions, constant demand, no gating or batch, co2opt+clover: SA "
        "optimize and the analytic evaluator dominate; caches mostly hit; "
        "only static scheme",
    ),
}

#: End-to-end metrics: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "region_epochs_per_s": ("1/s", "higher"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "carbon_mg_per_req": ("mg/req", "lower"),
    "accuracy_loss_pct": ("%", "lower"),
    "sla_attainment": ("fraction", "higher"),
    "served_req_frac": ("fraction", "higher"),
    "batch_deadline_attainment": ("fraction", "higher"),
}

#: Outcome metrics: deterministic per seed, identical across children.
OUTCOMES = (
    "carbon_mg_per_req",
    "accuracy_loss_pct",
    "sla_attainment",
    "served_req_frac",
    "unserved_req_frac",
    "batch_deadline_attainment",
)

#: Per-layer metrics: name -> (unit, better, end-to-end metrics it should
#: move, workloads where it should move them).
LAYERS = {
    "setup.import_repro_s": ("s", "lower", "setup_s total_s", "all"),
    "setup.import_scipy_s": ("s", "lower", "setup_s total_s", "all"),
    "scenarios.load_s": ("s", "lower", "setup_s", "all"),
    "scenarios.build_s": ("s", "lower", "setup_s", "all"),
    "fleet.coordinator.self_s": ("s", "lower", "region_epochs_per_s", "geo-gating"),
    "fleet.coordinator.epochs": ("count", "higher", "region_epochs_per_s", "geo-gating"),
    "fleet.routing.plan_calls": ("count", "lower", "region_epochs_per_s", "geo-gating batch-shift"),
    "fleet.routing.plan_s": ("s", "lower", "region_epochs_per_s", "geo-gating batch-shift"),
    "fleet.routing.router_s": ("s", "lower", "region_epochs_per_s", "geo-gating batch-shift"),
    "fleet.regional.step_s": ("s", "lower", "region_epochs_per_s", "all"),
    "fleet.regional.step_ms_p50": ("ms", "lower", "region_epochs_per_s", "all"),
    "fleet.regional.step_ms_p98": ("ms", "lower", "region_epochs_per_s", "all"),
    "fleet.regional.sla_rate_calls": ("count", "lower", "region_epochs_per_s", "batch-shift"),
    "fleet.regional.sla_rate_s": ("s", "lower", "region_epochs_per_s", "batch-shift"),
    "fleet.capacity.settle_calls": ("count", "lower", "region_epochs_per_s", "geo-gating"),
    "fleet.capacity.settle_s": ("s", "lower", "region_epochs_per_s", "geo-gating"),
    "fleet.capacity.wakes": ("count", "lower", "carbon_mg_per_req", "geo-gating"),
    "fleet.capacity.sleeps": ("count", "higher", "carbon_mg_per_req", "geo-gating"),
    "fleet.capacity.awake_frac": ("fraction", "lower", "carbon_mg_per_req", "geo-gating"),
    "shifting.plan_epoch_calls": ("count", "lower", "region_epochs_per_s", "batch-shift"),
    "shifting.plan_epoch_s": ("s", "lower", "region_epochs_per_s", "batch-shift"),
    "shifting.plan_slots_s": ("s", "lower", "region_epochs_per_s", "batch-shift"),
    "shifting.mean_shift_h": ("h", "higher", "carbon_mg_per_req batch_deadline_attainment", "batch-shift"),
    "demand.calls": ("count", "lower", "region_epochs_per_s", "batch-shift"),
    "demand.s": ("s", "lower", "region_epochs_per_s", "batch-shift"),
    "carbon.forecast.calls": ("count", "lower", "region_epochs_per_s", "geo-gating batch-shift"),
    "carbon.forecast.s": ("s", "lower", "region_epochs_per_s", "geo-gating batch-shift"),
    "core.schemes.optimize_calls": ("count", "lower", "region_epochs_per_s", "const-mixed"),
    "core.schemes.optimize_s": ("s", "lower", "region_epochs_per_s", "const-mixed"),
    "core.annealing.evals": ("count", "lower", "region_epochs_per_s accuracy_loss_pct", "const-mixed"),
    "core.annealing.sla_ok_frac": ("fraction", "higher", "region_epochs_per_s accuracy_loss_pct", "const-mixed"),
    "core.evaluator.analytic_calls": ("count", "lower", "region_epochs_per_s", "const-mixed"),
    "core.evaluator.analytic_s": ("s", "lower", "region_epochs_per_s", "const-mixed"),
    "core.evaluator.opt_hit_rate": ("fraction", "higher", "region_epochs_per_s", "const-mixed"),
    "core.evaluator.batched_frac": ("fraction", "higher", "region_epochs_per_s", "const-mixed"),
    "core.evaluator.des_calls": ("count", "lower", "region_epochs_per_s", "geo-gating"),
    "core.evaluator.des_s": ("s", "lower", "region_epochs_per_s", "geo-gating"),
    "core.evaluator.measure_hit_rate": ("fraction", "higher", "region_epochs_per_s", "geo-gating"),
    "serving.des.calls": ("count", "lower", "region_epochs_per_s", "geo-gating"),
    "serving.des.s": ("s", "lower", "region_epochs_per_s", "geo-gating"),
    "serving.des.requests": ("count", "lower", "region_epochs_per_s", "geo-gating"),
    "serving.analytic.calls": ("count", "lower", "region_epochs_per_s", "const-mixed"),
    "serving.analytic.s": ("s", "lower", "region_epochs_per_s", "const-mixed"),
    "serving.analytic.batch_rows": ("count", "lower", "region_epochs_per_s", "const-mixed"),
    "unserved_req_frac": ("fraction", "lower", "served_req_frac sla_attainment carbon_mg_per_req", "const-mixed"),
    "trace.overhead_frac": ("fraction", "lower", "none (tracing cost)", "all"),
}

#: Children measured per run even when ``--seconds`` is already spent,
#: unless the run is already this far past its deadline.
MIN_CHILDREN = 3
GRACE_S = 60.0
#: A child takes under 10 s on a 2-core host; a hung one is killed.
CHILD_TIMEOUT_S = 40.0
#: Relative slack for float accumulation in the conservation checks.
REL_TOL = 1e-9
#: Host speed the end-to-end times are scaled to, in passes per second of
#: the benchmark's reference kernel (``child.reference_ops_per_s``).  The
#: host's speed drifts by up to 1.6x over minutes; a run measures its own
#: speed as the median over its children and reports
#: ``time * speed / REFERENCE_OPS_PER_S`` (rates divided by the same
#: factor): the time the run would have taken at the reference speed.
REFERENCE_OPS_PER_S = 1500.0


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #


def output_errors(row: dict) -> list[str]:
    """Why one child's outputs are wrong (empty when they are right)."""
    o = row["outcomes"]
    errors = [
        f"{name} is not finite: {o[name]!r}"
        for name in OUTCOMES
        if not math.isfinite(o[name])
    ]
    arrived = o["arrived_interactive"] + o["arrived_batch"]
    if o["served"] > arrived * (1.0 + REL_TOL):
        errors.append(f"served {o['served']!r} > arrived {arrived!r}")
    if o["arrived_batch"] > 0.0:
        accounted = o["batch_completed"] + o["batch_pending"]
        if abs(accounted - o["arrived_batch"]) > REL_TOL * o["arrived_batch"]:
            errors.append(
                f"batch completed + pending {accounted!r} != arrived "
                f"{o['arrived_batch']!r}"
            )
    if row.get("wrappers_left"):
        errors.append(f"wrappers not removed: {row['wrappers_left']}")
    return errors


def fingerprint(row: dict) -> tuple:
    """What two runs of one seed must agree on, bit for bit."""
    return (
        row["report_sha256"],
        *(float(row["outcomes"][name]).hex() for name in OUTCOMES),
    )


def importtime_s(stderr: str, package: str) -> float:
    """Cumulative seconds ``-X importtime`` charged to a package.

    Sums the cumulative time of every ``package`` / ``package.*`` entry
    not nested inside another one, so a package imported piecewise from
    several places is counted in full and never twice.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # importtime lists a module after everything it imported; walking the
    # list backwards meets each parent before its children.
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ours = name == package or name.startswith(package + ".")
        if ours and not any(inside for _, inside in stack):
            total_us += cumulative
        stack.append((depth, ours))
    return total_us / 1e6


# ---------------------------------------------------------------------- #
# driving children
# ---------------------------------------------------------------------- #


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    return env


def run_child(args: list[str], root: Path, env: dict) -> tuple[int, int, str, str]:
    """Launch one cold child and wait for it: ``(launch_ns, rc, out, err)``."""
    cmd = [sys.executable, *args]
    launch = now_ns()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nchild timed out after {CHILD_TIMEOUT_S:.0f} s"
    return launch, proc.returncode, out, err


def measure_child(
    workload: Workload, seed: int, root: Path, env: dict, out_dir: Path,
    run_id: str, traced: bool,
) -> dict:
    """One closed-loop iteration: a cold child, timed and checked."""
    args = [str(HERE / "child.py"), workload.scenario, "--seed", str(seed)]
    if traced:
        spans = out_dir / f"spans-{run_id}.jsonl"
        args = ["-X", "importtime", *args, "--spans", str(spans), "--run-id", run_id]
    launch, rc, out, err = run_child(args, root, env)
    row = {"run_id": run_id, "seed": seed, "traced": traced, "ok": False}
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        row["errors"] = [f"child exited {rc}: {err.strip()[-2000:]}"]
        return row
    try:
        child = json.loads(lines[-1])
    except json.JSONDecodeError:
        row["errors"] = [f"child printed no result: {lines[-1][:200]!r}"]
        return row
    row.update(child)
    row["setup_s"] = (child["t_built_ns"] - launch) / 1e9
    row["total_s"] = (child["t_rendered_ns"] - launch) / 1e9
    row["region_epochs_per_s"] = child["region_epochs"] / child["run_s"]
    if traced:
        row["layers"]["setup.import_repro_s"] = importtime_s(err, "repro")
        row["layers"]["setup.import_scipy_s"] = importtime_s(err, "scipy")
    row["errors"] = output_errors(row)
    row["ok"] = not row["errors"]
    return row


def median(values) -> float:
    return float(statistics.median(values))


def host_speed(rows: list[dict]) -> float:
    """The run's host speed relative to ``REFERENCE_OPS_PER_S``."""
    return median(r["host"]["reference_ops_per_s"] for r in rows) / REFERENCE_OPS_PER_S


def summarize(rows: list[dict], trace: bool) -> tuple[dict, int]:
    """``(metrics, failed)`` over one run's children.

    A child fails when it raised, its outputs break a check, or its
    outcome differs from the first good child of the run (same seed, so
    they must agree bit for bit; traced children included).
    """
    reference = next((fingerprint(r) for r in rows if r["ok"]), None)
    for r in rows:
        if r["ok"] and fingerprint(r) != reference:
            r["ok"] = False
            r["errors"] = ["outcome differs from the run's first child"]
    failed = sum(not r["ok"] for r in rows)
    good = [r for r in rows if r["ok"] and not r["traced"]]
    traced = [r for r in rows if r["ok"] and r["traced"]]
    if not good or (trace and not traced):
        return {}, failed
    if not trace:
        speed = host_speed(good)
        values = {
            "setup_s": median(r["setup_s"] for r in good) * speed,
            "region_epochs_per_s": (
                median(r["region_epochs_per_s"] for r in good) / speed
            ),
            "total_s": median(r["total_s"] for r in good) * speed,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in good),
        }
        values.update({k: good[0]["outcomes"][k] for k in E2E if k not in values})
        return {k: {"value": values[k], "unit": E2E[k][0]} for k in E2E}, failed
    values = {
        name: median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["unserved_req_frac"] = good[0]["outcomes"]["unserved_req_frac"]
    values["trace.overhead_frac"] = 1.0 - (
        median(r["region_epochs_per_s"] for r in traced)
        / median(r["region_epochs_per_s"] for r in good)
    )
    return {k: {"value": values[k], "unit": LAYERS[k][0]} for k in LAYERS}, failed


def print_report(name: str, seed: int, rows: list[dict], metrics: dict) -> None:
    good = [r for r in rows if r["ok"]]
    print(f"== scenario benchmark: {name} (seed {seed}) ==")
    if good:
        host = good[0]["host"]
        print(
            f"host: calibration {host['calibration_ops_per_s']:.1f} ops/s, "
            f"python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}"
        )
    print(
        f"children: {len(rows)} attempted, {len(good)} succeeded, "
        f"{len(rows) - len(good)} failed"
    )
    for r in rows:
        for error in r.get("errors", ()):
            print(f"  {r['run_id']}: {error}")
    if good:
        plain = [r for r in good if not r["traced"]]
        print(
            f"wall-clock medians over {len(plain)} children: "
            f"setup {median(r['setup_s'] for r in plain):.4f} s, "
            f"run {median(r['run_s'] for r in plain):.4f} s, "
            f"total {median(r['total_s'] for r in plain):.4f} s; "
            f"host speed {host_speed(plain):.4f} x reference"
        )
        o = good[0]["outcomes"]
        print(
            f"arrived {o['arrived_interactive'] + o['arrived_batch']:,.2f} "
            f"(batch {o['arrived_batch']:,.2f}), served {o['served']:,.2f}, "
            f"unserved_req_frac {o['unserved_req_frac']:.6g} fraction"
        )
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    missing = [
        p for p in ("src/repro/__init__.py", workload.scenario)
        if not (root / p).is_file()
    ]
    if missing:
        print(
            f"run from the repository root: missing {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = child_env(root)

    stamp = f"{args.workload}-s{args.seed}-{time.time_ns()}"
    rows: list[dict] = []
    deadline = now_ns() + int(args.seconds * 1e9)
    min_rows = MIN_CHILDREN * (2 if args.trace else 1)
    while now_ns() < deadline or (
        len(rows) < min_rows and now_ns() < deadline + int(GRACE_S * 1e9)
    ):
        for traced in (False, True) if args.trace else (False,):
            run_id = f"{stamp}-{len(rows)}"
            rows.append(
                measure_child(workload, args.seed, root, env, out_dir, run_id, traced)
            )

    metrics, failed = summarize(rows, bool(args.trace))
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        for r in rows:
            r = {k: v for k, v in r.items() if not k.startswith("t_")}
            fh.write(json.dumps({"workload": args.workload, **r}) + "\n")
    print_report(args.workload, args.seed, rows, metrics)
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": len(rows),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
