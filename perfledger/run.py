"""Cost ledger of the paper's experiment set, end to end and per layer.

Run from the repository root::

    python3 perfledger/run.py --workload paper_serial --seed 101 --seconds 20 --trace 0

``--workload`` is ``paper_serial``, ``sweep_pool``, ``sweep_durable`` or
``static_cold`` (``ledger_workloads.py`` says what each runs and why).
``BENCHMARK.json`` lists the first three.  ``static_cold`` is left out
of it because its ten-seed spread of ``wall_s`` exceeded the 0.25 bound
on a 2-vCPU x86-64 VM; it stays runnable by hand to ledger a
static-pipeline change.  ``--seed`` sets ``ExperimentConfig.seed``;
``static_cold`` has no seeded input and ignores it.  Digests are committed for seed 101, the experiments' own
default, and for the held-out seed 202; any other seed is checked by
agreement (see ``ledger_workloads.py``).  The run sets up, repeats
untraced passes of the workload for about ``--seconds`` seconds (at
least one), checks every output, and prints a report followed by one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` makes the same untraced passes, then one pass with every
layer wrapped, and reports the per-layer ledger (:data:`PER_LAYER`):
call counts and self times per layer, the modelled counts, and the
tracing overhead.  Its spans are written to ``perfledger/_out/``.  A
metric of a layer the workload does not run reads 0.

Host times are wall-clock seconds of the machine running the benchmark.
Simulated times and counts come from the model and repeat exactly for a
seed: a pass whose outputs or modelled counts differ from another pass
of the same run, or from ``reference.json``, fails the run (exit code 1).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper_serial", "static_cold", "sweep_pool", "sweep_durable")

#: ``(name, unit)``.  ``setup_s``: median of :data:`SETUP_SAMPLES` cold
#: set-ups (imports, building the benchmark programs, and on
#: the sweeps warming the pipeline cache).  ``wall_s``: median host
#: time of one pass.  ``peak_rss_mb``: peak RSS of this process plus its
#: largest worker.  ``ok_frac``: operations (experiments, static builds,
#: sweep tasks) that passed their check over operations attempted.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: ``(name, unit, better)``.  ``<layer>_s`` is the layer's self time in
#: host seconds (its spans minus the part their child spans cover),
#: summed over the traced pass; ``experiments.<name>_s`` is instead the
#: whole span of that experiment, and ``experiments.self_s`` what the
#: experiments spend outside every wrapped layer.  Modelled counts
#: (``sim.*`` but ``sim.*_s``, ``model.*``) come from the first untraced
#: pass and repeat exactly for a seed.
PER_LAYER = (
    ("experiments.fig3_s", "s", "lower"),
    ("experiments.table1_s", "s", "lower"),
    ("experiments.fig4_s", "s", "lower"),
    ("experiments.fig6_s", "s", "lower"),
    ("experiments.fig7_s", "s", "lower"),
    ("experiments.table2_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("analysis.typing_calls", "count", "lower"),
    ("analysis.typing_s", "s", "lower"),
    ("analysis.transitions_calls", "count", "lower"),
    ("analysis.transitions_s", "s", "lower"),
    ("analysis.liveness_calls", "count", "lower"),
    ("analysis.liveness_s", "s", "lower"),
    ("instrument.build_marks_calls", "count", "lower"),
    ("instrument.build_marks_s", "s", "lower"),
    ("sim.tracegen_calls", "count", "lower"),
    ("sim.tracegen_s", "s", "lower"),
    ("tuning.pipeline.hits", "count", "higher"),
    ("tuning.pipeline.misses", "count", "lower"),
    ("tuning.pipeline.hit_rate", "ratio", "higher"),
    ("tuning.pipeline.cold_s", "s", "lower"),
    ("tuning.pipeline.warm_s", "s", "lower"),
    ("tuning.pipeline.memo_speedup", "x", "higher"),
    ("sim.run_calls", "count", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.instructions", "Minstr", "higher"),
    ("sim.simulated_s", "sim_s", "higher"),
    ("sim.host_s_per_sim_s", "s/sim_s", "lower"),
    ("sim.minstr_per_s", "Minstr/s", "higher"),
    ("sim.switches", "count", "lower"),
    ("sim.migrations", "count", "lower"),
    ("sim.core_idle_frac", "ratio", "lower"),
    ("sim.checkpoint.saves", "count", "lower"),
    ("sim.checkpoint.bytes", "B", "lower"),
    ("sim.checkpoint.save_s", "s", "lower"),
    ("sim.checkpoint.loads", "count", "lower"),
    ("sim.checkpoint.files_kept", "count", "lower"),
    ("sim.checkpoint.bytes_kept", "B", "lower"),
    ("store.puts", "count", "lower"),
    ("store.put_bytes", "B", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("broker.claims", "count", "lower"),
    ("broker.completes", "count", "lower"),
    ("broker.retries", "count", "lower"),
    ("broker.quarantined", "count", "lower"),
    ("broker.claim_s", "s", "lower"),
    ("broker.complete_s", "s", "lower"),
    ("harness.tasks", "count", "lower"),
    ("harness.task_busy_s", "s", "lower"),
    ("harness.task_wait_s", "s", "lower"),
    ("harness.worker_util", "ratio", "higher"),
    ("harness.run_tasks_s", "s", "lower"),
    ("harness.serial_warm_s", "s", "lower"),
    ("harness.pool_wall_s", "s", "lower"),
    ("harness.pool_speedup", "x", "higher"),
    ("harness.durable_ratio", "x", "lower"),
    ("model.avg_time_gain_pct", "%", "higher"),
    ("model.max_stretch_gain_pct", "%", "higher"),
    ("model.max_flow_gain_pct", "%", "higher"),
    ("model.space_overhead_pct", "%", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

#: How many cold set-ups ``setup_s`` is the median of (this process and
#: ``SETUP_SAMPLES - 1`` probe processes).
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment(root: Path) -> None:
    """Import the program from ``root/src`` with none of its knobs set."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfledger: no src/repro under {root}; run from the repository root")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(root / "src"))


def one_pass(workload, state, scratch, spans, timed):
    """One pass with the recorder's wrappers installed."""
    gc.collect()
    rec = spans.Recorder(scratch, timed=timed)
    rec.install()
    try:
        result = workload.run_pass(state, rec)
    finally:
        rec.uninstall()
    rec.merge_workers()
    result.sim = spans.sim_totals(rec.sims)
    return result, rec


def measure(workload, state, seconds, scratch, spans) -> list:
    """Untraced passes for about *seconds*; at least one."""
    passes = []
    begin = time.perf_counter()
    while True:
        result, _ = one_pass(workload, state, scratch, spans, timed=False)
        passes.append(result)
        if time.perf_counter() - begin + result.wall_s > seconds:
            return passes


def fingerprint(result) -> dict:
    """What must repeat exactly between passes of one run."""
    return {**result.fingerprint, "sim": result.sim}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_probes(args, root: Path) -> list:
    """Cold set-up times of fresh processes running this same set-up."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def layer_metrics(spans, passes, traced, rec, extra) -> dict:
    """The per-layer ledger: spans and counts of the traced pass, modelled
    counts and simulated throughput of the first untraced pass."""
    layers = spans.layer_totals(rec.spans)
    harness = spans.harness_totals(rec.spans)

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    untraced = statistics.median(p.wall_s for p in passes)
    sim = passes[0].sim
    hits, misses = traced.pipeline.get("hits", 0), traced.pipeline.get("misses", 0)
    durable = traced.durable
    m = {}
    for name in ("fig3", "table1", "fig4", "fig6", "fig7", "table2"):
        m[f"experiments.{name}_s"] = get(f"experiments.{name}", "total_s")
    m["experiments.self_s"] = sum(
        v["self_s"] for k, v in layers.items() if k.startswith("experiments.")
    )
    for span in ("analysis.typing", "analysis.transitions", "analysis.liveness",
                 "instrument.build_marks", "sim.tracegen", "sim.run"):
        m[f"{span}_calls"] = get(span, "calls")
        m[f"{span}_s"] = get(span, "self_s")
    m["tuning.pipeline.hits"] = hits
    m["tuning.pipeline.misses"] = misses
    m["tuning.pipeline.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["tuning.pipeline.cold_s"] = extra.get("cold_s", 0.0)
    m["tuning.pipeline.warm_s"] = extra.get("warm_s", 0.0)
    m["tuning.pipeline.memo_speedup"] = (
        extra["cold_s"] / extra["warm_s"] if extra.get("warm_s") else 0.0
    )
    m["sim.instructions"] = sim["instructions"] / 1e6
    m["sim.simulated_s"] = sim["simulated_s"]
    m["sim.host_s_per_sim_s"] = (
        m["sim.run_s"] / sim["simulated_s"] if sim["simulated_s"] else 0.0
    )
    m["sim.minstr_per_s"] = sim["instructions"] / 1e6 / passes[0].wall_s
    m["sim.switches"] = sim["switches"]
    m["sim.migrations"] = sim["migrations"]
    m["sim.core_idle_frac"] = sim["idle_core_s"] / sim["core_s"] if sim["core_s"] else 0.0
    m["sim.checkpoint.saves"] = get("sim.checkpoint.save", "calls")
    m["sim.checkpoint.bytes"] = get("sim.checkpoint.save", "bytes")
    m["sim.checkpoint.save_s"] = get("sim.checkpoint.save", "self_s")
    m["sim.checkpoint.loads"] = get("sim.checkpoint.load", "calls")
    m["sim.checkpoint.files_kept"] = durable.get("files_kept", 0)
    m["sim.checkpoint.bytes_kept"] = durable.get("bytes_kept", 0)
    m["store.puts"] = get("store.put", "calls")
    m["store.put_bytes"] = get("store.put", "bytes")
    m["store.put_s"] = get("store.put", "self_s")
    m["store.gets"] = get("store.get", "calls")
    m["store.get_s"] = get("store.get", "self_s")
    for key in ("claims", "completes", "retries", "quarantined"):
        m[f"broker.{key}"] = durable.get(key, 0)
    m["broker.claim_s"] = get("broker.claim", "self_s")
    m["broker.complete_s"] = get("broker.complete", "self_s")
    m["harness.tasks"] = harness["tasks"]
    m["harness.task_busy_s"] = harness["busy_s"]
    m["harness.task_wait_s"] = harness["wait_s"]
    m["harness.worker_util"] = harness["util"]
    m["harness.run_tasks_s"] = get("harness.run_tasks", "self_s")
    pool = extra.get("pool_s", 0.0)
    m["harness.serial_warm_s"] = extra.get("serial_s", 0.0)
    m["harness.pool_wall_s"] = pool
    m["harness.pool_speedup"] = extra["serial_s"] / pool if pool else 0.0
    m["harness.durable_ratio"] = extra["durable_s"] / pool if "durable_s" in extra else 0.0
    for key in ("avg_time_gain_pct", "max_stretch_gain_pct", "max_flow_gain_pct",
                "space_overhead_pct"):
        m[f"model.{key}"] = passes[0].model.get(key, 0.0)
    m["trace.untraced_wall_s"] = untraced
    m["trace.traced_wall_s"] = traced.wall_s
    m["trace.overhead_pct"] = 100.0 * (traced.wall_s - untraced) / untraced
    m["trace.spans"] = len(rec.spans)
    return m


def model_report(model: dict) -> list:
    """Modelled Table 2 gains next to the paper's Loop[45] row."""
    from ledger_workloads import PAPER_LOOP45

    lines = ["modelled design (simulated; Table 2 Loop[45], % decrease vs stock):"]
    for key in ("avg_time", "max_stretch", "max_flow"):
        got, paper = model[f"{key}_gain_pct"], PAPER_LOOP45[key]
        lines.append(f"  {key:<12} model {got:+7.2f}   paper {paper:+7.2f}   "
                     f"difference {got - paper:+7.2f} points")
    lines.append(f"  space overhead (static; Fig 3 Loop[45] mean): "
                 f"{model['space_overhead_pct']:.3f}%")
    lines.append("  The model has not been validated against hardware; the paper's "
                 "figures are the only reference.")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    prepare_environment(root)
    sys.path.insert(0, str(HERE))
    import ledger_spans as spans
    import ledger_workloads as workloads

    scratch = HERE / "_out" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, scratch)
        state = workload.setup(args.seed)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        workload.reference(state)
        problems = [state["serial_problem"]] if "serial_problem" in state else []
        passes = measure(workload, state, args.seconds, scratch, spans)
        runs = list(passes)
        if args.trace:
            traced, rec = one_pass(workload, state, scratch, spans, timed=True)
            runs.append(traced)
            extra = workload.trace_extras(state, passes)
        first = fingerprint(runs[0])
        for index, p in enumerate(runs[1:], start=1):
            if fingerprint(p) != first:
                differs = sorted(k for k in first if fingerprint(p).get(k) != first[k])
                problems.append(f"pass {index} is not deterministic: {differs} differ")
                p.failed = p.attempted
        checked = runs + (extra.get("checked", []) if args.trace else [])
        attempted = sum(p.attempted for p in checked)
        failed = sum(p.failed for p in checked)
        for index, p in enumerate(checked):
            problems += [f"pass {index}: {why}" for why in p.problems]

        walls = [p.wall_s for p in passes]
        print(f"{args.workload} seed={args.seed}: {len(passes)} untraced pass(es), "
              "wall_s " + " ".join(f"{w:.3f}" for w in walls))
        if "avg_time_gain_pct" in passes[0].model:
            print("\n".join(model_report(passes[0].model)))
        if args.trace:
            values = layer_metrics(spans, passes, traced, rec, extra)
            spans.write_trace(HERE / "_out" / f"trace-{args.workload}-{args.seed}.json",
                              rec.spans)
            print("per-layer ledger (traced pass; *_s are self times in host s):")
            for name, unit, _better in PER_LAYER:
                print(f"  {name:<32} {values[name]:>14.6g} {unit}")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _better in PER_LAYER}
        else:
            rss = peak_rss_mb()
            samples = [setup_s] + setup_probes(args, root)
            values = {
                "setup_s": statistics.median(samples),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": rss,
                "ok_frac": (attempted - failed) / attempted,
            }
            print("setup_s samples " + " ".join(f"{s:.3f}" for s in samples))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        for why in problems:
            print(f"CHECK FAILED: {why}")
        correct = failed == 0 and not problems
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
