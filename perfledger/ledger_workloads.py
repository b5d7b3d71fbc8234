"""The ledger's four workloads, driven through the program's public API.

Each workload has a set-up step (timed as ``setup_s``), an optional
reference step that is not part of set-up, and a pass (timed as one
sample of ``wall_s``).  A pass returns a :class:`Pass`: its host time,
how many operations it attempted and how many failed their check, and a
fingerprint of everything it computed that must repeat exactly.

``paper_serial``: the six paper experiments, as ``python -m
repro.experiments`` runs them, with jobs=1 and an empty pipeline cache
per pass.  The north-star number; about two thirds simulation and one
third static pipeline on a 2-core x86-64 host.

``static_cold``: ``tune_program`` for 15 benchmarks x 18 Table 2
variants on a fresh ``PipelineCache`` per pass, no simulation.  It has
no seeded input: the seed is accepted and ignored.

``sweep_pool``: the Fig 6 sweep (Loop[45], nine delta points plus the
baseline) through ``run_tasks``' default process pool with jobs=2, for
the run's seed and two seeds derived from it.  The pipeline is warmed
in set-up, so the static layers do no work in a pass: it moves with the
simulator and the harness only.

``sweep_durable``: the same sweep, for the run's seed only, through the
local broker with two local workers, and a fresh broker directory and
artifact store (``REPRO_BROKER_DIR`` / ``REPRO_STORE_DIR``) per sweep,
so no result is ever replayed.  The simulated work is the same as ``sweep_pool``'s; the
default-cadence checkpoints, their publication to the store, and broker
I/O take most of the time.  A traced run also times plain pool sweeps,
for the durability ratio.

Checks.  ``paper_serial`` compares each experiment's stdout with the
sha256 committed in ``reference.json`` for the seed (fig3 and table1 for
every seed; for a seed with no digest the seeded experiments are only
checked for ``nan``).  ``static_cold`` compares every build's row of the
committed table.  The sweeps compare every delta point of every sweep
with the serial Fig 6 computed before the timed passes, and both with
the committed digest when the seed has one.  Within
a run, every pass must also repeat the first pass's outputs, pipeline
counts and modelled simulation counts exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import fig3, fig4, fig5, fig6, fig7, fig8, table1, table2
from repro.experiments.broker import BROKER_DIR_ENV, connect
from repro.experiments.config import TABLE2_VARIANTS, ExperimentConfig
from repro.experiments.runner import make_workload
from repro.instrument.marker import parse_strategy
from repro.sim.machine import core2quad_amp
from repro.store import STORE_DIR_ENV
from repro.tuning.pipeline import PipelineCache, default_cache, tune_program
from repro.workloads.spec import SPEC_BENCHMARKS, spec_benchmark
from repro.workloads.workload import WorkloadRun

#: The paper's Table 2 Loop[45] row: average time, max stretch, max flow
#: (percent decrease over the stock scheduler).
PAPER_LOOP45 = {"avg_time": 35.95, "max_stretch": 20.41, "max_flow": 12.04}

#: Technique whose Table 2 row and Fig 3 overhead the ledger reports.
BEST = "Loop[45]"

#: Worker processes for the sweep workloads.
SWEEP_JOBS = 2

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def digest(value) -> str:
    """sha256 of a JSON-serialisable value (floats keep every digit)."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class Pass:
    """One timed pass of a workload."""

    wall_s: float
    attempted: int
    failed: int = 0
    fingerprint: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    pipeline: dict = field(default_factory=dict)
    durable: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)


def build_programs() -> None:
    """Build (and memoise) every benchmark program the workloads use."""
    for name in SPEC_BENCHMARKS:
        spec_benchmark(name)


# -- paper_serial --------------------------------------------------------------


def _fig3(seed):
    result = fig3.run()
    return fig3.format_result(result) + "\n", result


def _table1(seed):
    result = table1.run(jobs=1)
    text = table1.format_result(result) + "\n\n" + fig5.format_result(fig5.run(result))
    return text + "\n", result


def _fig4(seed):
    config = ExperimentConfig(slots=84, interval=400.0, seed=seed)
    return fig4.format_result(fig4.run(config, jobs=1)) + "\n", None


def _fig6(seed):
    config = ExperimentConfig.paper().with_(seed=seed)
    result = fig6.run(config, strategy=BEST, jobs=1)
    return fig6.format_result(result) + "\n", result


def _fig7(seed):
    config = ExperimentConfig.paper().with_(seed=seed)
    return fig7.format_result(fig7.run(config, strategy=BEST, jobs=1)) + "\n", None


def _table2(seed):
    config = ExperimentConfig.fairness_paper().with_(seed=seed)
    result = table2.run(config, jobs=1)
    text = table2.format_result(result) + "\n\n" + fig8.format_result(fig8.run(table2=result))
    return text + "\n", result


#: The experiment set in the CLI's order; fig3 and table1 take no seed.
EXPERIMENTS = (
    ("fig3", _fig3),
    ("table1", _table1),
    ("fig4", _fig4),
    ("fig6", _fig6),
    ("fig7", _fig7),
    ("table2", _table2),
)
UNSEEDED = ("fig3", "table1")


def fig6_digest(result) -> str:
    return digest({"deltas": list(result.deltas), "improvements": list(result.improvements)})


def space_overhead_pct(overheads) -> float:
    values = list(overheads)
    return 100.0 * math.fsum(values) / len(values)


class PaperSerial:
    name = "paper_serial"

    def setup(self, seed: int) -> dict:
        build_programs()
        return {"seed": seed, "reference": load_reference()}

    def reference(self, state: dict) -> None:
        pass

    def trace_extras(self, state: dict, passes: list) -> dict:
        return {}

    def run_pass(self, state: dict, rec) -> Pass:
        seed = state["seed"]
        default_cache().clear()
        texts, results, errors = {}, {}, {}
        start = time.perf_counter()
        for name, fn in EXPERIMENTS:
            try:
                texts[name], results[name] = rec.span(f"experiments.{name}", fn, seed)
            except Exception as exc:  # one failed experiment must not end the run
                errors[name] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        stats = default_cache().stats()
        out = Pass(wall, attempted=len(EXPERIMENTS))
        out.pipeline = {"hits": stats["hits"], "misses": stats["misses"]}
        ref = state["reference"]["paper_serial"]
        expected = dict(ref["unseeded"])
        expected.update(ref["seeds"].get(str(seed), {}))
        for name, _ in EXPERIMENTS:
            if name in errors:
                out.failed += 1
                out.problems.append(f"{name} raised {errors[name]}")
                continue
            got = digest(texts[name])
            out.fingerprint[name] = got
            if name in expected and got != expected[name]:
                out.failed += 1
                out.problems.append(f"{name} stdout digest {got[:12]} != reference {expected[name][:12]}")
            elif "nan" in texts[name]:
                out.failed += 1
                out.problems.append(f"{name} printed nan")
        if "table2" in results:
            row = next(r for r in results["table2"].rows if r.technique == BEST)
            out.model["avg_time_gain_pct"] = row.comparison.average_time_decrease
            out.model["max_stretch_gain_pct"] = row.comparison.max_stretch_decrease
            out.model["max_flow_gain_pct"] = row.comparison.max_flow_decrease
        if "fig3" in results:
            report = results["fig3"].reports[BEST]
            out.model["space_overhead_pct"] = space_overhead_pct(report.per_benchmark.values())
        out.fingerprint.update(out.model)
        out.fingerprint["pipeline"] = out.pipeline
        return out


# -- static_cold ---------------------------------------------------------------


def static_table(cache: PipelineCache) -> tuple:
    """Run every (benchmark, variant) build; returns (table, errors, best
    overheads).  The table maps ``"bench|variant"`` to the mark count, the
    bytes the marks add, and the tuned and baseline trace lengths."""
    machine = core2quad_amp()
    table, errors, best = {}, {}, []
    for bench in SPEC_BENCHMARKS:
        benchmark = spec_benchmark(bench)
        for variant in TABLE2_VARIANTS:
            key = f"{bench}|{variant}"
            try:
                tuned = tune_program(
                    benchmark.program, parse_strategy(variant), machine,
                    benchmark.spec, cache=cache,
                )
            except Exception as exc:  # counted as a failed build
                errors[key] = f"{type(exc).__name__}: {exc}"
                continue
            table[key] = [
                tuned.mark_count,
                tuned.instrumented.added_bytes,
                len(tuned.tuned_trace.nodes),
                len(tuned.baseline_trace.nodes),
            ]
            if variant == BEST:
                best.append(tuned.space_overhead)
    return table, errors, best


class StaticCold:
    name = "static_cold"

    def setup(self, seed: int) -> dict:
        build_programs()
        return {"reference": load_reference()["static_cold"]}

    def reference(self, state: dict) -> None:
        pass

    def run_pass(self, state: dict, rec) -> Pass:
        cache = PipelineCache()
        start = time.perf_counter()
        table, errors, best = static_table(cache)
        wall = time.perf_counter() - start
        stats = cache.stats()
        state["last_cache"] = cache
        out = Pass(wall, attempted=len(SPEC_BENCHMARKS) * len(TABLE2_VARIANTS))
        out.pipeline = {"hits": stats["hits"], "misses": stats["misses"]}
        expected = state["reference"]["table"]
        for key, why in errors.items():
            out.failed += 1
            out.problems.append(f"{key} raised {why}")
        for key, row in table.items():
            if expected.get(key) != row:
                out.failed += 1
                out.problems.append(f"{key}: {row} != reference {expected.get(key)}")
        if best:
            out.model["space_overhead_pct"] = space_overhead_pct(best)
        out.fingerprint = {"table": digest(table), "pipeline": out.pipeline, **out.model}
        return out

    def trace_extras(self, state: dict, passes: list) -> dict:
        """Memoization: a cold pass against the same builds replayed on
        the last pass's warm cache."""
        start = time.perf_counter()
        static_table(state["last_cache"])
        warm = time.perf_counter() - start
        return {"cold_s": statistics.median(p.wall_s for p in passes), "warm_s": warm}


# -- sweep_pool and sweep_durable ----------------------------------------------


def broker_ledger(broker_dir: Path) -> dict:
    """Counts read back from a broker directory after a sweep."""
    broker = connect(str(broker_dir))
    try:
        counts = broker.counts()
        kinds = [row[1] for row in broker.events(limit=1_000_000)]
    finally:
        broker.close()
    files = list(broker_dir.glob("ckpt/*/*.ckpt"))
    return {
        "claims": kinds.count("claim"),
        "completes": kinds.count("complete"),
        "retries": kinds.count("fail") + kinds.count("reclaim"),
        "quarantined": counts["quarantined"],
        "files_kept": len(files),
        "bytes_kept": sum(path.stat().st_size for path in files),
    }


class SweepPool:
    """Fig 6 at paper scale through ``run_tasks``' default process pool,
    jobs=2, on the pipeline cache warmed in set-up.

    One pass sweeps :attr:`SEEDS_PER_PASS` workloads: the run's seed and
    seeds derived from it.  How long one sweep takes depends on its
    workload's job mix; summing three keeps that dependence on the seed
    small next to the bound.
    """

    name = "sweep_pool"
    SEEDS_PER_PASS = 3

    def __init__(self, scratch: Path) -> None:
        self.scratch = Path(scratch)

    def setup(self, seed: int) -> dict:
        build_programs()
        seeds = [seed + 1000 * k for k in range(self.SEEDS_PER_PASS)]
        configs = [ExperimentConfig.paper().with_(seed=s) for s in seeds]
        committed = load_reference()["fig6"]

        def warm_pipeline() -> float:
            start = time.perf_counter()
            for config in configs:
                workload = make_workload(config)
                machine = config.resolved_machine()
                WorkloadRun(workload, machine)
                WorkloadRun(workload, machine, config.strategy(BEST))
            return time.perf_counter() - start

        cold = warm_pipeline()
        return {
            "configs": configs,
            "cold_s": cold,
            "warm_s": warm_pipeline(),
            "committed": [committed.get(str(s)) for s in seeds],
        }

    def reference(self, state: dict) -> None:
        """Serial Fig 6 on the warm cache: the agreement reference for
        every sweep and the numerator of ``harness.pool_speedup``."""
        start = time.perf_counter()
        state["serial"] = [
            fig6.run(config, strategy=BEST, jobs=1) for config in state["configs"]
        ]
        state["serial_s"] = time.perf_counter() - start
        for result, want in zip(state["serial"], state["committed"]):
            if want is not None and fig6_digest(result) != want:
                state["serial_problem"] = "serial Fig 6 differs from the committed digest"

    def _check(self, out: Pass, result, serial, committed) -> None:
        tasks = len(fig6.DEFAULT_DELTAS)
        wrong = [
            d for d, got, want in zip(result.deltas, result.improvements, serial.improvements)
            if got != want
        ]
        got = fig6_digest(result)
        out.fingerprint.setdefault("fig6", []).append(got)
        if committed is not None and got != committed:
            out.failed += tasks
            out.problems.append("Fig 6 result differs from the committed digest")
        elif wrong:
            out.failed += len(wrong)
            out.problems.append(f"deltas {wrong} differ from the serial Fig 6")

    def _sweep(self, state: dict) -> Pass:
        tasks = len(fig6.DEFAULT_DELTAS)
        out = Pass(0.0, attempted=tasks * len(state["configs"]))
        before = default_cache().stats()
        results = []
        start = time.perf_counter()
        for config in state["configs"]:
            try:
                results.append(fig6.run(config, strategy=BEST, jobs=SWEEP_JOBS))
            except Exception as exc:  # the whole sweep failed
                results.append(None)
                out.problems.append(f"sweep raised {type(exc).__name__}: {exc}")
        out.wall_s = time.perf_counter() - start
        after = default_cache().stats()
        out.pipeline = {k: after[k] - before[k] for k in ("hits", "misses")}
        out.fingerprint["pipeline"] = out.pipeline
        for result, serial, committed in zip(results, state["serial"], state["committed"]):
            if result is None:
                out.failed += tasks
            else:
                self._check(out, result, serial, committed)
        return out

    def run_pass(self, state: dict, rec) -> Pass:
        return self._sweep(state)

    def trace_extras(self, state: dict, passes: list) -> dict:
        """Memoization (cold vs warm pipeline set-up) and parallelism
        (serial vs pool sweeps on the same warm cache), kept apart."""
        return {
            "cold_s": state["cold_s"],
            "warm_s": state["warm_s"],
            "serial_s": state["serial_s"],
            "pool_s": statistics.median(p.wall_s for p in passes),
        }


class SweepDurable(SweepPool):
    """The same sweep through the local broker backend (two local
    workers), with a fresh broker directory and store per sweep."""

    name = "sweep_durable"
    SEEDS_PER_PASS = 1

    #: Plain pool sweeps a traced run adds, for the durability ratio.
    POOL_SWEEPS = 3

    def __init__(self, scratch: Path) -> None:
        super().__init__(scratch)
        self._sweeps = 0

    def run_pass(self, state: dict, rec) -> Pass:
        self._sweeps += 1
        broker_dir = self.scratch / f"broker-{self._sweeps}"
        os.environ[BROKER_DIR_ENV] = str(broker_dir)
        os.environ[STORE_DIR_ENV] = str(broker_dir / "store")
        try:
            out = self._sweep(state)
        finally:
            os.environ.pop(BROKER_DIR_ENV, None)
            os.environ.pop(STORE_DIR_ENV, None)
        out.durable = broker_ledger(broker_dir)
        out.failed += out.durable["quarantined"]
        if out.durable["quarantined"]:
            out.problems.append(f"{out.durable['quarantined']} task(s) quarantined")
        shutil.rmtree(broker_dir, ignore_errors=True)
        return out

    def trace_extras(self, state: dict, passes: list) -> dict:
        pools = [self._sweep(state) for _ in range(self.POOL_SWEEPS)]
        extra = super().trace_extras(state, pools)
        extra["durable_s"] = statistics.median(p.wall_s for p in passes)
        extra["checked"] = pools
        return extra


def make(name: str, scratch: Path):
    if name == "paper_serial":
        return PaperSerial()
    if name == "static_cold":
        return StaticCold()
    if name == "sweep_pool":
        return SweepPool(scratch)
    if name == "sweep_durable":
        return SweepDurable(scratch)
    raise KeyError(name)
