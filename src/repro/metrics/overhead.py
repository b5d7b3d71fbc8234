"""Space and time overhead metrics (Section IV-B).

Space overhead compares instrumented to original binary sizes across the
whole benchmark suite (Figure 3's box plots).  Time overhead compares a
baseline run against an identical run whose marks switch to "all cores"
(Figure 4) — the marks execute and make the same affinity API calls, but
never constrain the schedule, so the runtime difference is pure mark
cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.instrument.marker import MarkingStrategy
from repro.metrics.stats import BoxPlot, box_plot, mean
from repro.tuning.pipeline import instrument_cached


@dataclass(frozen=True)
class SpaceOverheadReport:
    """Suite-wide space overhead of one technique.

    Attributes:
        strategy_name: e.g. ``"Loop[45]"``.
        per_benchmark: ``{name: fractional overhead}``.
        summary: five-number summary across benchmarks (Figure 3).
        mean_marks: average phase marks per benchmark.
        max_mark_bytes: size of the largest single mark.
    """

    strategy_name: str
    per_benchmark: dict
    summary: BoxPlot
    mean_marks: float
    max_mark_bytes: int


def space_overhead_report(
    benchmarks, strategy: MarkingStrategy
) -> SpaceOverheadReport:
    """Instrument every benchmark with *strategy* and report overheads.

    Builds go through the pipeline cache, so each program is typed once
    and later experiments reuse the instrumented programs.

    Args:
        benchmarks: iterable of
            :class:`~repro.workloads.synthetic.SyntheticBenchmark`.
    """
    per_benchmark = {}
    mark_counts = []
    max_mark = 0
    for benchmark in benchmarks:
        inst = instrument_cached(benchmark.program, strategy)
        per_benchmark[benchmark.name] = inst.space_overhead
        mark_counts.append(len(inst.marks))
        for mark in inst.marks:
            max_mark = max(max_mark, mark.total_bytes)
    if not per_benchmark:
        raise ReproError("space_overhead_report over an empty suite")
    return SpaceOverheadReport(
        strategy.name,
        per_benchmark,
        box_plot(per_benchmark.values()),
        mean(mark_counts),
        max_mark,
    )


def time_overhead(baseline_result, marked_result, horizon: float = 400.0) -> float:
    """Fractional slowdown of the switch-to-all-cores run vs baseline.

    Both runs must use the same workload queues.  Measured on committed
    instructions over the horizon: with identical work and schedules,
    fewer instructions per interval means mark cycles displaced real
    work.
    """
    base = baseline_result.instructions_before(horizon)
    marked = marked_result.instructions_before(horizon)
    if base <= 0:
        raise ReproError("baseline committed no instructions")
    return max(0.0, (base - marked) / base)
