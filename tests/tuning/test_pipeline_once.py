"""Every static product is computed once per key.

Typing and liveness depend on the program alone, block costs and their
aggregates on (program, machine, spec); only the marks depend on the
strategy.  A cold sweep over every Table 2 variant, the baselines and a
Figure 7 typing override must therefore type each program once, analyse
each marked procedure once and aggregate costs once per program — and
produce exactly the traces a standalone generator does.
"""

from collections import Counter

import pytest

from repro.analysis import StaticBlockTyper, inject_clustering_error
from repro.experiments.config import TABLE2_VARIANTS
from repro.experiments.fig7 import FIG7_STRATEGY
from repro.instrument import rewriter
from repro.instrument.marker import parse_strategy
from repro.sim import tracegen
from repro.sim.machine import core2quad_amp
from repro.sim.tracegen import TraceGenerator
from repro.tuning.pipeline import (
    PipelineCache,
    baseline_binary,
    tune_program,
    typed_blocks,
)
from repro.workloads.spec import spec_benchmark

BENCHMARKS = ("429.mcf", "473.astar", "183.equake")


def _counting(patch, owner, name, key):
    """Wrap ``owner.name`` so each call bumps ``calls[key(*args)]``."""
    calls = Counter()
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key(*args)] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def machine():
    return core2quad_amp()


@pytest.fixture()
def cold_sweep(monkeypatch, machine):
    """Every build of the sweep on a fresh cache, with the static stages
    counted; returns ``(builds, counts)``."""
    with monkeypatch.context() as patch:
        typings = _counting(
            patch, StaticBlockTyper, "type_blocks",
            lambda typer, program: program.name,
        )
        liveness = _counting(patch, rewriter, "compute_liveness", id)
        aggregations = _counting(
            patch, tracegen.ProgramCosts, "__init__",
            lambda costs, program, spec, model: (program.name, model.machine.name),
        )
        builds = _sweep(machine)
    return builds, (typings, liveness, aggregations)


def _sweep(machine):
    """``[(program, spec, tuned or None, baseline or None)]`` for every
    build, all on one fresh cache."""
    cache = PipelineCache()
    builds = []
    for name in BENCHMARKS:
        benchmark = spec_benchmark(name)
        program, spec = benchmark.program, benchmark.spec
        baseline = baseline_binary(program, machine, spec, cache)
        builds.append((program, spec, None, baseline))
        for variant in TABLE2_VARIANTS:
            tuned = tune_program(
                program, parse_strategy(variant), machine, spec, cache=cache
            )
            builds.append((program, spec, tuned, None))
        # Figure 7: a typing override derived from the cached typing.
        typing = typed_blocks(program, StaticBlockTyper(num_types=2), cache=cache)
        flipped = inject_clustering_error(typing, 0.2, seed=7)
        tuned = tune_program(
            program, parse_strategy(FIG7_STRATEGY), machine, spec,
            typing=flipped, cache=cache,
        )
        builds.append((program, spec, tuned, None))
    return builds


def test_typing_once_per_program(cold_sweep):
    _, (typings, _, _) = cold_sweep
    assert typings == Counter({name: 1 for name in BENCHMARKS})


def test_liveness_once_per_marked_procedure(cold_sweep):
    builds, (_, liveness, _) = cold_sweep
    marked = {
        (program.name, mark.point.proc)
        for program, _, tuned, _ in builds
        if tuned is not None
        for mark in tuned.instrumented.marks
    }
    assert set(liveness.values()) == {1}
    assert len(liveness) == len(marked)


def test_cost_aggregation_once_per_program_machine_spec(cold_sweep, machine):
    _, (_, _, aggregations) = cold_sweep
    assert aggregations == Counter({(name, machine.name): 1 for name in BENCHMARKS})


def _assert_same_trace(got, want, machine):
    assert got.nodes == want.nodes
    got_segments, want_segments = list(got.segments()), list(want.segments())
    assert len(got_segments) == len(want_segments)
    for a, b in zip(got_segments, want_segments):
        assert a.uid == b.uid
        assert a.iterations == b.iterations
        assert a.cost == b.cost
        assert a.entry_marks == b.entry_marks
        assert a.embedded == b.embedded
        for ctype in machine.core_types():
            assert a.cost_tuple(ctype.name) == b.cost_tuple(ctype.name)


def test_traces_equal_standalone_generation(cold_sweep, machine):
    builds, _ = cold_sweep
    for program, spec, tuned, baseline in builds:
        generator = TraceGenerator(machine)
        plain = generator.generate(program, spec)
        if tuned is None:
            trace, isolated = baseline
        else:
            fresh = generator.generate(tuned.instrumented, spec)
            _assert_same_trace(tuned.tuned_trace, fresh, machine)
            trace, isolated = tuned.baseline_trace, tuned.isolated_seconds
        _assert_same_trace(trace, plain, machine)
        assert isolated == generator.isolated_seconds(plain)
