"""Parallel-vs-serial determinism regression (the harness contract).

Every experiment point is a pure function of its task tuple, so running
a sweep through the process pool must reproduce the serial results *bit
for bit* — same floats, not approximately-equal floats.  These tests pin
that for a throughput sweep (Figure 6), a per-benchmark fan-out
(Table 1) and a technique fan-out whose serial run reuses identical
simulations (Table 2) at quick scale.
"""

import numpy as np

from repro.experiments import ExperimentConfig, fig6, table1, table2
from repro.sim.executor import Simulation

QUICK = ExperimentConfig(slots=6, interval=40.0, seed=101)


def test_fig6_parallel_bit_identical(monkeypatch):
    deltas = (0.02, 0.08, 0.18)
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = fig6.run(QUICK, deltas=deltas)
    monkeypatch.setenv("REPRO_JOBS", "4")
    parallel = fig6.run(QUICK, deltas=deltas)
    assert serial.deltas == parallel.deltas
    assert serial.improvements == parallel.improvements  # exact equality
    assert np.array_equal(
        np.asarray(serial.improvements), np.asarray(parallel.improvements)
    )


def test_table1_parallel_bit_identical(monkeypatch):
    benchmarks = ("164.gzip", "172.mgrid", "459.GemsFDTD", "473.astar")
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = table1.run(benchmarks=benchmarks)
    monkeypatch.setenv("REPRO_JOBS", "4")
    parallel = table1.run(benchmarks=benchmarks)
    assert len(serial.rows) == len(parallel.rows) == len(benchmarks)
    for s, p in zip(serial.rows, parallel.rows):
        assert s.name == p.name
        assert s.switches == p.switches
        assert s.runtime_seconds == p.runtime_seconds  # exact equality
        assert s.total_cycles == p.total_cycles
        assert s.marks == p.marks


def test_table2_memo_hits_match_pool_byte_for_byte(monkeypatch):
    """Serially every variant shares one Workload object, so equal
    inputs (BB[x,2] and BB[x,3], Loop[30] and Loop[45]) are simulated
    once; each pool task unpickles its own Workload and simulates."""
    config = ExperimentConfig.quick()
    runs = []
    real = Simulation.run

    def counted(self, *args, **kwargs):
        runs.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", counted)
    serial = table2.run(config, jobs=1)
    assert len(runs) < 1 + len(serial.rows)
    parallel = table2.run(config, jobs=2)
    assert table2.format_result(serial) == table2.format_result(parallel)
    for s, p in zip(serial.rows, parallel.rows):
        assert s.outcome.fairness == p.outcome.fairness
        assert s.outcome.instructions == p.outcome.instructions
