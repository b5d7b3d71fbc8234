"""Trace generation: from programs to executable phase-level traces.

A benchmark's dynamic behaviour is derived from its program structure
plus a :class:`BehaviorSpec` giving loop trip counts.  The generator
performs a hierarchical expected-frequency analysis of each procedure's
CFG (loops collapsed into supernodes, conditional paths split equally,
calls folded or inlined) and emits a compact
:class:`~repro.sim.process.Trace`:

* loops that *alternate* between inner phases (nested loops or calls to
  loop-bearing procedures) are **expanded** into
  :class:`~repro.sim.process.Repeat` nodes so phase changes appear as
  separate trace segments — the behaviour phase-based tuning exploits;
* homogeneous loops are **collapsed** into a single segment with an
  aggregate per-iteration cost — the executor then skips over billions
  of cycles in O(1).

Phase marks from an :class:`~repro.instrument.rewriter.InstrumentedProgram`
are attached where the rewriter spliced them: on segment entries when
the mark guards the section from outside (loop/interval techniques), or
embedded with a per-iteration rate when the mark sits inside a collapsed
body (the naive basic-block technique, whose thrash cost this makes
visible).  The same generator run on the plain program yields a
structurally identical, mark-free trace, so baseline-vs-tuned
comparisons share the exact same dynamics.  Everything but the marks —
loops, scope DAGs, block costs and the per-procedure and per-loop cost
aggregates — lives in :class:`ProgramCosts`, which any number of traces
of one program can share; each trace adds only a mark-rate pass and
emission.

Approximations (documented, deliberate): conditional branch paths are
weighted equally; loops entered with probability below
``EXPAND_FREQ_THRESHOLD`` are never expanded; expansion is capped by a
segment budget, beyond which a loop collapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

from repro.errors import SimulationError, WorkloadError
from repro.program.basic_block import NodeKind
from repro.program.callgraph import build_callgraph
from repro.program.cfg import CFG, cached_cfg
from repro.program.loops import Loop, find_loops
from repro.program.module import Program
from repro.sim.cost_model import CostModel, CostVector
from repro.sim.machine import MachineConfig
from repro.sim.memory import MemoryModel
from repro.sim.process import EmbeddedMark, MarkRef, Repeat, Segment, Trace

#: Loops entered with lower probability than this are never expanded.
EXPAND_FREQ_THRESHOLD = 0.75

#: Frequencies below this are treated as dead paths.
_EPS = 1e-9


@dataclass
class BehaviorSpec:
    """Dynamic behaviour parameters of one benchmark.

    Attributes:
        trip_counts: iterations per loop entry, keyed by ``(proc, label)``
            where *label* sits at the loop header (the natural way for a
            generator that labelled its loops), or directly by loop uid.
        default_trip: trip count for loops not listed.
        recursion_depth: how many times recursive call cycles are unrolled
            when aggregating costs.
        max_inline_depth: call-inlining depth for trace emission.
        segment_budget: cap on the number of trace steps an expanded loop
            may produce; larger loops are collapsed.
    """

    trip_counts: dict = field(default_factory=dict)
    default_trip: float = 50.0
    recursion_depth: int = 4
    max_inline_depth: int = 8
    segment_budget: int = 200_000

    def with_trips(self, **updates) -> "BehaviorSpec":
        """Copy with additional ``(proc, label) -> trips`` entries given
        as ``proc__label=count`` keyword arguments."""
        trips = dict(self.trip_counts)
        for key, value in updates.items():
            proc, _, label = key.partition("__")
            trips[(proc, label)] = value
        return BehaviorSpec(
            trips,
            self.default_trip,
            self.recursion_depth,
            self.max_inline_depth,
            self.segment_budget,
        )


class _ScopeItem:
    """A node of a collapsed scope DAG: a plain block or a loop supernode."""

    __slots__ = ("block", "loop")

    def __init__(self, block=None, loop=None):
        self.block = block
        self.loop = loop

    @property
    def key(self):
        if self.loop is not None:
            return ("loop", self.loop.uid)
        return ("block", self.block)


class _Aggregates:
    """Per-procedure and per-loop sums of one quantity, bottom-up.

    *scope_sum(proc, within)* sums one scope (a procedure body when
    *within* is ``None``, else one iteration of that loop), reading
    callees through :meth:`proc` and nested loops through :meth:`loop`.
    Trace generation keeps two of these: block costs in
    :class:`ProgramCosts` and mark rates per traced target.  Both follow
    the same schedule, so each sum accumulates in the same order as it
    would if the two were computed together.
    """

    def __init__(self, scope_sum, zero):
        self.procs: dict = {}
        self.loops: dict = {}
        self._scope_sum = scope_sum
        self._zero = zero

    def run(self, schedule) -> None:
        """Aggregate every procedure callees-first; iterate recursive SCCs.

        *schedule* is ``[(scc, rounds), ...]`` in bottom-up order.
        """
        for scc, rounds in schedule:
            for name in scc:
                self.procs[name] = self._zero()
            for _ in range(rounds):
                for name in scc:
                    prefix = f"{name}@"
                    self.loops = {
                        k: v
                        for k, v in self.loops.items()
                        if not k.startswith(prefix)
                    }
                    self.procs[name] = self._scope_sum(name, None)

    def proc(self, proc_name: str):
        """The sum over one call to *proc_name* (callees are aggregated
        before their callers, so it is always there)."""
        return self.procs[proc_name]

    def loop(self, proc_name: str, loop: Loop):
        """The sum over ONE iteration of *loop*."""
        cached = self.loops.get(loop.uid)
        if cached is not None:
            return cached
        result = self._scope_sum(proc_name, loop)
        self.loops[loop.uid] = result
        return result


class ProgramCosts:
    """The strategy-independent half of generating a program's traces.

    Everything here is a pure function of (program, machine, spec): the
    CFGs and their loops, resolved trip counts, each scope's collapsed
    DAG with its frequencies and order, every block's cost vector, and
    the per-procedure and per-loop cost aggregates (after the recursive
    SCC rounds).  The marks of an instrumented program change none of
    it, so the baseline trace and the trace of every strategy and typing
    share one instance; only the mark rates are aggregated per target.
    Callers only read it.
    """

    def __init__(
        self, program: Program, spec: BehaviorSpec, cost_model: CostModel
    ) -> None:
        self.program = program
        self.spec = spec
        self.core_types = cost_model.machine.core_types()
        self.cfgs = {p.name: cached_cfg(p) for p in program}
        self.loops = {name: find_loops(cfg) for name, cfg in self.cfgs.items()}
        self.trips = self._resolve_trips()
        self.vectors = {
            (name, block.index): cost_model.block_vector(block, program)
            for name, cfg in self.cfgs.items()
            for block in cfg.blocks
        }
        self.scopes: dict = {}
        callgraph = build_callgraph(program, self.cfgs)
        self.schedule = [
            (scc, spec.recursion_depth if callgraph.is_recursive(scc) else 1)
            for scc in callgraph.bottom_up_sccs()
        ]
        self.costs = _Aggregates(
            self._scope_cost, partial(CostVector.zero, self.core_types)
        )
        self.costs.run(self.schedule)

    # -- setup --------------------------------------------------------------

    def _resolve_trips(self) -> dict:
        """Resolve (proc, label) trip keys to loop uids."""
        trips = {}
        for key, count in self.spec.trip_counts.items():
            if isinstance(key, str):
                trips[key] = float(count)
                continue
            proc_name, label = key
            proc = self.program[proc_name]
            if label not in proc.labels:
                raise SimulationError(
                    f"trip count names unknown label {label!r} in "
                    f"{proc_name!r}"
                )
            start = proc.labels[label]
            loop = self._loop_with_header_start(proc_name, start)
            if loop is None:
                raise SimulationError(
                    f"label {label!r} in {proc_name!r} is not a loop header"
                )
            trips[loop.uid] = float(count)
        return trips

    def _loop_with_header_start(self, proc_name: str, start: int) -> Optional[Loop]:
        cfg = self.cfgs[proc_name]
        for loop in self.loops[proc_name]:
            if cfg.blocks[loop.header].start == start:
                return loop
        return None

    def trip(self, loop: Loop) -> float:
        return self.trips.get(loop.uid, self.spec.default_trip)

    # -- collapsed scope DAGs -----------------------------------------------

    def _scope_dag(self, proc_name: str, within: Optional[Loop]):
        """Build the collapsed DAG of one scope.

        Returns (items, succs, entry_key, members) where items maps key
        -> item, succs maps key -> ordered list of (succ_key,
        original_edges) and members is the set of original block
        indices in the scope.
        """
        cfg = self.cfgs[proc_name]
        if within is None:
            members = frozenset(range(len(cfg.blocks)))
            sub_loops = [l for l in self.loops[proc_name] if l.parent is None]
            entry_block = 0
        else:
            members = within.body
            sub_loops = within.children
            entry_block = within.header

        owner: dict[int, Loop] = {}
        for loop in sub_loops:
            for b in loop.body:
                owner[b] = loop

        items: dict = {}
        for b in sorted(members):
            loop = owner.get(b)
            if loop is None:
                item = _ScopeItem(block=b)
                items[item.key] = item
            else:
                key = ("loop", loop.uid)
                if key not in items:
                    items[key] = _ScopeItem(loop=loop)

        def lift(block: int):
            loop = owner.get(block)
            if loop is not None:
                return ("loop", loop.uid)
            return ("block", block)

        succs: dict = {key: [] for key in items}
        seen_edges: dict = {}
        for edge in cfg.edges:
            if edge.src not in members or edge.dst not in members:
                continue
            if within is not None and edge.dst == within.header:
                continue  # This scope's own back edges.
            src_key, dst_key = lift(edge.src), lift(edge.dst)
            if src_key == dst_key:
                continue  # Internal to a supernode.
            bucket = seen_edges.setdefault((src_key, dst_key), [])
            bucket.append((edge.src, edge.dst))
        for (src_key, dst_key), originals in seen_edges.items():
            succs[src_key].append((dst_key, originals))
        for key in succs:
            succs[key].sort(key=lambda s: str(s[0]))

        entry_key = lift(entry_block)
        return items, succs, entry_key, members

    def scope(self, proc_name: str, within: Optional[Loop]):
        """Memoized (items, succs, entry_key, freq, order, members) of
        one scope.

        The scope DAG, its frequencies and its topological order depend
        only on program structure, so cost and mark-rate aggregation and
        emission share one computation per scope.  Callers treat the
        returned structures as read-only.
        """
        key = (proc_name, within.uid if within is not None else None)
        got = self.scopes.get(key)
        if got is None:
            items, succs, entry_key, members = self._scope_dag(proc_name, within)
            freq = self._frequencies(items, succs, entry_key)
            order = self._topo_order(items, succs, entry_key)
            got = (items, succs, entry_key, freq, order, members)
            self.scopes[key] = got
        return got

    def _frequencies(self, items, succs, entry_key) -> dict:
        """Expected executions of each item per scope execution.

        Propagates in topological order, splitting each item's frequency
        equally among its distinct successors.  Retreating edges of
        irreducible regions are ignored (DFS-order approximation).
        """
        order = self._topo_order(items, succs, entry_key)
        position = {key: i for i, key in enumerate(order)}
        freq = {key: 0.0 for key in items}
        freq[entry_key] = 1.0
        for key in order:
            f = freq[key]
            if f <= _EPS:
                continue
            forward = [
                (dst, originals)
                for dst, originals in succs[key]
                if position.get(dst, -1) > position[key]
            ]
            if not forward:
                continue
            share = f / len(forward)
            for dst, _ in forward:
                freq[dst] += share
        return freq

    @staticmethod
    def _topo_order(items, succs, entry_key) -> list:
        """DFS postorder reversed: a topological order for DAGs, a
        consistent approximation otherwise."""
        seen = set()
        order = []
        stack = [(entry_key, iter([dst for dst, _ in succs[entry_key]]))]
        seen.add(entry_key)
        while stack:
            key, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter([dst for dst, _ in succs[nxt]])))
                    advanced = True
                    break
            if not advanced:
                order.append(key)
                stack.pop()
        order.reverse()
        return order

    # -- cost aggregation -----------------------------------------------------

    def _scope_cost(self, proc_name: str, within: Optional[Loop]) -> CostVector:
        items, _, _, freq, _, _ = self.scope(proc_name, within)
        total = CostVector.zero(self.core_types)
        cfg = self.cfgs[proc_name]
        program = self.program
        for key, item in items.items():
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                total.add(self.costs.loop(proc_name, loop), f * self.trip(loop))
            else:
                block = cfg.blocks[item.block]
                total.add(self.vectors[(proc_name, item.block)], f)
                if block.kind is NodeKind.CALL:
                    callee = block.call_target
                    if callee is not None and callee in program:
                        total.add(self.costs.proc(callee), f)
        return total


class TraceGenerator:
    """Generates traces for one machine configuration."""

    def __init__(self, machine: MachineConfig, memory: Optional[MemoryModel] = None):
        self.machine = machine
        self.cost_model = CostModel(machine, memory)
        self._reset()

    def _reset(self) -> None:
        self._program: Optional[Program] = None
        self._instrumented = None
        self._spec: Optional[BehaviorSpec] = None
        self._costs: Optional[ProgramCosts] = None
        self._rates: Optional[_Aggregates] = None

    # -- public API ---------------------------------------------------------

    def generate(
        self, target, spec: Optional[BehaviorSpec] = None, costs=None
    ) -> Trace:
        """Generate the trace of *target* under *spec*.

        Args:
            target: a :class:`~repro.program.module.Program` or an
                :class:`~repro.instrument.rewriter.InstrumentedProgram`.
            spec: behaviour parameters; defaults apply when omitted.
            costs: optional memo for the program's :class:`ProgramCosts`:
                called with the zero-argument function that builds them,
                it returns the (possibly shared) instance.  The pipeline
                passes a content-keyed cache lookup here; by default they
                are built for this call alone.
        """
        self._reset()
        self._spec = spec or BehaviorSpec()
        if hasattr(target, "program") and hasattr(target, "mark_at_edge"):
            self._instrumented = target
            self._program = target.program
        else:
            self._instrumented = None
            self._program = target

        def build() -> ProgramCosts:
            return ProgramCosts(self._program, self._spec, self.cost_model)

        self._costs = build() if costs is None else costs(build)
        if self._instrumented is not None:
            self._rates = _Aggregates(self._scope_rates, dict)
            self._rates.run(self._costs.schedule)

        nodes = self._emit_proc(
            self._program.entry, depth=0, budget=self._spec.segment_budget
        )
        if not nodes:
            raise WorkloadError(
                f"program {self._program.name!r} produced an empty trace"
            )
        trace = Trace(tuple(nodes))
        # Precompute every segment's flat per-core-type cost tuple here,
        # at trace-build time: traces are shared templates, so this work
        # happens once per benchmark instead of once per quantum.
        ctype_names = [ct.name for ct in self.machine.core_types()]
        for segment in trace.segments():
            for name in ctype_names:
                segment.cost_tuple(name)
        return trace

    def isolated_seconds(self, trace: Trace, ctype=None) -> float:
        """Wall time the trace takes alone on one core (fastest by
        default): the ``t_i`` of the stretch metric."""
        ctype = ctype or self.machine.core_types()[0]
        return trace.total_cycles(ctype.name) / ctype.freq_hz

    # -- marks ---------------------------------------------------------------

    def _mark_on_edge(self, proc_name: str, src: int, dst: int):
        if self._instrumented is None:
            return None
        return self._instrumented.mark_at_edge(proc_name, src, dst)

    def _proc_entry_mark(self, proc_name: str):
        if self._instrumented is None:
            return None
        return self._instrumented.entry_mark(proc_name)

    def _section_entry_marks(self, proc_name: str, loop: Loop) -> list:
        """Marks on the edges entering *loop* from outside."""
        cfg = self._costs.cfgs[proc_name]
        marks = []
        for src in cfg.preds(loop.header):
            if src in loop.body:
                continue
            mark = self._mark_on_edge(proc_name, src, loop.header)
            if mark is not None and mark not in marks:
                marks.append(mark)
        return marks

    # -- mark-rate aggregation -------------------------------------------------

    def _scope_rates(self, proc_name: str, within: Optional[Loop]) -> dict:
        """Expected firings of each mark per execution of one scope."""
        costs = self._costs
        items, _, _, freq, _, member_blocks = costs.scope(proc_name, within)
        rates: dict = {}

        def add_rate(mark, rate: float) -> None:
            if rate > _EPS:
                rates[mark.mark_id] = rates.get(mark.mark_id, 0.0) + rate

        cfg = costs.cfgs[proc_name]
        program = self._program
        for key, item in items.items():
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                trips = costs.trip(loop)
                inner_rates = self._rates.loop(proc_name, loop)
                for mark_id, rate in inner_rates.items():
                    rates[mark_id] = rates.get(mark_id, 0.0) + f * trips * rate
                for mark in self._section_entry_marks(proc_name, loop):
                    add_rate(mark, f)
            else:
                block = cfg.blocks[item.block]
                if block.kind is NodeKind.CALL:
                    callee = block.call_target
                    if callee is not None and callee in program:
                        callee_rates = self._rates.proc(callee)
                        for mark_id, rate in callee_rates.items():
                            rates[mark_id] = rates.get(mark_id, 0.0) + f * rate
                        entry = self._proc_entry_mark(callee)
                        if entry is not None:
                            add_rate(entry, f)
                # Marks triggered by edges into this block from inside
                # the scope (edges from outside are the *scope's* entry
                # and belong to the caller's accounting).
                inside_preds = [
                    src for src in cfg.preds(item.block) if src in member_blocks
                ]
                for src in inside_preds:
                    mark = self._mark_on_edge(proc_name, src, item.block)
                    if mark is not None:
                        add_rate(mark, f / max(1, len(cfg.preds(item.block))))
        return rates

    def _aggregate_proc(self, proc_name: str):
        """(cost, mark rates) of one call to *proc_name*."""
        cost = self._costs.costs.proc(proc_name)
        rates = self._rates.proc(proc_name) if self._rates is not None else {}
        return cost, rates

    def _aggregate_loop(self, proc_name: str, loop: Loop):
        """(cost, mark rates) of ONE iteration of *loop*."""
        cost = self._costs.costs.loop(proc_name, loop)
        rates = self._rates.loop(proc_name, loop) if self._rates is not None else {}
        return cost, rates

    # -- emission (expand) -----------------------------------------------------

    def _estimated_steps(self, proc_name: str, loop: Loop, budget: float) -> float:
        """Trace steps emitting *loop* under *budget* will produce.

        A loop with no phase-relevant structure (no child loops, no
        inlinable calls) collapses to a single segment; so does a loop
        whose expansion would blow the budget.
        """
        structured = loop.children or self._loop_contains_inlinable_call(
            proc_name, loop
        )
        if not structured:
            return 1.0
        trips = max(1.0, self._costs.trip(loop))
        child_budget = budget / trips
        inner = sum(
            self._estimated_steps(proc_name, child, child_budget)
            for child in loop.children
        )
        inner += self._inlinable_call_steps(proc_name, loop)
        total = trips * (1.0 + inner)
        if total > budget:
            return 1.0  # Would collapse.
        return total

    def _inlinable_call_steps(self, proc_name: str, loop: Loop) -> float:
        """Rough step count contributed by calls inlined in *loop*'s body."""
        cfg = self._costs.cfgs[proc_name]
        covered = set()
        for child in loop.children:
            covered.update(child.body)
        steps = 0.0
        for b in loop.body:
            if b in covered:
                continue
            block = cfg.blocks[b]
            if block.kind is NodeKind.CALL and block.call_target:
                callee = block.call_target
                if callee in self._program and self._callee_has_loops(callee):
                    outer_loops = sum(
                        1 for l in self._costs.loops[callee] if l.parent is None
                    )
                    steps += 1.0 + outer_loops
        return steps

    def _callee_has_loops(self, callee: str) -> bool:
        return bool(self._costs.loops.get(callee))

    def _emit_proc(self, proc_name: str, depth: int, budget: float) -> list:
        nodes = self._emit_scope(proc_name, None, depth, budget)
        entry = self._proc_entry_mark(proc_name)
        if entry is not None:
            nodes = self._with_entry_marks(nodes, [entry], f"{proc_name}:entry")
        return nodes

    def _with_entry_marks(self, nodes: list, marks: list, uid: str) -> list:
        """Attach marks so they fire once, before *nodes*."""
        ids = tuple(MarkRef(m.mark_id, m.phase_type) for m in marks)
        if nodes and isinstance(nodes[0], Segment) and nodes[0].iterations == 1:
            first = nodes[0]
            nodes[0] = Segment(
                first.uid,
                first.phase_type,
                first.iterations,
                first.cost,
                entry_marks=ids + first.entry_marks,
                embedded=first.embedded,
            )
            return nodes
        marker = Segment(
            uid,
            marks[0].phase_type if marks else None,
            1.0,
            CostVector.zero(self.machine.core_types()),
            entry_marks=ids,
        )
        return [marker] + nodes

    def _emit_scope(
        self, proc_name: str, within: Optional[Loop], depth: int, budget: float
    ) -> list:
        costs = self._costs
        items, succs, entry_key, freq, order, member_blocks = costs.scope(
            proc_name, within
        )
        cfg = costs.cfgs[proc_name]
        vectors = costs.vectors
        program = self._program
        core_types = self.machine.core_types()
        scope_uid = within.uid if within else proc_name

        out: list = []
        pending_cost = CostVector.zero(core_types)
        pending_rates: dict = {}
        pending_entry_marks: list = []
        pending_count = [0]

        def add_pending_rate(mark_id: int, phase_type: int, rate: float) -> None:
            if rate <= _EPS:
                return
            prev = pending_rates.get(mark_id, (phase_type, 0.0))
            pending_rates[mark_id] = (phase_type, prev[1] + rate)

        def flush(tag: str) -> None:
            if pending_count[0] == 0:
                return
            embedded = tuple(
                EmbeddedMark(mid, ptype, rate)
                for mid, (ptype, rate) in sorted(pending_rates.items())
            )
            entry_ids = tuple(
                MarkRef(m.mark_id, m.phase_type) for m in pending_entry_marks
            )
            ptype = (
                pending_entry_marks[0].phase_type if pending_entry_marks else None
            )
            out.append(
                Segment(
                    f"{scope_uid}/{tag}",
                    ptype,
                    1.0,
                    pending_cost.scaled(1.0),
                    entry_marks=entry_ids,
                    embedded=embedded,
                )
            )
            pending_cost.instrs = 0.0
            for name in pending_cost.compute:
                pending_cost.compute[name] = 0.0
                pending_cost.stall[name] = 0.0
            pending_rates.clear()
            pending_entry_marks.clear()
            pending_count[0] = 0

        def fold_block(item: _ScopeItem, f: float) -> None:
            pending_cost.add(vectors[(proc_name, item.block)], f)
            pending_count[0] += 1
            inside = [s_ for s_ in cfg.preds(item.block) if s_ in member_blocks]
            for src in inside:
                mark = self._mark_on_edge(proc_name, src, item.block)
                if mark is not None:
                    if f >= EXPAND_FREQ_THRESHOLD and mark not in pending_entry_marks:
                        pending_entry_marks.append(mark)
                    else:
                        add_pending_rate(
                            mark.mark_id,
                            mark.phase_type,
                            f / max(1, len(cfg.preds(item.block))),
                        )

        def fold_call(block, f: float) -> None:
            callee = block.call_target
            callee_cost, callee_rates = self._aggregate_proc(callee)
            pending_cost.add(callee_cost, f)
            pending_count[0] += 1
            for mark_id, rate in callee_rates.items():
                add_pending_rate(mark_id, _mark_phase(self._instrumented, mark_id), f * rate)
            entry = self._proc_entry_mark(callee)
            if entry is not None:
                add_pending_rate(entry.mark_id, entry.phase_type, f)

        def collapse_loop(loop: Loop, f: float) -> None:
            flush("pre")
            trips = costs.trip(loop)
            cost, rates = self._aggregate_loop(proc_name, loop)
            embedded = tuple(
                EmbeddedMark(mid, _mark_phase(self._instrumented, mid), rate)
                for mid, rate in sorted(rates.items())
            )
            marks = self._section_entry_marks(proc_name, loop)
            ptype = marks[0].phase_type if marks else None
            out.append(
                Segment(
                    loop.uid,
                    ptype,
                    trips * f,
                    cost,
                    entry_marks=tuple(MarkRef(m.mark_id, m.phase_type) for m in marks),
                    embedded=embedded,
                )
            )

        for key in order:
            item = items[key]
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                trips = costs.trip(loop)
                steps = self._estimated_steps(proc_name, loop, budget)
                expandable = f >= EXPAND_FREQ_THRESHOLD and steps > 1.0
                if expandable:
                    flush("pre")
                    children = self._emit_scope(
                        proc_name, loop, depth, budget / max(1.0, trips)
                    )
                    marks = self._section_entry_marks(proc_name, loop)
                    rep = Repeat(tuple(children), int(round(trips)))
                    if marks:
                        out.extend(
                            self._with_entry_marks([rep], marks, f"{loop.uid}:entry")
                        )
                    else:
                        out.append(rep)
                else:
                    collapse_loop(loop, f)
                continue

            block = cfg.blocks[item.block]
            if (
                block.kind is NodeKind.CALL
                and block.call_target
                and block.call_target in program
                and self._callee_has_loops(block.call_target)
                and f >= EXPAND_FREQ_THRESHOLD
                and depth < self._spec.max_inline_depth
            ):
                pending_cost.add(vectors[(proc_name, item.block)], f)
                pending_count[0] += 1
                flush("pre")
                out.extend(
                    self._emit_proc(block.call_target, depth + 1, budget)
                )
            elif block.kind is NodeKind.CALL and block.call_target in program:
                pending_cost.add(vectors[(proc_name, item.block)], f)
                fold_call(block, f)
            else:
                fold_block(item, f)

        flush("post")
        return out

    def _loop_contains_inlinable_call(self, proc_name: str, loop: Loop) -> bool:
        cfg = self._costs.cfgs[proc_name]
        for b in loop.body:
            block = cfg.blocks[b]
            if block.kind is NodeKind.CALL and block.call_target:
                callee = block.call_target
                if callee in self._program and self._callee_has_loops(callee):
                    return True
        return False


def _mark_phase(instrumented, mark_id: int) -> int:
    """Phase type a mark announces (via the instrumented index)."""
    if instrumented is None:
        return 0
    return instrumented.marks[mark_id].phase_type
