"""Hypothesis property tests on the hardware models.

The hardware c-map is fuzzed against a dict reference with random bulk
insert/remove sequences; the IR parser is fuzzed against the emitter
across random patterns, labelings and options.

:class:`TestKernelTwins` holds every batched timing kernel to its
one-at-a-time reference on twin objects fed the same random stream:
the memory system's batch fetch against ``fetch_lines``, a PE's
one-pass replay against a per-event replay built from ``access_line``,
``fetch_lines`` and one float add per busy event, and the c-map's
vectorised insert/remove against its scalar pass.  Equal state after
every step is what keeps simulator reports bit-identical.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_pattern, emit_ir, parse_ir
from repro.graph import erdos_renyi
from repro.hw import (
    FlexMinerAccelerator,
    FlexMinerConfig,
    GraphLayout,
    HardwareCMap,
    MemorySystem,
    PEStats,
    SetAssocCache,
)
from repro.hw.events import (
    CMAP_STAT_FIELDS,
    EV_BUSY,
    EV_FREAD,
    EV_FWRITE,
    EV_INSERT,
    EV_OVERFLOW,
    EV_QUERY,
    EV_SDU,
    EV_SIU,
    EV_TOUCH,
    PE_STAT_FIELDS,
    STAT_FIELDS,
    ShardTrace,
    insert_arg,
    overflow_arg,
    unpack_insert,
    unpack_overflow,
)
from repro.obs import Tracer
from repro.obs.trace import SIM_PID
from repro.patterns import enumerate_motifs, triangle

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def insert_sequences(draw):
    """A stack-shaped sequence of bulk inserts (id lists per level)."""
    num_levels = draw(st.integers(min_value=1, max_value=6))
    levels = []
    for _ in range(num_levels):
        ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=300),
                min_size=0,
                max_size=20,
                unique=True,
            )
        )
        levels.append(ids)
    return levels


class TestCMapAgainstReference:
    @SETTINGS
    @given(levels=insert_sequences(), exact=st.booleans())
    def test_matches_dict_reference(self, levels, exact):
        cmap = HardwareCMap(
            1024, exact=exact, occupancy_threshold=1.0
        )
        reference = {}
        accepted_depths = []
        for depth, ids in enumerate(levels):
            outcome = cmap.try_insert(ids, depth)
            if outcome.accepted:
                accepted_depths.append((depth, ids))
                for key in ids:
                    reference[key] = reference.get(key, 0) | (1 << depth)
        for key in range(0, 300, 7):
            assert cmap.query(key) == reference.get(key, 0)
        # Stack unwind restores emptiness.
        for depth, ids in reversed(accepted_depths):
            cmap.remove_level(depth)
        assert cmap.occupancy == 0

    @SETTINGS
    @given(levels=insert_sequences())
    def test_occupancy_equals_distinct_keys(self, levels):
        cmap = HardwareCMap(2048, occupancy_threshold=1.0)
        distinct = set()
        for depth, ids in enumerate(levels):
            if cmap.try_insert(ids, depth).accepted:
                distinct.update(ids)
        assert cmap.occupancy == len(distinct)

    @SETTINGS
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=10 ** 6),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    def test_rejected_insert_leaves_no_trace(self, ids):
        cmap = HardwareCMap(8, occupancy_threshold=0.5)
        before = cmap.occupancy
        outcome = cmap.try_insert(ids, 0)
        if not outcome.accepted:
            assert cmap.occupancy == before
            for key in ids[:5]:
                assert cmap.query(key) == 0


class TestCacheProperties:
    @SETTINGS
    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=1,
            max_size=200,
        )
    )
    def test_stats_conserved(self, lines):
        cache = SetAssocCache(1024, 2, 64)
        for line in lines:
            cache.access_line(line)
        stats = cache.stats
        assert stats.hits + stats.misses == len(lines)
        assert 0.0 <= stats.miss_rate <= 1.0
        # Resident lines never exceed capacity.
        resident = sum(len(ways) for ways in cache._sets)
        assert resident <= cache.num_sets * cache.assoc

    @SETTINGS
    @given(
        line=st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_immediate_rehit(self, line):
        cache = SetAssocCache(2048, 4, 64)
        cache.access_line(line)
        assert cache.access_line(line)


def _per_line(cache, base, size):
    """The reference range walk: one ``access_line`` per line."""
    hits, missed = 0, []
    if size > 0:
        first = base // cache.line_bytes
        last = (base + size - 1) // cache.line_bytes
        for line in range(first, last + 1):
            if cache.access_line(line):
                hits += 1
            else:
                missed.append(line)
    return hits, missed


def _dense_values(cmap, size):
    """The c-map's dense value array, zero-padded to ``size`` (twins
    may grow it in different steps)."""
    values = np.zeros(size, dtype=np.uint32)
    values[: cmap._values.size] = cmap._values
    return values


#: Byte ranges: empty, inside one line, or spanning several.
RANGES = st.tuples(
    st.integers(min_value=0, max_value=4096),
    st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=17, max_value=700),
    ),
)

#: Missed-line batches on both sides of fetch_lines_batch's 4-line
#: cutoff, graph lines and frontier-region lines mixed.
_FRONTIER_LINE = GraphLayout.frontier_region(1)[0] // 64
LINE_BATCHES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=4000),
                st.integers(
                    min_value=_FRONTIER_LINE, max_value=_FRONTIER_LINE + 64
                ),
            ),
            min_size=0,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=50.0),
    ),
    min_size=1,
    max_size=12,
)

#: Stack-shaped c-map levels (level i sets depth bit i): unique keys on
#: both sides of VECTOR_MIN.
CMAP_LEVELS = st.lists(
    st.one_of(
        st.lists(
            st.integers(min_value=0, max_value=400),
            max_size=HardwareCMap.VECTOR_MIN - 1,
            unique=True,
        ),
        st.lists(
            st.integers(min_value=0, max_value=400),
            min_size=HardwareCMap.VECTOR_MIN,
            max_size=90,
            unique=True,
        ),
    ),
    min_size=1,
    max_size=6,
)


#: Busy events of every code, with packed c-map arguments.
_CYCLES = st.integers(min_value=0, max_value=40)
BUSY_EVENTS = st.one_of(
    st.tuples(st.just(EV_BUSY), _CYCLES, st.just(0)),
    st.tuples(st.just(EV_QUERY), _CYCLES, st.integers(0, 60)),
    st.tuples(st.sampled_from([EV_SIU, EV_SDU]), _CYCLES, st.just(0)),
    st.builds(
        lambda c, entries, depth: (EV_INSERT, c, insert_arg(entries, depth)),
        _CYCLES, st.integers(0, 200), st.integers(0, 7),
    ),
    st.builds(
        lambda c, occupancy, incoming, depth: (
            EV_OVERFLOW, c, overflow_arg(occupancy, incoming, depth)
        ),
        _CYCLES, st.integers(0, 500), st.integers(0, 500),
        st.integers(0, 7),
    ),
)

#: Touches of a few hot lines (LRU hits and evictions in a 2-set
#: private cache) and of a wider span (L2 evictions and DRAM fills);
#: empty, mostly one-line (drawn twice) or multi-line.
TOUCHES = st.tuples(
    st.one_of(
        st.integers(min_value=0, max_value=767),
        st.integers(min_value=0, max_value=16383),
    ),
    st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=17, max_value=300),
    ),
)


@st.composite
def replay_streams(draw):
    """Task streams mixing busy events, touches (empty, one-line and
    multi-line) and frontier writes and read-backs, with per-task stat
    and count deltas; plus the free spill bytes the frontier allocator
    starts with (small, so writes wrap)."""
    written = set()
    streams = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        events = []
        for _ in range(draw(st.integers(min_value=0, max_value=40))):
            kind = draw(st.sampled_from(
                ["busy", "busy", "touch", "touch", "touch", "write", "read"]
            ))
            if kind == "busy":
                events.append(draw(BUSY_EVENTS))
            elif kind == "touch":
                events.append((EV_TOUCH, *draw(TOUCHES)))
            elif kind == "write":
                depth = draw(st.integers(min_value=1, max_value=3))
                events.append((EV_FWRITE, draw(st.integers(0, 300)), depth))
                written.add(depth)
            elif written:
                events.append((EV_FREAD, draw(st.sampled_from(
                    sorted(written)
                )), 0))
        deltas = draw(st.lists(
            st.integers(0, 9),
            min_size=len(STAT_FIELDS), max_size=len(STAT_FIELDS),
        ))
        streams.append((events, deltas, [draw(st.integers(0, 5))]))
    return streams, draw(st.integers(min_value=0, max_value=3000))


class _PerEventPE:
    """The replay :meth:`ProcessingElement.execute_task` is held to:
    one ``access_line`` per line, ``fetch_lines`` per miss batch and one
    float add per busy event, in stream order."""

    def __init__(self, config, memsys, trace=None):
        self.config = config
        self.memsys = memsys
        self.trace = trace
        self.time = 0.0
        self.credit = 0.0
        self.stats = PEStats()
        self.cmap = HardwareCMap.from_config(config)
        self.counts = [0]
        self.private = SetAssocCache(
            config.private_cache_bytes,
            config.private_cache_assoc,
            config.line_bytes,
        )
        self.table = {}
        self.base, stride = GraphLayout.frontier_region(0)
        self.limit = self.base + stride
        self.ptr = self.base

    def busy(self, cycles):
        self.time += cycles
        self.stats.busy_cycles += cycles
        self.credit += cycles

    def read(self, base, size):
        _, missed = _per_line(self.private, base, size)
        if not missed:
            return
        latency = self.memsys.fetch_lines(0, missed, self.time)
        stall = max(0.0, latency - self.credit)
        self.credit = 0.0
        self.time += stall
        self.stats.stall_cycles += stall
        if self.trace is not None and stall > 0:
            self.span("stall", stall, "mem", {"lines": len(missed)})

    def span(self, name, dur, cat, args):
        self.trace.complete(
            name, self.time - dur, dur,
            pid=SIM_PID, tid=0, cat=cat, args=args,
        )

    def task(self, root, events, deltas, counts):
        line = self.config.line_bytes
        start = self.time
        self.busy(self.config.dispatch_cycles)
        self.stats.tasks += 1
        for code, a, b in events:
            if code == EV_TOUCH:
                self.read(a, b)
            elif code == EV_FREAD:
                self.read(*self.table[a])
            elif code == EV_FWRITE:
                size = max(4 * a, 4)
                if self.ptr + size > self.limit:
                    self.ptr = self.base
                addr = self.ptr
                self.ptr = (addr + size + line - 1) // line * line
                _per_line(self.private, addr, size)
                self.busy((addr + size - 1) // line - addr // line + 1)
                self.table[b] = (addr, size)
            else:
                self.charge(code, a, b)
        for name, delta in zip(PE_STAT_FIELDS, deltas):
            setattr(self.stats, name, getattr(self.stats, name) + delta)
        cmap_deltas = deltas[len(PE_STAT_FIELDS):]
        for name, delta in zip(CMAP_STAT_FIELDS, cmap_deltas):
            setattr(
                self.cmap.stats, name, getattr(self.cmap.stats, name) + delta
            )
        self.counts[0] += counts[0]
        if self.trace is not None:
            self.trace.complete(
                f"task v{root}", start, self.time - start,
                pid=SIM_PID, tid=0, cat="task", args={"root": root},
            )

    def charge(self, code, cycles, arg):
        if self.trace is not None and code == EV_OVERFLOW:
            occupancy, incoming, depth = unpack_overflow(arg)
            self.trace.instant(
                "cmap-overflow", self.time, pid=SIM_PID, tid=0, cat="cmap",
                args={
                    "depth": depth, "incoming": incoming,
                    "occupancy": occupancy, "capacity": self.cmap.capacity,
                },
            )
        self.busy(cycles)
        if self.trace is None or cycles <= 0:
            return
        if code == EV_QUERY:
            self.span("cmap-query", cycles, "cmap", {"candidates": arg})
        elif code == EV_INSERT:
            entries, depth = unpack_insert(arg)
            self.span(
                "cmap-insert", cycles, "cmap",
                {"depth": depth, "entries": entries},
            )
        elif code in (EV_SIU, EV_SDU):
            name = "siu" if code == EV_SIU else "sdu"
            self.span(name, cycles, "setop", {"iterations": cycles})


class TestKernelTwins:
    @SETTINGS
    @given(batches=LINE_BATCHES)
    def test_fetch_lines_batch_equals_fetch_lines(self, batches):
        config = FlexMinerConfig(num_pes=4, l2_bytes=4096, l2_assoc=2)
        graph = erdos_renyi(16, 0.3, seed=1)
        kernel = MemorySystem(config, graph)
        reference = MemorySystem(config, graph)
        now = 0.0
        for pe_id, lines, gap in batches:
            now += gap
            got = kernel.fetch_lines_batch(pe_id, lines, now)
            want = reference.fetch_lines(pe_id, lines, now)
            assert got == want  # exact float latency
            assert kernel.l2.stats == reference.l2.stats
            assert kernel.l2._sets == reference.l2._sets
            assert kernel.noc.stats == reference.noc.stats
            assert kernel.dram.stats == reference.dram.stats

    # More examples than the other twins: an LRU-order slip shows only
    # when a hit on a set's oldest line meets a later miss in that set.
    @settings(SETTINGS, max_examples=100)
    @given(case=replay_streams(), cut=st.integers(0, 5), traced=st.booleans())
    def test_replay_pass_equals_per_event_replay(self, case, cut, traced):
        streams, headroom = case
        config = FlexMinerConfig(
            num_pes=1, private_cache_bytes=512, private_cache_assoc=4,
            l2_bytes=2048, l2_assoc=2,
        )
        graph = erdos_renyi(16, 0.3, seed=1)
        accel = FlexMinerAccelerator(
            graph, compile_pattern(triangle()), config
        )
        pe = accel.pes[0]
        reference = _PerEventPE(config, MemorySystem(config, graph))
        pe._frontier_ptr = reference.ptr = pe._frontier_limit - headroom
        if traced:
            pe._trace, reference.trace = Tracer(), Tracer()
        # Two slices where the streams allow: settling is per slice.
        cut = min(cut, len(streams) - 1) or len(streams)
        accel._pipeline.replay([
            (
                [(root, None) for root in range(lo, hi)],
                ShardTrace.from_streams(streams[lo:hi], num_patterns=1),
            )
            for lo, hi in ((0, cut), (cut, len(streams)))
            if lo < hi
        ])
        for root, (events, deltas, counts) in enumerate(streams):
            reference.task(root, events, deltas, counts)

        assert pe.time == reference.time  # exact float clock
        assert pe._overlap_credit == reference.credit
        assert pe.stats == reference.stats
        assert pe.cmap.stats == reference.cmap.stats
        assert pe.counts == reference.counts
        assert pe._frontier_ptr == reference.ptr
        assert pe.private._sets == reference.private._sets
        assert pe.private._tick == reference.private._tick
        assert pe.private.stats == reference.private.stats
        for unit in ("l2", "noc", "dram"):
            assert (
                getattr(accel.memsys, unit).stats
                == getattr(reference.memsys, unit).stats
            )
        assert accel.memsys.l2._sets == reference.memsys.l2._sets
        if traced:
            assert pe._trace.events() == reference.trace.events()

    @SETTINGS
    @given(
        levels=CMAP_LEVELS,
        capacity=st.integers(min_value=24, max_value=256),
        banks=st.sampled_from([1, 2, 4]),
    )
    def test_insert_remove_kernels_equal_scalar(
        self, levels, capacity, banks
    ):
        kernel = HardwareCMap(capacity, banks=banks)
        scalar = HardwareCMap(capacity, banks=banks)

        def assert_twins():
            size = max(kernel._values.size, scalar._values.size)
            assert np.array_equal(
                _dense_values(kernel, size), _dense_values(scalar, size)
            )
            assert kernel.occupancy == scalar.occupancy
            assert kernel.stats == scalar.stats

        stack = [
            (1 << depth, np.array(sorted(keys), dtype=np.int64))
            for depth, keys in enumerate(levels)
        ]
        for bit, ids in stack:
            assert kernel._insert_kernel(ids, bit) == scalar._insert_scalar(
                ids.tolist(), bit
            )
            assert_twins()
        for bit, ids in reversed(stack):
            assert kernel._remove_kernel(ids, bit) == scalar._remove_scalar(
                ids.tolist(), bit
            )
            assert_twins()
        assert kernel.occupancy == 0


class TestIrFuzz:
    @SETTINGS
    @given(
        motif_index=st.integers(min_value=0, max_value=5),
        induced=st.booleans(),
        labels=st.one_of(
            st.none(),
            st.lists(
                st.one_of(st.none(), st.integers(0, 3)),
                min_size=4,
                max_size=4,
            ),
        ),
    )
    def test_round_trip_random_patterns(self, motif_index, induced, labels):
        pattern = enumerate_motifs(4)[motif_index]
        if labels is not None:
            pattern = pattern.with_labels(labels)
        plan = compile_pattern(
            pattern, induced=induced, use_orientation=False
        )
        assert parse_ir(emit_ir(plan)) == plan

    @SETTINGS
    @given(data=st.text(max_size=200))
    def test_parser_never_crashes_unhandled(self, data):
        from repro.errors import IRSyntaxError, CompileError

        try:
            parse_ir(data)
        except (IRSyntaxError, CompileError):
            pass  # rejection is the expected path for garbage