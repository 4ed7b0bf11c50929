"""Hypothesis property tests on the hardware models.

The hardware c-map is fuzzed against a dict reference with random bulk
insert/remove sequences; the IR parser is fuzzed against the emitter
across random patterns, labelings and options.

:class:`TestKernelTwins` holds every batched timing kernel to its
one-at-a-time reference on twin objects fed the same random stream:
the cache's range walk against per-line ``access_line`` calls, the
memory system's batch fetch against ``fetch_lines``, and the c-map's
vectorised insert/remove against its scalar pass.  Equal state after
every step is what keeps simulator reports bit-identical.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_pattern, emit_ir, parse_ir
from repro.graph import erdos_renyi
from repro.hw import (
    FlexMinerConfig,
    GraphLayout,
    HardwareCMap,
    MemorySystem,
    SetAssocCache,
)
from repro.patterns import enumerate_motifs

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


class TestKernelTwins:
    @SETTINGS
    @given(
        ranges=st.lists(RANGES, min_size=1, max_size=40),
        assoc=st.sampled_from([1, 2, 4]),
    )
    def test_access_range_equals_per_line_walk(self, ranges, assoc):
        kernel = SetAssocCache(512, assoc, 64)
        reference = SetAssocCache(512, assoc, 64)
        for base, size in ranges:
            assert kernel.access_range(base, size) == _per_line(
                reference, base, size
            )
            assert kernel.stats == reference.stats
            assert kernel._sets == reference._sets
            assert kernel._tick == reference._tick

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