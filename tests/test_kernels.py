"""Unit and property tests for the set-op kernel layer.

The kernels must agree with numpy's generic primitives on *every* input
— they are pure drop-in value replacements — so each case runs through
both private branches (merge, gallop) directly and through the public
size-adaptive dispatcher.  The adversarial cases target the probe
kernel's clamp-to-slot-0 trick and the prefix-cut bounded counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.kernels import (
    GALLOP_RATIO,
    difference_values,
    intersect_count_below,
    intersect_values,
    members_mask,
)

#: name -> (intersect, difference): each private branch forced on every
#: input, plus the dispatcher that picks between them by operand size.
VALUE_KERNELS = {
    "merge": (
        lambda a, b: kernels._merge_values(a, b, True),
        lambda a, b: kernels._merge_values(a, b, False),
    ),
    "gallop": (
        lambda a, b: kernels._gallop_values(a, b, True),
        lambda a, b: kernels._gallop_values(a, b, False),
    ),
    "adaptive": (intersect_values, difference_values),
}
STRATEGIES = tuple(VALUE_KERNELS)


def arr(values):
    return np.asarray(sorted(set(values)), dtype=np.int32)


#: Adversarial operand pairs: empties, disjoint ranges, containment,
#: boundary collisions (values beyond either end exercise the probe
#: kernel's clamp-to-0), heavy skew (forces the gallop branch under
#: "adaptive"), and singletons.
CASES = [
    ([], []),
    ([], [1, 2, 3]),
    ([1, 2, 3], []),
    ([1, 2, 3], [4, 5, 6]),          # disjoint, a below b
    ([7, 8, 9], [1, 2, 3]),          # disjoint, a above b
    ([1, 2, 3, 4], [2, 3]),          # nested
    ([2, 3], [1, 2, 3, 4]),
    ([0], [0]),
    ([5], [3]),
    ([5], [9]),
    ([0, 100], [0, 1, 2, 99, 100]),  # hits at both extremes
    (list(range(100)), [0]),
    (list(range(100)), [99]),
    (list(range(100)), [100]),       # probe past the end
    (list(range(0, 64, 2)), list(range(1, 64, 2))),  # interleaved, disjoint
    (list(range(3)), list(range(3 * GALLOP_RATIO + 1))),  # gallop skew
    (list(range(3 * GALLOP_RATIO + 1)), list(range(3))),
]


@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("a,b", CASES)
def test_value_kernels_match_numpy(name, a, b):
    a, b = arr(a), arr(b)
    intersect, difference = VALUE_KERNELS[name]
    got_i = intersect(a, b)
    got_d = difference(a, b)
    np.testing.assert_array_equal(
        got_i, np.intersect1d(a, b, assume_unique=True)
    )
    np.testing.assert_array_equal(
        got_d, np.setdiff1d(a, b, assume_unique=True)
    )


@pytest.mark.parametrize("a,b", CASES)
def test_count_kernels_match_values(a, b):
    """Every count-only kernel agrees with the length of the value
    kernel's result: the scalar intersection, the segmented intersection
    on a single segment and the row-wise kernel on a single row, in both
    its intersect and difference modes."""
    a, b = arr(a), arr(b)
    n_inter = len(intersect_values(a, b))
    n_diff = len(difference_values(a, b))
    assert intersect_count_below(a, b) == (n_inter, n_inter)
    one = np.asarray([0, len(a)], dtype=np.int64)
    raw, below = kernels.segmented_intersect_count(b, a, one)
    assert (raw.tolist(), below.tolist()) == ([n_inter], [n_inter])
    b_one = np.asarray([0, len(b)], dtype=np.int64)
    keyspace = int(max(a.max(initial=0), b.max(initial=0))) + 1
    for intersect, want in ((True, n_inter), (False, n_diff)):
        raw, below = kernels.segmented_pair_count_below(
            a, one, b, b_one, keyspace=keyspace, intersect=intersect
        )
        assert (raw.tolist(), below.tolist()) == ([want], [want])


@pytest.mark.parametrize("a,b", CASES)
@pytest.mark.parametrize("bound", [None, 0, 2, 50, 1000])
def test_bounded_counts(a, b, bound):
    a, b = arr(a), arr(b)
    inter = np.intersect1d(a, b, assume_unique=True)
    cut = (lambda x: x) if bound is None else (lambda x: x[x < bound])
    assert intersect_count_below(a, b, bound=bound) == (
        len(inter), len(cut(inter))
    )


@pytest.mark.parametrize("a,b", CASES)
def test_counts_with_exclusions(a, b):
    """``exclude`` subtracts exactly the excluded ids present in the
    (bounded) result."""
    a, b = arr(a), arr(b)
    inter = np.intersect1d(a, b, assume_unique=True)
    bound = 1000  # everything in CASES is below this
    for exclude in ([0], [2, 99], [5, 500], list(range(5))):
        forb = np.asarray(exclude)
        want_i = len([v for v in inter if v not in exclude])
        assert intersect_count_below(a, b, bound=bound, exclude=forb)[1] \
            == want_i


def test_members_mask_boundaries():
    hay = arr([10, 20, 30])
    needles = np.asarray([5, 10, 15, 30, 35])  # below, hit, between, hit, past
    np.testing.assert_array_equal(
        members_mask(needles, hay),
        [False, True, False, True, False],
    )
    assert not members_mask(np.asarray([1, 2]), arr([])).any()


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

id_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=60)


@settings(max_examples=60, deadline=None)
@given(a=id_sets, b=id_sets, name=st.sampled_from(STRATEGIES))
def test_property_value_kernels(a, b, name):
    a, b = arr(a), arr(b)
    intersect, difference = VALUE_KERNELS[name]
    got_i = intersect(a, b)
    got_d = difference(a, b)
    np.testing.assert_array_equal(
        got_i, np.intersect1d(a, b, assume_unique=True)
    )
    np.testing.assert_array_equal(
        got_d, np.setdiff1d(a, b, assume_unique=True)
    )


@settings(max_examples=60, deadline=None)
@given(
    a=id_sets,
    b=id_sets,
    bound=st.one_of(st.none(), st.integers(min_value=0, max_value=220)),
    exclude=st.sets(st.integers(min_value=0, max_value=200), max_size=6),
)
def test_property_count_kernels(a, b, bound, exclude):
    a, b = arr(a), arr(b)
    if bound is not None:
        exclude = {v for v in exclude if v < bound}
    forb = np.asarray(sorted(exclude)) if exclude else None
    inter = set(np.intersect1d(a, b, assume_unique=True).tolist())

    def bounded(result):
        kept = result if bound is None else {v for v in result if v < bound}
        return len(kept - exclude)

    raw_i, below_i = intersect_count_below(a, b, bound=bound, exclude=forb)
    assert (raw_i, below_i) == (len(inter), bounded(inter))


@settings(max_examples=40, deadline=None)
@given(
    needles=st.lists(st.integers(min_value=-5, max_value=205), max_size=30),
    hay=id_sets,
)
def test_property_members_mask(needles, hay):
    hay = arr(hay)
    got = kernels.members_mask(np.asarray(needles, dtype=np.int64), hay)
    want = [v in set(hay.tolist()) for v in needles]
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Batch frontier kernel: segmented intersect vs the per-segment loop
# ----------------------------------------------------------------------
def naive_segmented(base, concat, offsets, bounds=None):
    base_set = set(base.tolist())
    raw, below = [], []
    for i in range(len(offsets) - 1):
        seg = concat[offsets[i]:offsets[i + 1]]
        hits = [v for v in seg.tolist() if v in base_set]
        if bounds is None:
            bound = None
        elif np.ndim(bounds) == 0:
            bound = int(bounds)
        else:
            bound = int(bounds[i])
        raw.append(len(hits))
        below.append(
            len(hits) if bound is None
            else sum(1 for v in hits if v < bound)
        )
    return np.asarray(raw, dtype=np.int64), np.asarray(below, dtype=np.int64)


def seg_case(segments):
    concat = np.concatenate(
        [arr(s) for s in segments] or [np.empty(0, dtype=np.int32)]
    ).astype(np.int32)
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(set(s)) for s in segments], out=offsets[1:])
    return concat, offsets


SEGMENT_CASES = [
    ([], []),                                      # no segments at all
    ([[]], [1, 2, 3]),                             # one empty segment
    ([[1, 2, 3], [], [2, 4, 6]], [2, 3, 4]),       # empty in the middle
    ([[0, 5, 9], [5], [9, 10, 11]], []),           # empty base
    ([list(range(0, 40, 2))] * 3, list(range(0, 40, 3))),
    ([[7], [7], [7]], [7]),                        # repeated segments
]


@pytest.mark.parametrize("segments,base", SEGMENT_CASES)
def test_segmented_intersect_matches_naive(segments, base):
    base = arr(base)
    concat, offsets = seg_case(segments)
    for bounds in (None, 6, np.arange(len(segments), dtype=np.int64) * 4):
        got = kernels.segmented_intersect_count(
            base, concat, offsets, bounds=bounds
        )
        want = naive_segmented(base, concat, offsets, bounds=bounds)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@settings(max_examples=40, deadline=None)
@given(
    segments=st.lists(
        st.lists(st.integers(min_value=0, max_value=60), max_size=12),
        max_size=8,
    ),
    base=st.sets(st.integers(min_value=0, max_value=60), max_size=20),
    scalar_bound=st.one_of(
        st.none(), st.integers(min_value=0, max_value=70)
    ),
)
def test_property_segmented_intersect(segments, base, scalar_bound):
    base = arr(base)
    concat, offsets = seg_case(segments)
    got = kernels.segmented_intersect_count(
        base, concat, offsets, bounds=scalar_bound
    )
    want = naive_segmented(base, concat, offsets, bounds=scalar_bound)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


# ----------------------------------------------------------------------
# Row-wise segmented kernels vs per-segment value kernels
# ----------------------------------------------------------------------
def _segments_of(concat, offsets):
    return [
        concat[offsets[i]:offsets[i + 1]]
        for i in range(len(offsets) - 1)
    ]


pair_segments = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=60), max_size=12),
        st.lists(st.integers(min_value=0, max_value=60), max_size=12),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(pairs=pair_segments)
def test_property_segmented_pair_kernels(pairs):
    """Row-wise pair kernels == per-segment value kernels."""
    a_concat, a_offsets = seg_case([p[0] for p in pairs])
    b_concat, b_offsets = seg_case([p[1] for p in pairs])
    a_segs = _segments_of(a_concat, a_offsets)
    b_segs = _segments_of(b_concat, b_offsets)
    for pair_kernel, ref in (
        (kernels.segmented_pair_intersect, intersect_values),
        (kernels.segmented_pair_difference, difference_values),
    ):
        got_concat, got_offsets = pair_kernel(
            a_concat, a_offsets, b_concat, b_offsets, 61
        )
        assert len(got_offsets) == len(a_offsets)
        for got, a_seg, b_seg in zip(
            _segments_of(got_concat, got_offsets), a_segs, b_segs
        ):
            np.testing.assert_array_equal(got, ref(a_seg, b_seg))


@settings(max_examples=60, deadline=None)
@given(
    pairs=pair_segments,
    scalar_bound=st.one_of(
        st.none(), st.integers(min_value=0, max_value=70)
    ),
    exclude=st.booleans(),
)
def test_property_segmented_pair_count_below(
    pairs, scalar_bound, exclude
):
    """The folded count == count the materialized result by hand."""
    a_concat, a_offsets = seg_case([p[0] for p in pairs])
    b_concat, b_offsets = seg_case([p[1] for p in pairs])
    # Exclude every third element of a_concat (an arbitrary but
    # reproducible stand-in for the engine's injectivity mask).
    exclude_mask = (
        (np.arange(len(a_concat)) % 3 == 0) if exclude else None
    )
    for intersect in (True, False):
        raw, below = kernels.segmented_pair_count_below(
            a_concat,
            a_offsets,
            b_concat,
            b_offsets,
            keyspace=61,
            intersect=intersect,
            bounds=scalar_bound,
            exclude_mask=exclude_mask,
        )
        mat_concat, mat_offsets = (
            kernels.segmented_pair_intersect
            if intersect
            else kernels.segmented_pair_difference
        )(a_concat, a_offsets, b_concat, b_offsets, 61)
        np.testing.assert_array_equal(raw, np.diff(mat_offsets))
        for i in range(len(a_offsets) - 1):
            seg = a_concat[a_offsets[i]:a_offsets[i + 1]]
            keep = np.ones(len(seg), dtype=bool)
            if exclude_mask is not None:
                keep &= ~exclude_mask[a_offsets[i]:a_offsets[i + 1]]
            if scalar_bound is not None:
                keep &= seg < scalar_bound
            mat = mat_concat[mat_offsets[i]:mat_offsets[i + 1]]
            want = np.count_nonzero(keep & np.isin(seg, mat))
            assert below[i] == want


def test_gather_segments_round_trip():
    concat, offsets = seg_case([[1, 2], [5], [], [7, 9, 11]])
    take = np.array([3, 0, 0, 2, 1], dtype=np.int64)
    got_concat, got_offsets = kernels.gather_segments(
        concat, offsets, take
    )
    want = [[7, 9, 11], [1, 2], [1, 2], [], [5]]
    assert [
        got_concat[got_offsets[i]:got_offsets[i + 1]].tolist()
        for i in range(len(take))
    ] == want
    empty_concat, empty_offsets = kernels.gather_segments(
        concat, offsets, np.array([2, 2], dtype=np.int64)
    )
    assert len(empty_concat) == 0
    assert empty_offsets.tolist() == [0, 0, 0]


def test_segment_helpers():
    offsets = np.array([0, 2, 2, 5], dtype=np.int64)
    np.testing.assert_array_equal(
        kernels.segment_ids(offsets), [0, 0, 2, 2, 2]
    )
    values = np.array([1, 0, 1, 1, 0])
    np.testing.assert_array_equal(
        kernels.segment_sums(values, offsets), [1, 0, 2]
    )


def test_gather_neighbors_matches_per_vertex_views():
    from repro.graph import power_law_cluster

    g = power_law_cluster(80, 3, 0.4, seed=3)
    for verts in ([], [0], [5, 5, 2], list(range(0, 80, 7))):
        verts = np.asarray(verts, dtype=np.int64)
        concat, offsets = g.gather_neighbors(verts)
        assert len(offsets) == len(verts) + 1
        assert offsets[-1] == len(concat)
        for i, v in enumerate(verts.tolist()):
            np.testing.assert_array_equal(
                concat[offsets[i]:offsets[i + 1]], g.neighbors(v)
            )
