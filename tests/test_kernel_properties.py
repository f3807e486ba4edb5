"""Property-based backend-equivalence tests for the kernel layer.

Hypothesis drives randomized shapes, degree distributions and uniform
streams through all seven kernels and asserts the numpy reference and
the plain-Python loop forms (the functions ``numba.njit`` compiles) are
**bitwise** equal — same bytes, same dtype — not merely numerically
close.  This is the property the whole determinism story rests on: the
engine pre-draws every uniform, so bit-identical kernels mean
bit-identical corpora across backends.

Edge cases the generators are steered into: zero-mass segments (the
sentinel path), single-walker calls, walkers that all share one segment,
and empty frontiers.  Alias tables are drawn at the widths the arenas
store (``TABLE_FLOAT``/``TABLE_INT``).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sampling.alias import TABLE_FLOAT, TABLE_INT
from repro.walks.kernels import numba_backend, numpy_backend

MAX_EXAMPLES = 40

unit = st.floats(
    min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False
)
mass = st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=64)
#: stored keep probabilities: exactly representable at the table width.
stored_unit = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, width=8 * TABLE_FLOAT.itemsize
)


def assert_bitwise_equal(a, b):
    """Bitwise equality: identical dtype and identical bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def segment_layouts(draw, max_groups=6, max_size=5):
    """``(sizes, starts)`` of a contiguous segment layout."""
    sizes = np.asarray(
        draw(
            st.lists(
                st.integers(1, max_size), min_size=1, max_size=max_groups
            )
        ),
        np.int64,
    )
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    return sizes, starts


@st.composite
def walkers_over(draw, num_groups, min_walkers=1, max_walkers=16):
    """Per-walker segment assignments plus two uniform streams."""
    group = np.asarray(
        draw(
            st.lists(
                st.integers(0, num_groups - 1),
                min_size=min_walkers,
                max_size=max_walkers,
            )
        ),
        np.int64,
    )
    u_a = np.asarray(
        draw(
            st.lists(unit, min_size=len(group), max_size=len(group))
        ),
        np.float64,
    )
    u_b = np.asarray(
        draw(
            st.lists(unit, min_size=len(group), max_size=len(group))
        ),
        np.float64,
    )
    return group, u_a, u_b


class TestRegroupPairs:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 20), min_size=1, max_size=40)
    )
    def test_bitwise_equivalence(self, keys):
        keys = np.asarray(keys, np.int64)
        uk_np, group_np = numpy_backend.regroup_pairs(np, keys)
        uk_py, group_py = numba_backend.regroup_pairs(keys)
        assert_bitwise_equal(uk_np, uk_py)
        assert_bitwise_equal(group_np, group_py)

    def test_single_walker(self):
        keys = np.asarray([7], np.int64)
        uk_np, group_np = numpy_backend.regroup_pairs(np, keys)
        uk_py, group_py = numba_backend.regroup_pairs(keys)
        assert_bitwise_equal(uk_np, uk_py)
        assert_bitwise_equal(group_np, group_py)
        assert uk_np.tolist() == [7] and group_np.tolist() == [0]


class TestGatherSegments:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), layout=segment_layouts())
    def test_bitwise_equivalence(self, data, layout):
        sizes, _ = layout
        values = np.asarray(
            data.draw(st.lists(mass, min_size=40, max_size=40)), np.float64
        )
        starts = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 40 - int(sizes.max())),
                    min_size=len(sizes),
                    max_size=len(sizes),
                )
            ),
            np.int64,
        )
        out_np = numpy_backend.gather_segments(np, starts, sizes, values)
        out_py = numba_backend.gather_segments(starts, sizes, values)
        assert_bitwise_equal(out_np, out_py)


class TestSegmentedInverseCdf:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), layout=segment_layouts())
    def test_bitwise_equivalence_including_zero_mass(self, data, layout):
        sizes, _ = layout
        total = int(sizes.sum())
        # ``mass`` includes 0.0, so whole segments go zero-mass with
        # useful frequency — both backends must agree on the sentinel.
        flat = np.asarray(
            data.draw(st.lists(mass, min_size=total, max_size=total)),
            np.float64,
        )
        group, uniforms, _ = data.draw(walkers_over(len(sizes)))
        picks_np, bad_np = numpy_backend.segmented_inverse_cdf(
            np, flat, sizes, group, uniforms
        )
        picks_py, bad_py = numba_backend.segmented_inverse_cdf(
            flat, sizes, group, uniforms
        )
        assert bad_np == bad_py
        if bad_np == -1:
            assert_bitwise_equal(picks_np, picks_py)
            assert (picks_np >= 0).all()
            assert (picks_np < sizes[group]).all()

    def test_zero_mass_segment_sentinel(self):
        sizes = np.asarray([2, 3], np.int64)
        flat = np.asarray([0.4, 0.6, 0.0, 0.0, 0.0], np.float64)
        group = np.asarray([0], np.int64)
        uniforms = np.asarray([0.5], np.float64)
        _, bad_np = numpy_backend.segmented_inverse_cdf(
            np, flat, sizes, group, uniforms
        )
        _, bad_py = numba_backend.segmented_inverse_cdf(
            flat, sizes, group, uniforms
        )
        assert bad_np == bad_py == 1

    def test_single_walker_single_segment(self):
        sizes = np.asarray([1], np.int64)
        flat = np.asarray([2.5], np.float64)
        group = np.asarray([0], np.int64)
        uniforms = np.asarray([0.999], np.float64)
        picks_np, bad_np = numpy_backend.segmented_inverse_cdf(
            np, flat, sizes, group, uniforms
        )
        picks_py, bad_py = numba_backend.segmented_inverse_cdf(
            flat, sizes, group, uniforms
        )
        assert bad_np == bad_py == -1
        assert_bitwise_equal(picks_np, picks_py)
        assert picks_np.tolist() == [0]


class TestFlatAliasPick:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_bitwise_equivalence(self, data):
        k = data.draw(st.integers(1, 16))
        sizes = np.asarray(
            data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)),
            np.int64,
        )
        base = np.asarray(
            data.draw(st.lists(st.integers(0, 30), min_size=k, max_size=k)),
            np.int64,
        )
        table = int((base + sizes).max())
        prob_flat = np.asarray(
            data.draw(st.lists(stored_unit, min_size=table, max_size=table)),
            TABLE_FLOAT,
        )
        alias_flat = np.asarray(
            data.draw(
                st.lists(st.integers(0, 5), min_size=table, max_size=table)
            ),
            TABLE_INT,
        )
        u_column = np.asarray(
            data.draw(st.lists(unit, min_size=k, max_size=k)), np.float64
        )
        u_keep = np.asarray(
            data.draw(st.lists(unit, min_size=k, max_size=k)), np.float64
        )
        out_np = numpy_backend.flat_alias_pick(
            np, prob_flat, alias_flat, base, sizes, u_column, u_keep
        )
        out_py = numba_backend.flat_alias_pick(
            prob_flat, alias_flat, base, sizes, u_column, u_keep
        )
        assert_bitwise_equal(out_np, out_py)


    def test_keep_compares_at_float64(self):
        # A uniform just above a stored probability takes the alias, even
        # though it would round onto that probability at the table width.
        prob_flat = np.asarray([0.1], TABLE_FLOAT)
        alias_flat = np.asarray([1], TABLE_INT)
        stored = float(prob_flat[0])
        above = np.nextafter(stored, 1.0)
        assert TABLE_FLOAT.type(above) == prob_flat[0]
        base = np.asarray([0, 0], np.int64)
        sizes = np.asarray([1, 1], np.int64)
        u_column = np.asarray([0.5, 0.5], np.float64)
        u_keep = np.asarray([stored, above], np.float64)
        out_np = numpy_backend.flat_alias_pick(
            np, prob_flat, alias_flat, base, sizes, u_column, u_keep
        )
        out_py = numba_backend.flat_alias_pick(
            prob_flat, alias_flat, base, sizes, u_column, u_keep
        )
        assert out_np.tolist() == [0, 1]
        assert_bitwise_equal(out_np, out_py)


class TestGatheredAliasPick:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), layout=segment_layouts())
    def test_bitwise_equivalence(self, data, layout):
        sizes, starts = layout
        table = int(sizes.sum())
        prob_flat = np.asarray(
            data.draw(st.lists(stored_unit, min_size=table, max_size=table)),
            TABLE_FLOAT,
        )
        alias_flat = np.asarray(
            data.draw(
                st.lists(st.integers(0, 5), min_size=table, max_size=table)
            ),
            TABLE_INT,
        )
        group, u_column, u_keep = data.draw(walkers_over(len(sizes)))
        out_np = numpy_backend.gathered_alias_pick(
            np, prob_flat, alias_flat, starts, sizes, group, u_column, u_keep
        )
        out_py = numba_backend.gathered_alias_pick(
            prob_flat, alias_flat, starts, sizes, group, u_column, u_keep
        )
        assert_bitwise_equal(out_np, out_py)


class TestAcceptanceMask:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), n=st.integers(1, 32))
    def test_bitwise_equivalence(self, data, n):
        scale = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
        ratios = np.asarray(
            data.draw(st.lists(scale, min_size=n, max_size=n)), np.float64
        )
        factors = np.asarray(
            data.draw(st.lists(scale, min_size=n, max_size=n)), np.float64
        )
        uniforms = np.asarray(
            data.draw(st.lists(unit, min_size=n, max_size=n)), np.float64
        )
        out_np = numpy_backend.acceptance_mask(np, ratios, factors, uniforms)
        out_py = numba_backend.acceptance_mask(ratios, factors, uniforms)
        assert_bitwise_equal(out_np, out_py)

    def test_single_walker_boundary(self):
        # u == acceptance accepts in both backends (<=, not <).
        ratios = np.asarray([0.5], np.float64)
        factors = np.asarray([1.0], np.float64)
        uniforms = np.asarray([0.5], np.float64)
        out_np = numpy_backend.acceptance_mask(np, ratios, factors, uniforms)
        out_py = numba_backend.acceptance_mask(ratios, factors, uniforms)
        assert_bitwise_equal(out_np, out_py)
        assert out_np.tolist() == [True]


class TestAdvanceFrontier:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), n=st.integers(1, 24))
    def test_bitwise_equivalence(self, data, n):
        num_nodes = 30
        degrees = np.asarray(
            data.draw(
                st.lists(st.integers(0, 4), min_size=num_nodes, max_size=num_nodes)
            ),
            np.int64,
        )
        # idx entries must be unique: the vectorized scatter and the loop
        # form are only defined to agree when walkers are distinct.
        idx = np.asarray(
            sorted(
                data.draw(
                    st.sets(st.integers(0, n - 1), min_size=0, max_size=n)
                )
            ),
            np.int64,
        )
        step = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, num_nodes - 1), min_size=n, max_size=n
                )
            ),
            np.int64,
        )
        previous = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, num_nodes - 1), min_size=n, max_size=n
                )
            ),
            np.int64,
        )
        current = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, num_nodes - 1), min_size=n, max_size=n
                )
            ),
            np.int64,
        )
        active = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            np.bool_,
        )
        state_np = (previous.copy(), current.copy(), active.copy())
        state_py = (previous.copy(), current.copy(), active.copy())
        numpy_backend.advance_frontier(
            np, idx, step, state_np[0], state_np[1], state_np[2], degrees
        )
        numba_backend.advance_frontier(
            idx, step, state_py[0], state_py[1], state_py[2], degrees
        )
        for a, b in zip(state_np, state_py):
            assert_bitwise_equal(a, b)

    def test_empty_frontier_is_a_no_op(self):
        idx = np.asarray([], np.int64)
        step = np.asarray([3], np.int64)
        previous = np.asarray([1], np.int64)
        current = np.asarray([2], np.int64)
        active = np.asarray([True], np.bool_)
        degrees = np.asarray([1, 1, 1, 0], np.int64)
        numpy_backend.advance_frontier(
            np, idx, step, previous, current, active, degrees
        )
        numba_backend.advance_frontier(
            idx, step, previous, current, active, degrees
        )
        assert previous.tolist() == [1]
        assert current.tolist() == [2]
        assert active.tolist() == [True]
