"""Property tests for the boundcheck interval lattice (hypothesis).

``Interval`` is the read-back type of the MapOverlap bounds proof (the
walk itself is :mod:`repro.analysis.affine`'s): lattice laws for
``join``, and soundness of the proof's loop-counter ranges against
actual loop iteration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelc.boundcheck import Interval, analyze_get_bounds
from repro.kernelc.parser import parse

BOUND = 64

values = st.integers(min_value=-BOUND, max_value=BOUND)


@st.composite
def intervals(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return Interval.top()
    a = draw(values)
    b = draw(values)
    return Interval(min(a, b), max(a, b))


def contains(interval, value):
    return interval.lo <= value <= interval.hi


def subsumes(wider, narrower):
    """wider ⊒ narrower in the interval lattice."""
    return wider.lo <= narrower.lo and narrower.hi <= wider.hi


class TestJoinLattice:
    @given(intervals())
    def test_join_idempotent(self, a):
        assert a.join(a) == a

    @given(intervals(), intervals())
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(intervals(), intervals(), intervals())
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(intervals(), intervals())
    def test_join_is_an_upper_bound(self, a, b):
        joined = a.join(b)
        assert subsumes(joined, a) and subsumes(joined, b)

    @given(intervals(), intervals(), intervals())
    def test_join_monotone(self, a, b, c):
        # a ⊑ a⊔c, so (a⊔c)⊔b must subsume a⊔b (monotonicity in the
        # left argument; commutativity gives the right one).
        widened = a.join(c)
        assert subsumes(widened.join(b), a.join(b))

    @given(intervals())
    def test_top_absorbs(self, a):
        assert a.join(Interval.top()).is_top


class TestWithin:
    @given(intervals())
    def test_within_respects_top(self, a):
        if a.is_top:
            assert not a.within(-BOUND, BOUND)


class TestForLoopBoundSoundness:
    """The counting-loop matcher must never assign the induction
    variable an interval missing a value it actually takes."""

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=12),
        st.sampled_from(["<", "<="]),
        st.integers(min_value=1, max_value=3),
    )
    def test_loop_offsets_covered(self, start, bound, op, step):
        increment = "++i" if step == 1 else f"i += {step}"
        source = f"""
        float f(float* m) {{
            float s = 0.0f;
            for (int i = {start}; i {op} {bound}; {increment}) s += get(m, i, 0);
            return s;
        }}"""
        program = parse(source)

        # Concrete iteration values of the loop.
        concrete = []
        i = start
        while (i < bound) if op == "<" else (i <= bound):
            concrete.append(i)
            i += step

        proof = analyze_get_bounds(program.functions[-1], BOUND)
        if not concrete:
            # Zero-trip loop: any interval is vacuously sound; the
            # proof must still not crash and stays conservative.
            assert proof.accesses is not None
            return
        # Soundness: every concretely-taken offset lies inside the
        # claimed interval for every collected access.
        assert proof.accesses, "loop body access was not collected"
        for offsets in proof.accesses:
            row = offsets[0]
            for value in concrete:
                assert contains(row, value), (
                    f"offset {value} escapes claimed interval "
                    f"[{row.lo}, {row.hi}] for {source}"
                )
        # And the proof agrees with a brute-force overlap check.
        widest = max(max(abs(v) for v in concrete), 0)
        assert proof.proven == all(
            contains(Interval(-BOUND, BOUND), v) for v in concrete
        ) or not proof.proven  # conservative rejection is always allowed
        if proof.proven:
            assert widest <= BOUND
