"""The run-walking sumset kernel against the per-bit loop and the set sum."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bvass1.residue import _fold_mod, _sumset

from helpers import naive_cyclic_sumset, naive_sumset


def _interval(lo: int, n: int) -> int:
    return ((1 << n) - 1) << lo


@st.composite
def masks(draw, width: int) -> int:
    """Zero, a single bit, alternating bits, a few intervals, one full interval or random bits."""
    kind = draw(st.sampled_from(["zero", "bit", "alternating", "intervals", "full", "random"]))
    if kind == "zero":
        return 0
    if kind == "bit":
        return 1 << draw(st.integers(0, width - 1))
    if kind == "alternating":
        lo = draw(st.integers(0, width - 1))
        n = draw(st.integers(1, width - lo))
        return (int("01" * width, 2) & ((1 << n) - 1)) << lo
    if kind == "intervals":
        out = 0
        for _ in range(draw(st.integers(1, 4))):
            lo = draw(st.integers(0, width - 1))
            out |= _interval(lo, draw(st.integers(1, width - lo)))
        return out
    if kind == "full":
        return (1 << width) - 1
    return draw(st.integers(0, (1 << width) - 1))


def _set_sum(a: int, b: int) -> int:
    bits_a = [i for i in range(a.bit_length()) if (a >> i) & 1]
    bits_b = [j for j in range(b.bit_length()) if (b >> j) & 1]
    out = 0
    for i in bits_a:
        for j in bits_b:
            out |= 1 << (i + j)
    return out


@given(st.integers(1, 4096).flatmap(lambda w: st.tuples(masks(w), masks(w))))
@settings(max_examples=300, deadline=None)
def test_sumset_matches_per_bit_loop_and_commutes(pair):
    a, b = pair
    got = _sumset(a, b)
    assert got == naive_sumset(a, b)
    assert got == _sumset(b, a)


@given(st.integers(1, 48).flatmap(lambda w: st.tuples(masks(w), masks(w))))
@settings(max_examples=300, deadline=None)
def test_sumset_is_the_set_sum(pair):
    a, b = pair
    assert _sumset(a, b) == _set_sum(a, b)


@given(st.integers(1, 31).flatmap(lambda d: st.tuples(st.just(d), masks(d), masks(d))))
@settings(max_examples=300, deadline=None)
def test_folded_sumset_is_the_cyclic_sumset(case):
    d, a, b = case
    assert _fold_mod(_sumset(a, b), d) == naive_cyclic_sumset(a, b, d)


def test_sumset_pins():
    assert _sumset(0, 0b111) == 0
    assert _sumset(0b1, 0b101) == 0b101
    # a run of three smears {0, 5} over [2, 5)
    assert _sumset(0b11100, 0b100001) == 0b1110011100
    # two runs of length two, at 0 and 4
    assert _sumset(0b110011, 0b1) == 0b110011
    assert _sumset(_interval(0, 1000), _interval(0, 1000)) == _interval(0, 1999)
