"""Annihilators, fibers and absolute primeness read off the blocks.

`annihilator_dset`, `fiber` and `is_absolutely_prime_window` take their
degeneracy labels from `block_decompose`.  The property test compares them
with the definitional references of `annihilator_reference` on scrambled
sums of simples and Ms windows; the other tests pin the windows where the
two differ: right windows, windows without layer 0 and the zero module.
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annihilator_reference as ref
from intdiffops.modules import (
    AnnihilatorLabel,
    DomainError,
    DSet,
    ModuleWindow,
    Orbit,
    annihilator_dset,
    build_Ms,
    build_simple,
    dualize,
    fiber,
    is_absolutely_prime_window,
)
from test_modules import direct_sum, scramble


@st.composite
def left_windows(draw):
    """A left window, scrambled or not, of a sum of simples (and, at arity
    1, Ms windows) whose every interval starts at or below 0 and ends at or
    above 1, so that the integer slots reach layer 0 and the support is
    never empty; smaller boxes at higher arity keep the reference quick."""
    n = draw(st.integers(1, 3))
    reps = [draw(st.sampled_from([0, 0, "1/2"])) for _ in range(n)]
    orbit = Orbit.from_reps(reps)
    lo, hi = {1: (-2, 2), 2: (-1, 2), 3: (-1, 1)}[n]
    window = [(draw(st.integers(lo, 0)), draw(st.integers(1, hi))) for _ in range(n)]
    slots = orbit.integer_slots()
    summands = []
    for _ in range(draw(st.integers(1, 3 if n < 3 else 2))):
        if n == 1 and draw(st.booleans()):
            summands.append(build_Ms(draw(st.integers(1, 3)), reps[0], window))
        else:
            D = [j for j in slots if draw(st.booleans())]
            summands.append(build_simple(DSet(orbit, D), window))
    M = reduce(direct_sum, summands)
    if draw(st.integers(0, 9)) < 7:
        M = scramble(M, random.Random(draw(st.integers(0, 2**32 - 1))))
    return M


def _outcome(f, *args):
    """f(*args), or DomainError when it raises one."""
    try:
        return f(*args)
    except DomainError:
        return DomainError


def _fiber_data(f):
    return f if f is DomainError else (f.slots, f.center, f.matrices)


@given(left_windows())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_labels_fibers_and_primeness_match_the_definitions(M):
    for strict in (True, False):
        assert _outcome(annihilator_dset, M, strict) == _outcome(ref.annihilator_dset, M, strict)
    for p in M.support():
        assert _fiber_data(_outcome(fiber, M, p)) == _fiber_data(_outcome(ref.fiber, M, p))
    assert is_absolutely_prime_window(M) == ref.is_absolutely_prime_window(M)


def test_strict_labels_name_every_block():
    orbit = Orbit.from_reps([0, 0])
    window = [(-1, 2)] * 2
    M = direct_sum(build_simple(DSet(orbit, [1]), window), build_simple(DSet(orbit, []), window))
    with pytest.raises(DomainError, match=r"not a single block: it has the blocks D=\[\], D=\[1\]"):
        annihilator_dset(M)
    assert annihilator_dset(M, strict=False) == (frozenset({1}), AnnihilatorLabel((2,)))


def test_windows_without_layer_0_are_refused():
    dset = DSet(Orbit.from_reps([0]), [1])
    M = build_simple(dset, [(1, 5)])
    for call in (
        lambda: annihilator_dset(M),
        lambda: annihilator_dset(M, strict=False),
        lambda: fiber(M, (2,)),
        lambda: is_absolutely_prime_window(M),
    ):
        with pytest.raises(DomainError, match="slot 1: extend the slot interval down to 0"):
            call()
    active, label = annihilator_dset(build_simple(dset, [(0, 5)]))
    assert active == {1} and label.height == 0


def test_right_windows_give_the_left_answers():
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    L = build_simple(DSet(orbit, [1]), window)
    R = dualize(L)
    for strict in (True, False):
        assert annihilator_dset(R, strict) == annihilator_dset(L, strict) == (frozenset({1}), AnnihilatorLabel(()))
    got, want = fiber(R, (1,)), fiber(L, (1,))
    assert (got.slots, got.center, got.matrices) == (want.slots, want.center, want.matrices)
    with pytest.raises(DomainError, match="offset 1 in degenerate slot 1"):
        fiber(R, (2,))
    assert is_absolutely_prime_window(R) and is_absolutely_prime_window(L)
    S = dualize(direct_sum(L, build_Ms(2, 0, window)))
    assert not is_absolutely_prime_window(S)
    assert annihilator_dset(S, strict=False) == (frozenset({1}), AnnihilatorLabel(()))


def test_window_limits_are_not_verdicts():
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    assert is_absolutely_prime_window(build_Ms(3, 0, window))
    assert not is_absolutely_prime_window(direct_sum(build_simple(DSet(orbit, [1]), window), build_Ms(1, 0, window)))
    # a zero module has no annihilator of its own: it is not prime
    assert not is_absolutely_prime_window(ModuleWindow(orbit, window, {}, {}))
    with pytest.raises(DomainError, match="down to 0"):
        is_absolutely_prime_window(build_simple(DSet(orbit, []), [(1, 3)]))
