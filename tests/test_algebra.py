"""Term engine tests.

Expected values here were worked out by hand from the defining relations
(p^2 = q^2 = 0, {p_i, q_j} = delta_ij) or cross-checked against the exact
matrix backend, which is built from entirely different primitives.  The
full-term constructions, point values and element arithmetic checked here
live in tests/algebra_reference.py.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import (
    D_ID,
    D_PQ,
    D_QP,
    cofactor_leaves,
    identity_count,
    pattern_alive,
    pattern_bits,
    pattern_field,
    zero_test_splits,
)
from wittsat.cnf import Assignment

from algebra_reference import (
    CheckedElement,
    EFBTerm,
    NullVector,
    assignment_element,
    diag_mul,
    eval_at,
    identity_element,
    mtnp_of_spinor,
    omega_element,
    vector_action,
)


# ---------------------------------------------------------------- packing


def test_pattern_bits_places_fields_per_position():
    pat = pattern_bits(3, {1: D_QP, 3: D_PQ})
    assert pattern_field(pat, 0) == D_QP
    assert pattern_field(pat, 1) == D_ID
    assert pattern_field(pat, 2) == D_PQ
    assert identity_count(pat, 3) == 1


def test_pattern_alive_detects_dead_fields():
    alive = pattern_bits(2, {1: D_QP, 2: D_ID})
    assert pattern_alive(alive, 2)
    # AND of opposite idempotents leaves a 00 field
    dead = pattern_bits(2, {1: D_QP}) & pattern_bits(2, {1: D_PQ})
    assert not pattern_alive(dead, 2)


# ---------------------------------------------------------------- terms


def test_term_parity_counts_odd_factors():
    assert EFBTerm.from_symbols(("qp", "pq")).odd_before(3) == 0
    assert EFBTerm.from_symbols(("p", "qp")).odd_before(3) == 1
    assert EFBTerm.from_symbols(("p", "q")).odd_before(3) == 2
    assert EFBTerm.from_symbols(("p", "q")).odd_before(2) == 1


# -------------------------------------------------- left action by vectors
#
# The four rewrite rules, with the sign rule (-1)^(odd factors to the left):
#   p.(qp) = p     p.q = pq     q.(pq) = q     q.p = qp
# and anything else dies.


def test_vector_action_base_cases():
    cases = {
        ("p", "qp"): "p",
        ("p", "q"): "pq",
        ("q", "pq"): "q",
        ("q", "p"): "qp",
    }
    for (kind, sym), result in cases.items():
        t = EFBTerm.from_symbols((sym,))
        acted = vector_action(NullVector(1, kind), t)
        assert acted is not None and acted.symbols() == (result,)
        assert acted.coeff == 1


def test_vector_action_annihilation_cases():
    for kind, sym in (("p", "pq"), ("p", "p"), ("q", "qp"), ("q", "q")):
        t = EFBTerm.from_symbols((sym,))
        assert vector_action(NullVector(1, kind), t) is None


def test_vector_action_sign_from_odd_factors_to_the_left():
    # q_2 acting on p x pq: one odd factor (p) sits left of position 2
    t = EFBTerm.from_symbols(("p", "pq"))
    acted = vector_action(NullVector(2, "q"), t)
    assert acted.symbols() == ("p", "q")
    assert acted.coeff == -1
    # with an even factor at position 1 the sign stays positive
    t2 = EFBTerm.from_symbols(("qp", "pq"))
    acted2 = vector_action(NullVector(2, "q"), t2)
    assert acted2.symbols() == ("qp", "q")
    assert acted2.coeff == 1


def test_mtnp_of_spinor_reads_first_factors():
    t = EFBTerm.from_symbols(("qp", "pq", "p"))
    assert mtnp_of_spinor(t) == (
        NullVector(1, "q"),
        NullVector(2, "p"),
        NullVector(3, "p"),
    )


def test_mtnp_of_spinor_members_annihilate_their_term():
    for syms in itertools.product(("qp", "pq", "p", "q"), repeat=2):
        t = EFBTerm.from_symbols(syms)
        plane = set(mtnp_of_spinor(t))
        for v in (NullVector(i, k) for i in (1, 2) for k in ("p", "q")):
            assert (vector_action(v, t) is None) == (v in plane)


# ------------------------------------------------------- diagonal elements


def test_identity_element_evaluates_to_one_everywhere():
    e = identity_element(3)
    for mask in range(8):
        assert eval_at(e, Assignment.from_mask(mask, 3)) == 1


def test_identity_expansion_has_all_full_patterns_with_unit_coeff():
    expanded = CheckedElement(2, _point_values(identity_element(2)))
    assert expanded.term_count == 4
    assert set(expanded.terms.values()) == {1}
    assert all(identity_count(p, 2) == 0 for p in expanded.terms)
    assert identity_element(2) == expanded  # equality is semantic


def test_omega_evaluations_alternate_with_false_count():
    om = omega_element(3)
    for mask in range(8):
        a = Assignment.from_mask(mask, 3)
        falses = a.values.count(False)
        assert eval_at(om, a) == (-1) ** falses


def test_literal_element_is_indicator_of_the_literal():
    e = CheckedElement(2, {pattern_bits(2, {1: D_QP}): 1})  # q_1p_1
    for mask in range(4):
        a = Assignment.from_mask(mask, 2)
        assert eval_at(e, a) == int(a.values[0])


def test_assignment_element_is_point_indicator():
    target = Assignment((True, False, True))
    e = assignment_element(target)
    for mask in range(8):
        a = Assignment.from_mask(mask, 3)
        assert eval_at(e, a) == int(a == target)


def test_element_rejects_dead_patterns_and_fractional_coeffs():
    dead = pattern_bits(1, {1: D_QP}) & pattern_bits(1, {1: D_PQ})
    with pytest.raises(ValueError):
        CheckedElement(1, {dead: 1})
    with pytest.raises(TypeError):
        CheckedElement(1, {pattern_bits(1, {1: D_QP}): 0.5})


def test_element_equality_is_semantic_not_structural():
    # identity written sparsely vs written out in full patterns
    a = identity_element(1)
    b = CheckedElement(
        1, {pattern_bits(1, {1: D_QP}): 1, pattern_bits(1, {1: D_PQ}): 1}
    )
    assert a == b
    assert a.terms != b.terms


def test_diag_mul_implements_positionwise_and():
    x1 = CheckedElement(2, {pattern_bits(2, {1: D_QP}): 1})
    not_x1 = CheckedElement(2, {pattern_bits(2, {1: D_PQ}): 1})
    assert diag_mul(x1, not_x1).is_zero()
    again = diag_mul(x1, x1)
    assert again == x1


def test_zero_test_on_telescoping_sum():
    # sum of the four point indicators minus the identity is zero
    total = identity_element(2)
    for mask in range(4):
        total = total - assignment_element(Assignment.from_mask(mask, 2))
    assert total.is_zero()
    zero, splits, point = zero_test_splits(total)
    assert zero and splits >= 1 and point is None


# ------------------------------------------------------------ properties

_small_n = st.integers(min_value=1, max_value=4)


@st.composite
def elements(draw, n=None):
    nn = draw(_small_n) if n is None else n
    size = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(size):
        fields = draw(
            st.lists(
                st.sampled_from((D_QP, D_PQ, D_ID)), min_size=nn, max_size=nn
            )
        )
        pat = 0
        for i, f in enumerate(fields):
            pat |= f << (2 * i)
        coeff = draw(st.integers(min_value=-4, max_value=4))
        terms[pat] = terms.get(pat, 0) + coeff
    return CheckedElement(nn, {p: c for p, c in terms.items() if c})


@given(st.data())
@settings(max_examples=200)
def test_eval_is_multiplicative_and_additive(data):
    n = data.draw(_small_n)
    a = data.draw(elements(n=n))
    b = data.draw(elements(n=n))
    for mask in range(1 << n):
        sigma = Assignment.from_mask(mask, n)
        assert eval_at(diag_mul(a, b), sigma) == eval_at(a, sigma) * eval_at(b, sigma)
        assert eval_at(a + b, sigma) == eval_at(a, sigma) + eval_at(b, sigma)
        assert eval_at(a - b, sigma) == eval_at(a, sigma) - eval_at(b, sigma)


def _point_values(a):
    """Reference primitive form: one full pattern per nonzero evaluation."""
    sigmas = (Assignment.from_mask(m, a.n) for m in range(1 << a.n))
    points = {next(iter(assignment_element(s).terms)): eval_at(a, s) for s in sigmas}
    return {pat: value for pat, value in points.items() if value}


def _walk(a):
    """Every leaf the cofactor walk yields, and the split count it returns."""
    leaves, walk = [], cofactor_leaves(a)
    while True:
        try:
            leaves.append(next(walk))
        except StopIteration as done:
            return leaves, done.value


@given(st.data())
@settings(max_examples=200)
def test_cofactor_leaves_sum_to_the_point_values(data):
    # leaves are disjoint and cannot cancel, so adding each leaf pattern
    # over its subcube gives every nonzero value of the element once
    a = data.draw(elements())
    leaves, total_splits = _walk(a)
    total = CheckedElement(a.n, {})
    for _, path, terms in leaves:
        assert len({c > 0 for c in terms.values()}) == 1
        total = total + CheckedElement(a.n, {p & path: c for p, c in terms.items()})
    assert _point_values(total) == _point_values(a)
    counts = [splits for splits, _, _ in leaves] + [total_splits]
    assert counts == sorted(counts)
    zero, splits, point = zero_test_splits(a)
    assert zero == (not leaves) == (point is None)
    assert splits == counts[0]  # the walk stops at its first leaf
    if point is not None:
        # the first leaf's first pattern, identity fields read as true
        _, path, terms = leaves[0]
        fixed = next(iter(terms)) & path
        assert point.values == tuple(
            pattern_field(fixed, i) != D_PQ for i in range(a.n)
        )
        assert eval_at(a, point) != 0


@given(st.data())
@settings(max_examples=200)
def test_zero_test_agrees_with_exhaustive_evaluation(data):
    a = data.draw(elements())
    truly_zero = all(
        eval_at(a, Assignment.from_mask(m, a.n)) == 0 for m in range(1 << a.n)
    )
    assert a.is_zero() == truly_zero
    assert (a == CheckedElement(a.n, {})) == truly_zero
