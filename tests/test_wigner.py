"""Wigner 3j symbols: Racah path, closed forms, recursion, check blocks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import misiolek.suites
from misiolek.exact import SignedSqrtRational, factorial
from misiolek.suites import (
    SuiteResult,
    check_order_one_forms,
    check_orthogonality,
    check_stretched_forms,
    check_threej_symmetries,
    wigner_suite,
)
from misiolek.wigner import (
    ClosedFormDomainError,
    selection_rules_hold,
    threej_closed_110,
    threej_closed_stretched,
    threej_lm,
    threej_recursive_112,
)

SSR = SignedSqrtRational


def threej_000_oracle(l1, l2, l3):
    """Independent closed form for all-zero orders (parity + central binomial)."""
    total = l1 + l2 + l3
    if total % 2 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return SSR.zero()
    half = total // 2
    delta = Fraction(
        factorial(l1 + l2 - l3) * factorial(l1 - l2 + l3) * factorial(-l1 + l2 + l3),
        factorial(total + 1),
    )
    ratio = Fraction(factorial(half), factorial(half - l1) * factorial(half - l2) * factorial(half - l3))
    sign = -1 if half % 2 else 1
    return SSR.of(sign, delta * ratio * ratio)


def test_racah_against_000_oracle():
    for l1 in range(9):
        for l2 in range(9):
            for l3 in range(abs(l1 - l2), min(l1 + l2, 9) + 1):
                assert threej_lm(l1, l2, l3, 0, 0, 0) == threej_000_oracle(l1, l2, l3)


def test_known_values():
    # frozen from the Racah oracle; cross-checked against published tables
    assert threej_lm(2, 2, 0, 1, -1, 0) == SSR.of(-1, Fraction(1, 5))
    assert threej_lm(2, 2, 0, 1, -1, 0).to_float() == pytest.approx(-0.4472135954999579, abs=0)
    assert threej_lm(1, 2, 3, 0, 0, 0).radicand == Fraction(3, 35)
    assert threej_lm(1, 2, 3, 0, 0, 0).sign == -1
    assert threej_lm(4, 5, 6, 1, 0, -1).radicand == Fraction(4, 429)
    assert threej_lm(4, 5, 6, 1, 0, -1).sign == -1
    assert threej_lm(0, 0, 0, 0, 0, 0) == SSR.of(1, 1)
    for l in range(1, 5):
        # (l l 0; m -m 0) = (-1)^(l-m) / sqrt(2l+1)
        for m in range(-l, l + 1):
            assert threej_lm(l, l, 0, m, -m, 0) == SSR.of((-1) ** (l - m), Fraction(1, 2 * l + 1))


def test_selection_rule_zeros():
    assert threej_lm(1, 1, 1, 0, 0, 0).is_zero()  # odd degree sum, zero orders
    assert threej_lm(3, 1, 1, 0, 0, 0).is_zero()  # triangle fails
    assert threej_lm(2, 2, 2, 1, 1, 1).is_zero()  # orders do not cancel
    assert threej_lm(2, 2, 2, 3, -3, 0).is_zero()  # order out of range


def test_selection_rules_exhaustive_small():
    for l1 in range(5):
        for l2 in range(5):
            for l3 in range(5):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        for m3 in range(-l3, l3 + 1):
                            if m1 + m2 + m3 != 0 or not abs(l1 - l2) <= l3 <= l1 + l2:
                                assert threej_lm(l1, l2, l3, m1, m2, m3).is_zero()


def test_threej_lm_argument_domain():
    with pytest.raises(ValueError):
        threej_lm(-1, 1, 1, 0, 0, 0)
    assert threej_lm(1, 1, 1, 2, -1, -1).is_zero()
    # equal columns with an odd degree sum: the symbol is its own negative
    assert threej_lm(2, 2, 3, 1, 1, -2) == SSR.zero()


def _valid_tuples(l_max):
    for l1 in range(l_max + 1):
        for l2 in range(l_max + 1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, l_max) + 1):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        if abs(m1 + m2) <= l3:
                            yield l1, l2, l3, m1, m2, -(m1 + m2)


def test_selection_rules_hold_on_the_valid_tuples_only():
    valid = set(_valid_tuples(4))
    box = itertools.product(range(5), range(5), range(5), *[range(-5, 6)] * 3)
    for indices in box:
        assert selection_rules_hold(*indices) == (indices in valid), indices
        if indices not in valid:
            assert threej_lm(*indices).is_zero(), indices


def test_column_swap_and_negation_symmetries():
    for l1, l2, l3, m1, m2, m3 in _valid_tuples(6):
        base = threej_lm(l1, l2, l3, m1, m2, m3)
        sign = 1 if (l1 + l2 + l3) % 2 == 0 else -1
        assert threej_lm(l2, l1, l3, m2, m1, m3) == base.scale(sign)
        assert threej_lm(l1, l3, l2, m1, m3, m2) == base.scale(sign)
        assert threej_lm(l1, l2, l3, -m1, -m2, -m3) == base.scale(sign)


def test_cyclic_column_permutation_invariance():
    for l1, l2, l3, m1, m2, m3 in _valid_tuples(5):
        base = threej_lm(l1, l2, l3, m1, m2, m3)
        assert threej_lm(l2, l3, l1, m2, m3, m1) == base
        assert threej_lm(l3, l1, l2, m3, m1, m2) == base


def test_orthogonality_exact():
    for l1 in range(9):
        for l2 in range(9):
            for l3 in range(abs(l1 - l2), min(l1 + l2, 8) + 1):
                for m3 in range(-l3, l3 + 1):
                    total = Fraction(0)
                    for m1 in range(-l1, l1 + 1):
                        m2 = -m1 - m3
                        if abs(m2) <= l2:
                            total += threej_lm(l1, l2, l3, m1, m2, m3).radicand
                    assert total * (2 * l3 + 1) == 1, (l1, l2, l3, m3)


def test_closed_stretched_examples():
    assert threej_closed_stretched(2, 2, 3, 0) == threej_lm(2, 2, 3, 0, -2, 2)
    assert threej_closed_stretched(1, 1, 1, 1) == threej_lm(1, 1, 1, 1, -1, 0)
    assert threej_closed_stretched(3, 2, 6, 1).is_zero()  # triangle fails: 6 > 3+2
    # zero-degree middle column collapses to the (l l 0)-type diagonal value
    assert threej_closed_stretched(2, 0, 2, 1) == SSR.of(-1, Fraction(1, 5))


def test_closed_stretched_full_domain():
    for l1 in range(9):
        for m in range(9):
            for l3 in range(abs(l1 - m), l1 + m + 1):
                for m1 in range(-l1, l1 + 1):
                    if abs(m - m1) > l3:
                        continue
                    assert threej_closed_stretched(l1, m, l3, m1) == threej_lm(l1, m, l3, m1, -m, m - m1)


def test_closed_110_examples():
    assert threej_closed_110(3, 2, 2) == threej_lm(3, 2, 2, 1, -1, 0)
    assert threej_closed_110(1, 1, 1) == threej_lm(1, 1, 1, 1, -1, 0)
    with pytest.raises(ClosedFormDomainError):
        threej_closed_110(2, 2, 2)  # even degree sum: symbol nonzero, form silent


def test_closed_110_full_domain():
    for l1 in range(1, 11):
        for l2 in range(1, 11):
            for l3 in range(abs(l1 - l2), l1 + l2 + 1):
                if (l1 + l2 + l3) % 2:
                    assert threej_closed_110(l1, l2, l3) == threej_lm(l1, l2, l3, 1, -1, 0)


def test_recursive_112_examples():
    assert threej_recursive_112(2, 2, 3) == threej_lm(2, 2, 3, 1, 1, -2)
    assert threej_recursive_112(4, 4, 3).is_zero()  # equal l1, l2
    with pytest.raises(ClosedFormDomainError):
        threej_recursive_112(3, 2, 1)  # l3 = 1 zeroes the denominator
    with pytest.raises(ClosedFormDomainError):
        threej_recursive_112(3, 3, 4)  # even degree sum


def test_recursive_112_full_domain():
    for l1 in range(1, 11):
        for l2 in range(1, 11):
            for l3 in range(2, l1 + l2 + 1):
                if (l1 + l2 + l3) % 2 == 0:
                    continue
                assert threej_recursive_112(l1, l2, l3) == threej_lm(l1, l2, l3, 1, 1, -2)


@settings(max_examples=200)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 24), st.integers(-12, 12), st.integers(-12, 12))
def test_zero_outside_selection_rules_property(l1, l2, l3, m1, m2):
    m3 = -(m1 + m2)
    violated = (
        abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3
        or not abs(l1 - l2) <= l3 <= l1 + l2
    )
    if violated:
        assert threej_lm(l1, l2, l3, m1, m2, m3).is_zero()


def _block_checks(block, l_max):
    result = SuiteResult("wigner", l_max)
    block(result, l_max)
    assert result.ok, result.failures[:3]
    return result.checks


def test_wigner_suite_counts_each_block_once_per_check_run():
    blocks = (check_stretched_forms, check_order_one_forms, check_threej_symmetries,
              check_orthogonality)
    assert [_block_checks(block, 4) for block in blocks] == [220, 42, 2878, 525]
    assert wigner_suite(4).checks == 220 + 42 + 2878 + 525
    assert _block_checks(check_stretched_forms, 12) == 8918
    # 489 (1 -1 0) checks and 477 (1 1 -2) ones: the recursion raises
    # ClosedFormDomainError at l3 = 1 (l1 = l2), so those 12 are not run.
    assert _block_checks(check_order_one_forms, 12) == 489 + 477
    assert _block_checks(check_orthogonality, 12) == 3861


def test_threej_symmetry_block_reports_a_flipped_symbol(monkeypatch):
    # One symbol with its sign flipped breaks both symmetries at its tuple.
    honest = threej_lm
    flipped = (2, 1, 2, 1, 0, -1)
    assert not honest(*flipped).is_zero()
    checks = _block_checks(check_threej_symmetries, 2)

    def one_sign_off(*args):
        value = honest(*args)
        return -value if args == flipped else value

    monkeypatch.setattr(misiolek.suites, "threej_lm", one_sign_off)
    result = SuiteResult("wigner", 2)
    check_threej_symmetries(result, 2)
    assert result.checks == checks
    # The flipped symbol is also the swapped partner of (1,2,2,0,1) and the
    # negated partner of (2,1,2,-1,0).
    assert result.failures == [
        "column swap off at (1,2,2,0,1)", "order negation off at (2,1,2,-1,0)",
        "column swap off at (2,1,2,1,0)", "order negation off at (2,1,2,1,0)",
    ]
