"""The band recurrence against the single-symbol Racah path it stands beside.

``threej_band`` yields a whole band of 3j symbols from one integer
three-term recurrence, and ``bracket_expand`` builds its terms from it.  The
references are ``threej_lm`` (one Racah sum per symbol) and the per-l3
``g_real`` expansion, and every value must agree exactly: sign, numerator
and denominator.
"""

import pytest

import misiolek.structure
from misiolek.exact import SignedSqrtRational
from misiolek.structure import HarmonicIndex, bracket_expand, g_real
from misiolek.wigner import threej_band, threej_lm

L_MAX = 12


def _indices(l_max):
    return [HarmonicIndex(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


def test_threej_band_equals_racah_path():
    checked = 0
    for l1 in range(L_MAX + 1):
        for l2 in range(L_MAX + 1):
            for m1 in range(-l1, l1 + 1):
                for m2 in range(-l2, l2 + 1):
                    m3 = -(m1 + m2)
                    band = list(threej_band(l1, l2, m1, m2, 0))
                    low = max(abs(l1 - l2), abs(m3))
                    assert [j for j, _, _, _ in band] == list(range(l1 + l2, low - 1, -1))
                    for j, sign, num, den in band:
                        got = SignedSqrtRational._reduce(sign, num, den)
                        want = threej_lm(l1, l2, j, m1, m2, m3)
                        assert (got.sign, got.num, got.den) == (want.sign, want.num, want.den), \
                            (l1, l2, j, m1, m2, m3)
                    checked += len(band)
    assert checked == 297_037


def test_threej_band_stops_at_the_lowest_degree_asked_for():
    assert [j for j, _, _, _ in threej_band(5, 3, 2, -1, 4)] == [8, 7, 6, 5, 4]
    assert [j for j, _, _, _ in threej_band(5, 3, 2, -1, 0)] == [8, 7, 6, 5, 4, 3, 2]
    assert [j for j, _, _, _ in threej_band(5, 3, 4, 3, 0)] == [8, 7]  # |m3| = 7


def test_bracket_expand_equals_g_real_terms():
    indices = _indices(L_MAX)
    nonzero = 0
    for a in indices:
        for b in indices:
            got = [(l3, (g.sign, g.num, g.den)) for l3, g in bracket_expand(a, b).items()]
            want = []
            if a.l and b.l:
                m3 = a.m + b.m
                for l3 in range(abs(a.l - b.l) + 1, a.l + b.l, 2):
                    g = g_real(a.l, a.m, b.l, b.m, l3, -m3)
                    if not g.is_zero():
                        want.append((l3, (g.sign, g.num, g.den)))
            assert got == want, (a, b)
            nonzero += bool(want)
    assert len(indices) ** 2 == 28_561 and nonzero > 20_000


def test_zonal_and_degree_zero_pairs_run_no_recurrence(monkeypatch):
    def no_band(*args):
        raise AssertionError(f"threej_band{args} called for a commuting pair")

    monkeypatch.setattr(misiolek.structure, "threej_band", no_band)
    for a in _indices(6):
        for b in _indices(6):
            if a.l == 0 or b.l == 0 or a.m == b.m == 0:
                assert bracket_expand(a, b) == {}, (a, b)
            else:
                with pytest.raises(AssertionError, match="commuting pair"):
                    bracket_expand(a, b)
