"""Exact against exact at high degree: band recurrence, Racah sum, closed forms.

The other reference tests stop at degree 12 (and the sympy one at 60).  Here
a seeded sample of bands with degrees up to 500 is compared with no
tolerance.  A band's squares are left unreduced, so a band value
``sign * sqrt(num/den)`` equals a reduced value ``v`` when the signs agree
and ``num * v.den == v.num * den``.
"""

import random

from misiolek.wigner import (
    _racah,
    threej_band,
    threej_closed_110,
    threej_closed_stretched,
    threej_recursive_112,
)

SEED = 2402
L_MAX = 500
#: Bands sampled, each from one recurrence; three of each order pattern below.
BANDS = 12
#: Symbols per band compared with a Racah sum (about 4 ms each at degree 500),
#: 72 in all; every band symbol a closed form covers is compared too, 1,380 in all.
RACAH_PER_BAND = 6


def _same(sign, num, den, value):
    return sign == value.sign and num * value.den == value.num * den


def _orders(rng, pattern, l1, l2):
    if pattern == "general":
        return rng.randint(-l1, l1), rng.randint(-l2, l2)
    if pattern == "stretched":  # (l1 l2 j; m1 -l2 l2-m1)
        return rng.randint(-l1, l1), -l2
    if pattern == "110":
        return 1, -1
    return 1, 1  # "112"


def _closed_form(pattern, l1, l2, m1, j):
    """The closed form of (l1 l2 j; m1 m2 m3) where one applies, else None."""
    odd = (l1 + l2 + j) % 2
    if pattern == "stretched":
        return threej_closed_stretched(l1, l2, j, m1)
    if pattern == "110" and odd:
        return threej_closed_110(l1, l2, j)
    if pattern == "112" and odd and j >= 2:
        return threej_recursive_112(l1, l2, j)
    return None


def test_band_racah_and_closed_forms_agree_to_degree_500():
    rng = random.Random(SEED)
    patterns = ["general", "stretched", "110", "112"] * (BANDS // 4)
    racah_checked = closed_checked = 0
    for pattern in patterns:
        l1, l2 = rng.randint(1, L_MAX), rng.randint(1, L_MAX)
        m1, m2 = _orders(rng, pattern, l1, l2)
        m3 = -(m1 + m2)
        band = list(threej_band(l1, l2, m1, m2, 0))
        assert [j for j, _, _, _ in band] == list(range(l1 + l2, max(abs(l1 - l2), abs(m3)) - 1, -1))
        sampled = {entry[0] for entry in rng.sample(band, min(RACAH_PER_BAND, len(band)))}
        for j, sign, num, den in band:
            racah = _racah.__wrapped__(l1, l2, j, m1, m2, m3) if j in sampled else None
            if racah is not None:
                assert _same(sign, num, den, racah), (l1, l2, j, m1, m2)
                racah_checked += 1
            closed = _closed_form(pattern, l1, l2, m1, j)
            if closed is not None:
                assert _same(sign, num, den, closed), (pattern, l1, l2, j, m1)
                assert racah is None or closed == racah, (pattern, l1, l2, j, m1)
                closed_checked += 1
    assert racah_checked == BANDS * RACAH_PER_BAND
    assert closed_checked == 1380
