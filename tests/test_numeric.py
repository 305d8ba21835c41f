import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from momentkit.errors import DegenerateInput, ShapeError
from momentkit.numeric import (FormClass, Polynomial, classify_form,
                               det, det_poly, format_ratio, parse_scalar, format_scalar,
                               real_roots, simplest_between, vandermonde_masses)
from conftest import random_rational_measure


def test_classify_form_examples():
    assert classify_form((2, 3, 5)) is FormClass.POSITIVE_DEFINITE
    assert classify_form(()) is FormClass.POSITIVE_DEFINITE
    for singular in [(0,), (1, 1, 1), (1, 1, 1, 1, 2), (F(1, 2), F(1, 4), F(1, 8))]:
        assert classify_form(singular) is FormClass.POSITIVE_SEMIDEFINITE_SINGULAR
    assert classify_form((1, 2, 1)) is FormClass.INDEFINITE
    # D_1 = 1 > 0 = D_2, and s_3 = 2 is off the recurrence s_(k+1) = s_k
    assert classify_form((1, 1, 1, 2, 5)) is FormClass.INDEFINITE
    # after a zero minor: an entry off the corner, and negative corners
    assert classify_form((0, 1, 0)) is FormClass.INDEFINITE
    assert classify_form((0, 0, -1)) is FormClass.INDEFINITE
    assert classify_form((1, 1, 1, 1, F(1, 2))) is FormClass.INDEFINITE
    with pytest.raises(ShapeError):
        classify_form((1, 2))


def test_classify_form_against_eigenvalues():
    # random float windows, half of them the moments of fewer atoms than
    # the order (singular up to rounding)
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            entries = [rng.uniform(-2, 2) for _ in range(2 * n - 1)]
        else:
            atoms = [(rng.uniform(-2, 2), rng.uniform(0.1, 2))
                     for _ in range(rng.randint(1, n))]
            entries = [sum(m * x ** k for x, m in atoms) for k in range(2 * n - 1)]
        got = classify_form(entries, eps=1e-9)
        m = np.array([[entries[i + j] for j in range(n)] for i in range(n)])
        eig = np.linalg.eigvalsh(m)
        tol = 1e-9 * max(1.0, float(np.abs(m).max()))
        if eig.min() > tol:
            want = FormClass.POSITIVE_DEFINITE
        elif eig.min() < -tol:
            want = FormClass.INDEFINITE
        else:
            want = FormClass.POSITIVE_SEMIDEFINITE_SINGULAR
        assert got is want, (entries, eig)


def test_det_poly_examples():
    q = det_poly([[2, 3], [3, 5], [5, 9]])
    assert q.coeffs == (F(2), F(-3), F(1))
    assert det_poly([[1], [1]]).coeffs == (F(-1), F(1))
    assert det_poly([[5], [9]]).coeffs == (F(-9), F(5))


def test_det_poly_shape_error():
    with pytest.raises(ShapeError):
        det_poly([[1, 2], [3]])


def test_det_poly_vanishes_at_atoms(rng):
    # the bordered determinant annihilates every atom of the generating measure
    for _ in range(200):
        mu = random_rational_measure(rng, rng.randint(1, 3))
        k = mu.support_size
        window = [mu.moment(i) for i in range(2 * k)]
        rows = [[window[i + j] for j in range(k)] for i in range(k + 1)]
        q = det_poly(rows)
        for pos, _ in mu.atoms:
            assert q(pos) == 0


def test_real_roots_examples():
    assert real_roots(Polynomial([2, -3, 1]), F(1, 2), 4) == [1, 2]
    assert real_roots(Polynomial([-1, 1]), 0, 2) == [1]
    assert real_roots(Polynomial([-9, 5]), 1, 2) == [F(9, 5)]


def test_real_roots_irrational_enclosure():
    (r,) = real_roots(Polynomial([-2, 0, 1]), 0, 2)
    assert abs(float(r) - 2 ** 0.5) < 1e-11


def test_real_roots_repeated_root_rejected():
    with pytest.raises(DegenerateInput):
        real_roots(Polynomial([1, -2, 1]), 0, 2)  # (t-1)^2


@pytest.mark.parametrize("poly, lo, hi", [
    (Polynomial([1, -2, 1]), 0, 1),              # (t-1)^2: linear once 1 is deflated
    (Polynomial([0, 1, -2, 1]), 0, 1),           # t (t-1)^2
    (Polynomial([F(1, 4), -1, 1]), F(1, 2), 2),  # (t-1/2)^2 at the lower end
    (Polynomial([1, -2, 1]), 1, 1),              # a point interval
])
def test_repeated_root_at_an_end_is_rejected(poly, lo, hi):
    # a root left at an end after the deflation there is repeated, also
    # when what is left is linear
    with pytest.raises(DegenerateInput):
        real_roots(poly, lo, hi)


def test_real_roots_count_for_principal_polynomials(rng):
    # strictly positive windows make the bordered polynomial split with
    # exactly deg simple roots
    from momentkit.principal import bordered_hankel_poly, root_bound
    for _ in range(60):
        mu = random_rational_measure(rng, rng.randint(1, 4))
        k = mu.support_size
        window = [mu.moment(i) for i in range(2 * k)]
        q = bordered_hankel_poly(window)
        roots = real_roots(q, 0, root_bound(q))
        assert len(roots) == q.degree == k


def test_real_roots_endpoints():
    roots = real_roots(Polynomial([2, -3, 1]), 1, 2)  # both endpoints are roots
    assert roots == [1, 2]


def test_real_roots_linear_remainder_is_exact():
    # the root of a linear polynomial, or of what endpoint deflation leaves
    # linear, is settled exactly even when den^2 * width >= 1
    assert real_roots(Polynomial([-1, 2 ** 22]), F(1, 2 ** 23), F(1, 2 ** 21)) == [F(1, 2 ** 22)]
    assert real_roots(Polynomial([-7, 2 ** 33]), F(7, 2 ** 34), F(9, 4)) == [F(7, 2 ** 33)]
    at_one = Polynomial([-7, 2 ** 33]).mul_linear(-1, 1)
    assert real_roots(at_one, F(7, 2 ** 34), 1) == [F(7, 2 ** 33), 1]
    assert real_roots(Polynomial([-1, 3]), F(1, 2), 1) == []


def test_simplest_between():
    assert simplest_between(F(199, 100), F(201, 100)) == 2
    assert simplest_between(F(49, 100), F(52, 100)) == F(1, 2)
    assert simplest_between(F(1, 3), F(1, 3)) == F(1, 3)
    assert simplest_between(F(-3, 2), F(5, 2)) == 0


def test_det_and_solve(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        exact = det(rows)
        approx = np.linalg.det(np.array([[float(x) for x in r] for r in rows]))
        assert abs(float(exact) - approx) < 1e-6 * max(1.0, abs(approx))


def test_vandermonde_masses():
    masses = vandermonde_masses([F(1), F(2)], [F(2), F(3)])
    assert masses == [F(1), F(1)]


def test_exact_values_past_the_int_digit_limit_print_in_full():
    # Python 3.11+ refuses the str of an int of more than 4300 digits; an
    # exact value prints all its digits all the same, read back here in
    # chunks short enough for int()
    num = 7 ** 6000

    def read(digits):
        return sum(int(digits[max(0, k - 1000):k]) * 10 ** (len(digits) - k)
                   for k in range(len(digits), 0, -1000))
    text = format_scalar(F(num, 3))
    assert text == format_ratio(2 * num, 6) and text.endswith("/3")
    assert read(text[:-2]) == num and format_scalar(F(num)) == text[:-2]


def test_parse_format_scalar():
    assert parse_scalar("3/2") == F(3, 2)
    assert parse_scalar("0.1") == F(1, 10)
    assert isinstance(parse_scalar("0.1", exact=False), float)
    assert format_scalar(F(3, 2)) == "3/2"
    assert format_scalar(F(4, 2)) == "2"


def _parse_scalar_by_two_fractions(text, exact=True):
    """`parse_scalar` as it read every "p/q" before integer pairs got their
    own path: the reference for the property below."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        value = F(num.strip()) / F(den.strip())
        return value if exact else float(value)
    return F(text) if exact else float(text)


def _outcome(parse, text, exact):
    try:
        value = parse(text, exact)
    except Exception as exc:  # the CLI reports type and message as an input error
        return type(exc), str(exc)
    return type(value), repr(value)  # repr: nan equals itself, -0.0 is not 0.0


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
_DIGITS = st.from_regex(r"\A[0-9]{1,3}(_?[0-9]{1,3}){0,2}\Z")
_PART = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.tuples(st.sampled_from(["", "+", "-", "- "]), _DIGITS).map("".join),
    st.tuples(_DIGITS, st.sampled_from([".", ".5", "e3", "E-2", "._1", "_"])).map("".join),
    st.sampled_from(["0", "-0", "+0", "00", "1.5", ".5", "5.", "1e400", "inf", "nan",
                     "0x10", "1/2", "", " ", "abc", "1 2", "١٢"]),
    st.text(alphabet="0123456789+-_. e/", max_size=6),
)


@example("1/0")
@example("-3/0")
@example("6/0")
@example("0/0")
@example(" -1_000 / 7 ")
@example("1/2/3")
@example("1.5/3")
@example(" nan ")
@example("-0/5")
@given(st.one_of(
    st.tuples(_SPACE, _PART, _SPACE, _PART, _SPACE).map(lambda t: f"{t[0]}{t[1]}/{t[3]}{t[4]}"),
    st.tuples(_SPACE, _PART, _SPACE).map("".join),
))
def test_parse_scalar_matches_the_two_fraction_parse(text):
    # integer pairs take one Fraction(p, q); every string gives the value
    # (and type) the two-Fraction parse gives, or its exception type and
    # message, exact and float
    for exact in (True, False):
        assert _outcome(parse_scalar, text, exact) == \
            _outcome(_parse_scalar_by_two_fractions, text, exact), (text, exact)


def test_float_forms_get_float_witnesses():
    # float input runs on its binary-exact image, its zero test relative to
    # eps * max(1, |entry|)
    assert classify_form((2.0, 1.0, 2.0)) is FormClass.POSITIVE_DEFINITE
    assert classify_form((1.0, 2.0, 4.0 + 1e-12)) is FormClass.POSITIVE_SEMIDEFINITE_SINGULAR
    assert classify_form((1.0, 2.0, 1.0)) is FormClass.INDEFINITE


def test_float_zero_test_reads_relative_to_scales():
    # entries that cancelled to rounding noise of terms of size 1e6: against
    # themselves they read indefinite, against the terms they read zero
    noise = (1e-8, 0.0, -1e-8)
    assert classify_form(noise) is FormClass.INDEFINITE
    assert classify_form(noise, scales=(1e6,) * 3) is FormClass.POSITIVE_SEMIDEFINITE_SINGULAR
    assert classify_form((1, 0, -1), scales=(1e6,) * 3) is FormClass.INDEFINITE  # exact


def test_float_kernel_results_are_floats():
    rows = [[2.0, 1.0], [1.0, 3.0]]
    assert det(rows) == 5.0 and isinstance(det(rows), float)
    assert det([[1e200, 0.0], [0.0, -1e200]]) == -math.inf  # saturates like floats
    q = det_poly([[2.0, 3.0], [3.0, 5.0], [5.0, 9.0]])
    assert q.coeffs == (2.0, -3.0, 1.0) and all(isinstance(c, float) for c in q.coeffs)
    # a root the rounding moves just past an end still counts, clamped
    (r,) = real_roots(Polynomial([-(1.0 + 1e-12), 1.0]), 0.0, 1.0)
    assert r == 1.0
    roots = real_roots(Polynomial([-2.0, 0.0, 1.0]), -2.0, 2.0)
    assert roots == [-2 ** 0.5, 2 ** 0.5]
