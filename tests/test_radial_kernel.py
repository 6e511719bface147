"""The radial layer's identities on int weights, against the forms they
replaced, and the work they take.

`omega`, `apply_Rq_univariate`, `difference_triple`,
`check_difference_equation`, `check_fg_recurrence`,
`three_term_coefficients`, `g_poly_symmetric` and `gauss_contiguous_check`
write q = a/b (or c and x) as ints once per call and sum their rows
through `scalars._shifted_sum`.  The oracles below are the compositional
forms they had before: Fraction weights, UniPoly and GaussRational
operations and `compose_shift`.  Each function is compared with its oracle
on the (d, q) grid, with q = 5/2 (so 1 - q < 0) and q = -2/3 besides, on
true inputs and on perturbed ones, so that a check that always passes
shows.  The work counts pin what the kernel saves: growing omega calls into
`fractions` a number of times that does not grow with k, every level
builds one UniPoly, and a warm route, keyed on q's ints, neither hashes
nor builds a Fraction.
"""

import fractions
import random
import sys
from fractions import Fraction

import pytest

import weylharm.radial as radial
import weylharm.specfun as specfun
from weylharm.radial import (
    RadialContext,
    apply_Rq_univariate,
    check_difference_equation,
    check_fg_recurrence,
    difference_triple,
    eta,
    g_poly_symmetric,
    nonorthogonality_certificate,
    omega,
    omega_by_raising,
    three_term_coefficients,
)
from weylharm.scalars import GR_I, GaussRational, UniPoly, _up
from weylharm.specfun import gauss_contiguous_check, hyp2F1_terminating_poly
from weylharm.verify import Q_GRID
from weylharm.weyl import clear_caches

from shift_oracle import backward_difference, compose_shift, forward_difference

T = UniPoly.x()
QS = Q_GRID + (Fraction(2, 7), Fraction(5, 2), Fraction(-2, 3))
CONTEXTS = [RadialContext(d, q) for d in (1, 2, 3) for q in QS]


def ctx_id(ctx):
    return f"d{ctx.d}-q{ctx.q}"


# ---------------------------------------------------------------------------
# The oracles: the compositional forms
# ---------------------------------------------------------------------------


def raising_oracle(ctx, p):
    q = ctx.q
    qc = 1 - q
    out = (T * 2 + ctx.d) * p * (q * qc)
    out = out + (T + ctx.d) * compose_shift(p, 1) * (qc * qc)
    return out + T * compose_shift(p, -1) * (q * q)


def triple_oracle(ctx, p):
    q = ctx.q
    qc = 1 - q
    fwd = forward_difference(p)
    bwd = backward_difference(p)
    td = T + ctx.d
    raising = td * fwd * (qc * qc) - T * bwd * (q * q) + (T + ctx.t0) * p
    lowering = td * fwd - T * bwd
    grading = td * fwd * (2 * qc) + T * bwd * (2 * q) + p * ctx.d
    return raising, lowering, grading


def difference_equation_oracle(ctx, w, k):
    lhs = (T * backward_difference(w) * ctx.q
           + (T + ctx.d) * forward_difference(w) * (1 - ctx.q))
    return lhs == w * k


def fg_oracle(ctx, ws, k_max):
    asq = ctx.alpha_squared
    for k in range(k_max + 1):
        coeff = Fraction(asq, k + 1)
        lhs = (ws[k + 2] * (-coeff) + ws[k] * (k + ctx.d)
               + (T + ctx.t0 - (2 * ctx.q - 1) * (k + 1)) * ws[k + 1] * coeff)
        if not lhs.is_zero():
            return False
    return True


def three_term_oracle(ctx, k):
    """The generic extraction of (A_k, B_k, C_k) off the raising levels,
    on UniPoly and GaussRational operations."""
    w_prev = omega_by_raising(ctx, k - 1)
    w_k = omega_by_raising(ctx, k)
    w_next = omega_by_raising(ctx, k + 1)
    a = w_next.leading_coefficient() / w_k.leading_coefficient()
    r = w_next - T * w_k * a
    b = r[k] / w_k[k]
    s = r - w_k * b
    c = -(s[k - 1] / w_prev[k - 1]) if not s.is_zero() else GaussRational(0)
    if s + w_prev * c != UniPoly():
        raise AssertionError("omega_k do not satisfy a three-term recurrence")
    return a, b, c


def certificate_oracle(ctx, k):
    a_k, _, c_k = three_term_oracle(ctx, k)
    a_prev = (omega_by_raising(ctx, k).leading_coefficient()
              / omega_by_raising(ctx, k - 1).leading_coefficient())
    return a_prev * a_k * c_k


def g_oracle(d, k_max):
    """g_0 .. g_{k_max} by (t g_{n+1} - (n+d) g_n)/(n+2) on UniPolys."""
    gs = [UniPoly((1,)), T]
    for n in range(k_max - 1):
        gs.append((T * gs[n + 1] - gs[n] * (n + d)) / Fraction(n + 2))
    return gs[:k_max + 1]


def first_relation(k, c, x, family):
    lhs = (T * (-x) + (-2 * k - c + k * x)) * family(k, c, x) + family(k + 1, c, x) * (c + k)
    if k >= 1:
        lhs = lhs + family(k - 1, c, x) * (-k * (x - 1))
    return lhs


def contiguous_oracle(k, c, x, family):
    f_k = family(k, c, x)
    lhs2 = ((T * (x - 2) - c - k * x) * f_k + (T + c) * compose_shift(f_k, 1)
            + T * (1 - x) * compose_shift(f_k, -1))
    return first_relation(k, c, x, family).is_zero() and lhs2.is_zero()


def parts(p):
    return p._re, p._im, p._den


def sample_polys(ctx):
    """omega levels, and real and complex polynomials over unequal
    denominators."""
    rng = random.Random(f"{ctx.d}/{ctx.q}")
    polys = [omega(ctx, k) for k in (0, 1, 4, 9)]
    for n in (1, 3, 6):
        polys.append(UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                              for _ in range(n)]))
        polys.append(UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                              + Fraction(rng.randint(-9, 9), rng.randint(1, 12)) * GR_I
                              for _ in range(n)]))
    return polys + [UniPoly()]


# ---------------------------------------------------------------------------
# The kernel forms against the oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ctx_id)
def test_raising_and_triple_match_oracles(ctx):
    for p in sample_polys(ctx):
        assert parts(apply_Rq_univariate(ctx, p)) == parts(raising_oracle(ctx, p))
        got, expected = difference_triple(ctx, p), triple_oracle(ctx, p)
        assert [parts(x) for x in got] == [parts(x) for x in expected]


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ctx_id)
def test_omega_matches_fraction_recurrence(ctx):
    d, q = ctx.d, ctx.q
    prev, w = UniPoly(), UniPoly((1,))
    for k in range(16):
        assert parts(omega(ctx, k)) == parts(w)
        prev, w = w, ((T + (1 - q) * d - (2 * q - 1) * k) * w
                      + prev * (q * (1 - q) * k * (k + d - 1)))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ctx_id)
def test_difference_equation_matches_oracle(ctx, monkeypatch):
    for k in range(9):
        assert check_difference_equation(ctx, k)
        assert difference_equation_oracle(ctx, omega(ctx, k), k)
    # t^(k+1) adds (k+1) t^(k+1) on the left and k t^(k+1) on the right
    true_omega = omega
    monkeypatch.setattr(radial, "omega", lambda c, k: true_omega(c, k) + T ** (k + 1))
    for k in range(9):
        w = radial.omega(ctx, k)
        assert not difference_equation_oracle(ctx, w, k)
        assert not check_difference_equation(ctx, k)


@pytest.mark.parametrize("ctx", [c for c in CONTEXTS if c.q not in (0, 1)], ids=ctx_id)
def test_fg_recurrence_matches_oracle(ctx, monkeypatch):
    k_max = 6
    ws = [omega_by_raising(ctx, k) for k in range(k_max + 3)]
    assert check_fg_recurrence(ctx, k_max)
    assert fg_oracle(ctx, ws, k_max)
    # every level enters some relation with a nonzero weight
    for j in range(k_max + 3):
        bad = list(ws)
        bad[j] = bad[j] + T
        monkeypatch.setattr(radial, "_raising_levels", lambda c, k: bad)
        assert not fg_oracle(ctx, bad, k_max)
        assert not check_fg_recurrence(ctx, k_max)


THREE_TERM_QS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
                 Fraction(5, 2), Fraction(-2, 3), Fraction(123456789, 987654321))


def gr_parts(z):
    return z.n, z.m, z.den


@pytest.mark.parametrize("ctx", [RadialContext(d, q) for d in (1, 2, 3, 5)
                                 for q in THREE_TERM_QS], ids=ctx_id)
def test_three_term_extraction_matches_oracle(ctx):
    for k in range(1, 21):
        got, expected = three_term_coefficients(ctx, k), three_term_oracle(ctx, k)
        assert [gr_parts(z) for z in got] == [gr_parts(z) for z in expected]
        cert = nonorthogonality_certificate(ctx, k)
        assert gr_parts(cert) == gr_parts(certificate_oracle(ctx, k))


def test_g_chain_matches_oracle():
    for d in range(1, 6):
        expected = g_oracle(d, 40)
        assert [parts(g_poly_symmetric(d, k)) for k in range(41)] == [parts(g) for g in expected]


# k >= 2 and q != 1, so omega_{k-1} has a term below t^(k-1), which no
# change of C_k can cancel
@pytest.mark.parametrize("ctx", [RadialContext(1, Fraction(1, 3)),
                                 RadialContext(3, Fraction(5, 2)),
                                 RadialContext(2, Fraction(-2, 3)),
                                 RadialContext(2, Fraction(0))], ids=ctx_id)
@pytest.mark.parametrize("k", (2, 3, 7))
def test_a_broken_level_makes_the_extraction_raise(ctx, k):
    try:
        three_term_coefficients(ctx, k)
        chain = radial._raising_levels(ctx, k + 1)
        chain[k + 1] = chain[k + 1] + T ** (k - 1)
        for fn in (three_term_coefficients, nonorthogonality_certificate, three_term_oracle):
            with pytest.raises(AssertionError, match="three-term recurrence"):
                fn(ctx, k)
    finally:
        clear_caches()


CONTIGUOUS = [(k, Fraction(c), Fraction(x)) for k in range(6)
              for c in (1, 3, Fraction(5, 2), Fraction(-7, 3))
              for x in (2, Fraction(1, 3), Fraction(-3, 4), Fraction(5, 2))]


@pytest.mark.parametrize("k, c, x", CONTIGUOUS)
def test_contiguous_relations_match_oracle(k, c, x, monkeypatch):
    assert gauss_contiguous_check(k, c, x)
    assert contiguous_oracle(k, c, x, hyp2F1_terminating_poly)

    def doubled_next(kk, cc, xx):
        # F_{k+1} doubled breaks the first relation only
        f = hyp2F1_terminating_poly(kk, cc, xx)
        return f * 2 if kk == k + 1 else f

    def shifted_level(kk, cc, xx):
        # F_k + 1, with F_{k+1} taken from the first relation so that it
        # holds: the second leaves -kx != 0
        if kk == k:
            return hyp2F1_terminating_poly(kk, cc, xx) + 1
        if kk == k + 1:
            return (UniPoly() - first_relation(k, cc, xx, with_zero_next)) / (cc + k)
        return hyp2F1_terminating_poly(kk, cc, xx)

    def with_zero_next(kk, cc, xx):
        return UniPoly() if kk == k + 1 else shifted_level(kk, cc, xx)

    perturbed = [doubled_next] + [shifted_level] * (k >= 1)
    for family in perturbed:
        monkeypatch.setattr(specfun, "hyp2F1_terminating_poly", family)
        assert not contiguous_oracle(k, c, x, family)
        assert not gauss_contiguous_check(k, c, x)
    if k >= 1:
        assert first_relation(k, c, x, shifted_level).is_zero()


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------


def count_calls(fn, *args):
    """(calls into the fractions module, UniPolys built) while fn(*args) runs."""
    counts = [0, 0]
    up = _up.__code__

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == fractions.__file__:
                counts[0] += 1
            elif code is up:
                counts[1] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return tuple(counts)


CTX_27 = RadialContext(3, Fraction(2, 7))


def test_growing_omega_takes_no_fraction_arithmetic_per_level():
    counts = {}
    for k in (5, 60):
        clear_caches()
        counts[k] = count_calls(omega, CTX_27, k)
    # the Fraction work is per call (reading q's two ints), and each of
    # the k new levels builds one UniPoly
    assert counts[5][0] == counts[60][0] <= 4
    assert (counts[5][1], counts[60][1]) == (5, 60)
    clear_caches()
    omega(CTX_27, 10)
    assert count_calls(omega, CTX_27, 11)[1] == 1


def test_growing_the_raising_chain_takes_no_fraction_arithmetic_per_level():
    counts = {}
    for k in (5, 40):
        clear_caches()
        counts[k] = count_calls(omega_by_raising, CTX_27, k)
    assert counts[5][0] == counts[40][0] <= 4
    assert (counts[5][1], counts[40][1]) == (5, 40)


@pytest.mark.parametrize("ctx", [CTX_27, RadialContext(2, Fraction(-2, 3))], ids=ctx_id)
def test_univariate_maps_take_a_fixed_count_of_fraction_calls(ctx):
    low, high = omega(ctx, 3), omega(ctx, 40)
    for fn, builds in ((apply_Rq_univariate, 1), (difference_triple, 3)):
        assert count_calls(fn, ctx, low) == count_calls(fn, ctx, high)
        assert count_calls(fn, ctx, high)[1] == builds
    # the checks build one UniPoly per identity
    fraction_calls, builds = count_calls(check_difference_equation, ctx, 40)
    assert (fraction_calls, builds) == count_calls(check_difference_equation, ctx, 3)
    assert builds == 1
    omega_by_raising(ctx, 22)
    assert count_calls(check_fg_recurrence, ctx, 20) == (
        count_calls(check_fg_recurrence, ctx, 4)[0], 21)


def test_warm_routes_and_the_g_chain_hash_and_build_no_fraction():
    # the chains are keyed on (d, a, b) for q = a/b, so a warm lookup never
    # hashes q, and a g step divides by k + 2 inside the kernel
    ctx = CTX_27
    calls = [(omega, 12), (omega_by_raising, 12), (eta, 3),
             (check_difference_equation, 12), (nonorthogonality_certificate, 11)]
    watched = {Fraction.__hash__.__code__, Fraction.__new__.__code__}
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            entered.append((frame.f_code.co_name, frame.f_back.f_code.co_name))

    clear_caches()
    g_poly_symmetric(1, 1)  # the memo's seed, before the steps
    for fn, k in calls:
        fn(ctx, k)
    sys.setprofile(profile)
    try:
        for fn, k in calls:
            fn(ctx, k)
        g_poly_symmetric(1, 30)
    finally:
        sys.setprofile(None)
    assert entered == []
