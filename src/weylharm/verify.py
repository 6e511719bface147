"""Reproducible verification suites behind the `verify` CLI verb.

Each suite samples deterministically from a recorded 64-bit seed and
returns a plain report dict::

    {"suite": ..., "params": {...}, "seed": ..., "cases": [
        {"id": ..., "status": "PASS" | "FAIL", "detail": ...}, ...]}

Reports are built in a fixed order so identical invocations serialize to
byte-identical JSON.

The transported triple is the classical one conjugated by the ordering
map, so part of `suite_sl2` and `suite_intertwine` does not depend on q,
and calls that differ only in q share it:

- `_sl2_samples` holds the w of each of sl2's seeded (p, w) draws and
  its three `poly:` verdicts on the p;
- `_intertwine_samples` holds intertwine's seeded homogeneous samples and
  their images under R, L and E.

Each is a `weyl._memo` keyed by ``(d, deg, count, seed)`` and bounded to
one entry, so `suite_all`'s loop (d outside, q inside) computes each once
per d, and memory stays that of one suite call.  The values are
tuples of immutable term maps.  Within one call, `suite_harmonics` orders
each basis element once per distinct q of `HARMONIC_Q_PAIRS`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, isfinite

from . import linalg
from .ordering import OrderingContext, cal_E, cal_L, cal_R, order_q
from .poly import (
    CMonomial,
    CPolynomial,
    harmonic_decompose,
    harmonic_dim,
    is_harmonic,
    op_E,
    op_L,
    op_R,
)
from .radial import (
    RadialContext,
    check_difference_equation,
    check_fg_recurrence,
    decompose_weyl,
    difference_triple,
    eta,
    express_in_N,
    g_poly_symmetric,
    nonorthogonality_certificate,
    omega,
    omega_by_raising,
    omega_closed_form,
    omega_table,
    reassemble_weyl,
)
from .scalars import GaussRational, _gr
from .specfun import (
    continuous_hahn_poly,
    gauss_contiguous_check,
    hyp2f1_3f2_connection_check,
    krawtchouk_meixner_check,
    meixner_pollaczek_poly,
    pochhammer,
)
from .weyl import TermMap, WeylElement, _memo, check_modes, compositions

Q_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
# the ordering-parameter pairs whose harmonics the harmonics suite compares
HARMONIC_Q_PAIRS = (
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(1, 3)),
)
# the largest k_max whose orthogonality suite passes for d = 1..3 in about
# 10 s cold (d = 1, the slowest, took 9.7 s on a 2-core x86-64 machine)
ORTHOGONALITY_KMAX = 90
# the largest k_max and d_max of hahn: at both, cold, it took 6.7 s on a
# 2-core x86-64 machine (k_max = 150 took 11 s at d_max = 3)
HAHN_KMAX = 100
HAHN_DMAX = 10
# the largest genfun order: cold, order 170 took at most 0.8 s for
# q in {1/2, 1/4, 1/3, 1/10, 1/100} and d in {1, 10, 100, 1000}, while at
# q = 1/2 order 400 took 2.5 s and order 1000 55 s (2-core x86-64 machine);
# k! up to 170 is also a finite float, which the general-q case divides by
GENFUN_ORDER_MAX = 170


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------


def random_gauss(rng: random.Random, span: int = 3) -> GaussRational:
    """a/b + (c/e) i from four draws in that order, built as one value."""
    a, b = rng.randint(-span, span), rng.randint(1, 3)
    c, e = rng.randint(-span, span), rng.randint(1, 3)
    return _gr(a * e, c * b, b * e)


def _random_exponents(rng: random.Random, d: int, total: int) -> tuple:
    cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def random_element(rng: random.Random, d: int, degree: int, n_terms: int = 4, *,
                   cls: type, homogeneous: bool = False) -> TermMap:
    """n_terms random terms of a ``cls`` over d modes, each of degree
    ``degree`` if homogeneous and of degree at most ``degree`` otherwise.

    A term draws, in this order: its degree (unless homogeneous), how much
    of it goes to the first exponent vector, the two vectors in
    ``cls._mono`` field order, then its coefficient by `random_gauss`.
    Every seeded report depends on that order.
    """
    terms = {}
    for _ in range(n_terms):
        deg = degree if homogeneous else rng.randint(0, degree)
        split = rng.randint(0, deg)
        first = _random_exponents(rng, d, split)
        second = _random_exponents(rng, d, deg - split)
        terms[cls._mono(first, second)] = random_gauss(rng)
    return cls(d, terms)


def random_weyl(rng: random.Random, d: int, max_degree: int, n_terms: int = 4) -> WeylElement:
    return random_element(rng, d, max_degree, n_terms, cls=WeylElement)


def random_cpoly(rng: random.Random, d: int, max_degree: int, n_terms: int = 4) -> CPolynomial:
    return random_element(rng, d, max_degree, n_terms, cls=CPolynomial)


def random_homogeneous_cpoly(rng: random.Random, d: int, degree: int,
                             n_terms: int = 4) -> CPolynomial:
    return random_element(rng, d, degree, n_terms, cls=CPolynomial, homogeneous=True)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _case(case_id: str, passed: bool, detail: str = "") -> dict:
    return {"id": case_id, "status": "PASS" if passed else "FAIL", "detail": detail}


def _report(suite: str, params: dict, seed: int, cases: list) -> dict:
    return {"suite": suite, "params": params, "seed": seed, "cases": cases}


def report_failed(report: dict) -> bool:
    return any(c["status"] != "PASS" for c in report["cases"])


def _check_sizes(**sizes: int) -> None:
    # a negative size would empty every loop and pass vacuously
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0")


def _check_tol(tol: float) -> None:
    # a negative or nan tolerance fails every case, an infinite one passes them all
    if not (tol > 0 and isfinite(tol)):
        raise ValueError(f"tol must be a positive finite float, not {tol}")


# ---------------------------------------------------------------------------
# q-independent work, shared by consecutive suite calls
# ---------------------------------------------------------------------------


@_memo(1)
def _sl2_samples(d: int, deg: int, count: int, seed: int) -> tuple:
    """suite_sl2's Weyl samples, and its verdicts on the three relations
    over its polynomial samples.  Each round draws p, then w; neither the
    draws nor R, L and E depend on q."""
    rng = random.Random(seed)
    ok = [True, True, True]
    samples = []
    for _ in range(count):
        p = random_cpoly(rng, d, deg)
        r, low, e = op_R(p), op_L(p), op_E(p)
        ok[0] &= (op_R(low) - op_L(r)) == -e
        ok[1] &= (op_E(r) - op_R(e)) == 2 * r
        ok[2] &= (op_E(low) - op_L(e)) == -2 * low
        samples.append(random_weyl(rng, d, deg))
    return tuple(samples), tuple(ok)


@_memo(1)
def _intertwine_samples(d: int, deg: int, count: int, seed: int) -> tuple:
    """suite_intertwine's homogeneous samples, each with its images under
    R, L and E, as (p, R p, L p, E p)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(0, deg)
        p = random_homogeneous_cpoly(rng, d, degree)
        out.append((p, op_R(p), op_L(p), op_E(p)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_sl2(d: int, q: Fraction, deg: int = 4, count: int = 20, seed: int = 0) -> dict:
    """Commutation relations of the triple, on both algebras."""
    _check_sizes(deg=deg, count=count)
    ctx = OrderingContext(d, q)
    samples, ok_p = _sl2_samples(d, deg, count, seed)
    ok_w = [True, True, True]
    for w in samples:
        r, low, e = cal_R(ctx, w), cal_L(ctx, w), cal_E(ctx, w)
        ok_w[0] &= (cal_R(ctx, low) - cal_L(ctx, r)) == -e
        ok_w[1] &= (cal_E(ctx, r) - cal_R(ctx, e)) == r.scale(2)
        ok_w[2] &= (cal_E(ctx, low) - cal_L(ctx, e)) == low.scale(-2)
    detail = f"{count} random elements, degree <= {deg}"
    names = ("[raise,lower]=-grade", "[grade,raise]=2raise", "[grade,lower]=-2lower")
    cases = [
        _case(f"poly:{name}", ok, detail) for name, ok in zip(names, ok_p)
    ] + [
        _case(f"weyl:{name}", ok, detail) for name, ok in zip(names, ok_w)
    ]
    return _report("sl2", {"d": d, "q": str(q), "deg": deg, "count": count}, seed, cases)


def suite_intertwine(
    d: int, q: Fraction, deg: int = 4, count: int = 20, seed: int = 0
) -> dict:
    """Ordering map commutes with the triple on homogeneous inputs."""
    _check_sizes(deg=deg, count=count)
    ctx = OrderingContext(d, q)
    ok = [True, True, True]
    for p, rp, lp, ep in _intertwine_samples(d, deg, count, seed):
        w = order_q(ctx, p)
        ok[0] &= order_q(ctx, rp) == cal_R(ctx, w)
        ok[1] &= order_q(ctx, lp) == cal_L(ctx, w)
        ok[2] &= order_q(ctx, ep) == cal_E(ctx, w)
    detail = f"{count} random homogeneous elements, degree <= {deg}"
    cases = [
        _case("order∘R = R∘order", ok[0], detail),
        _case("order∘L = L∘order", ok[1], detail),
        _case("order∘E = E∘order", ok[2], detail),
    ]
    return _report(
        "intertwine", {"d": d, "q": str(q), "deg": deg, "count": count}, seed, cases
    )


def suite_radial(d: int, q: Fraction, k_max: int = 8, seed: int = 0) -> dict:
    """The radial tower: all computation routes and their certificates,
    with the table of omega_0..omega_{k_max} (so k_max <= OMEGA_KMAX)."""
    _check_sizes(k_max=k_max)
    table = omega_table(d, q, k_max)  # first, so a k_max it refuses costs nothing
    ctx = RadialContext(d, q)
    weyl_k = min(k_max, 6)
    ok_triple = all(
        express_in_N(eta(ctx, k)) == omega(ctx, k) == omega_closed_form(ctx, k)
        for k in range(weyl_k + 1)
    )
    ok_raising = all(
        omega_by_raising(ctx, k) == omega(ctx, k) for k in range(k_max + 1)
    )
    ok_dif = all(check_difference_equation(ctx, k) for k in range(k_max + 1))
    ok_weight = True
    for k in range(1, k_max + 1):
        wk = omega(ctx, k)
        r, low, e = difference_triple(ctx, wk)
        ok_weight &= r == omega(ctx, k + 1)
        ok_weight &= low == omega(ctx, k - 1) * (k * (k + d - 1))
        ok_weight &= e == wk * (2 * k + d)
    if q in (0, 1):
        fg_case = _case("renormalized recurrence (pulled back)", True,
                        "skipped: scale undefined at q in {0,1}")
    else:
        fg_case = _case(
            "renormalized recurrence (pulled back)",
            check_fg_recurrence(ctx, k_max),
            f"k <= {k_max}",
        )
    # -q(1-q)k(k+d-1) is <= 0 for q in [0, 1] and > 0 outside it
    q_in_unit = 0 <= q <= 1
    ok_cert = True
    for k in range(1, k_max + 1):
        cert = nonorthogonality_certificate(ctx, k)
        expected = GaussRational(-q * (1 - q) * k * (k + d - 1))
        ok_cert &= cert == expected and (cert.re <= 0) == q_in_unit
    cases = [
        _case("eta -> polynomial-of-N == recurrence == closed form", ok_triple,
              f"full Weyl route, k <= {weyl_k}"),
        _case("raising-operator route == recurrence", ok_raising, f"k <= {k_max}"),
        _case("difference equation", ok_dif, f"k <= {k_max}"),
        _case("weight-basis relations (univariate)", ok_weight, f"k <= {k_max}"),
        fg_case,
        _case("non-orthogonality certificate", ok_cert,
              "equals -q(1-q)k(k+d-1) and "
              + ("<= 0" if q_in_unit else "> 0 for q outside [0, 1]")),
    ]
    report = _report(
        "radial", {"d": d, "q": str(q), "kmax": k_max}, seed, cases
    )
    report["table"] = table
    return report


def harmonic_basis(d: int, k: int) -> list:
    """Exact basis of the degree-k harmonic polynomials in z, zbar, in
    closed form: the harmonic parts of the degree-k monomials that z1*zbar1
    does not divide.

    P_k = H_k + r^2 P_(k-2) is direct (Axler-Bourdon-Ramey, Harmonic
    Function Theory, ch. 5), and those monomials are the standard monomials
    of the ideal (r^2) under an order in which z1*zbar1 leads r^2, so they
    span a complement of r^2 P_(k-2) and their harmonic parts span H_k.
    """
    return [harmonic_decompose(CPolynomial.monomial(d, *mono))[0]
            for mono in _homogeneous_monomials(d, k)
            if not (mono.alpha[0] and mono.beta[0])]


def _homogeneous_monomials(d: int, k: int) -> list:
    """All (alpha, beta) exponent pairs with |alpha| + |beta| = k."""
    return [CMonomial(e[:d], e[d:]) for e in compositions(k, 2 * d)]


def suite_harmonics(
    d: int, k_max: int = 4, count: int = 10, deg: int = 5, seed: int = 0
) -> dict:
    """q-independence of Weyl harmonics, dimensions, and the tensor
    decomposition round-trip."""
    check_modes(d)
    _check_sizes(k_max=k_max, count=count, deg=deg)
    rng = random.Random(seed)
    cases = []

    bases = [harmonic_basis(d, k) for k in range(k_max + 1)]
    ok_dim = True
    detail_dims = []
    for k, basis in enumerate(bases):
        # the rank shows the basis independent; its length alone would
        # pass by counting monomials
        rank = linalg.rank([dict(h.terms) for h in basis])
        detail_dims.append(f"k={k}:{rank}")
        ok_dim &= len(basis) == rank == harmonic_dim(2 * d, k)
        ok_dim &= all(is_harmonic(h) for h in basis)
    cases.append(_case("harmonic basis rank matches dimension formula", ok_dim,
                       ",".join(detail_dims)))

    # order_q is exp((1-q)L) in normal coordinates, so it fixes each
    # harmonic: element by element, not only span by span.  Each basis
    # element is ordered once per distinct q, and both cases read the images
    images = {
        q: [[order_q(OrderingContext(d, q), h) for h in basis] for basis in bases]
        for q in dict.fromkeys(q for pair in HARMONIC_Q_PAIRS for q in pair)
    }
    ok_fixed = all(images[q1] == images[q2] for q1, q2 in HARMONIC_Q_PAIRS)
    cases.append(
        _case(
            "Weyl harmonics independent of ordering parameter",
            ok_fixed,
            f"{len(HARMONIC_Q_PAIRS)} parameter pairs, k <= {k_max}",
        )
    )

    ok_member = True  # each distinct first q once; the pairs repeat q = 0
    for q1 in dict.fromkeys(q1 for q1, _ in HARMONIC_Q_PAIRS):
        for ordered in images[q1]:
            for w in ordered[:3]:
                ok_member &= is_harmonic(w)
    cases.append(_case("ordered harmonics pass the kernel membership test", ok_member, ""))

    ok_round = True
    for _ in range(count):
        q = Q_GRID[rng.randrange(len(Q_GRID))]
        ctx = RadialContext(d, q)
        w = random_weyl(rng, d, deg)
        parts = decompose_weyl(ctx, w)
        ok_round &= all(is_harmonic(h) for _, h in parts)
        ok_round &= reassemble_weyl(ctx, parts) == w
    cases.append(
        _case(
            "radial-times-harmonic decomposition round-trip",
            ok_round,
            f"{count} random elements, degree <= {deg}",
        )
    )
    return _report(
        "harmonics",
        {"d": d, "kmax": k_max, "count": count, "deg": deg,
         "q_pairs": [[str(a), str(b)] for a, b in HARMONIC_Q_PAIRS]},
        seed,
        cases,
    )


def suite_hahn(k_max: int = 8, d_max: int = 4, seed: int = 0) -> dict:
    """Identification of the symmetric radial family with the named
    hypergeometric families, plus the series-level identities."""
    _check_sizes(k_max=k_max)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if k_max > HAHN_KMAX:
        raise ValueError(f"k_max must be <= {HAHN_KMAX} for hahn "
                         "(its time grows about as k_max^3)")
    if d_max > HAHN_DMAX:
        raise ValueError(f"d_max must be <= {HAHN_DMAX} for hahn")
    ok_hahn = True
    ok_mp = True
    for d in range(1, d_max + 1):
        for k in range(k_max + 1):
            g = g_poly_symmetric(d, k)
            a = Fraction(d, 4)
            b = a + Fraction(1, 2)
            ch = continuous_hahn_poly(k, a, b, a, b).compose_linear(Fraction(1, 4), 0)
            factor = pochhammer(Fraction(d), k) / (
                pochhammer(Fraction(d, 2), k)
                * pochhammer(Fraction(d, 2) + Fraction(1, 2), k)
            )
            ok_hahn &= ch * factor == g
            mp = meixner_pollaczek_poly(k, Fraction(d, 2)).compose_linear(
                Fraction(1, 2), 0
            )
            fall = pochhammer(Fraction(d), k) / factorial(k)
            ok_mp &= mp * fall == g
    ok_conn = all(
        hyp2f1_3f2_connection_check(n, Fraction(d, 2))
        for n in range(k_max + 1)
        for d in range(1, d_max + 1)
    )
    ok_contig = all(
        gauss_contiguous_check(k, Fraction(c), Fraction(2))
        for k in range(k_max + 1)
        for c in range(1, d_max + 1)
    )
    ok_km = all(
        krawtchouk_meixner_check(k, q, d)
        for k in range(k_max + 1)
        for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for d in range(1, min(d_max, 3) + 1)
    )
    cases = [
        _case("continuous-Hahn identification", ok_hahn, f"k <= {k_max}, d <= {d_max}"),
        _case("Meixner-Pollaczek identification", ok_mp, f"k <= {k_max}, d <= {d_max}"),
        _case("2F1 <-> 3F2 connection", ok_conn, f"n <= {k_max}"),
        _case("Gauss contiguous relations", ok_contig, ""),
        _case("Krawtchouk/Meixner parameterizations", ok_km, ""),
    ]
    return _report("hahn", {"kmax": k_max, "dmax": d_max}, seed, cases)


def suite_orthogonality(d: int, k_max: int = 8, tol: float = 1e-8, seed: int = 0) -> dict:
    """Gram matrix of g_0..g_k_max under the gamma weight, for k_max up to
    ORTHOGONALITY_KMAX."""
    from .numerics import orthogonality_stable

    _check_sizes(k_max=k_max)
    _check_tol(tol)
    if k_max > ORTHOGONALITY_KMAX:
        raise ValueError(f"k_max must be <= {ORTHOGONALITY_KMAX} for orthogonality "
                         "(its time grows as k_max^3)")
    res = orthogonality_stable(d, k_max)
    worst = max((x for m, row in enumerate(res["normalized"])
                 for n, x in enumerate(row) if m != n), default=0.0)
    cases = [
        _case("normalized off-diagonals below tolerance", worst < tol,
              f"max {worst:.3e} vs tol {tol:.1e}"),
        _case("diagonal entries positive", res["diagonal_positive"], ""),
        _case("stable under panel doubling", res["stable"],
              f"drift {res['drift']:.3e}"),
    ]
    report = _report(
        "orthogonality", {"d": d, "kmax": k_max, "tol": tol}, seed, cases
    )
    report["diagonal"] = [row[m] for m, row in enumerate(res["gram"])]
    report["tail_bound"] = res["tail_bound"]
    return report


def suite_genfun(
    q: Fraction = Fraction(1, 2),
    d: int = 1,
    order: int = 10,
    tol: float = 1e-10,
    seed: int = 0,
) -> dict:
    """Taylor coefficients and ODE of the generating function of the
    renormalized radial family, for order up to GENFUN_ORDER_MAX."""
    if d < 1:
        raise ValueError("mode count d must be >= 1")
    _check_sizes(order=order)
    _check_tol(tol)
    try:
        cases = _genfun_cases(q, d, order, tol)
    except OverflowError:
        # an exact coefficient, a power of alpha or a value of the generating
        # function left the float range: the input, not a case, is at fault
        raise ValueError(f"d = {d}, q = {q}, order = {order}: the generating function "
                         "or its exact coefficients overflow a float") from None
    return _report(
        "genfun", {"q": str(q), "d": d, "order": order, "tol": tol}, seed, cases
    )


def _genfun_cases(q: Fraction, d: int, order: int, tol: float) -> list:
    from .numerics import (
        BRANCH_GUARD,
        genfun_ode_residual,
        genfun_singularity_radius,
        genfun_taylor_coefficients,
        unipoly_eval_float,
    )

    cases = []
    if q == Fraction(1, 2):
        _check_genfun_order(q, order)
        worst = 0.0
        for lam in (0.0, 1.0, 2.5):
            coeffs = genfun_taylor_coefficients(q, d, lam, order)
            for k in range(order + 1):
                exact = complex(unipoly_eval_float(g_poly_symmetric(d, k), lam))
                worst = max(worst, abs(coeffs[k] - exact))
        cases.append(
            _case("Taylor coefficients match symmetric family", worst < tol,
                  f"max err {worst:.3e}, order <= {order}")
        )
    else:
        ctx = RadialContext(d, q)
        alpha = float(ctx.alpha_squared) ** 0.5
        t0 = float(ctx.t0)
        _check_genfun_order(q, order)
        worst = 0.0
        for t in (0, 1, 2):
            lam = 1j * alpha * (t + t0)
            coeffs = genfun_taylor_coefficients(q, d, lam, order)
            for k in range(order + 1):
                exact = (
                    (1j * alpha) ** k
                    / factorial(k)
                    * complex(unipoly_eval_float(omega_by_raising(ctx, k), t))
                )
                worst = max(worst, abs(coeffs[k] - exact))
        cases.append(
            _case("coefficients match renormalized radial family on the "
                  "imaginary line", worst < max(tol, 1e-9),
                  f"max err {worst:.3e}, order <= {order}")
        )
    # the stencil reaches |s| = 0.1 + 2 step; inside a smaller branch-point
    # radius R, points and step are scaled by 5R, so the largest is R/2
    points, step = (0.05, 0.1, -0.08), 1e-3
    radius = genfun_singularity_radius(q)
    if 0.1 + 2 * step >= BRANCH_GUARD * radius:
        points, step = tuple(5 * radius * s for s in points), 5 * radius * step
    worst_res = 0.0
    for s in points:
        for lam in (0.3, 1.0):
            worst_res = max(worst_res, abs(genfun_ode_residual(q, d, lam, s, step)))
    cases.append(
        _case("first-order ODE residual", worst_res < 1e-8,
              f"max residual {worst_res:.3e}")
    )
    return cases


def _check_genfun_order(q: Fraction, order: int) -> None:
    from .numerics import genfun_extraction_radius

    # the 1/r^order rule first, so an order it refuses keeps its message
    genfun_extraction_radius(q, order)
    if order > GENFUN_ORDER_MAX:
        raise ValueError(f"order must be <= {GENFUN_ORDER_MAX} for genfun "
                         "(its time grows about as order^3)")


def suite_all(seed: int = 0, quick: bool = True) -> list:
    """The whole battery at desk scale; returns a list of reports."""
    reports = []
    deg = 3 if quick else 4
    count = 6 if quick else 20
    for d in (1, 2):
        for q in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
            reports.append(suite_sl2(d, q, deg=deg, count=count, seed=seed))
            reports.append(suite_intertwine(d, q, deg=deg, count=count, seed=seed))
            reports.append(suite_radial(d, q, k_max=6 if quick else 8, seed=seed))
    reports.append(suite_harmonics(1, k_max=3 if quick else 4,
                                   count=4 if quick else 10, seed=seed))
    reports.append(suite_harmonics(2, k_max=3 if quick else 4,
                                   count=4 if quick else 10, seed=seed))
    reports.append(suite_hahn(k_max=6 if quick else 8, d_max=3 if quick else 4,
                              seed=seed))
    for d in (1, 2, 3):
        reports.append(suite_orthogonality(d, k_max=6 if quick else 8, seed=seed))
    reports.append(suite_genfun(Fraction(1, 2), 1, order=8 if quick else 10,
                                seed=seed))
    reports.append(suite_genfun(Fraction(1, 4), 2, order=8, tol=1e-9, seed=seed))
    return reports
