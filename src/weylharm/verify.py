"""Reproducible verification suites behind the `verify` CLI verb.

Each suite samples deterministically from a recorded 64-bit seed and
returns a plain report dict::

    {"suite": ..., "params": {...}, "seed": ..., "cases": [
        {"id": ..., "status": "PASS" | "FAIL", "detail": ...}, ...]}

Reports are built in a fixed order so identical invocations serialize to
byte-identical JSON.

`suite_sl2` and `suite_intertwine` read each first-level image from the
public maps (`cal_R/L/E`, `op_R/L/E`, `order_q`) and test each identity
as one int-weighted sum that vanishes (`_vanishes`): the second-level
images, weighted as in `cal_R` and `cal_E` (unit weights for `op_R` and
`op_E`), and the closed form of an image add into one accumulator over
the lcm of the denominators, with no gcd and no term map built.

The transported triple is the classical one conjugated by the ordering
map, so `_sl2_samples` (the w of each seeded (p, w) draw of sl2, and its
three `poly:` verdicts) and `_intertwine_samples` (the seeded homogeneous
samples and their images under R, L and E) do not depend on q.  Each is
a `weyl._memo` keyed by ``(d, deg, count, seed)`` and bounded to one
entry, so `suite_all`'s loop (d outside, q inside) computes each once
per d, and memory stays that of one suite call; its values are tuples of
immutable term maps.  `suite_harmonics` orders each basis element once
per distinct q of `HARMONIC_Q_PAIRS`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, isfinite, lcm, prod
from operator import mul

from . import linalg
from .ordering import (OrderingContext, _closed_form_acc, _grading_weights, _q_ints,
                       _raising_weights, cal_E, cal_L, cal_R, order_q)
from .poly import (CMonomial, CPolynomial, _triple_acc, harmonic_decompose, harmonic_dim,
                   is_harmonic, op_E, op_L, op_R)
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
# the largest k_max of orthogonality: at it a cold call took 0.4 s at d = 1
# on a 2-core x86-64 machine (7 to 10 s with K x K Gram matrices)
ORTHOGONALITY_KMAX = 90
# the largest k_max and d_max of hahn: at both, cold, it took 6.7 to 7.7 s
# on a 2-core x86-64 machine (k_max = 150 took 11 s at d_max = 3)
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


def _vanishes(d: int, terms: dict, den: int, c: int, *images) -> bool:
    """Whether c * terms/den, for numerator pairs ``terms`` over den, plus
    the images (x, rn, en, ln, dr), each (rn R + en E + ln L)(x)/dr for a
    term map x over d modes, sum to zero, in one accumulator."""
    top = lcm(den, *(x._den * dr for x, *_, dr in images))
    f = c * (top // den)
    acc = {k: [n * f, m * f] for k, (n, m) in terms.items()}
    for x, rn, en, ln, dr in images:
        f = top // (x._den * dr)
        _triple_acc(d, x._terms, rn * f, en * f, ln * f, acc)
    return not any(n or m for n, m in acc.values())


def _sl2_relations(d: int, r, low, e, raising: tuple, grading: tuple) -> list:
    """[raise,lower] = -grade, [grade,raise] = 2 raise, [grade,lower] =
    -2 lower on an element with images r, low and e, for lower = L and the
    weights (rn, en, ln, dr) of ``raising`` and ``grading``."""
    rn, en, ln, dr = raising
    return [_vanishes(d, e._terms, e._den, 1, (low, *raising), (r, 0, 0, -1, 1)),
            _vanishes(d, r._terms, r._den, -2, (r, *grading), (e, -rn, -en, -ln, dr)),
            _vanishes(d, low._terms, low._den, 2, (low, *grading), (e, 0, 0, -1, 1))]


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
        holds = _sl2_relations(d, op_R(p), op_L(p), op_E(p), (1, 0, 0, 1), (0, 1, 0, 1))
        ok = [o & h for o, h in zip(ok, holds)]
        samples.append(random_weyl(rng, d, deg))
    return tuple(samples), tuple(ok)


@_memo(1)
def _intertwine_samples(d: int, deg: int, count: int, seed: int) -> tuple:
    """suite_intertwine's homogeneous samples p, as (p, R p, L p, E p)."""
    rng = random.Random(seed)
    ps = [random_homogeneous_cpoly(rng, d, rng.randint(0, deg)) for _ in range(count)]
    return tuple((p, op_R(p), op_L(p), op_E(p)) for p in ps)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_sl2(d: int, q: Fraction, deg: int = 4, count: int = 20, seed: int = 0) -> dict:
    """Commutation relations of the triple, on both algebras."""
    _check_sizes(deg=deg, count=count)
    ctx = OrderingContext(d, q)
    samples, ok_p = _sl2_samples(d, deg, count, seed)
    ok_w = [True, True, True]
    raising, grading = _raising_weights(ctx.q), _grading_weights(ctx.q)
    for w in samples:
        holds = _sl2_relations(d, cal_R(ctx, w), cal_L(ctx, w), cal_E(ctx, w), raising, grading)
        ok_w = [o & h for o, h in zip(ok_w, holds)]
    detail = f"{count} random elements, degree <= {deg}"
    names = ("[raise,lower]=-grade", "[grade,raise]=2raise", "[grade,lower]=-2lower")
    cases = [_case(f"{side}:{name}", ok, detail)
             for side, oks in (("poly", ok_p), ("weyl", ok_w)) for name, ok in zip(names, oks)]
    return _report("sl2", {"d": d, "q": str(q), "deg": deg, "count": count}, seed, cases)


def suite_intertwine(d: int, q: Fraction, deg: int = 4, count: int = 20, seed: int = 0) -> dict:
    """Ordering map commutes with the triple on homogeneous inputs."""
    _check_sizes(deg=deg, count=count)
    ctx = OrderingContext(d, q)
    _, b, c = _q_ints(ctx.q)
    weights = (_raising_weights(ctx.q), (0, 0, 1, 1), _grading_weights(ctx.q))
    ok = [True, True, True]
    for p, *images in _intertwine_samples(d, deg, count, seed):
        w = order_q(ctx, p)
        for i, (x, (rn, en, ln, dr)) in enumerate(zip(images, weights)):
            acc, s = _closed_form_acc(d, x._terms, c, b)
            ok[i] &= _vanishes(d, acc, x._den * s, 1, (w, -rn, -en, -ln, dr))
    detail = f"{count} random homogeneous elements, degree <= {deg}"
    cases = [_case(f"order∘{x} = {x}∘order", holds, detail) for x, holds in zip("RLE", ok)]
    return _report("intertwine", {"d": d, "q": str(q), "deg": deg, "count": count}, seed, cases)


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
        fg_case = _case("renormalized recurrence (pulled back)",
                        check_fg_recurrence(ctx, k_max), f"k <= {k_max}")
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
    report = _report("radial", {"d": d, "q": str(q), "kmax": k_max}, seed, cases)
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
    contexts = [OrderingContext(d, q)
                for q in dict.fromkeys(q for pair in HARMONIC_Q_PAIRS for q in pair)]
    images = {ctx.q: [[order_q(ctx, h) for h in basis] for basis in bases] for ctx in contexts}
    ok_fixed = all(images[q1] == images[q2] for q1, q2 in HARMONIC_Q_PAIRS)
    cases.append(_case("Weyl harmonics independent of ordering parameter", ok_fixed,
                       f"{len(HARMONIC_Q_PAIRS)} parameter pairs, k <= {k_max}"))

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
    cases.append(_case("radial-times-harmonic decomposition round-trip", ok_round,
                       f"{count} random elements, degree <= {deg}"))
    return _report("harmonics", {"d": d, "kmax": k_max, "count": count, "deg": deg,
                                 "q_pairs": [[str(a), str(b)] for a, b in HARMONIC_Q_PAIRS]},
                   seed, cases)


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


def _ladder_moments(d: int, n: int) -> list:
    """The int moments mu_0, mu_2, .., mu_2n of the gamma-ladder functional
    (see `suite_orthogonality`)."""
    row, mu = [prod(range(d, d + 2 * m)) for m in range(n + 1)], []
    while row:  # row[m] is T(j, m) for j = len(mu)
        mu.append(row[0])
        row = [b - (d + 2 * m) ** 2 * a for m, (a, b) in enumerate(zip(row, row[1:]))]
    return mu


def suite_orthogonality(d: int, k_max: int = 8, tol: float = 1e-8, seed: int = 0) -> dict:
    """Orthogonality of g_0..g_k_max under the gamma weight, for k_max up to
    ORTHOGONALITY_KMAX, with no Gram matrix.  Exact: the ladder
    P_m = prod_{j<m} ((d+2j)^2 + lam^2) has L[P_m] = (d)_{2m} L[1], so the
    moments mu_2j = L[lam^2j]/L[1] are the ints T(j, 0), with T(0, m) =
    (d)_{2m} and T(j+1, m) = T(j, m+1) - (d+2m)^2 T(j, m); by the recurrence
    of g_k (Favard), L[g_k] = 0 for 1 <= k <= 2 k_max makes the Gram
    diag((d)_n/n!) L[1].  Float: the weight has those moments
    (`numerics.ladder_moments`), on two rules that agree."""
    from .numerics import STABILITY_TOL, QuadratureSpec, ladder_moments

    _check_sizes(k_max=k_max)
    _check_tol(tol)
    if k_max > ORTHOGONALITY_KMAX:
        raise ValueError(f"k_max must be <= {ORTHOGONALITY_KMAX} for orthogonality "
                         "(its time grows about as k_max^2)")
    spec = QuadratureSpec.for_orthogonality(d, k_max)
    first, second = ladder_moments(d, k_max, spec), ladder_moments(d, k_max, spec.doubled())
    mu = _ladder_moments(d, k_max)
    ok_exact = all(sum(map(mul, g_poly_symmetric(d, k)._re[::2], mu)) == 0
                   for k in range(1, 2 * k_max + 1))
    worst = max(abs(b - 1.0) for b in second)
    drift = max(abs(a - b) for a, b in zip(first, second))
    cases = [
        _case("L[g_k] = 0 under the exact ladder moments", ok_exact, f"1 <= k <= {2 * k_max}, "
              f"so the Gram of g_0..g_{k_max} is diag((d)_n/n!) L[1]"),
        _case("weight has the ladder moments", worst < tol,
              f"max {worst:.3e} vs tol {tol:.1e}, m <= {k_max}"),
        _case("stable under panel doubling", drift < STABILITY_TOL, f"drift {drift:.3e}"),
    ]
    report = _report("orthogonality", {"d": d, "kmax": k_max, "tol": tol}, seed, cases)
    report["tail_bound"] = spec.doubled().tail_bound(d, 2 * k_max)
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

    # (lam, k -> the exact k-th Taylor coefficient at lam)
    if q == Fraction(1, 2):
        samples = [(lam, lambda k, lam=lam: complex(unipoly_eval_float(
            g_poly_symmetric(d, k), lam))) for lam in (0.0, 1.0, 2.5)]
        name, bound = "Taylor coefficients match symmetric family", tol
    else:
        ctx = RadialContext(d, q)
        alpha = float(ctx.alpha_squared) ** 0.5
        t0 = float(ctx.t0)
        samples = [(1j * alpha * (t + t0), lambda k, t=t: (1j * alpha) ** k / factorial(k)
                   * complex(unipoly_eval_float(omega_by_raising(ctx, k), t)))
                  for t in (0, 1, 2)]
        name = "coefficients match renormalized radial family on the imaginary line"
        bound = max(tol, 1e-9)
    _check_genfun_order(q, order)
    worst = 0.0
    for lam, exact in samples:
        coeffs = genfun_taylor_coefficients(q, d, lam, order)
        for k in range(order + 1):
            worst = max(worst, abs(coeffs[k] - exact(k)))
    cases = [_case(name, worst < bound, f"max err {worst:.3e}, order <= {order}")]
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
