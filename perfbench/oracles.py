"""Independent reference computations for the benchmark's output checks.

Nothing here imports weylharm.  Exact values are Fractions; a Gaussian
rational is a ``(re, im)`` pair of Fractions.  Elements are dicts:

* Weyl elements map ``(beta, alpha)`` (creation, annihilation exponent
  tuples) to a coefficient, the layout of ``WeylElement.to_json_dict``;
* polynomials map ``(alpha, beta)`` (z, zbar exponent tuples) to a
  coefficient, the layout of ``CPolynomial.to_json_dict``.

Each ``*_agrees``/``check_*`` function compares a program output with a
closed form or a defining property computed here from scratch.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import comb, factorial

ZERO = (Fraction(0), Fraction(0))


# -- Gaussian rationals and sparse dicts ------------------------------------


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def accumulate(acc: dict, key, coeff) -> None:
    """acc[key] += coeff, dropping entries that cancel to zero."""
    cur = acc.get(key, ZERO)
    new = (cur[0] + coeff[0], cur[1] + coeff[1])
    if new[0] or new[1]:
        acc[key] = new
    else:
        acc.pop(key, None)


def from_json(data: dict, first: str, second: str) -> dict:
    """Term dict of a ``to_json_dict`` payload, keyed ``(first, second)``."""
    out: dict = {}
    for t in data["terms"]:
        key = (tuple(t[first]), tuple(t[second]))
        accumulate(out, key, (Fraction(t["re"]), Fraction(t["im"])))
    return out


def weyl_json(data: dict) -> dict:
    return from_json(data, "beta", "alpha")


def poly_json(data: dict) -> dict:
    return from_json(data, "alpha", "beta")


# -- radial polynomials -------------------------------------------------------


def pochhammer(x, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def omega_value(d: int, q: Fraction, k: int, t: int) -> Fraction:
    """omega_k(t) = (d)_k (1-q)^k 2F1(-t, -k; d; 1/(1-q)) at integer t >= 0.

    Each series term is multiplied through by (1-q)^k, which leaves the
    power (1-q)^(k-n) and makes the same sum valid at q = 1 (where it is
    the falling factorial t(t-1)...(t-k+1)).
    """
    qc = 1 - Fraction(q)
    total = Fraction(0)
    for n in range(min(t, k) + 1):
        total += (
            pochhammer(Fraction(-t), n)
            * pochhammer(Fraction(-k), n)
            / (pochhammer(Fraction(d), n) * factorial(n))
            * qc ** (k - n)
        )
    return pochhammer(Fraction(d), k) * total


def horner(coeffs, t) -> tuple:
    """Exact value of sum coeffs[j] t^j for Gaussian-rational coefficients."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * t + c[0], im * t + c[1]
    return re, im


def check_omega(d: int, q: Fraction, k: int, coeffs, points) -> bool:
    """coeffs (ascending) must have degree k and match omega_value at points."""
    if len(coeffs) != k + 1:
        return False
    return all(horner(coeffs, t) == (omega_value(d, q, k, t), 0) for t in points)


def certificate_value(d: int, q: Fraction, k: int) -> Fraction:
    return -Fraction(q) * (1 - Fraction(q)) * k * (k + d - 1)


# -- ordering maps: the Cahill-Glauber closed form ----------------------------


def _mode_sum(m: int, n: int, weight: Fraction) -> list:
    """[(i, i! C(m,i) C(n,i) weight^i)] for i = 0..min(m, n)."""
    return [
        (i, factorial(i) * comb(m, i) * comb(n, i) * weight**i)
        for i in range(min(m, n) + 1)
    ]


def _contract(alpha, beta, weight: Fraction) -> list:
    """Products over modes of _mode_sum: [(alpha - i, beta - i, coeff)]."""
    out = []
    per_mode = [_mode_sum(a, b, weight) for a, b in zip(alpha, beta)]
    for combo in product(*per_mode):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        ivec = [i for i, _ in combo]
        out.append(
            (
                tuple(a - i for a, i in zip(alpha, ivec)),
                tuple(b - i for b, i in zip(beta, ivec)),
                coeff,
            )
        )
    return out


def order_poly(q: Fraction, poly: dict) -> dict:
    """The ordering map on a polynomial dict, monomial by monomial:

    z^alpha zbar^beta -> prod_j sum_i i! C(alpha_j,i) C(beta_j,i) (1-q)^i
                         c_j^(beta_j-i) a_j^(alpha_j-i).
    """
    out: dict = {}
    for (alpha, beta), c in poly.items():
        for a, b, w in _contract(alpha, beta, 1 - Fraction(q)):
            accumulate(out, (b, a), (c[0] * w, c[1] * w))
    return out


def unorder_weyl(q: Fraction, weyl: dict) -> dict:
    """Inverse of order_poly: the same sum with -(1-q) in place of (1-q)."""
    out: dict = {}
    for (beta, alpha), c in weyl.items():
        for a, b, w in _contract(alpha, beta, Fraction(q) - 1):
            accumulate(out, (a, b), (c[0] * w, c[1] * w))
    return out


def wick(words) -> dict:
    """Normal form of sum coeff * prod_j c_j^g a_j^m c_j^n (Wick's theorem).

    ``words`` is a list of ``(coeff, [(g, m, n) per mode])`` with Fraction
    coefficients; a_j^m c_j^n = sum_i i! C(m,i) C(n,i) c_j^(n-i) a_j^(m-i).
    """
    out: dict = {}
    for coeff, modes in words:
        alpha = tuple(m for _, m, _ in modes)
        beta = tuple(n for _, _, n in modes)
        lead = tuple(g for g, _, _ in modes)
        for a, b, w in _contract(alpha, beta, Fraction(1)):
            key = (tuple(x + y for x, y in zip(lead, b)), a)
            accumulate(out, key, (coeff * w, Fraction(0)))
    return out


# -- the Fock (polynomial-model) action ---------------------------------------


def occupation_states(d: int, cutoff: int) -> list:
    return [n for n in product(range(cutoff + 1), repeat=d) if sum(n) <= cutoff]


def fock_apply(weyl: dict, vec: dict) -> dict:
    """Apply c^beta a^alpha terms to a state vector {n: coeff}.

    a_j z^n = n_j z^(n - e_j) and c_j z^n = z^(n + e_j), so the monomial
    c^beta a^alpha sends n to n - alpha + beta with weight prod n_j!/(n_j-alpha_j)!.
    Nothing is truncated, so products agree exactly.
    """
    out: dict = {}
    for n, cn in vec.items():
        for (beta, alpha), c in weyl.items():
            if any(nj < aj for nj, aj in zip(n, alpha)):
                continue
            weight = 1
            for nj, aj in zip(n, alpha):
                weight *= factorial(nj) // factorial(nj - aj)
            target = tuple(nj - aj + bj for nj, aj, bj in zip(n, alpha, beta))
            w = gmul(c, cn)
            accumulate(out, target, (w[0] * weight, w[1] * weight))
    return out


def product_agrees(x: dict, y: dict, prod: dict) -> bool:
    """prod|n> == x(y|n>) on every state n that can tell them apart.

    If prod != x*y, the difference has a term c^beta a^alpha with minimal
    |alpha|, and the difference acting on the state n = alpha is nonzero.
    That alpha is the annihilation part of a term of prod or of x*y, and
    the terms of x*y have alpha_x + alpha_y - i with 0 <= i <= min(alpha_x,
    beta_y) per mode, so those states suffice.
    """
    states = {alpha for _, alpha in prod}
    for bx, ax in x:
        for by, ay in y:
            for i in product(*(range(min(a, b) + 1) for a, b in zip(ax, by))):
                states.add(tuple(p + r - c for p, r, c in zip(ax, ay, i)))
    one = (Fraction(1), Fraction(0))
    for n in states:
        basis = {n: one}
        if fock_apply(prod, basis) != fock_apply(x, fock_apply(y, basis)):
            return False
    return True


def eta_agrees(d: int, q: Fraction, k: int, weyl: dict) -> bool:
    """eta_k = omega_k(N): each state n is an eigenvector with omega_k(|n|).

    omega_k(N) has no term with more than k annihilators, so by the
    argument of product_agrees the states with |n| <= max(k, largest |alpha|
    in weyl) decide equality.
    """
    one = (Fraction(1), Fraction(0))
    cutoff = max([k] + [sum(alpha) for _, alpha in weyl])
    for n in occupation_states(d, cutoff):
        value = omega_value(d, q, k, sum(n))
        expected = {n: (value, Fraction(0))} if value else {}
        if fock_apply(weyl, {n: one}) != expected:
            return False
    return True


# -- harmonic decomposition ------------------------------------------------------


def laplacian(d: int, poly: dict) -> dict:
    """sum_j d^2/(dz_j dzbar_j)."""
    out: dict = {}
    for (alpha, beta), c in poly.items():
        for j in range(d):
            a, b = alpha[j], beta[j]
            if a and b:
                key = (
                    alpha[:j] + (a - 1,) + alpha[j + 1:],
                    beta[:j] + (b - 1,) + beta[j + 1:],
                )
                accumulate(out, key, (c[0] * a * b, c[1] * a * b))
    return out


def times_r2(d: int, poly: dict) -> dict:
    """Multiplication by |z|^2 = sum_j z_j zbar_j."""
    out: dict = {}
    for (alpha, beta), c in poly.items():
        for j in range(d):
            key = (
                alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:],
                beta[:j] + (beta[j] + 1,) + beta[j + 1:],
            )
            accumulate(out, key, c)
    return out


def decomposition_agrees(d: int, q: Fraction, weyl: dict, parts) -> bool:
    """parts = [(k, h_k)]: every h_k harmonic, and sum_k |z|^(2k) h_k equals
    the closed-form pull-back of ``weyl`` (the ordering map turns
    multiplication by |z|^2 into the transported raising operator)."""
    total: dict = {}
    for k, h in parts:
        if laplacian(d, h):
            return False
        for _ in range(k):
            h = times_r2(d, h)
        for key, c in h.items():
            accumulate(total, key, c)
    return total == unorder_weyl(q, weyl)


# -- the CLI's human-readable output ---------------------------------------------

_FACTOR_RE = re.compile(r"^(zb|z|a|c)(\d+)(?:\^(\d+))?$")
_SLOTS = {"a": 1, "c": 0, "z": 0, "zb": 1}


def _split_top(text: str, seps: str) -> list:
    """Split at characters in ``seps`` outside parentheses, keeping each
    separator at the start of the piece it opens."""
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += ch == "("
        depth -= ch == ")"
        if ch in seps and depth == 0:
            parts.append("".join(cur))
            cur = [ch]
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def scalar(text: str) -> tuple:
    """A coefficient in the printed grammar: p/q, p/q*i, i, (p/q+r/s*i)."""
    text = text.strip("()")
    m = re.fullmatch(r"([+-]?\d+(?:/\d+)?)?(?:([+-]?)(\d+(?:/\d+)?\*)?i)?", text)
    if m is None or not text:
        raise ValueError(f"not a printed scalar: {text!r}")
    re_part = Fraction(m.group(1)) if m.group(1) else Fraction(0)
    im_part = Fraction(0)
    if text.endswith("i"):
        im_part = Fraction(m.group(3)[:-1]) if m.group(3) else Fraction(1)
        if m.group(2) == "-":
            im_part = -im_part
    return re_part, im_part


def parse_printed(text: str, d: int) -> dict:
    """Term dict of a printed Weyl element or polynomial.

    Weyl keys are (creation, annihilation) exponents and polynomial keys
    (z, zbar) exponents, matching ``weyl_json``/``poly_json``.
    """
    out: dict = {}
    # a complex constant prints as separate real and imaginary terms
    # ("... - 3/2+3/2*i"), so every top-level sign starts a term
    for term in _split_top("".join(text.split()), "+-"):
        sign = Fraction(-1 if term.startswith("-") else 1)
        term = term.lstrip("+-")
        if not term:
            continue
        coeff = (Fraction(1), Fraction(0))
        exps = [[0] * d, [0] * d]
        for factor in _split_top(term, "*"):
            factor = factor.lstrip("*")
            m = _FACTOR_RE.match(factor)
            if m is None:
                coeff = gmul(coeff, scalar(factor))
                continue
            slot, j = _SLOTS[m.group(1)], int(m.group(2)) - 1
            exps[slot][j] += int(m.group(3) or 1)
        key = (tuple(exps[0]), tuple(exps[1]))
        accumulate(out, key, (coeff[0] * sign, coeff[1] * sign))
    return out
