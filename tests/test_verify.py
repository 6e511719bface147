"""Verification-suite harness: determinism, failure reporting, budget."""

import hashlib
import json
import random
import time
from fractions import Fraction

from weylharm import verify as V
from weylharm.poly import CPolynomial
from weylharm.scalars import GaussRational


def test_reports_are_deterministic():
    a = V.suite_sl2(2, Fraction(1, 3), deg=3, count=5, seed=123)
    b = V.suite_sl2(2, Fraction(1, 3), deg=3, count=5, seed=123)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["seed"] == 123


def test_seed_changes_samples_not_structure():
    a = V.suite_intertwine(1, Fraction(1, 2), deg=3, count=4, seed=1)
    b = V.suite_intertwine(1, Fraction(1, 2), deg=3, count=4, seed=2)
    assert [c["id"] for c in a["cases"]] == [c["id"] for c in b["cases"]]
    assert not V.report_failed(a) and not V.report_failed(b)


def test_random_gauss_draws_and_value():
    # four draws a, b, c, e in that order give a/b + (c/e) i, and the
    # stream moves on exactly as four randint calls move it
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(200):
        span = twin.choice((1, 3, 7))
        rng.choice((1, 3, 7))
        value = V.random_gauss(rng, span)
        a, b = twin.randint(-span, span), twin.randint(1, 3)
        c, e = twin.randint(-span, span), twin.randint(1, 3)
        expected = GaussRational(Fraction(a, b), Fraction(c, e))
        assert value == expected
        assert (value.n, value.m, value.den) == (expected.n, expected.m, expected.den)
    assert rng.random() == twin.random()


def test_samples_digest():
    # sha256 of the JSON forms of samples from all three samplers, recorded
    # while each had a loop of its own: any change to the order of the
    # draws changes it.  The reports only say PASS or FAIL, so their
    # digests would not see the samples change
    out = []
    for seed in range(30):
        rng = random.Random(seed)
        d = 1 + seed % 3
        for x in (V.random_weyl(rng, d, 4), V.random_cpoly(rng, d, 4, 5),
                  V.random_homogeneous_cpoly(rng, d, seed % 6)):
            out.append(json.dumps(x.to_json_dict(), sort_keys=True))
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == (
        "b4461047b83f4af361314ef4b699ce8da3d01484535075c653218953a8c7ad57")


def test_q_independence_fails_for_a_non_harmonic_basis(monkeypatch):
    # z1*zbar1 is not harmonic, and its images at q = 0 and q = 1 differ
    closed_form = V.harmonic_basis

    def basis(d, k):
        out = closed_form(d, k)
        if k == 2:
            out[0] = out[0] + CPolynomial.z(d, 1) * CPolynomial.zbar(d, 1)
        return out

    assert not V.report_failed(V.suite_harmonics(2, k_max=2, count=1))
    monkeypatch.setattr(V, "harmonic_basis", basis)
    report = V.suite_harmonics(2, k_max=2, count=1)
    status = {c["id"]: c["status"] for c in report["cases"]}
    assert status["Weyl harmonics independent of ordering parameter"] == "FAIL"


def test_radial_report_carries_table():
    report = V.suite_radial(1, Fraction(0), k_max=3)
    assert report["table"][2]["coeffs"] == ["2", "3", "1"]
    assert not V.report_failed(report)


def test_failed_detection():
    report = {"cases": [{"id": "x", "status": "FAIL", "detail": ""}]}
    assert V.report_failed(report)


def test_quick_battery_under_budget():
    start = time.monotonic()
    reports = V.suite_all(seed=0, quick=True)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert reports and all(not V.report_failed(r) for r in reports)
