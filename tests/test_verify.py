"""Verification-suite harness: determinism, failure reporting, budget."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from weylharm import clear_caches, ordering, poly
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


MEMOS = (V._sl2_samples, V._intertwine_samples)


@pytest.fixture
def cold_memos():
    # a memo left warm by another test, or holding a faulty verdict from
    # this one, must not reach the next test
    clear_caches()
    yield
    clear_caches()


def _battery_calls(monkeypatch, seed, quick):
    """suite_all's reports, each with the suite call that made it."""
    calls = []
    for name in ("suite_sl2", "suite_intertwine", "suite_radial", "suite_harmonics",
                 "suite_hahn", "suite_orthogonality", "suite_genfun"):
        def record(*args, _fn=getattr(V, name), **kwargs):
            report = _fn(*args, **kwargs)
            calls.append((_fn, args, kwargs, report))
            return report
        monkeypatch.setattr(V, name, record)
    reports = V.suite_all(seed=seed, quick=quick)
    monkeypatch.undo()
    assert [report for *_, report in calls] == reports
    return calls


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_warm_memo_report_equals_cold(monkeypatch, cold_memos, seed, quick):
    # in suite_all the memos are warm for the second and third q of each d;
    # each report must equal its suite run alone from cold memos
    calls = _battery_calls(monkeypatch, seed, quick)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == 1 and info.currsize == 1
    assert sum(V._sl2_samples.cache_info()[:2]) == 6  # hits + misses: one per sl2 call
    assert V._sl2_samples.cache_info().misses == 2  # one per d
    for fn, args, kwargs, report in calls:
        clear_caches()
        assert fn(*args, **kwargs) == report


def test_memo_does_not_hide_a_faulty_operator(monkeypatch, cold_memos):
    # R + E in place of R breaks [raise,lower] and [grade,raise] on the
    # polynomial side; the verdicts come from the memo at the second and
    # third q, so they must carry the fault there too
    real_r = V.op_R
    monkeypatch.setattr(V, "op_R", lambda p: real_r(p) + V.op_E(p))
    reports = V.suite_all(seed=1, quick=True)
    sl2 = [r for r in reports if r["suite"] == "sl2"]
    intertwine = [r for r in reports if r["suite"] == "intertwine"]
    assert len(sl2) == len(intertwine) == 6
    assert {(r["params"]["d"], r["params"]["q"]) for r in sl2} == {
        (d, q) for d in (1, 2) for q in ("0", "1/2", "3/4")}
    for report in sl2:
        status = {c["id"]: c["status"] for c in report["cases"]}
        assert status == {
            "poly:[raise,lower]=-grade": "FAIL",
            "poly:[grade,raise]=2raise": "FAIL",
            "poly:[grade,lower]=-2lower": "PASS",
            "weyl:[raise,lower]=-grade": "PASS",
            "weyl:[grade,raise]=2raise": "PASS",
            "weyl:[grade,lower]=-2lower": "PASS",
        }
    for report in intertwine:
        status = {c["id"]: c["status"] for c in report["cases"]}
        assert status == {"order∘R = R∘order": "FAIL", "order∘L = L∘order": "PASS",
                          "order∘E = E∘order": "PASS"}


def test_a_wrong_grading_weight_fails_the_weyl_relations(monkeypatch, cold_memos):
    # cal_E = E + (1-q) L in place of E + 2(1-q) L, through the weight
    # helper that cal_E and the suite share.  With t = 1 - q the check of
    # [raise,lower] = -grade then reads -t L w and that of [grade,raise] =
    # 2 raise reads -t cal_E w, nonzero at every battery q, while any
    # multiple of L keeps [grade,lower] = -2 lower; order∘E = E∘order
    # reads t L w.  At q = 1 the two weights agree
    def wrong(q):
        _, b, c = ordering._q_ints(q)
        return 0, b, c, b
    monkeypatch.setattr(ordering, "_grading_weights", wrong)
    monkeypatch.setattr(V, "_grading_weights", wrong)
    reports = V.suite_all(seed=1, quick=True)
    sl2 = [r for r in reports if r["suite"] == "sl2"]
    assert {(r["params"]["d"], r["params"]["q"]) for r in sl2} == {
        (d, q) for d in (1, 2) for q in ("0", "1/2", "3/4")}
    for report in sl2:
        status = {c["id"]: c["status"] for c in report["cases"]}
        assert status == {
            "poly:[raise,lower]=-grade": "PASS",
            "poly:[grade,raise]=2raise": "PASS",
            "poly:[grade,lower]=-2lower": "PASS",
            "weyl:[raise,lower]=-grade": "FAIL",
            "weyl:[grade,raise]=2raise": "FAIL",
            "weyl:[grade,lower]=-2lower": "PASS",
        }
    for report in (r for r in reports if r["suite"] == "intertwine"):
        status = {c["id"]: c["status"] for c in report["cases"]}
        assert status == {"order∘R = R∘order": "PASS", "order∘L = L∘order": "PASS",
                          "order∘E = E∘order": "FAIL"}
    assert not V.report_failed(V.suite_sl2(2, Fraction(1), deg=3, count=6, seed=1))


@pytest.mark.parametrize("d", [1, 2])
def test_a_faulty_closed_form_fails_the_intertwining_cases(monkeypatch, d):
    # the suite orders each image of R, L and E through `_closed_form_acc`;
    # with -(1-q) for 1-q it applies the inverse map, while w comes from the
    # untouched `order_q`.  The images then differ by exp(-2(1-q) L), which
    # shows on L p only where L^2 p is not zero: degree 4 samples
    real = V._closed_form_acc
    monkeypatch.setattr(V, "_closed_form_acc", lambda d, terms, tn, td: real(d, terms, -tn, td))
    for q in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
        report = V.suite_intertwine(d, q, deg=4, count=20, seed=1)
        assert [c["status"] for c in report["cases"]] == ["FAIL", "FAIL", "FAIL"]


def test_battery_work_counts(monkeypatch, cold_memos):
    # the full battery at seed 1, from cold memos and empty radial chains (so
    # the counts do not depend on the tests run before), draws 140 random
    # elements (380 before the memos), runs the triple kernel 636 times
    # (2574 while each homogeneous component was peeled with its own L and R
    # maps and each part was raised on its own, 2148 while `reassemble_weyl`
    # raised through `cal_R`, 2127 while each sl2 and intertwining identity
    # built its sides as term maps) and the ordering closed form 524 times
    # (1141, before the harmonics suite ordered each basis element once per
    # distinct q, 925 while `reassemble_weyl` ordered each part through
    # `order_q`, 884 while the intertwining identities ordered each image
    # through `order_q`); the reassembly's 21 raising steps and 41 parts,
    # the second-level images of the sl2 relations and the ordered images
    # of the intertwining identities run on the accumulators `_triple_acc`
    # and `_closed_form_acc` directly, and only the first-level images
    # (`cal_R/L/E`, `op_R/L/E` and `order_q` of each sample) are counted
    counts = dict.fromkeys(("random_element", "_triple", "_closed_form"), 0)

    def counting(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    counting(V, "random_element")
    counting(poly, "_triple")
    counting(ordering, "_triple")
    counting(ordering, "_closed_form")
    V.suite_all(seed=1, quick=False)
    assert counts == {"random_element": 140, "_triple": 636, "_closed_form": 524}


@pytest.mark.parametrize("d, deg, count, seed", [(1, 3, 6, 1), (2, 4, 20, 3), (3, 2, 5, 0)])
def test_memos_keep_the_draw_order(cold_memos, d, deg, count, seed):
    # the reports only say PASS or FAIL, so the samples are compared with
    # the draws of one loop over p then w (sl2) and degree then p (intertwine)
    rng = random.Random(seed)
    weyl = []
    for _ in range(count):
        V.random_cpoly(rng, d, deg)
        weyl.append(V.random_weyl(rng, d, deg))
    assert V._sl2_samples(d, deg, count, seed)[0] == tuple(weyl)
    rng = random.Random(seed)
    homogeneous = [V.random_homogeneous_cpoly(rng, d, rng.randint(0, deg))
                   for _ in range(count)]
    assert V._intertwine_samples(d, deg, count, seed) == tuple(
        (p, V.op_R(p), V.op_L(p), V.op_E(p)) for p in homogeneous)


@pytest.mark.parametrize("q", [Fraction(1, 1000), Fraction(1, 100)])
@pytest.mark.parametrize("d", [1, 3])
def test_genfun_ode_points_fit_a_small_branch_radius(q, d):
    # the fixed stencil reaches |s| = 0.102, past 0.9 R for these q, so
    # its points and step scale with R instead of refusing every order
    report = V.suite_genfun(q, d, order=10)
    status = {c["id"]: c["status"] for c in report["cases"]}
    assert status["first-order ODE residual"] == "PASS"


def test_hahn_contiguous_relations_are_checked_at_kmax_zero(monkeypatch):
    # both relations hold at k = 0, so k_max = 0 checks them there
    def status():
        report = V.suite_hahn(k_max=0, d_max=2)
        return {c["id"]: c["status"] for c in report["cases"]}["Gauss contiguous relations"]

    assert status() == "PASS"
    monkeypatch.setattr(V, "gauss_contiguous_check", lambda k, c, x: False)
    assert status() == "FAIL"
