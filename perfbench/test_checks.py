"""Every output check of the benchmark accepts the program's real output
and rejects a deliberately perturbed copy of it.

Run from the root of a checkout:  PYTHONPATH=src python -m pytest perfbench
"""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as O  # noqa: E402
import weylharm as W  # noqa: E402
import weylharm.cli as cli  # noqa: E402
import weylharm.verify as V  # noqa: E402
import workloads as WL  # noqa: E402
from weylharm.expr import format_cpoly, format_weyl, parse_weyl  # noqa: E402

EPS = (F(1, 997), F(0))


def perturbed(terms: dict) -> dict:
    out = dict(terms)
    key = sorted(out)[0]
    O.accumulate(out, key, EPS)
    return out


def weyl_terms(w) -> dict:
    return O.weyl_json(w.to_json_dict())


def poly_terms(p) -> dict:
    return O.poly_json(p.to_json_dict())


def sample_terms(seed: int, d: int, degrees) -> dict:
    return WL._random_terms(random.Random(seed), d, degrees)


def test_omega_check():
    for d, q in ((1, F(0)), (2, F(1, 3)), (3, F(-2, 3)), (2, F(1))):
        ctx = W.RadialContext(d, q)
        for k in range(7):
            coeffs = WL._unipoly(W.omega(ctx, k))
            assert O.check_omega(d, q, k, coeffs, range(k + 1))
            bad = list(coeffs)
            bad[k // 2] = (bad[k // 2][0] + EPS[0], bad[k // 2][1])
            assert not O.check_omega(d, q, k, bad, range(k + 1))
            assert not O.check_omega(d, q, k, coeffs + [(F(1), F(0))], range(k + 1))


def test_certificate_value():
    ctx = W.RadialContext(2, F(1, 3))
    for k in range(1, 5):
        cert = W.nonorthogonality_certificate(ctx, k)
        assert (cert.re, cert.im) == (O.certificate_value(2, F(1, 3), k), 0)
        assert (cert.re + EPS[0], cert.im) != (O.certificate_value(2, F(1, 3), k), 0)


def test_ordering_closed_forms():
    for seed, q in enumerate((F(0), F(1), F(1, 2), F(-2, 3), F(5, 2))):
        d = 2 + seed % 2
        p = sample_terms(seed, d, [1, 3, 4])
        ctx = W.OrderingContext(d, q)
        ordered = weyl_terms(W.order_q(ctx, WL._cpoly(W, d, p)))
        assert ordered == O.order_poly(q, p)
        assert perturbed(ordered) != O.order_poly(q, p)
        x = sample_terms(seed + 50, d, [2, 4])
        back = poly_terms(W.unorder_q(ctx, WL._weyl(W, d, x)))
        assert back == O.unorder_weyl(q, x)
        assert perturbed(back) != O.unorder_weyl(q, x)


def test_product_fock_action():
    for seed in range(4):
        d = 2 + seed % 2
        x = sample_terms(seed, d, [3, 1, 2])
        y = sample_terms(seed + 9, d, [2, 3])
        prod = weyl_terms(W.weyl_mul(WL._weyl(W, d, x), WL._weyl(W, d, y)))
        assert O.product_agrees(x, y, prod)
        assert not O.product_agrees(x, y, perturbed(prod))
        for key in prod:  # every single term is detected
            assert not O.product_agrees(x, y, {k: v for k, v in prod.items() if k != key})


def test_wick_normal_order():
    words = [(F(3, 2), [(1, 2, 3), (0, 1, 1)]), (F(-1), [(2, 0, 1), (1, 2, 2)])]
    w = parse_weyl("3/2*c1*a1^2*c1^3*a2*c2 - c1^2*c1*c2*a2^2*c2^2", 2)
    assert weyl_terms(w) == O.wick(words)
    assert perturbed(weyl_terms(w)) != O.wick(words)


def test_eta_fock_eigenvalues():
    for d, q, k in ((1, F(1, 2), 3), (2, F(-1, 2), 2), (2, F(1), 3)):
        eta = weyl_terms(W.eta(W.RadialContext(d, q), k))
        assert O.eta_agrees(d, q, k, eta)
        assert not O.eta_agrees(d, q, k, perturbed(eta))
        for key in eta:
            assert not O.eta_agrees(d, q, k, {k2: v for k2, v in eta.items() if k2 != key})


def test_decomposition():
    d, q = 2, F(1, 3)
    x = sample_terms(3, d, [4, 2, 3])
    parts = [(k, poly_terms(h)) for k, h in W.decompose_weyl(W.RadialContext(d, q), WL._weyl(W, d, x))]
    assert O.decomposition_agrees(d, q, x, parts)
    k0, h0 = parts[0]
    assert not O.decomposition_agrees(d, q, x, [(k0, perturbed(h0))] + parts[1:])
    # moving |z|^2 h from one layer into the next keeps the sum but is not harmonic
    k1, h1 = parts[-1]
    moved = [(k, h) for k, h in parts[:-1]] + [(k1 - 1, O.times_r2(d, h1))] if k1 else None
    if moved:
        assert not O.decomposition_agrees(d, q, x, moved)


def test_printed_forms_parse_back():
    for seed in range(5):
        d = 1 + seed % 3
        w = WL._weyl(W, d, sample_terms(seed, d, [0, 2, 3, 1]))
        assert O.parse_printed(format_weyl(w), d) == weyl_terms(w)
        p = WL._cpoly(W, d, sample_terms(seed + 3, d, [1, 2]))
        assert O.parse_printed(format_cpoly(p), d) == poly_terms(p)
    assert O.parse_printed("-i*c1 + (1/2-2/3*i)*a1 - 3", 1) == {
        ((1,), (0,)): (F(0), F(-1)), ((0,), (1,)): (F(1, 2), F(-2, 3)),
        ((0,), (0,)): (F(-3), F(0))}


class _Rec:
    def __init__(self, n):
        self.times = [0.0] * n


def test_verify_full_rejects_a_failed_case():
    report = V.suite_sl2(1, F(1, 2), deg=2, count=2)
    assert WL.VerifyFull().check({}, [report], _Rec(1))[0] == []
    bad = dict(report, cases=[dict(report["cases"][0], status="FAIL")] + report["cases"][1:])
    assert WL.VerifyFull().check({}, [bad], _Rec(1))[0]


def test_radial_check_rejects_perturbed_outputs():
    wl = WL.RadialHighK()
    state = wl.setup(0)
    ctx = W.RadialContext(WL.TOWER_D, WL.TOWER_Q)
    out = {
        "tower": [WL._tower_level(W, ctx, k) for k in range(4)],
        "tables": {1: [W.omega(W.RadialContext(1, state["table_q"]), k) for k in range(4)]},
        "idents": {2: [WL._identification(W, 2, k) for k in range(4)]},
    }
    assert wl.check(state, out, None) == ([], set())
    wrong = W.UniPoly([1, 2, 3, 4])
    cases = [
        lambda o: o["tower"][3].__setitem__("certificate", W.GaussRational(F(-1, 3))),
        lambda o: o["tower"][2].__setitem__("closed", wrong),
        lambda o: o["tables"][1].__setitem__(3, wrong),
        lambda o: o["idents"][2].__setitem__(3, (wrong,) + o["idents"][2][3][1:]),
    ]
    for perturb in cases:
        bad = {
            "tower": [dict(t) for t in out["tower"]],
            "tables": {d: list(v) for d, v in out["tables"].items()},
            "idents": {d: list(v) for d, v in out["idents"].items()},
        }
        perturb(bad)
        assert wl.check(state, bad, None)[0]


def test_weyl_ordering_check_rejects_perturbed_outputs():
    wl = WL.WeylOrdering()
    state = wl.setup(0)
    state["inputs"] = state["inputs"][:3]
    ctx = W.RadialContext(WL.ETA_D, state["eta_qs"][0])
    out = {
        "inputs": [WL._ordering_input(W, inp) for inp in state["inputs"]],
        "etas": {state["eta_qs"][0]: [WL._eta_level(W, ctx, k) for k in range(3)]},
    }
    assert wl.check(state, out, None) == ([], set())
    inp = state["inputs"][1]
    for field in ("ordered", "back", "reassembled", "product"):
        res = dict(out["inputs"][1])
        obj = res[field]
        if field == "back":
            res[field] = WL._cpoly(W, inp["d"], perturbed(poly_terms(obj)))
        else:
            res[field] = WL._weyl(W, inp["d"], perturbed(weyl_terms(obj)))
        bad = dict(out, inputs=out["inputs"][:1] + [res] + out["inputs"][2:])
        assert wl.check(state, bad, None)[0], field
    q = state["eta_qs"][0]
    bad = dict(out, etas={q: out["etas"][q][:2] + [W.UniPoly([1, 2, 3])]})
    assert wl.check(state, bad, None)[0]


def _perturb_cli_output(call: dict, out: str) -> str:
    kind = call["kind"]
    if kind == "verify":
        return out.replace('"PASS"', '"FAIL"', 1)
    if call.get("json"):
        data = json.loads(out)
        if kind == "omega":
            row = data["omegas"][-1]["coeffs"]
            row[0] = str(F(row[0]) + EPS[0])
        else:
            terms = data["parts"][0]["harmonic"]["terms"] if kind == "decompose" else data["terms"]
            terms[0]["re"] = str(F(terms[0]["re"]) + EPS[0])
        return json.dumps(data)
    lines = out.strip().splitlines()
    if kind == "omega":
        lines[-1] += ", 1"
    elif kind == "decompose":
        lines[0] += " + 1/997*z1"
    else:
        lines[0] += " + 1/997"
    return "\n".join(lines) + "\n"


def test_cli_checks():
    wl = WL.CliCold()
    state = wl.setup(0)
    calls = state["calls"]
    results = []
    for call in calls:
        if call["kind"] == "bad":
            results.append((1, "", "Traceback (most recent call last):\n  ...\nValueError: x\n"))
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(call["argv"])
        results.append((code, buf.getvalue(), ""))
    errors, failed = wl.check(state, results, None)
    assert errors == []
    bad_idx = [i for i, c in enumerate(calls) if c["kind"] == "bad"]
    assert failed == set(bad_idx)
    # a clean refusal (status 2, one line) is not a failure
    fixed = [(2, "", "weylharm: error: bad input\n") if i in bad_idx else r
             for i, r in enumerate(results)]
    assert wl.check(state, fixed, None) == ([], set())
    for i, call in enumerate(calls):
        if call["kind"] == "bad":
            continue
        code, out, err = results[i]
        wrong = _perturb_cli_output(call, out)
        assert wrong != out
        bad = results[:i] + [(code, wrong, err)] + results[i + 1:]
        assert wl.check(state, bad, None)[0], call["argv"]
    # the two identical verify calls must print identical bytes
    v = [i for i, c in enumerate(calls) if c["kind"] == "verify"]
    code, out, err = results[v[1]]
    drifted = results[:v[1]] + [(code, out.replace(" ", "  ", 1), err)] + results[v[1] + 1:]
    assert wl.check(state, drifted, None)[0]


def _traced(script: str) -> dict:
    """Run ``script`` with a fresh interpreter; it prints one JSON line."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(os.path.dirname(HERE), "src")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_tracer_spans_and_counters():
    metrics = _traced(
        "import json; from fractions import Fraction as F; import weylharm as W\n"
        "from tracer import Tracer, layer_metrics\n"
        "t = Tracer(); t.install()\n"
        "ctx = W.RadialContext(2, F(1, 3))\n"
        "for k in range(4): W.express_in_N(W.eta(ctx, k)); W.nonorthogonality_certificate(ctx, k + 1)\n"
        "print(json.dumps({k: v[0] for k, v in layer_metrics([t.raw()]).items()}))\n")
    assert len(metrics) == 45  # every per-layer metric but the two CLI start-up times
    assert metrics["weyl.mul_calls"] > 0 and metrics["weyl.mul_self_s"] > 0
    assert metrics["kernel.contractions_calls"] == metrics["weyl.mul_term_pairs"]
    assert 0 < metrics["kernel.cache_hit_ratio"] < 1
    assert metrics["radial.omega_by_raising_calls"] > 0
    assert metrics["scalars.gr_mul_calls"] > 0 and 0 < metrics["scalars.gr_mul_real_ratio"] <= 1
    assert metrics["verify.sl2_s"] == 0 and metrics["ordering.ordered_monomial_calls"] == 0


def test_tracer_skips_a_missing_target():
    metrics = _traced(
        "import json; from fractions import Fraction as F; import weylharm as W\n"
        "import weylharm.ordering as O; del O.cal_E\n"
        "from tracer import Tracer, layer_metrics\n"
        "t = Tracer(); t.install()\n"
        "W.omega(W.RadialContext(1, F(1, 2)), 3)\n"
        "print(json.dumps({k: v[0] for k, v in layer_metrics([t.raw()]).items()}))\n")
    assert "ordering.cal_E_self_s" not in metrics
    assert "ordering.cal_R_self_s" in metrics and metrics["radial.omega_self_s"] > 0
