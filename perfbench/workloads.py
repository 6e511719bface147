"""The benchmark's four workloads: seeded inputs, measured operations, checks.

Each workload has ``setup(seed)`` (imports weylharm and makes the inputs;
timed as set-up), ``run(state, rec, trace_out)`` (the measured operations,
each one timed through ``rec.op``), ``check(state, outputs, rec)``, which
returns a list of correctness errors and the set of indices of operations
that failed in the expected, counted way, and ``peak_rss_mb()``.  weylharm is reached only through
its public package attributes and the CLI, looked up at call time so that
the traced run's hooks see every call.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F

import oracles as O

HERE = os.path.dirname(os.path.abspath(__file__))


def _gauss(rng: random.Random) -> tuple:
    re = F(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    return re, F(rng.randint(-3, 3), rng.randint(1, 3))


def _split(rng: random.Random, d: int, total: int) -> tuple:
    cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _unipoly(p) -> list:
    return [(c.re, c.im) for c in p.coeffs]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# verify-full: the battery of `weylharm verify all` (not --quick)
# ---------------------------------------------------------------------------


class VerifyFull:
    name = "verify-full"

    def setup(self, seed: int) -> dict:
        import weylharm.verify as V

        return {"V": V, "seed": seed}

    def run(self, state: dict, rec, trace_out=None) -> list:
        """One operation per suite that suite_all calls."""
        V = state["V"]
        originals = {
            n: getattr(V, n) for n in dir(V)
            if n.startswith("suite_") and n != "suite_all" and callable(getattr(V, n))
        }

        def timed(fn):
            return lambda *a, **k: rec.op(fn, *a, **k)

        for n, fn in originals.items():
            setattr(V, n, timed(fn))
        try:
            return V.suite_all(seed=state["seed"], quick=False)
        finally:
            for n, fn in originals.items():
                setattr(V, n, fn)

    def check(self, state: dict, reports: list, rec) -> tuple:
        errors = [
            f"{r['suite']} {r['params']}: {c['id']} is {c['status']}"
            for r in reports for c in r["cases"] if c["status"] != "PASS"
        ]
        if len(reports) != len(rec.times) or not reports:
            errors.append(f"{len(reports)} reports but {len(rec.times)} suite calls timed")
        return errors, set()

    peak_rss_mb = staticmethod(_self_rss_mb)


# ---------------------------------------------------------------------------
# radial-highk: univariate radial towers at high k
# ---------------------------------------------------------------------------

TOWER_D, TOWER_Q, TOWER_KMAX, WEYL_ROUTE_KMAX = 2, F(1, 3), 16, 6
TABLE_DS, TABLE_KMAX = (1, 2, 3), 60
IDENT_DS, IDENT_KMAX = (1, 2, 3), 12


def _tower_level(W, ctx, k: int) -> dict:
    out = {
        "omega": W.omega(ctx, k),
        "raising": W.omega_by_raising(ctx, k),
        "closed": W.omega_closed_form(ctx, k),
        "difference": W.check_difference_equation(ctx, k),
    }
    if k <= WEYL_ROUTE_KMAX:
        out["weyl"] = W.express_in_N(W.eta(ctx, k))
    if k >= 1:
        out["certificate"] = W.nonorthogonality_certificate(ctx, k)
    return out


def _identification(W, d: int, k: int) -> tuple:
    a = F(d, 4)
    b = a + F(1, 2)
    g = W.g_poly_symmetric(d, k)
    hahn = W.continuous_hahn_poly(k, a, b, a, b).compose_linear(F(1, 4), 0)
    mp = W.meixner_pollaczek_poly(k, F(d, 2)).compose_linear(F(1, 2), 0)
    return g, hahn, mp


def _g_symmetric(d: int, kmax: int) -> list:
    """g_0 = 1, g_1 = t, (k+2) g_{k+2} = t g_{k+1} - (k+d) g_k, as Fraction lists."""
    gs = [[F(1)], [F(0), F(1)]]
    for k in range(kmax - 1):
        shifted = [F(0)] + gs[k + 1]
        low = gs[k] + [F(0)] * (len(shifted) - len(gs[k]))
        gs.append([(s - (k + d) * c) / (k + 2) for s, c in zip(shifted, low)])
    return gs


class RadialHighK:
    name = "radial-highk"

    def setup(self, seed: int) -> dict:
        import weylharm as W

        rng = random.Random(seed)
        return {
            "W": W,
            # off the verify grid {0, 1/4, 1/2, 3/4, 1}; q and 1-q give
            # coefficients of the same size, so the work hardly depends on the seed
            "table_q": rng.choice((F(2, 7), F(5, 7))),
            "points": sorted(rng.sample(range(13), 4)),
        }

    def run(self, state: dict, rec, trace_out=None) -> dict:
        W = state["W"]
        ctx = W.RadialContext(TOWER_D, TOWER_Q)
        tower = [rec.op(_tower_level, W, ctx, k) for k in range(TOWER_KMAX + 1)]
        tables = {}
        for d in TABLE_DS:
            c = W.RadialContext(d, state["table_q"])
            tables[d] = [rec.op(W.omega, c, k) for k in range(TABLE_KMAX + 1)]
        idents = {
            d: [rec.op(_identification, W, d, k) for k in range(IDENT_KMAX + 1)]
            for d in IDENT_DS
        }
        return {"tower": tower, "tables": tables, "idents": idents}

    def check(self, state: dict, out: dict, rec) -> tuple:
        errors = []
        for k, lvl in enumerate(out["tower"]):
            omega = _unipoly(lvl["omega"])
            routes = [_unipoly(lvl[r]) for r in ("raising", "closed", "weyl") if r in lvl]
            if any(r != omega for r in routes):
                errors.append(f"tower k={k}: omega routes disagree")
            if not O.check_omega(TOWER_D, TOWER_Q, k, omega, range(k + 1)):
                errors.append(f"tower k={k}: omega differs from the 2F1 closed form")
            if lvl["difference"] is not True:
                errors.append(f"tower k={k}: difference equation fails")
            if k >= 1:
                cert = lvl["certificate"]
                if (cert.re, cert.im) != (O.certificate_value(TOWER_D, TOWER_Q, k), 0):
                    errors.append(f"tower k={k}: certificate {cert} is not -q(1-q)k(k+d-1)")
        for d, polys in out["tables"].items():
            for k, p in enumerate(polys):
                if not O.check_omega(d, state["table_q"], k, _unipoly(p), state["points"]):
                    errors.append(f"table d={d} k={k}: omega differs from the 2F1 closed form")
        for d, levels in out["idents"].items():
            gs = _g_symmetric(d, IDENT_KMAX)
            for k, (g, hahn, mp) in enumerate(levels):
                ref = [(c, F(0)) for c in gs[k]]
                factor = O.pochhammer(F(d), k) / (
                    O.pochhammer(F(d, 2), k) * O.pochhammer(F(d + 1, 2), k))
                fall = O.pochhammer(F(d), k) / O.pochhammer(F(1), k)
                if _unipoly(g) != ref:
                    errors.append(f"d={d} k={k}: g_k differs from its recurrence")
                if [(r * factor, i * factor) for r, i in _unipoly(hahn)] != ref:
                    errors.append(f"d={d} k={k}: continuous-Hahn identification fails")
                if [(r * fall, i * fall) for r, i in _unipoly(mp)] != ref:
                    errors.append(f"d={d} k={k}: Meixner-Pollaczek identification fails")
        return errors, set()

    peak_rss_mb = staticmethod(_self_rss_mb)


# ---------------------------------------------------------------------------
# weyl-ordering: ordering maps, the sl2 triple and products over many q
# ---------------------------------------------------------------------------

WEYL_QS = (F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5),
           F(-1, 2), F(-2, 3), F(3, 2), F(5, 2))
SHAPES = [(d, deg) for d in (2, 3) for deg in range(7)]  # (modes, degree of p)
N_INPUTS = 84  # every q and every shape equally often
ETA_QS = (F(1, 3), F(-1, 2))
ETA_D, ETA_KMAX = 3, 10


def _random_terms(rng, d: int, degrees) -> dict:
    """{(first, second): coeff} with one term per requested total degree."""
    terms: dict = {}
    for deg in degrees:
        split = rng.randint(0, deg)
        O.accumulate(terms, (_split(rng, d, split), _split(rng, d, deg - split)), _gauss(rng))
    return terms


def _weyl(W, d: int, terms: dict):
    return W.WeylElement(d, {
        W.NormalMonomial(b, a): W.GaussRational(*c) for (b, a), c in terms.items()})


def _cpoly(W, d: int, terms: dict):
    return W.CPolynomial(d, {
        W.CMonomial(a, b): W.GaussRational(*c) for (a, b), c in terms.items()})


def _ordering_input(W, inp: dict) -> dict:
    d, q = inp["d"], inp["q"]
    ctx = W.OrderingContext(d, q)
    rctx = W.RadialContext(d, q)
    p, x = inp["p"], inp["x"]
    w = W.order_q(ctx, p)
    parts = W.decompose_weyl(rctx, x)
    return {
        "ordered": w,
        "back": W.unorder_q(ctx, w),
        "intertwine": [
            (W.order_q(ctx, W.op_R(p)), W.cal_R(ctx, w)),
            (W.order_q(ctx, W.op_L(p)), W.cal_L(ctx, w)),
            (W.order_q(ctx, W.op_E(p)), W.cal_E(ctx, w)),
        ],
        "parts": parts,
        "reassembled": W.reassemble_weyl(rctx, parts),
        "product": W.weyl_mul(x, inp["y"]),
    }


def _eta_level(W, ctx, k: int):
    return W.express_in_N(W.eta(ctx, k))


class WeylOrdering:
    name = "weyl-ordering"

    def setup(self, seed: int) -> dict:
        import weylharm as W

        rng = random.Random(seed)
        # every seed uses each q and each (d, degree) shape equally often, so
        # the amount of work varies little; which input gets which is seeded
        shapes = SHAPES * (N_INPUTS // len(SHAPES))
        qs = list(WEYL_QS) * (N_INPUTS // len(WEYL_QS))
        rng.shuffle(shapes)
        rng.shuffle(qs)
        inputs = []
        for (d, deg), q in zip(shapes, qs):
            top = 6 - deg
            p = _random_terms(rng, d, [deg, deg, deg])
            x = _random_terms(rng, d, [top, rng.randint(0, top), rng.randint(0, top)])
            y = _random_terms(rng, d, [3, rng.randint(0, 3), rng.randint(0, 3)])
            inputs.append({
                "d": d, "q": q, "p_terms": p, "x_terms": x, "y_terms": y,
                "p": _cpoly(W, d, p), "x": _weyl(W, d, x), "y": _weyl(W, d, y),
            })
        return {"W": W, "inputs": inputs, "eta_qs": ETA_QS}

    def run(self, state: dict, rec, trace_out=None) -> dict:
        W = state["W"]
        checks = [rec.op(_ordering_input, W, inp) for inp in state["inputs"]]
        etas = {}
        for q in state["eta_qs"]:
            ctx = W.RadialContext(ETA_D, q)
            etas[q] = [rec.op(_eta_level, W, ctx, k) for k in range(ETA_KMAX + 1)]
        return {"inputs": checks, "etas": etas}

    def check(self, state: dict, out: dict, rec) -> tuple:
        errors = []
        for i, (inp, res) in enumerate(zip(state["inputs"], out["inputs"])):
            d, q = inp["d"], inp["q"]
            tag = f"input {i} (d={d}, q={q})"
            ordered = O.weyl_json(res["ordered"].to_json_dict())
            if ordered != O.order_poly(q, inp["p_terms"]):
                errors.append(f"{tag}: order_q differs from the Cahill-Glauber form")
            if O.poly_json(res["back"].to_json_dict()) != inp["p_terms"]:
                errors.append(f"{tag}: unorder_q(order_q(p)) != p")
            for name, (lhs, rhs) in zip("RLE", res["intertwine"]):
                if O.weyl_json(lhs.to_json_dict()) != O.weyl_json(rhs.to_json_dict()):
                    errors.append(f"{tag}: order_q does not intertwine {name}")
            if O.weyl_json(res["reassembled"].to_json_dict()) != inp["x_terms"]:
                errors.append(f"{tag}: reassemble_weyl(decompose_weyl(x)) != x")
            parts = [(k, O.poly_json(h.to_json_dict())) for k, h in res["parts"]]
            if not O.decomposition_agrees(d, q, inp["x_terms"], parts):
                errors.append(f"{tag}: decomposition is not harmonic or not x")
            product = O.weyl_json(res["product"].to_json_dict())
            if not O.product_agrees(inp["x_terms"], inp["y_terms"], product):
                errors.append(f"{tag}: weyl_mul disagrees with the Fock action")
        for q, levels in out["etas"].items():
            for k, p in enumerate(levels):
                if not O.check_omega(ETA_D, q, k, _unipoly(p), range(k + 1)):
                    errors.append(f"eta d={ETA_D} q={q} k={k}: express_in_N is not omega_k")
        return errors, set()

    peak_rss_mb = staticmethod(_self_rss_mb)


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m weylharm.cli` process per operation
# ---------------------------------------------------------------------------

CLI_QS = (F(0), F(1), F(1, 2), F(1, 3), F(2, 5), F(-1, 2), F(3, 2))
CLI_COUNTS = {"normal-order": 8, "order": 8, "unorder": 7, "decompose": 5,
              "omega": 5, "eta": 5}
# Inputs the CLI must refuse with exit status 2 and a one-line message.
BAD_INPUTS = (
    ["eta", "--d", "0", "--q", "1/2", "--k", "2"],
    ["normal-order", "a3", "--d", "1"],
    ["verify", "genfun", "--q", "1"],
)


def _power(sym: str, j: int, e: int) -> list:
    return [] if e == 0 else [f"{sym}{j + 1}" + (f"^{e}" if e > 1 else "")]


def _expression(terms: list) -> str:
    """Join (coeff, [factor, ...]) terms in the CLI's input grammar."""
    text = ""
    for coeff, factors in terms:
        body = "*".join([str(abs(coeff))] + factors)
        if not text:
            text = ("-" if coeff < 0 else "") + body
        else:
            text += (" - " if coeff < 0 else " + ") + body
    return text


def _coeff(rng) -> F:
    return F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))


def _cli_calls(seed: int) -> list:
    rng = random.Random(seed)
    calls = []
    for i in range(CLI_COUNTS["normal-order"]):
        d = 1 + i % 2
        words, terms = [], []
        for _ in range(rng.randint(1, 2)):
            modes = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(d)]
            c = _coeff(rng)
            words.append((c, modes))
            factors = []
            for j, (g, m, n) in enumerate(modes):
                factors += _power("c", j, g) + _power("a", j, m) + _power("c", j, n)
            terms.append((c, factors))
        calls.append({"kind": "normal-order", "d": d, "expected": O.wick(words),
                      "argv": ["normal-order", "--d", str(d)], "expr": _expression(terms)})
    for verb, count in (("order", CLI_COUNTS["order"]), ("unorder", CLI_COUNTS["unorder"]),
                        ("decompose", CLI_COUNTS["decompose"])):
        for i in range(count):
            d = 1 + i % 2
            q = rng.choice(CLI_QS)
            degs = [rng.randint(0, 4) for _ in range(rng.randint(1, 2))]
            terms = {}
            for deg in degs:
                split = rng.randint(0, deg)
                O.accumulate(terms, (_split(rng, d, split), _split(rng, d, deg - split)),
                             (_coeff(rng), F(0)))
            if verb == "order":  # keys are (z, zbar) exponents
                text = [(c[0], [f for j, e in enumerate(a) for f in _power("z", j, e)]
                         + [f for j, e in enumerate(b) for f in _power("zb", j, e)])
                        for (a, b), c in terms.items()]
                expected = O.order_poly(q, terms)
            else:  # keys are (creation, annihilation) exponents
                text = [(c[0], [f for j, e in enumerate(b) for f in _power("c", j, e)]
                         + [f for j, e in enumerate(a) for f in _power("a", j, e)])
                        for (b, a), c in terms.items()]
                expected = O.unorder_weyl(q, terms) if verb == "unorder" else terms
            calls.append({"kind": verb, "d": d, "q": q, "expected": expected,
                          "argv": [verb, f"--q={q}", "--d", str(d)],
                          "expr": _expression(text) or "0"})
    for i in range(CLI_COUNTS["omega"]):
        d, q, kmax = 1 + i % 3, rng.choice(CLI_QS), rng.randint(4, 10)
        calls.append({"kind": "omega", "d": d, "q": q, "kmax": kmax,
                      "argv": ["omega", "--d", str(d), f"--q={q}", "--kmax", str(kmax)]})
    for i in range(CLI_COUNTS["eta"]):
        d, q, k = 1 + i % 2, rng.choice(CLI_QS), rng.randint(1, 4)
        calls.append({"kind": "eta", "d": d, "q": q, "k": k,
                      "argv": ["eta", "--d", str(d), f"--q={q}", "--k", str(k)]})
    for i, call in enumerate(calls):
        # alternate the JSON and the human-readable printers
        if i % 2 == 0:
            call["argv"].append("--json")
            call["json"] = True
        if "expr" in call:  # after "--", so a leading minus is not an option
            call["argv"] += ["--", call["expr"]]
    sl2 = ["verify", "sl2", "--d", "2", f"--q={rng.choice(CLI_QS)}", "--deg", "3",
           "--count", "3", "--seed", str(seed), "--json"]
    calls += [{"kind": "verify", "argv": sl2, "json": True},
              {"kind": "verify", "argv": list(sl2), "json": True, "repeat": True}]
    calls += [{"kind": "bad", "argv": list(argv)} for argv in BAD_INPUTS]
    return calls


def _run_cli(argv: list, env: dict):
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class CliCold:
    name = "cli-cold"

    def setup(self, seed: int) -> dict:
        return {"calls": _cli_calls(seed), "env": dict(os.environ)}

    def run(self, state: dict, rec, trace_out=None) -> list:
        """A closed loop with one client: each call starts when the last ends."""
        results = []
        for i, call in enumerate(state["calls"]):
            if trace_out is None:
                argv = [sys.executable, "-m", "weylharm.cli"] + call["argv"]
            else:
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        f"{trace_out}.call{i}", str(i), "--"] + call["argv"]
            results.append(rec.op(_run_cli, argv, state["env"]))
        return results

    def trace_files(self, state: dict, trace_out: str) -> list:
        return [f"{trace_out}.call{i}" for i in range(len(state["calls"]))]

    def check(self, state: dict, results: list, rec) -> tuple:
        errors, failed = [], set()
        verify_out = []
        for i, (call, (code, out, err)) in enumerate(zip(state["calls"], results)):
            tag = "weylharm " + " ".join(call["argv"])
            if call["kind"] == "bad":
                lines = err.strip().splitlines()
                if code != 2 or len(lines) != 1 or "Traceback" in err:
                    failed.add(i)
                continue
            if code != 0:
                errors.append(f"{tag}: exit status {code}: {err.strip()[-200:]}")
                continue
            try:
                ok = self._output_ok(call, out, verify_out)
            except (ValueError, KeyError, TypeError) as exc:
                ok = False
                err = f"unreadable output ({exc})"
            if not ok:
                errors.append(f"{tag}: wrong output {out.strip()[:200]!r} {err.strip()[-200:]}")
        if len(verify_out) == 2 and verify_out[0] != verify_out[1]:
            errors.append("verify sl2 --json is not byte-identical across two runs")
        return errors, failed

    @staticmethod
    def _output_ok(call: dict, out: str, verify_out: list) -> bool:
        kind, d = call["kind"], call.get("d")
        data = json.loads(out) if call.get("json") else None
        if kind in ("normal-order", "order", "eta"):
            got = O.weyl_json(data) if data else O.parse_printed(out, d)
            if kind == "eta":
                return O.eta_agrees(d, call["q"], call["k"], got)
            return got == call["expected"]
        if kind == "unorder":
            got = O.poly_json(data) if data else O.parse_printed(out, d)
            return got == call["expected"]
        if kind == "decompose":
            if data:
                parts = [(p["k"], O.poly_json(p["harmonic"])) for p in data["parts"]]
            else:
                parts = []
                for line in out.strip().splitlines():
                    if line.strip() == "0":
                        continue
                    head, _, body = line.partition(":")
                    parts.append((int(head.strip()[2:]), O.parse_printed(body, d)))
            return O.decomposition_agrees(d, call["q"], call["expected"], parts)
        if kind == "omega":
            if data:
                rows = [(row["k"], row["coeffs"]) for row in data["omegas"]]
            else:  # " k : c0, c1, ..." under a header line
                rows = [(int(k), cs.split(","))
                        for k, _, cs in (line.partition(":") for line in out.splitlines()[1:])]
            return len(rows) == call["kmax"] + 1 and all(
                row_k == k and O.check_omega(
                    d, call["q"], k, [O.scalar(c.strip()) for c in coeffs], range(k + 1))
                for k, (row_k, coeffs) in enumerate(rows))
        if kind == "verify":
            verify_out.append(out)
            return all(c["status"] == "PASS" for c in data["cases"])
        raise ValueError(f"unknown call kind {kind}")

    @staticmethod
    def peak_rss_mb() -> float:
        """The largest CLI child process of this round."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (VerifyFull(), RadialHighK(), WeylOrdering(), CliCold())}
