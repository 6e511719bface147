"""Command surface: subcommands, exit codes, deterministic JSON reports."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from weylharm.cli import main
from weylharm.radial import ETA_FIELDS_MAX, OMEGA_KMAX
from weylharm.scalars import UniPoly
from weylharm.verify import GENFUN_ORDER_MAX, HAHN_DMAX, HAHN_KMAX, ORTHOGONALITY_KMAX
from weylharm.weyl import MODES_MAX

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestElementCommands:
    def test_normal_order(self, capsys):
        code, out = run_cli(capsys, "normal-order", "a1*c1")
        assert code == 0
        assert out.strip() == "c1*a1 + 1"

    def test_order_symmetric(self, capsys):
        code, out = run_cli(capsys, "order", "z1*zb1", "--q", "1/2")
        assert code == 0
        assert out.strip() == "c1*a1 + 1/2"

    def test_unorder_wick(self, capsys):
        code, out = run_cli(capsys, "unorder", "c1*a1 + 1", "--q", "0")
        assert code == 0
        assert out.strip() == "z1*zb1"

    def test_order_json_schema(self, capsys):
        code, out = run_cli(capsys, "order", "z1*zb1", "--q", "1/2", "--json")
        data = json.loads(out)
        assert data["d"] == 1
        assert data["terms"][0] == {
            "beta": [0], "alpha": [0], "re": "1/2", "im": "0",
        }

    def test_decompose_and_round_trip(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "c1^2*a1^2", "--q", "1/2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert [part["k"] for part in data["parts"]] == [0, 1, 2]

    def test_sizes_at_their_bounds_are_accepted(self, capsys):
        code, out = run_cli(capsys, "omega", "--d", "1", "--q", "1/3",
                            "--kmax", str(OMEGA_KMAX))
        assert code == 0
        assert len(out.splitlines()) == OMEGA_KMAX + 2  # a header and a row per k
        code, out = run_cli(capsys, "normal-order", "--d", str(MODES_MAX), "--", "a1")
        assert (code, out) == (0, "a1\n")

    def test_omega_table(self, capsys):
        code, out = run_cli(capsys, "omega", "--d", "1", "--q", "0", "--kmax", "2")
        assert code == 0
        assert "2, 3, 1" in out  # omega_2 = t^2 + 3t + 2 at q = 0, d = 1

    def test_eta(self, capsys):
        code, out = run_cli(capsys, "eta", "--d", "1", "--q", "1/2", "--k", "1")
        assert code == 0
        assert out.strip() == "c1*a1 + 1/2"

    @pytest.mark.parametrize("argv", [
        ["normal-order", "(a1+c1)^3*a2"],
        ["order", "(z1+zb1)^3", "--q", "1/3"],
        ["unorder", "(a1+c1)^3", "--q", "1/3"],
        ["decompose", "c1^2*a1^2", "--q", "1/2"],
        ["eta", "--d", "2", "--q", "1/4", "--k", "2"],
    ])
    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_only_the_printed_rendering_is_built(self, capsys, monkeypatch, argv,
                                                 as_json):
        import weylharm.expr as expr
        from weylharm.weyl import TermMap

        def unused(*args):
            raise AssertionError("a rendering that is not printed was built")

        if as_json:
            monkeypatch.setattr(expr, "format_weyl", unused)
            monkeypatch.setattr(expr, "format_cpoly", unused)
        else:
            monkeypatch.setattr(TermMap, "to_json_dict", unused)
        assert main(argv + ["--json"] * as_json) == 0
        assert capsys.readouterr().out

    def test_bad_rational_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["order", "z1", "--q", "0.5"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eta", "--d", "0", "--q", "1/2", "--k", "2"], "mode count d must be >= 1"),
            (["normal-order", "a3", "--d", "1"], "mode index 3 out of range 1..1"),
            (["verify", "genfun", "--q", "1"], "alpha is undefined for q in {0, 1}"),
            (["normal-order", "a1^-3"],
             "exponent must be a nonnegative integer (at position 3)"),
            (["verify", "hahn", "--d", "0"], "d_max must be >= 1"),
            # a negative top degree must not pass every case vacuously
            (["omega", "--d", "1", "--q", "0", "--kmax", "-1"], "k_max must be >= 0"),
            (["verify", "radial", "--kmax", "-1"], "k_max must be >= 0"),
            (["verify", "harmonics", "--kmax", "-1"], "k_max must be >= 0"),
            (["verify", "hahn", "--kmax", "-1"], "k_max must be >= 0"),
            (["verify", "orthogonality", "--kmax", "-1"], "k_max must be >= 0"),
            # nor a negative count, degree or order
            (["verify", "sl2", "--count", "-1"], "count must be >= 0"),
            (["verify", "intertwine", "--count", "-1"], "count must be >= 0"),
            (["verify", "harmonics", "--count", "-1"], "count must be >= 0"),
            (["verify", "genfun", "--order", "-1"], "order must be >= 0"),
            (["verify", "sl2", "--deg", "-1"], "deg must be >= 0"),
            (["verify", "intertwine", "--deg", "-1"], "deg must be >= 0"),
            (["verify", "harmonics", "--deg", "-1"], "deg must be >= 0"),
            # d is checked before the expression is read, whatever its atoms
            (["normal-order", "--d", "0", "--", "a1"], "mode count d must be >= 1"),
            (["normal-order", "--d", "-2", "--", "c1^2"], "mode count d must be >= 1"),
            (["order", "--d", "0", "--q", "1/2", "--", "z1*zb1"],
             "mode count d must be >= 1"),
            # the float suite checks d before it sizes the rule
            (["verify", "orthogonality", "--d", "0"], "d must be >= 1"),
            (["verify", "orthogonality", "--d", "-1"], "d must be >= 1"),
            # and refuses a d whose Gram entries leave the float range
            (["verify", "orthogonality", "--d", "200", "--kmax", "1"],
             "d = 200, k_max = 1: the orthogonality weight or Gram entries "
             "overflow a float"),
            (["verify", "orthogonality", "--d", "300"],
             "d = 300, k_max = 8: the orthogonality weight or Gram entries "
             "overflow a float"),
            (["verify", "harmonics", "--d", "0"], "mode count d must be >= 1"),
            (["verify", "harmonics", "--d", "-1"], "mode count d must be >= 1"),
            # genfun checks d itself, before either branch of q
            (["verify", "genfun", "--d", "0"], "mode count d must be >= 1"),
            (["verify", "genfun", "--d", "0", "--q", "1/3"], "mode count d must be >= 1"),
            # orthogonality's time grows as k_max^3; see test_orthogonality_kmax_bound
            (["verify", "orthogonality", "--d", "1", "--kmax", str(ORTHOGONALITY_KMAX + 1)],
             f"k_max must be <= {ORTHOGONALITY_KMAX} for orthogonality "
             "(its time grows as k_max^3)"),
            # exponents stay below 2^31, the bound of the packed keys; a
            # power is refused before its first product
            (["normal-order", "--d", "1", "--", "c1^2147483648"],
             "power 2147483648 of an element with exponent 1 would reach the "
             "exponent bound 2^31"),
            (["normal-order", "--", "c1^1073741824 * c1^1073741824"],
             "product of degrees 1073741824 and 1073741824 would reach the "
             "exponent bound 2^31"),
            (["order", "--q", "1/2", "--", "(z1^1073741824 + zb2) * z1^1073741824"],
             "product of degrees 1073741824 and 1073741824 would reach the "
             "exponent bound 2^31"),
            # a tolerance must be a positive finite float: a negative or nan
            # one would fail every case, an infinite one pass them all
            *[(["verify", suite, *extra, "--tol", tol],
               f"tol must be a positive finite float, not {float(tol)}")
              for suite, extra in (("orthogonality", ["--d", "1", "--kmax", "4"]),
                                   ("genfun", []))
              for tol in ("-1", "0", "nan", "inf")],
            # the genfun extraction divides by r^k: an order whose 1/r^k
            # overflows a float is refused, before r^k underflows to 0
            (["verify", "genfun", "--order", "1100"],
             "order 1100 is too large: the scale 1/r^1100 at the extraction "
             "radius r = 0.5 overflows a float"),
            (["verify", "genfun", "--q", "1/1000", "--order", "200"],
             "order 200 is too large: the scale 1/r^200 at the extraction "
             "radius r = 0.0158 overflows a float"),
            (["verify", "genfun", "--q", "1/1000000", "--order", "120"],
             "order 120 is too large: the scale 1/r^120 at the extraction "
             "radius r = 0.0005 overflows a float"),
            # orders the 1/r^k rule accepts but whose time grows about as
            # order^3 (order 175 at q = 1/4 also reached 175! as a float)
            *[(["verify", "genfun", *extra, "--order", order],
               f"order must be <= {GENFUN_ORDER_MAX} for genfun "
               "(its time grows about as order^3)")
              for extra, order in (([], str(GENFUN_ORDER_MAX + 1)), ([], "1000"),
                                   (["--q", "1/4"], "175"))],
            # an exact coefficient, or the generating function at a large d,
            # leaves the float range below the bound
            (["verify", "genfun", "--q", "1/1000", "--order", "170"],
             "d = 2, q = 1/1000, order = 170: the generating function or its "
             "exact coefficients overflow a float"),
            (["verify", "genfun", "--d", "1000000000", "--order", "100"],
             "d = 1000000000, q = 1/2, order = 100: the generating function or "
             "its exact coefficients overflow a float"),
            (["verify", "genfun", "--q", "1/4", "--d", "1000000000"],
             "d = 1000000000, q = 1/4, order = 10: the generating function or "
             "its exact coefficients overflow a float"),
            # hahn's time grows about as k_max^3, and linearly in d_max
            *[(["verify", "hahn", "--kmax", kmax],
               f"k_max must be <= {HAHN_KMAX} for hahn (its time grows about as k_max^3)")
              for kmax in (str(HAHN_KMAX + 1), "10000")],
            (["verify", "hahn", "--d", str(HAHN_DMAX + 1)],
             f"d_max must be <= {HAHN_DMAX} for hahn"),
            # eta refuses a chain eta_0..eta_k of too many packed fields
            # before it grows, however large k or d
            *[(["eta", "--d", d, "--q", "1/2", "--k", k],
               f"d = {d}, k = {k}: the chain eta_0..eta_k would hold more than "
               f"{ETA_FIELDS_MAX} exponent fields")
              for d, k in (("1", "100000000"), ("1", "706"), ("3", "36"))],
            # the omega table's output grows about as k_max^3; verify radial
            # prints the same table, and refuses before computing anything
            *[(argv, f"k_max must be <= {OMEGA_KMAX} for omega "
                     "(its output grows about as k_max^3)")
              for argv in (["omega", "--d", "1", "--q", "1/3", "--kmax", str(OMEGA_KMAX + 1)],
                           ["omega", "--d", "1", "--q", "1/3", "--kmax", "1500"],
                           ["verify", "radial", "--kmax", str(OMEGA_KMAX + 1)])],
            # a packed layout grows as d^2: d is refused where it enters,
            # given or inferred from the variables, before a layout is built
            *[(argv, f"mode count d must be <= {MODES_MAX}")
              for argv in (["normal-order", "--d", "3000", "--", "a1"],
                           ["normal-order", "--", f"a{MODES_MAX + 1}"],
                           ["normal-order", "--", "c1000000000"],
                           ["order", "--q", "1/2", "--", f"z1*zb{MODES_MAX + 1}"],
                           ["unorder", "--d", str(MODES_MAX + 1), "--q", "1/2", "--", "1"],
                           ["verify", "sl2", "--d", str(MODES_MAX + 1)],
                           ["verify", "intertwine", "--d", str(MODES_MAX + 1)],
                           ["verify", "harmonics", "--d", str(MODES_MAX + 1)])],
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"weylharm: error: {message}\n"

    def test_orthogonality_kmax_bound(self, capsys, monkeypatch):
        # the bound itself is accepted; the rule is stubbed, since a real
        # run at the bound takes about 10 s (one above is refused above)
        import weylharm.numerics as numerics

        def stub(d, k_max):
            eye = [[float(m == n) for n in range(k_max + 1)] for m in range(k_max + 1)]
            return {"normalized": eye, "gram": eye, "diagonal_positive": True,
                    "stable": True, "drift": 0.0, "tail_bound": 0.0}

        monkeypatch.setattr(numerics, "orthogonality_stable", stub)
        argv = ["verify", "orthogonality", "--d", "1", "--kmax", str(ORTHOGONALITY_KMAX)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_hahn_bounds(self, capsys, monkeypatch):
        # both bounds together are accepted; the families are stubbed, since
        # a real run there takes about 7 s (one above each is refused above)
        import weylharm.verify as verify

        for name in ("g_poly_symmetric", "continuous_hahn_poly", "meixner_pollaczek_poly"):
            monkeypatch.setattr(verify, name, lambda *args: UniPoly())
        for name in ("hyp2f1_3f2_connection_check", "gauss_contiguous_check",
                     "krawtchouk_meixner_check"):
            monkeypatch.setattr(verify, name, lambda *args: True)
        argv = ["verify", "hahn", "--d", str(HAHN_DMAX), "--kmax", str(HAHN_KMAX)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_genfun_order_bound(self, capsys):
        # the bound itself is accepted and runs (its coefficient case fails
        # genuinely there), with 170! still a finite float
        argv = ["verify", "genfun", "--q", "1/4", "--d", "1", "--order", str(GENFUN_ORDER_MAX)]
        assert main(argv) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["normal-order", "--d", "1", "--", "(a1+c1)^3000000000"],
        ["order", "--q", "1/2", "--", "(z1+zb1)^3000000000"],
        ["normal-order", "--", "a1^3000000000"],
    ])
    def test_power_past_bound_refused_before_any_product(self, capsys, monkeypatch,
                                                         argv):
        # squaring toward these powers runs for minutes before a product
        # reaches the bound, so none may be taken
        import weylharm.poly as poly
        import weylharm.weyl as weyl

        def no_product(*args):
            raise AssertionError("a product was taken")

        monkeypatch.setattr(weyl, "_mul_terms", no_product)
        monkeypatch.setattr(poly, "_mul_terms", no_product)
        assert main(argv) == 2
        exponent = argv[-1].rpartition("^")[2]
        assert capsys.readouterr().err == (
            f"weylharm: error: power {exponent} of an element with exponent 1 "
            "would reach the exponent bound 2^31\n")

    def test_exponent_just_below_bound_accepted(self, capsys):
        code, out = run_cli(capsys, "normal-order", "--",
                            "c1^1073741824 * c1^1073741823")
        assert code == 0 and out.strip() == "c1^2147483647"

    @pytest.fixture
    def digit_limit(self):
        # the interpreter's limit on printed digits, pinned to its default
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv, message", [
        # |c|^n with c the coefficient at the largest key bounds some part
        # of the result below: 2^14300 would have 4305 digits
        (["normal-order", "--d", "1", "--", "2^10000000"], "power 10000000 {} (at position 2)"),
        (["normal-order", "--d", "1", "--", "(1+i)^1000000"], "power 1000000 {} (at position 6)"),
        (["normal-order", "--d", "1", "--", "(2*c1)^20000"], "power 20000 {} (at position 7)"),
        (["normal-order", "--d", "1", "--", "2^3000000000"], "power 3000000000 {} (at position 2)"),
        (["normal-order", "--", "(1/2*a1 + 1/3*c1)^9100"], "power 9100 {} (at position 18)"),
        (["order", "--q", "1/2", "--", "(z1 + 3*zb1)^9100"], "power 9100 {} (at position 13)"),
        (["normal-order", "--", "2^14300"], "power 14300 {} (at position 2)"),
        (["normal-order", "--", "1" * 4301], "integer of 4301 digits is longer than 4300 "
                                             "digits (at position 0)"),
        (["normal-order", "--", "c1^2 + 1/" + "3" * 4301], "integer of 4301 digits is "
                                                           "longer than 4300 digits (at position 9)"),
        (["normal-order", "--", "c" + "1" * 4301], "integer of 4301 digits is longer than "
                                                   "4300 digits (at position 0)"),
    ])
    def test_unprintable_power_refused_before_it_is_taken(self, capsys, monkeypatch,
                                                          digit_limit, argv, message):
        # the interpreter would refuse to print such a result only after
        # computing it, naming its own setting
        from weylharm.weyl import TermMap

        def no_power(*args):
            raise AssertionError("a power was taken")

        monkeypatch.setattr(TermMap, "__pow__", no_power)
        assert main(argv) == 2
        err = capsys.readouterr().err
        expected = message.format(f"would have a coefficient of more than {digit_limit} digits")
        assert err == f"weylharm: error: {expected}\n"
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("text, value", [
        ("2^14284", 2 ** 14284),  # 4300 digits, the most the limit prints
        ("2^14000", 2 ** 14000),
        ("(1/2)^14000", None),  # a denominator of 4215 digits
        ("(1+c1)^3", None),
        ("7" * 4300, int("7" * 4300)),
    ])
    def test_printable_power_accepted(self, capsys, digit_limit, text, value):
        code, out = run_cli(capsys, "normal-order", "--", text)
        assert code == 0
        if value is not None:
            assert out.strip() == str(value)

    @pytest.mark.parametrize("text", ["2^14000 * 2^14000", "(c1 + 2^14000)^2"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_unprintable_result_refused_at_the_printer(self, capsys, digit_limit, text,
                                                       as_json):
        # no power check can see these: a product of printable factors, and
        # a square whose largest coefficient sits at the constant key
        assert main(["normal-order", "--d", "1"] + ["--json"] * as_json + ["--", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"weylharm: error: the result has a coefficient of more than "
                       f"{digit_limit} digits, too long to print\n")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_result_at_the_digit_limit_printed(self, capsys, digit_limit, as_json):
        code, out = run_cli(capsys, "normal-order", "--d", "1", *["--json"] * as_json,
                            "--", "2^7142 * 2^7142")
        assert code == 0
        assert str(2 ** 14284) in out and len(str(2 ** 14284)) == digit_limit

    def test_no_digit_limit_no_refusal(self, capsys, digit_limit):
        sys.set_int_max_str_digits(0)
        code, out = run_cli(capsys, "normal-order", "--", "2^20000")
        assert code == 0 and out.strip() == str(2 ** 20000)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["normal-order", "--d", "2", "--", "c1^1073741824*c2^1073741824"],
             "c1^1073741824*c2^1073741824"),
            (["order", "--q", "1/2", "--", "z1^1073741824 * zb2^1073741824"],
             "c2^1073741824*a1^1073741824"),
        ],
    )
    def test_degrees_past_bound_accepted_when_fields_stay_below(self, capsys, argv,
                                                                 expected):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == expected

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["omega", "--d", "1", "--q", "0", "--k", "3"], "--k 3"),
            (["eta", "--d", "1", "--q", "0", "--k", "1", "--js"], "--js"),
            (["order", "z1", "--q", "1/2", "--js"], "--js"),
            (["normal-order", "a1", "--js"], "--js"),
        ],
    )
    def test_abbreviated_flag_rejected(self, capsys, argv, flag):
        # "--k" must not run as "--kmax", nor "--js" as "--json"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, line",
        [
            (["order", "z1", "--q", "1/2", "--bogus"],
             "weylharm: error: unrecognized arguments: --bogus"),
            (["order", "z1", "--q", "1/2", "--js"],
             "weylharm: error: unrecognized arguments: --js"),
            (["order", "--q", "1/2"],
             "weylharm order: error: the following arguments are required: expression"),
            ([], "weylharm: error: the following arguments are required: command"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_exact_verbs_import_budget(self):
        # A cold CLI process pays only for what its verb runs: `verify` and
        # `linalg` serve only the verify verb, and neither numpy nor
        # `dataclasses` (which imports `inspect`) is used at all.
        script = textwrap.dedent("""
            import sys
            import weylharm.cli as cli

            BUDGET = ("numpy", "dataclasses", "inspect",
                      "weylharm.verify", "weylharm.linalg")

            def check(after):
                loaded = [m for m in BUDGET if m in sys.modules]
                assert not loaded, f"{loaded} imported by {after}"

            check("import weylharm.cli")
            for argv in (["normal-order", "a1*c1"],
                         ["order", "z1*zb1", "--q", "1/2"],
                         ["unorder", "c1*a1 + 1", "--q", "0"],
                         ["decompose", "c1^2*a1^2", "--q", "1/2"],
                         ["omega", "--d", "1", "--q", "1/2", "--kmax", "3"],
                         ["eta", "--d", "2", "--q", "1/4", "--k", "2"]):
                assert cli.main(argv) == 0, argv
                check(argv[0])
            assert cli.main(["verify", "sl2", "--json"]) == 0
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["suite"] == "sl2"
        assert all(case["status"] == "PASS" for case in report["cases"])


def cold_call(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


class TestEntryPoint:
    """`run` is the process entry: `main`, then gc.freeze() on every way
    out.  `main` itself changes nothing process-wide."""

    @pytest.mark.parametrize("argv", [
        ["omega", "--d", "1", "--q", "1/2", "--kmax", "3"],
        ["eta", "--d", "0", "--q", "1/2", "--k", "2"],
        ["--help"],
        ["order", "z1", "--q", "1/2", "--bogus"],
    ])
    def test_main_leaves_collector_unfrozen(self, capsys, argv):
        before = gc.get_freeze_count()
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_run_freezes_on_every_way_out(self):
        script = textwrap.dedent("""
            import gc
            import sys
            from weylharm.cli import run

            for argv, expected in ((["omega", "--q", "0", "--kmax", "2"], 0),
                                   (["eta", "--d", "0", "--q", "1/2", "--k", "2"], 2),
                                   (["--help"], 0),
                                   (["omega", "--kmax", "2"], 2)):
                gc.unfreeze()
                sys.argv = ["weylharm", *argv]
                try:
                    code = run()
                except SystemExit as exc:
                    code = exc.code
                assert code == expected, (argv, code)
                assert gc.get_freeze_count() > 0, argv
        """)
        proc = cold_call("-c", script)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv, loaded", [
        (["omega", "--d", "2", "--q", "1/3", "--kmax", "4"], []),
        (["verify", "sl2", "--d", "1", "--count", "2", "--deg", "2"], []),
        (["omega", "--d", "2", "--q", "1/3", "--kmax", "4", "--json"], ["json"]),
        (["eta", "--d", "2", "--q", "1/3", "--k", "2"], ["weylharm.expr"]),
        (["eta", "--d", "2", "--q", "1/3", "--k", "2", "--json"], ["json"]),
    ], ids=["omega", "verify-sl2", "omega-json", "eta", "eta-json"])
    def test_cold_call_loads_json_and_expr_only_when_used(self, argv, loaded):
        script = textwrap.dedent("""
            import sys
            import weylharm.cli as cli

            assert cli.main(sys.argv[1:]) == 0
            print([m for m in ("json", "weylharm.expr") if m in sys.modules])
        """)
        proc = cold_call("-c", script, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == repr(loaded)

    @pytest.mark.parametrize("argv, code, err_lines", [
        (["omega", "--d", "2", "--q", "1/3", "--kmax", "4"], 0, 0),
        (["eta", "--d", "0", "--q", "1/2", "--k", "2"], 2, 1),
        (["omega", "--k", "3", "--q", "0"], 2, 1),
        (["--help"], 0, 0),
    ], ids=["pass", "bad-value", "usage-error", "help"])
    def test_module_exit_status(self, capsys, monkeypatch, argv, code, err_lines):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
        proc = cold_call("-m", "weylharm.cli", *argv)
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == err_lines
        assert all(line.startswith("weylharm") and ": error: " in line for line in lines)
        try:
            main(argv)
        except SystemExit:
            pass
        assert proc.stdout == capsys.readouterr().out


class TestClosedPipe:
    """A reader that closes standard output early ends the command quietly,
    with exit status EXIT_CLOSED_PIPE and nothing on standard error."""

    def spawn(self, stdout, *argv):
        # stdout block-buffered, as by default: a closed pipe then shows at
        # a flush, which argparse's --help does not guard the way it guards
        # its own writes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.Popen([sys.executable, "-m", "weylharm.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE,
                                env=dict(env, PYTHONPATH=SRC))

    def test_reader_closes_after_100_bytes(self):
        from weylharm.cli import EXIT_CLOSED_PIPE

        # about 170 kB of JSON, more than a pipe buffers, so the writer is
        # still writing when the reader goes
        proc = self.spawn(subprocess.PIPE, "normal-order", "--json", "--",
                          "(a1+c1+a2+c2)^16")
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_CLOSED_PIPE
        assert head.startswith(b'{"d": 2, "terms": [')
        assert err == b""

    @pytest.mark.parametrize("argv", [
        ["omega", "--d", "2", "--q", "0", "--kmax", "6"],
        ["verify", "sl2", "--d", "1", "--count", "2", "--deg", "2"],
        ["--help"],
        ["omega", "--help"],
    ])
    def test_reader_closed_before_any_output(self, argv):
        from weylharm.cli import EXIT_CLOSED_PIPE

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.spawn(write_end, *argv)
        finally:
            os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_CLOSED_PIPE
        assert err == b""


class TestVerify:
    def test_sl2_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "sl2", "--d", "2", "--q", "1/3", "--deg", "4",
            "--count", "5",
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_radial_table_q0(self, capsys):
        code, out = run_cli(
            capsys, "verify", "radial", "--d", "1", "--q", "0", "--kmax", "4"
        )
        assert code == 0
        assert "6, 11, 6, 1" in out  # rising factorial row

    @pytest.mark.parametrize("q, sign", [
        ("1/2", "<= 0"),
        ("5/2", "> 0 for q outside [0, 1]"),
        ("-2/3", "> 0 for q outside [0, 1]"),
    ])
    def test_radial_certificate_sign_follows_q(self, capsys, q, sign):
        # -q(1-q)k(k+d-1) is <= 0 only for q in [0, 1]; outside it the exact
        # value is positive and the case still passes
        code, out = run_cli(capsys, "verify", "radial", "--d", "3", f"--q={q}",
                            "--kmax", "10", "--json")
        assert code == 0
        assert json.loads(out)["cases"][-1] == {
            "id": "non-orthogonality certificate", "status": "PASS",
            "detail": "equals -q(1-q)k(k+d-1) and " + sign,
        }

    def test_json_deterministic(self, capsys):
        args = ["verify", "intertwine", "--d", "1", "--q", "1/2",
                "--count", "4", "--json", "--seed", "42"]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert set(report) >= {"suite", "params", "seed", "cases"}
        assert report["seed"] == 42
        for case in report["cases"]:
            assert set(case) == {"id", "status", "detail"}

    def test_orthogonality(self, capsys):
        code, out = run_cli(
            capsys, "verify", "orthogonality", "--d", "1", "--kmax", "4", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert all(c["status"] == "PASS" for c in report["cases"])

    def test_genfun(self, capsys):
        code, out = run_cli(
            capsys, "verify", "genfun", "--q", "1/2", "--d", "1", "--order", "6"
        )
        assert code == 0

    def test_hahn(self, capsys):
        code, out = run_cli(capsys, "verify", "hahn", "--kmax", "5")
        assert code == 0

    @pytest.mark.parametrize("extra, dmax", [([], 4), (["--d", "1"], 1), (["--d", "3"], 3)])
    def test_hahn_honours_d(self, capsys, extra, dmax):
        code, out = run_cli(capsys, "verify", "hahn", "--kmax", "2", "--json", *extra)
        assert code == 0
        assert json.loads(out)["params"]["dmax"] == dmax

    def test_k_flag_rejected(self, capsys):
        # no suite reads --k, and it must not pass as an abbreviation of --kmax
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sl2", "--k", "99"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_harmonics(self, capsys):
        code, out = run_cli(
            capsys, "verify", "harmonics", "--d", "1", "--kmax", "3",
            "--count", "3", "--deg", "4",
        )
        assert code == 0

    def test_harmonics_honours_kmax(self, capsys):
        code, out = run_cli(
            capsys, "verify", "harmonics", "--kmax", "6", "--d", "1", "--count", "2",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["params"]["kmax"] == 6


class TestExactOutputPinned:
    # sha256 of the output bytes: any change to an exact result or to the
    # report layout changes the digest.  The omega digest was recorded
    # before UniPoly moved onto numerators over one common denominator; the
    # verify-all digest was re-recorded when the float layer moved from
    # numpy to the standard library, which changed only the orthogonality
    # and genfun reports, and again when the orthogonality rule took panels
    # sized to the weight's poles and g_k by their recurrence, which changed
    # only the orthogonality reports, and again when the harmonics suite's
    # case "harmonic dimensions match kernel ranks" was renamed "harmonic
    # basis rank matches dimension formula" (the exact suites are pinned on
    # their own below)
    @pytest.mark.parametrize("argv, digest", [
        (["verify", "all", "--json", "--seed", "1"],
         "fc5019787f0495b7dbcd830cdc072f1b957447cb67643bd56c6314153fe5032c"),
        (["omega", "--d", "3", "--q=2/7", "--kmax", "60", "--json"],
         "8265168c519431bb6c2f87dbf9ad090fc183785a1660d50e10f89f0b005e1d8a"),
        (["verify", "all", "--seed", "1"],
         "ea07af8f8dc1afcdba462b5971bf01fda70499d80946b8e03639ac690f273f4d"),
        (["omega", "--d", "3", "--q=2/7", "--kmax", "60"],
         "44cc3f800ebad8eb6d86b2dbff12ea6e3ce706ea12660ef9a7bf2bcf4942ce79"),
        (["eta", "--d", "2", "--q=1/4", "--k", "3"],
         "3086d9dcf51539e2feacbd103803b7eb054e5c0c63918547dca60ec72e4dd7e0"),
        (["eta", "--d", "2", "--q=1/4", "--k", "3", "--json"],
         "e57a40e034f85c61956fa1dbcbea5dbfeb0e752a289449762ba8754f0702392c"),
        # q > 1 and q < 0, where 1 - q and q are negative ints over b,
        # recorded before the radial layer moved onto those ints
        (["verify", "radial", "--d", "3", "--q=5/2", "--kmax", "10", "--json"],
         "471aa632842ebaed3c0109c9af8da0a284cb0bf71d571989183d34a922901895"),
        (["verify", "radial", "--d", "3", "--q=-2/3", "--kmax", "10", "--json"],
         "84248015d9b581b69f33a3e265118a1f548cbc50f45403ae74afae67d6c75dbd"),
        (["verify", "hahn", "--kmax", "12", "--d", "5", "--json"],
         "14d3d85ba0b8dc9614fac0345d42e497cdc4254237f6d86ee575cefc7792730a"),
        (["omega", "--d", "2", "--q=5/2", "--kmax", "12", "--json"],
         "107483b3bb6dd8e96f206b75e1a4b2cab60c24a3d2e05cfa308cece7dabfd68a"),
        (["omega", "--d", "2", "--q=-2/3", "--kmax", "12", "--json"],
         "bfbb19e150e66c9e580eae9131c260fd353b035f987914e2727a868eda350482"),
    ], ids=["verify-all-seed-1", "omega-d3-q2/7", "verify-all-seed-1-text",
            "omega-d3-q2/7-text", "eta-d2-q1/4-text", "eta-d2-q1/4",
            "radial-d3-q5/2", "radial-d3-q-2/3", "hahn-d5-k12", "omega-d2-q5/2",
            "omega-d2-q-2/3"])
    def test_output_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_exact_suites_digest(self, capsys):
        # the report lines of the exact suites in `verify all --json --seed 1`,
        # recorded while the float suites still ran on numpy, and re-recorded
        # for the renamed harmonics case above, the only change
        code, out = run_cli(capsys, "verify", "all", "--json", "--seed", "1")
        assert code == 0
        exact = [line + "\n" for line in out.splitlines()
                 if json.loads(line)["suite"] in
                 ("sl2", "intertwine", "radial", "harmonics", "hahn")]
        assert len(exact) == 21
        assert hashlib.sha256("".join(exact).encode()).hexdigest() == (
            "42d08d565dd0a31432418cc383fad2226791e92c749786794f228ee31e29776e")

    # the element verbs read their input through the expression parser;
    # digests recorded before the parser evaluated as it read, for the
    # human form and then the JSON form of each call
    @pytest.mark.parametrize("argv, digests", [
        (["normal-order", "--", "(a1+c1)^3*a2 - 1/2*i"],
         ("f7995d4f0762a44a8c3df72a4b237f77cc3eb3a8579a2bc8dad599757ae1a4ce",
          "049c4e099637ec4d9efca70fbf737ba2f47aab3a6edd15e410d13257f69e6e01")),
        (["order", "--q=1/3", "--", "(z1+zb1)^4 - 1/2*i*z1"],
         ("da064d2bcfab6b5d1f731ecd0f900348b783e1e01ad785c8465bd409e05a44c3",
          "491f2e51278044f9463252f7dc5e2de7b5684d13cdf45796f22c32745d3e2f04")),
        (["unorder", "--q=1/3", "--", "(a1+c1)^3*a2 - 1/2*i"],
         ("93af37e67fdb2e097788c3347d722a64ee204ccdd73a68bee29e4db255881604",
          "7a2db250d472f264a0fed46bc07273b2cf0ead3c402c3ed6a6a7aaf3bbbb0d0d")),
        (["decompose", "--q=1/2", "--", "c1^2*a1^2"],
         ("97f8519adf817b69f726fd9d530cdc0d8438567504d4c4550a38ea5e825354cd",
          "927b777237a171a29ac90491e26bb03e44000b5edf55afacf41f61de45acc5ff")),
        (["decompose", "--q=1/3", "--", "(a1+c1)^2*(a2+c2)^2 - 2/3*i*c1*a2"],
         ("cb3dab2be305a1a00c762fff5af9b5cd5bcefacd207200c05e4fda7bffb2a014",
          "21dddcb33502ad3ce3395649e20857768a5bc7bb96d85e3137a35e17b1871c18")),
    ], ids=["normal-order", "order-q1/3", "unorder-q1/3", "decompose-q1/2",
            "decompose-d2-q1/3"])
    def test_parsed_output_digest(self, capsys, argv, digests):
        for extra, digest in zip(([], ["--json"]), digests):
            code, out = run_cli(capsys, *argv[:-2], *extra, *argv[-2:])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest
