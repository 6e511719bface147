"""Command surface: subcommands, exit codes, deterministic JSON reports."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from weylharm.cli import main

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

    def test_omega_table(self, capsys):
        code, out = run_cli(capsys, "omega", "--d", "1", "--q", "0", "--kmax", "2")
        assert code == 0
        assert "2, 3, 1" in out  # omega_2 = t^2 + 3t + 2 at q = 0, d = 1

    def test_eta(self, capsys):
        code, out = run_cli(capsys, "eta", "--d", "1", "--q", "1/2", "--k", "1")
        assert code == 0
        assert out.strip() == "c1*a1 + 1/2"

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
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"weylharm: error: {message}\n"

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
        # A cold CLI process pays only for what its verb runs: numpy serves
        # only the float suites, `verify` and `linalg` only the verify verb,
        # and `dataclasses` (which imports `inspect`) is not used at all.
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
    # sha256 of the exact output bytes, recorded before UniPoly moved onto
    # numerators over one common denominator; any change to an exact result
    # or to the report layout changes the digest
    @pytest.mark.parametrize("argv, digest", [
        (["verify", "all", "--json", "--seed", "1"],
         "9d0fc5b2c0bac68f5dbc2aff138320a455a6d6951040aec824a9cc1cb15baf91"),
        (["omega", "--d", "3", "--q=2/7", "--kmax", "60", "--json"],
         "8265168c519431bb6c2f87dbf9ad090fc183785a1660d50e10f89f0b005e1d8a"),
    ], ids=["verify-all-seed-1", "omega-d3-q2/7"])
    def test_output_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
