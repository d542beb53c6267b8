import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import ffperiods
from ffperiods import cli, cmshtuka
from ffperiods.cli import main
from ffperiods.cmshtuka import AmbiguousLeadingTermError, LeadingTermMismatchError
from ffperiods.series import InsufficientPrecisionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_carlitz_table(capsys):
    code, out, err = run(capsys, "carlitz", "--q", "2", "--max-degree", "2",
                         "--depth", "2", "--format", "table")
    assert code == 0
    assert "total: 0/1·log q" in out
    assert "t^2 + t + 1" in out
    assert "series" in out


def test_carlitz_json(capsys):
    code, out, err = run(capsys, "carlitz", "--q", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == "0/1"
    assert data["schema"] == "1"
    assert {"infty", "places", "regularization", "total"} <= set(data)


def test_carlitz_rejects_non_prime_power(capsys):
    code, out, err = run(capsys, "carlitz", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_carlitz_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "carlitz", "--q", "2", "--format", "json")
    code2, out2, _ = run(capsys, "carlitz", "--q", "2", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def cm_file(tmp_path, payload):
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_omega_tame_agreement(capsys, tmp_path):
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 3,
        "components": [{"f": 1, "e": 2, "tame": True}],
        "cm_type": {"(0,0,0)": 1},
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 0
    assert "agreement:        yes" in out
    assert "-1/4" in out


def test_omega_carlitz_value(capsys, tmp_path):
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 2,
        "components": [{"f": 1, "e": 1, "tame": True}],
        "cm_type": {"(0,0,0)": 1},
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 0
    assert "series valuation: 1/1" in out


def test_omega_wild_without_tables(capsys, tmp_path):
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 2,
        "components": [{"f": 1, "e": 2, "tame": False}],
        "cm_type": {"(0,0,0)": 1},
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 2
    assert "diff_valuation" in err


def test_omega_wild_with_tables(capsys, tmp_path):
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 2,
        "components": [{"f": 1, "e": 2, "tame": False,
                        "diff_valuation": "3/2",
                        "pairwise": [[0, 1, "1/2"]]}],
        "cm_type": {"(0,0,0)": 1},
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,1)")
    assert code == 0
    assert "closed-form valuation only" in out
    assert "1/1" in out  # 1/2 + 1/2


def test_omega_bad_schema(capsys, tmp_path):
    path = cm_file(tmp_path, {"schema": "0", "q_v": 2})
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 2


def galois_file(tmp_path, payload):
    path = tmp_path / "galois.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_zv_trivial(capsys, tmp_path):
    path = galois_file(tmp_path, {"schema": "1", "q_v": 2, "mode": "tame",
                                  "f": 1, "e": 1})
    code, out, err = run(capsys, "zv", "--galois", path)
    assert code == 0
    assert "Z_v(a, 1) = 1/1" in out
    assert "Z_v(a, 0): pole" in out
    assert "mu_Art,v(a) = 0/1" in out


def test_zv_pair_character(capsys, tmp_path):
    path = galois_file(tmp_path, {"schema": "1", "q_v": 2, "mode": "tame",
                                  "f": 2, "e": 1})
    code, out, err = run(capsys, "zv", "--galois", path, "--char", "pair",
                         "--phi", "(1,0)", "--psi", "(0,0)")
    assert code == 0
    assert "Z_v(a, 1) = 2/3" in out


def test_zv_table_mode(capsys, tmp_path):
    path = galois_file(tmp_path, {
        "schema": "1", "q_v": 2, "mode": "table",
        "elements": ["id", "g"],
        "table": {"id": {"id": "id", "g": "g"}, "g": {"id": "g", "g": "id"}},
        "inertia": ["id", "g"],
        "frobenius_coset": ["id", "g"],
        "mu": {"id": "1/2", "g": "-1/2"},
    })
    code, out, err = run(capsys, "zv", "--galois", path)
    assert code == 0
    assert "mu_Art,v(a) = 0/1" in out


# Z_v lines of the README's tame datum and of q_v = 3, f = 3, e = 2; the
# rational-function strings are the polynomial reprs in x
@pytest.mark.parametrize("datum,char,lines", [
    ((2, 2, 3), [], ["Z_v(a, s) in x = q_v^(-s): (-1*x) / (x + -1)"]),
    ((2, 2, 3), ["--char", "pair", "--phi", "(1,0)", "--psi", "(0,0)"],
     ["Z_v(a, s) in x = q_v^(-s): (-1/3*x) / (x^2 + -1)"]),
    ((3, 3, 2), ["--char", "pair", "--phi", "(2,1)", "--psi", "(0,0)"],
     ["Z_v(a, s) in x = q_v^(-s): (-1/2*x) / (x^3 + -1)", "Z_v(a, 1) = 9/52"]),
])
def test_zv_rational_function_lines(capsys, tmp_path, datum, char, lines):
    q_v, f, e = datum
    path = galois_file(tmp_path, {"schema": "1", "q_v": q_v, "mode": "tame", "f": f, "e": e})
    code, out, err = run(capsys, "zv", "--galois", path, *char)
    assert code == 0
    for line in lines:
        assert line in out.splitlines()


def test_omega_output_ignores_cm_type(capsys, tmp_path):
    # cm_type is validated but omega reports one embedding pair without it
    outs = []
    for cm_type in ({"(0,0,0)": 1}, {"(0,0,0)": 5, "(0,0,1)": -7}):
        path = cm_file(tmp_path, dict(TAME_CM, cm_type=cm_type))
        outs.append(run(capsys, "omega", "--cm", path, "--phi", "(0,0,0)", "--psi", "(0,0,1)"))
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


def test_regularize_carlitz(capsys, tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({
        "schema": "1", "q": 2, "genus": 0, "character": "trivial",
        "explicit": [],
    }))
    code, out, err = run(capsys, "regularize", "--config", str(path))
    assert code == 0
    assert "value: -2/1·log q" in out


def test_regularize_pole_exit_code(capsys, tmp_path):
    # L^infty = 1/(1-u) has a pole at s = 0
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({
        "schema": "1", "q": 2, "genus": 0, "character": "user",
        "l_infty": {"num": ["1"], "den": ["1", "-1"]},
        "explicit": [],
    }))
    code, out, err = run(capsys, "regularize", "--config", str(path))
    assert code == 1


def test_tower_bound_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FFP_TOWER_BOUND", "3")
    # the cap governs omega only: carlitz takes every place through the series
    code, out, err = run(capsys, "carlitz", "--q", "2", "--max-degree", "2",
                         "--depth", "2")
    assert code == 0
    assert "closed-form" not in out
    assert out.count(" series\n") == 3


def test_zv_char_file(capsys, tmp_path):
    gal = galois_file(tmp_path, {"schema": "1", "q_v": 3, "mode": "tame",
                                 "f": 1, "e": 2})
    cf = tmp_path / "cf.json"
    cf.write_text(json.dumps({"schema": "1",
                              "values": {"(0,0)": "1/1", "(0,1)": "0/1"}}))
    code, out, err = run(capsys, "zv", "--galois", gal, "--char-file", str(cf))
    assert code == 0
    assert "mu_Art,v(a) = 1/2" in out


def test_zv_char_file_missing_value(capsys, tmp_path):
    gal = galois_file(tmp_path, {"schema": "1", "q_v": 3, "mode": "tame",
                                 "f": 1, "e": 2})
    cf = tmp_path / "cf.json"
    cf.write_text(json.dumps({"schema": "1", "values": {"(0,0)": "1/1"}}))
    code, out, err = run(capsys, "zv", "--galois", gal, "--char-file", str(cf))
    assert code == 2


def test_zv_missing_mu_prints_nothing(capsys, tmp_path):
    # mu_Art is computed before any line is printed
    code, out, err = run(capsys, "zv", "--galois", galois_file(tmp_path, Z2_TABLE))
    assert code == 2
    assert out == "" and err == "error: mu value missing for 'id'\n"


def test_omega_table_free_residue_field(capsys, tmp_path, monkeypatch):
    # q_v = 2^18 is above the log-table limit; e = 3 needs a root of unity
    monkeypatch.setenv("FFP_TOWER_BOUND", "1000000000000")
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 2 ** 18,
        "components": [{"f": 1, "e": 3, "tame": True}],
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,1)", "--depth", "1")
    assert code == 0
    assert "agreement:        yes" in out


@pytest.mark.parametrize("component", [
    {"f": 1, "e": 2, "tame": True},  # e = 2 does not divide q_v - 1 = 3
    {"f": 0, "e": 1, "tame": True},
    {"e": 1, "tame": True},
])
def test_omega_bad_component_exit_code(capsys, tmp_path, component):
    path = cm_file(tmp_path, {"schema": "1", "q_v": 4, "components": [component]})
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 2
    assert "bad cm component" in err


@pytest.mark.parametrize("embedding", ["(-1,0,0)", "(0,-1,0)", "(0,0,-1)"])
def test_omega_negative_embedding_index(capsys, tmp_path, embedding):
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 3,
        "components": [{"f": 1, "e": 2, "tame": True}],
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", embedding, "--psi", embedding)
    assert code == 2


@pytest.mark.parametrize("q", ["1000003", "999999999989"])  # primes
def test_carlitz_large_prime_q_exits_2(capsys, q):
    code, out, err = run(capsys, "carlitz", "--q", q)
    assert code == 2
    assert "prime power <= 16" in err


def test_omega_twelve_digit_prime_q_v_is_a_resource_limit(capsys, tmp_path):
    path = cm_file(tmp_path, {"schema": "1", "q_v": 999999999989,
                              "components": [{"f": 1, "e": 1, "tame": True}]})
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 2
    assert err.startswith("resource limit:")


@pytest.mark.parametrize("error, code, prefix", [
    (InsufficientPrecisionError, 2, "resource limit:"),
    (AmbiguousLeadingTermError, 2, "resource limit:"),
    (LeadingTermMismatchError, 1, "cross-check failure:"),
])
def test_omega_period_failure_after_rerun_exit_code(capsys, tmp_path, monkeypatch,
                                                    error, code, prefix):
    # a precision error that survives the two-unit rerun is a resource limit;
    # two readings of the leading term that disagree are a cross-check failure
    def short_at_every_unit(fam, *args):
        raise error("forced at %d units" % fam.tower.units)

    monkeypatch.setattr(cmshtuka, "_omega_from_family", short_at_every_unit)
    monkeypatch.setenv("FFP_TOWER_BOUND", "1000")
    path = cm_file(tmp_path, {"schema": "1", "q_v": 9,
                              "components": [{"f": 1, "e": 1, "tame": True}]})
    got, out, err = run(capsys, "omega", "--cm", path,
                        "--phi", "(0,0,0)", "--psi", "(0,0,0)", "--depth", "1")
    assert got == code
    assert err.startswith(prefix) and "forced at 2 units" in err
    assert "Traceback" not in err and out == ""


def test_omega_string_q_v_exit_code(capsys, tmp_path):
    path = cm_file(tmp_path, {"schema": "1", "q_v": "4",
                              "components": [{"f": 1, "e": 3, "tame": True}]})
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert code == 2
    assert "prime-power q_v" in err


def test_zero_denominator_rational_exit_code(capsys, tmp_path):
    path = cm_file(tmp_path, {
        "schema": "1",
        "q_v": 2,
        "components": [{"f": 1, "e": 2, "tame": False, "diff_valuation": "1/0",
                        "pairwise": [[0, 1, "1/2"]]}],
    })
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,1)")
    assert code == 2
    assert "bad rational '1/0'" in err
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"schema": "1", "q": 2, "genus": 0, "character": "trivial",
                               "explicit": [{"label": "t", "degree": 1, "x": "1/0"}]}))
    code, out, err = run(capsys, "regularize", "--config", str(reg))
    assert code == 2
    assert "bad rational '1/0'" in err


def test_regularize_non_integer_degree_exit_code(capsys, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"schema": "1", "q": 2, "genus": 0, "character": "trivial",
                               "explicit": [{"label": "t", "degree": "x", "x": "1"}]}))
    code, out, err = run(capsys, "regularize", "--config", str(reg))
    assert code == 2
    assert "integer degree" in err


def test_regularize_zero_l_infty_denominator_exit_code(capsys, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"schema": "1", "q": 2, "genus": 0, "character": "user",
                               "l_infty": {"num": ["1"], "den": ["0"]}, "explicit": []}))
    code, out, err = run(capsys, "regularize", "--config", str(reg))
    assert code == 2
    assert "zero denominator" in err


def test_tower_bound_error_is_a_resource_limit(capsys, tmp_path):
    path = cm_file(tmp_path, {"schema": "1", "q_v": 3,
                              "components": [{"f": 1, "e": 2, "tame": True}]})
    code, out, err = run(capsys, "omega", "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,1)", "--depth", "40")
    assert code == 2
    assert err.startswith("resource limit:") and "FFP_TOWER_BOUND" in err


def test_tower_degree_too_long_to_print_is_a_resource_limit(capsys, tmp_path):
    # f = 20000 over F_2 needs a tower degree of more than 6000 digits, more
    # than an int may print: it is named as a power of two, not a traceback
    path = cm_file(tmp_path, {"schema": "1", "q_v": 2, "components": [{"f": 20000, "e": 1}]})
    code, out, err = run(capsys, "omega", "--cm", path, "--phi", "(0,0,0)", "--psi", "(0,0,0)")
    assert (code, out) == (2, "")
    assert err == ("resource limit: even depth 0 needs tower degree >= 2^20014, above the "
                   "bound 64 (FFP_TOWER_BOUND sets the cap)\n")


def test_explicit_depth_checks_the_cap_before_building(tmp_path):
    # the unramified step alone (degree 32) is within the default cap, but
    # F_(2^256) is not built: the Kummer step's degree 32 (256^32 - 1) is
    # above the cap, and that is checked first, as it is without --depth
    path = cm_file(tmp_path, {"schema": "1", "q_v": 256,
                              "components": [{"f": 32, "e": 1, "tame": True}]})
    env = {k: v for k, v in os.environ.items() if k != "FFP_TOWER_BOUND"}
    proc = _python_in_subprocess(["-m", "ffperiods.cli", "omega", "--cm", path, "--phi",
                                  "(0,0,0)", "--psi", "(0,0,0)", "--depth", "0"], 2, env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource limit: tower degree")


@pytest.mark.parametrize("q_v,f,e,bits", [(2, 62, 3, (62, 61)), (3, 37, 2, (59, 58))])
def test_unfactorable_generator_order_is_a_resource_limit(capsys, tmp_path, monkeypatch,
                                                          q_v, f, e, bits):
    # mu_e needs the generator of F_(q_v^f), whose order 2^62 - 1 (3^37 - 1)
    # has two prime factors above the trial division bound 2^20; as for
    # F_(2^256) under a raised cap, the command stops there, in process
    monkeypatch.setenv("FFP_TOWER_BOUND", "1" + "0" * 84)
    path = cm_file(tmp_path, {"schema": "1", "q_v": q_v,
                              "components": [{"f": f, "e": e, "tame": True}]})
    start = time.perf_counter()
    code, out, err = run(capsys, "omega", "--cm", path, "--phi", "(0,0,0)",
                         "--psi", "(0,0,1)", "--depth", "0")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == ("resource limit: cannot factor a %d-bit number: a %d-bit part is left "
                   "after trial division up to 2^20\n" % bits)


def test_zv_tame_f40_finishes(tmp_path):
    # the unramified step of degree 40 builds F_(2^80) and embeds F_4 in it
    path = galois_file(tmp_path, {"schema": "1", "q_v": 4, "mode": "tame", "f": 40, "e": 1})
    proc = _python_in_subprocess(["-m", "ffperiods.cli", "zv", "--galois", path,
                                  "--char", "trivial"], 10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "Z_v(a, 1) = 1/3\nmu_Art,v(a) = 0/1\n" in proc.stdout


# trivial-character row degrees, each dividing the first
DIVISOR_CHAIN = [3000000, 1500000, 1000000, 500000]
# trivial-character row degrees, none dividing another
CONSECUTIVE = list(range(400000, 400100))


def _regularize_in_subprocess(tmp_path, payloads, timeout):
    """Run `regularize` on each payload in one fresh interpreter, so that a
    build of q^degree times out; the exit code is the largest."""
    configs = []
    for n, payload in enumerate(payloads):
        path = tmp_path / ("reg%d.json" % n)
        path.write_text(json.dumps(payload))
        configs.append(str(path))
    script = (
        "import sys\n"
        "from ffperiods.cli import main\n"
        "sys.exit(max(main(['regularize', '--config', p]) for p in sys.argv[1:]))\n"
    )
    return _python_in_subprocess(["-c", script] + configs, timeout)


def _python_in_subprocess(args, timeout, env=None):
    """A fresh interpreter on `args`, with this ffperiods on its path."""
    src = os.path.dirname(os.path.dirname(ffperiods.__file__))
    env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_regularize_huge_row_degree_exits_at_once(tmp_path):
    # q^degree is never built: rows of degree 10^8 or 10^9 exit 2 at once, at
    # odd q too, and next to a row of a coprime degree
    proc = _regularize_in_subprocess(tmp_path, [
        {"schema": "1", "q": q, "explicit": [{"degree": degree, "x": "1/3"} for degree in degrees]}
        for q, degrees in [(3, [10 ** 8]), (7, [10 ** 9]), (2, [10 ** 9]),
                           (3, [10 ** 8, 10 ** 8 - 1])]], timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert proc.stderr == "resource limit: a rational has more than %d digits\n" % limit * 4


def test_regularize_divisor_chain_exits_at_once(tmp_path):
    # the lower degrees divide the top one, so together their q^d - 1 share
    # every bit of q^D - 1; the primes of order D still fill the denominator
    proc = _regularize_in_subprocess(tmp_path, [{"schema": "1", "q": 3, "explicit": [
        {"degree": degree, "x": "1"} for degree in DIVISOR_CHAIN]}], timeout=2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource limit:")


@pytest.mark.parametrize("q, degrees", [(2, CONSECUTIVE), (3, range(1, 1501))],
                         ids=["400000-400099", "1-1500"])
def test_regularize_many_row_degrees_exit_at_once(tmp_path, q, degrees):
    # no one degree's primes fill the denominator, but those of every degree
    # above half the top one do together
    proc = _regularize_in_subprocess(tmp_path, [{"schema": "1", "q": q, "explicit": [
        {"degree": degree, "x": "1"} for degree in degrees]}], timeout=2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource limit:")


@pytest.mark.parametrize("command", ["omega"])
def test_tower_bound_env_below_one(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setenv("FFP_TOWER_BOUND", "-5")
    path = cm_file(tmp_path, {"schema": "1", "q_v": 3,
                              "components": [{"f": 1, "e": 2, "tame": True}]})
    code, out, err = run(capsys, command, "--cm", path,
                         "--phi", "(0,0,0)", "--psi", "(0,0,1)")
    assert code == 2
    assert "FFP_TOWER_BOUND must be >= 1" in err


def test_carlitz_deep_depth_stays_within_memory():
    # the exact 1-unit product at infinity has 2^depth terms unless its
    # precision is capped; run under a 1 GiB address-space limit
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ffperiods.cli import main\n"
        "sys.exit(main(['carlitz', '--q', '2', '--max-degree', '2', '--depth', '40']))\n"
    )
    src = os.path.dirname(os.path.dirname(ffperiods.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "infinite place: 2/1·log q" in proc.stdout


def test_cross_check_survives_python_O():
    # under python -O a wrong infinite-place value still stops carlitz with
    # exit 1, and a wrong L-route still raises CrossCheckError
    script = (
        "import sys\n"
        "from ffperiods import carlitz, cmshtuka\n"
        "from ffperiods.cli import main\n"
        "from ffperiods.lfunctions import log_q_value\n"
        "if sys.flags.optimize != 1: sys.exit(5)\n"
        "carlitz.log_q_value = lambda v: log_q_value(v + 1)\n"
        "code = main(['carlitz', '--q', '2', '--max-degree', '1'])\n"
        "mu = cmshtuka.mu_art_v\n"
        "cmshtuka.mu_art_v = lambda datum, a: mu(datum, a) + 1\n"
        "psi = cmshtuka.Embedding(0, 0, 0)\n"
        "cm = cmshtuka.CMAlgebra(3, [cmshtuka.CMComponent(1, 1)])\n"
        "try:\n"
        "    cmshtuka.cm_period_valuation(cm, {psi: 1}, psi)\n"
        "except cmshtuka.CrossCheckError:\n"
        "    sys.exit(code)\n"
        "sys.exit(4)\n"
    )
    src = os.path.dirname(os.path.dirname(ffperiods.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "cross-check failure: infinite place gives 3 log q" in proc.stderr


PRIME_POWERS_TO_16 = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}


@given(q=st.one_of(st.sampled_from(sorted(PRIME_POWERS_TO_16)), st.integers(-3, 40)),
       max_degree=st.integers(-2, 2), depth=st.integers(-2, 3))
@settings(max_examples=30, deadline=None)
def test_carlitz_input_contract(q, max_degree, depth):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["carlitz", "--q=%d" % q, "--max-degree=%d" % max_degree,
                     "--depth=%d" % depth, "--format", "json"])
    valid = q in PRIME_POWERS_TO_16 and max_degree >= 1 and depth >= 0
    assert code == (0 if valid else 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if valid:
        assert json.loads(out.getvalue())["total"] == "0/1"
    else:
        assert err.getvalue().startswith("error: ")


TAME_GALOIS = {"schema": "1", "q_v": 3, "mode": "tame", "f": 1, "e": 2}
TAME_CM = {"schema": "1", "q_v": 3, "components": [{"f": 1, "e": 2, "tame": True}]}
USER_REG = {"schema": "1", "q": 2, "genus": 0, "character": "user",
            "l_infty": {"num": ["1"], "den": ["1"]}}


# (command, {file option: JSON payload}): every file goes through the one
# reader, which wants a JSON object with schema "1"
@pytest.mark.parametrize("command,files", [
    ("omega", {"--cm": []}),
    ("zv", {"--galois": []}),
    ("zv", {"--galois": TAME_GALOIS, "--char-file": []}),
    ("zv", {"--galois": TAME_GALOIS, "--char-file": {"schema": "1", "values": []}}),
    ("regularize", {"--config": []}),
    ("omega", {"--cm": dict(TAME_CM, cm_type=[])}),
    ("omega", {"--cm": dict(TAME_CM, cm_type={"(0,0,0)": "a"})}),
    ("regularize", {"--config": {"schema": "1", "q": 2, "genus": "a"}}),
    ("regularize", {"--config": dict(USER_REG, explicit=[{"degree": 1, "x": "1"}])}),
    ("regularize", {"--config": {"schema": "1", "q": 2, "explicit": [{"degree": 0, "x": "1"}]}}),
    ("regularize", {"--config": dict(USER_REG, l_infty=[])}),
    ("zv", {"--galois": TAME_GALOIS,
            "--char-file": {"schema": "1", "values": {"(0,0)": True, "(0,1)": 1}}}),
])
def test_malformed_input_files_exit_2(capsys, tmp_path, command, files):
    argv = [command]
    for i, (option, payload) in enumerate(files.items()):
        path = tmp_path / ("input%d.json" % i)
        path.write_text(json.dumps(payload))
        argv += [option, str(path)]
    if command == "omega":
        argv += ["--phi", "(0,0,0)", "--psi", "(0,0,0)"]
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err



# small tame data (q_v, f, e): e | q_v^f - 1, so p does not divide e
SMALL_TAME = [(q_v, f, e) for q_v in (2, 3, 4, 5, 7, 8, 9) for f in (1, 2)
              if q_v ** f <= 25 for e in range(1, 9) if (q_v ** f - 1) % e == 0]


@st.composite
def omega_calls(draw):
    """(q_v, f, e), phi, psi, depth and whether the call is valid input."""
    q_v, f, e = draw(st.sampled_from(SMALL_TAME))
    in_range = st.builds("(0,{},{})".format, st.integers(0, f - 1), st.integers(0, e - 1))
    malformed = st.sampled_from(["(0,0)", "(0,0,0,0)", "(a,0,0)", "", "(1,0,0)",
                                 "(-1,0,0)", "(0,-1,0)", "(0,%d,0)" % f, "(0,0,%d)" % e])
    embedding = st.one_of(in_range.map(lambda s: (s, True)),
                          malformed.map(lambda s: (s, False)))
    (phi, phi_ok), (psi, psi_ok) = draw(embedding), draw(embedding)
    depth = draw(st.one_of(st.none(), st.integers(-3, 2)))
    valid = phi_ok and psi_ok and (depth is None or depth >= 0)
    return (q_v, f, e), phi, psi, depth, valid


@given(call=omega_calls())
@settings(max_examples=100, deadline=None)
def test_omega_exit_code_contract(tmp_path_factory, call):
    # exit 0 with agreement, or exit 2 with a message; every call runs in this
    # process, through the one parser that cli.main keeps
    (q_v, f, e), phi, psi, depth, valid = call
    path = tmp_path_factory.getbasetemp() / ("cm_%d_%d_%d.json" % (q_v, f, e))
    path.write_text(json.dumps({"schema": "1", "q_v": q_v,
                                "components": [{"f": f, "e": e, "tame": True}]}))
    argv = ["omega", "--cm", str(path), "--phi=" + phi, "--psi=" + psi]
    if depth is not None:
        argv.append("--depth=%d" % depth)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert valid and out.endswith("agreement:        yes\n") and not err
    else:
        assert code == 2 and not out, (argv, code, err)
        # invalid input is an error; valid input may only hit a resource limit
        assert err.startswith("resource limit: " if valid else "error: "), (argv, err)
    assert cli._parser() is cli._parser()


# wrong JSON types: out of range (1e400 reads as inf), NaN, a bool, a fraction,
# null and strings, alone or in lists
WRONG_ATOMS = [json.loads("1e400"), float("nan"), True, 1.9, None, "ab", "1"]
WRONG_TYPE = st.one_of(st.sampled_from(WRONG_ATOMS),
                       st.lists(st.sampled_from(WRONG_ATOMS + [[1, 2]]), max_size=2))
CM_SLOTS = ["components", "component", "f", "e", "tame", "pairwise", "cm_type",
            "cm_type value"]


@st.composite
def cm_payloads(draw):
    """A well-formed cm.json with one slot given a wrong type, and the exit code
    it must give: 0 where the value still means something (tame true; pairwise
    null or an empty list, no table), else 2."""
    comp = {"f": 1, "e": 2, "tame": True, "pairwise": [[0, 1, "1/2"]]}
    payload = {"schema": "1", "q_v": 3, "components": [comp], "cm_type": {"(0,0,0)": 1}}
    slot, value = draw(st.sampled_from(CM_SLOTS)), draw(WRONG_TYPE)
    if slot == "component":
        payload["components"] = [value]
    elif slot == "cm_type value":
        payload["cm_type"] = {"(0,0,0)": value}
    else:
        (comp if slot in comp else payload)[slot] = value
    ok = (slot, value) == ("tame", True) or (slot == "pairwise" and value in (None, []))
    return payload, 0 if ok else 2


@given(call=cm_payloads())
@settings(max_examples=80, deadline=None)
def test_cm_json_fuzz_exit_code_contract(tmp_path_factory, call):
    # JSON integers and bools only, and components a list of objects: anything
    # else exits 2 with a message, never a traceback and never a rounded value
    payload, expected = call
    path = tmp_path_factory.getbasetemp() / "fuzz_cm.json"
    path.write_text(json.dumps(payload))
    check_exit_contract(["omega", "--cm", str(path), "--phi", "(0,0,0)", "--psi", "(0,0,1)",
                         "--depth", "0"], expected, "agreement:        yes")



def check_exit_contract(argv, expected, last_line, message="error: "):
    """One in-process call exits `expected`: 0 with stdout ending in a line that
    starts with `last_line` and nothing on stderr, else a message that starts
    `message` and nothing on stdout.  Never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    assert code == expected, (argv, code, err)
    if code == 0:
        assert not err and out.splitlines()[-1].startswith(last_line), (argv, out, err)
    else:
        assert err.startswith(message) and not out, (argv, out, err)


RATIONAL = st.one_of(st.integers(-3, 3),
                     st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 4)))
BAD_RATIONAL = st.sampled_from(["1/0", "a", [1], 0.5, None, True])
# (j, k): small enough to be in range half of the time, else anywhere near it
PAIR = st.one_of(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                 st.tuples(st.integers(-3, 8), st.integers(-3, 8)))
BAD_PAIR = st.sampled_from(["(0)", "(a,0)", "", "(0,0,0)"])
Z2_TABLE = {"schema": "1", "q_v": 2, "mode": "table", "elements": ["id", "g"],
            "table": {"id": {"id": "id", "g": "g"}, "g": {"id": "g", "g": "id"}},
            "inertia": ["id", "g"], "frobenius_coset": ["id", "g"]}


def maybe(flaws):
    """No flaw half of the time, else one of `flaws`."""
    return st.one_of(st.none(), st.sampled_from(flaws))


@st.composite
def galois_data(draw):
    """A galois.json payload, well formed or with one flaw; the keys of its
    elements in a class-function file, or None if the payload is malformed;
    and the keys of the inertia elements it gives no mu for."""
    shape = draw(st.sampled_from(["tame", "ramified", "tame", "unramified", "int elements"]))
    if shape == "tame":
        q_v, f, e = draw(st.sampled_from(SMALL_TAME))
        payload = {"schema": "1", "q_v": q_v, "mode": "tame", "f": f, "e": e}
        keys = ["(%d,%d)" % (a, k) for a in range(f) for k in range(e)]
        flaw = draw(maybe([{"q_v": 6}, {"q_v": "4"}, {"f": 0}, {"f": "a"}, {"e": 0},
                           {"e": -1}, {"e": q_v ** f}, {"mode": "wild"}]))
        if flaw is not None:
            payload.update(flaw)
            keys = None
        return payload, keys, set()
    payload = dict(Z2_TABLE, mu={"id": draw(RATIONAL), "g": draw(RATIONAL)})
    if shape == "unramified":
        payload.update(inertia=["id"], frobenius_coset=["g"])
    elif shape == "int elements":  # JSON numbers are elements too; mu keys never match
        payload.update(elements=[0, 1], table=[[0, 1], [1, 0]], inertia=[0, 1],
                       frobenius_coset=[0, 1])
    flaw = draw(maybe(["no mu", "bad mu", "broken table"]))
    if flaw == "no mu":
        del payload["mu"]
    elif flaw == "bad mu":
        payload["mu"] = dict(payload["mu"], g=draw(BAD_RATIONAL))
    elif flaw == "broken table":
        payload["table"] = {"id": Z2_TABLE["table"]["id"]}
    keys = None if flaw in ("bad mu", "broken table") else [str(g) for g in payload["elements"]]
    no_mu = flaw == "no mu" or shape == "int elements"
    return payload, keys, {str(g) for g in payload["inertia"]} if no_mu else set()


@st.composite
def zv_calls(draw):
    """(galois payload, class-function payload or None, extra argv, exit code)."""
    galois, keys, lacks_mu = draw(galois_data())
    ok, argv, char_file = keys is not None, [], None
    value = dict.fromkeys(keys or [], 1)  # the character's values by element key
    kind = draw(st.sampled_from(["default", "trivial", "pair", "file"]))
    if kind == "trivial":
        argv = ["--char", "trivial"]
    elif kind == "pair":
        argv = ["--char", "pair"]
        ok = ok and galois.get("mode") == "tame"
        lacks_mu = set()  # a tame datum's mu is known
        flaw = draw(maybe(["malformed", "missing"]))
        for option in ("--phi", "--psi"):
            if flaw == "missing" and option == "--psi":
                continue
            if flaw == "malformed" and option == "--phi":
                raw = draw(BAD_PAIR)
            else:
                j, k = draw(PAIR)
                raw = "(%d,%d)" % (j, k)
                # an embedding out of range exits 2, as omega's do
                ok = ok and 0 <= j < galois["f"] and 0 <= k < galois["e"]
            argv.append("%s=%s" % (option, raw))
        ok = ok and flaw is None
    elif kind == "file":
        values = {key: draw(RATIONAL) for key in keys or ["id"]}
        value = {key: Fraction(str(v)) for key, v in values.items()}
        flaw = draw(maybe(["missing key", "bad value", "not a map"]))
        if flaw == "missing key":
            values.popitem()
        elif flaw == "bad value":
            values[next(iter(values))] = draw(BAD_RATIONAL)
        char_file = {"schema": "1", "values": list(values) if flaw == "not a map" else values}
        ok = ok and flaw is None
    # mu_Art(a) reads mu(g) only where a(g) != 0
    ok = ok and not any(value[key] for key in lacks_mu)
    return galois, char_file, argv, 0 if ok else 2


@given(call=zv_calls())
@settings(max_examples=120, deadline=None)
def test_zv_exit_code_contract(tmp_path_factory, call):
    # tame and table data, the trivial, pair and file characters, each well
    # formed or not: exit 0 with mu_Art, else exit 2 with `error:`
    galois, char_file, extra, expected = call
    base = tmp_path_factory.getbasetemp()
    (base / "zv_galois.json").write_text(json.dumps(galois))
    argv = ["zv", "--galois", str(base / "zv_galois.json")] + extra
    if char_file is not None:
        (base / "zv_char.json").write_text(json.dumps(char_file))
        argv += ["--char-file", str(base / "zv_char.json")]
    check_exit_contract(argv, expected, "mu_Art,v(a) = ")


def pole_or_zero_at_one(num, den):
    """Whether num/den, in lowest terms, has a pole or a zero at u = 1, where
    its log-derivative at s = 0 is read (by sympy)."""
    u = sympy.symbols("u")
    n, d = sympy.fraction(sympy.cancel(
        sum(sympy.Rational(str(c)) * u ** i for i, c in enumerate(num))
        / sum(sympy.Rational(str(c)) * u ** i for i, c in enumerate(den))))
    return n.subs(u, 1) == 0 or d.subs(u, 1) == 0


REG_FLAWS = [{"q": 6}, {"q": 1}, {"q": "2"}, {"q": None}, {"genus": "a"}, {"genus": [0]},
             {"genus": "2"}, {"genus": True}, {"genus": 1.9}, {"genus": json.loads("1e400")},
             {"explicit": 5}, {"explicit": "ab"}, {"explicit": {"degree": 1, "x": "1"}},
             {"explicit": [{"degree": 0, "x": "1", "z_v_at_1": "1"}]},
             {"explicit": [{"degree": "a", "x": "1", "z_v_at_1": "1"}]},
             {"explicit": [{"degree": 1.9, "x": "1", "z_v_at_1": "1"}]},
             {"explicit": [{"degree": json.loads("1e400"), "x": "1", "z_v_at_1": "1"}]},
             {"explicit": [{"x": "1", "z_v_at_1": "1"}]},
             {"explicit": [{"degree": 1, "z_v_at_1": "1"}]},
             {"explicit": [{"degree": 1, "x": "1/0", "z_v_at_1": "1"}]},
             {"explicit": [5]}]
USER_FLAWS = [{"l_infty": None}, {"l_infty": []}, {"l_infty": {"num": ["1"]}},
              {"l_infty": {"num": ["1/0"], "den": ["1"]}},
              {"l_infty": {"num": ["1"], "den": ["0", "0"]}},
              {"a_identity": "1/0"}, {"mu_infty": [1]},
              {"explicit": [{"degree": 1, "x": "1"}]}]


@st.composite
def regularize_configs(draw):
    """A reg.json payload, well formed or with one flaw, the exit code it must
    give and the start of its message: 2 if it is malformed, 2 with a resource
    limit if a trivial-character row's degree is too large to print its
    rationals, 1 if the user's L has a pole or a zero at s = 0, else 0."""
    user = draw(st.booleans())
    row = st.fixed_dictionaries({"label": st.just("t"), "degree": st.integers(1, 3),
                                 "x": RATIONAL, "z_v_at_1": RATIONAL})
    config = {"schema": "1", "q": draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])),
              "genus": draw(st.sampled_from([0, 1, 2])),
              "explicit": draw(st.lists(row, max_size=3))}
    for key in ("genus", "explicit"):
        if draw(st.booleans()):
            del config[key]
    num, den = [], [1]
    if user:
        num = draw(st.lists(RATIONAL, max_size=3))
        den = draw(st.lists(RATIONAL, min_size=1, max_size=3).filter(
            lambda cs: any(Fraction(str(c)) for c in cs)))
        config.update(character="user", l_infty={"num": num, "den": den},
                      a_identity=draw(RATIONAL), mu_infty=draw(RATIONAL))
    elif draw(st.booleans()):
        config["character"] = "trivial"
    # Z_v(1, 1) = 1/(q^20000 - 1) has more digits than an int may print, and
    # so has the sum over a chain of divisors of 3 * 10^6 or over 100
    # consecutive degrees
    huge = not user and draw(st.integers(0, 5)) == 0
    if huge:
        config["explicit"] = config.get("explicit", []) + [
            {"label": "t", "degree": degree, "x": "1"}
            for degree in draw(st.sampled_from([[20000], DIVISOR_CHAIN, CONSECUTIVE]))]
    flaw = draw(maybe(REG_FLAWS + (USER_FLAWS if user else [])))
    if flaw is not None:
        config.update(flaw)
        if flaw.get("l_infty", 0) is None:
            del config["l_infty"]
        return config, 2, "error: "
    if huge:
        return config, 2, "resource limit: "
    return config, 1 if user and pole_or_zero_at_one(num, den) else 0, "error: "


@given(call=regularize_configs())
@settings(max_examples=150, deadline=None)
def test_regularize_exit_code_contract(tmp_path_factory, call):
    # trivial and user characters, well formed or with one flaw: exit 0 with
    # the value, 1 where the user's L has no log-derivative at s = 0, else 2
    config, expected, message = call
    path = tmp_path_factory.getbasetemp() / "reg.json"
    path.write_text(json.dumps(config))
    check_exit_contract(["regularize", "--config", str(path)], expected, "value: ", message)
