"""Command-line front end.

Subcommands:

  carlitz     product-formula run: per-place table or JSON plus the
              regularization ledger; exits 0 only when the total is exactly 0
  omega       period valuations of one embedding pair, three routes compared
  zv          local zeta operator and Artin measure of a class function
  regularize  the four-term regularized value of a tail-convention sum

Exit codes: 0 success, 1 mathematical cross-check failure, 2 invalid input
or a resource limit (an omega tower above the degree cap, a period still
short of precision at two units, or a q - 1 that trial division up to 2^20
cannot factor; the message starts 'resource limit:').
All rational output is exact ('num/den', with an explicit log q marker where
applicable); nothing is ever evaluated in floating point.  The environment
variable FFP_TOWER_BOUND (an integer >= 1) overrides omega's tower degree
cap; carlitz has no cap.
"""

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .carlitz import CrossCheckError, carlitz_product_formula, report_as_dict
from .cmshtuka import (
    DEFAULT_TOWER_BOUND,
    AmbiguousLeadingTermError,
    CMAlgebra,
    CMComponent,
    Embedding,
    LeadingTermMismatchError,
    WildComponentError,
    hat_valuation,
    omega_period,
    omega_valuation_closed,
    omega_valuation_via_L,
    period_valuation_series,
)
from .fields import ResourceLimitError, factor_prime_power
from .lfunctions import (
    ClassFunctionQ,
    ExplicitPlaceTerm,
    LocalGaloisDatum,
    LogQValue,
    MissingMuError,
    indicator_pair_function,
    TameEmbedding,
    log_q_value,
    mu_art_v,
    regularized_sum,
    z_infty_at,
    z_v_rational,
    zeta_closed_forms,
)
from .ratfunc import PoleOrZeroError, QPoly, RatFunc
from .series import InsufficientPrecisionError
from .towers import TowerBoundError, TowerError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2


class InputError(ValueError):
    pass


def _read_input(path, what):
    """The JSON object in the file at `path`, which must have schema "1"."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc))
    if not isinstance(data, dict) or data.get("schema") != "1":
        raise InputError("%s needs a JSON object with schema '1'" % what)
    return data


def _int(x, what):
    """A JSON integer: a bool, a number with a fraction or exponent (1.9,
    1e400) or a string is refused, not rounded or converted."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError("%s must be an integer, got %r" % (what, x))
    return x


def _frac(s):
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        num, den = s.split("/", 1) if "/" in s else (s, "1")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise InputError("bad rational %r" % (s,))
    raise InputError("rationals must be integers or 'num/den' strings: %r" % (s,))


def _too_long():
    return ResourceLimitError("a rational has more than %d digits"
                              % sys.get_int_max_str_digits())


def _frac_str(f):
    f = Fraction(f)
    try:
        return "%d/%d" % (f.numerator, f.denominator)
    except ValueError:  # longer than sys.get_int_max_str_digits() allows
        raise _too_long()


def _log_q_str(v):
    return "%s·log q" % _frac_str(v.coeff if isinstance(v, LogQValue) else v)


def _tower_bound():
    env = os.environ.get("FFP_TOWER_BOUND")
    if env is None:
        return DEFAULT_TOWER_BOUND
    try:
        bound = int(env)
    except ValueError:
        raise InputError("FFP_TOWER_BOUND must be an integer, got %r" % env)
    if bound < 1:
        raise InputError("FFP_TOWER_BOUND must be >= 1, got %d" % bound)
    return bound


def _is_prime_power(n):
    if not isinstance(n, int):
        return False
    try:
        factor_prime_power(n)
        return True
    except ValueError:
        return False


# -- carlitz -----------------------------------------------------------------


def cmd_carlitz(args):
    if args.q > 16 or not _is_prime_power(args.q):
        raise InputError("q must be a prime power <= 16, got %d" % args.q)
    if args.max_degree < 1:
        raise InputError("max-degree must be >= 1")
    if args.depth < 0:
        raise InputError("depth must be >= 0")
    report = carlitz_product_formula(args.q, args.max_degree, args.depth)
    payload = report_as_dict(report)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("Carlitz product formula, q = %d" % args.q)
        print("  infinite place: %s" % _log_q_str(report.infty))
        print("  place           deg  q_v   log|.|_v        route")
        for pv in report.places:
            print("  %-14s %4d %4d   %-14s series"
                  % (pv.place.label(), pv.place.degree, pv.place.q_v,
                     _log_q_str(pv.log_abs)))
        print("  regularized tail: %s" % _log_q_str(report.tail_value))
        print("    -Z^infty(1,0) = %s" % _log_q_str(-report.z_infty_at_zero.coeff))
        print("    conductor term = %s, genus term = %s"
              % (_log_q_str(report.mu_term), _log_q_str(report.genus_term)))
        print("total: %s" % _log_q_str(report.total))
    return EXIT_OK


# -- omega --------------------------------------------------------------------


def _int_tuple(raw, n, form):
    """The n integers of `raw`, written '(a,b,...)'; else InputError(form)."""
    try:
        parts = [int(x) for x in raw.strip().lstrip("(").rstrip(")").split(",")]
    except ValueError:
        parts = None
    if parts is None or len(parts) != n:
        raise InputError("%s, got %r" % (form, raw))
    return parts


def _parse_embedding(raw, cm):
    i, j, k = _int_tuple(raw, 3, "embeddings are written '(i,j,k)'")
    if not 0 <= i < len(cm.components):
        raise InputError("component %d does not exist" % i)
    c = cm.components[i]
    if not (0 <= j < c.f) or not (0 <= k < max(c.e, 1)):
        raise InputError("embedding %r out of range for component %d" % (raw, i))
    return Embedding(i, j, k)


def _load_component(c):
    pairwise = None
    if c.get("pairwise") is not None:
        pairwise = tuple((_int(a, "pairwise index"), _int(b, "pairwise index"), _frac(v))
                         for a, b, v in c["pairwise"])
    tame = c.get("tame", True)
    if not isinstance(tame, bool):
        raise InputError("tame must be true or false, got %r" % (tame,))
    return CMComponent(
        f=_int(c["f"], "f"),
        e=_int(c["e"], "e"),
        tame=tame,
        diff_valuation=(
            _frac(c["diff_valuation"]) if c.get("diff_valuation") is not None
            else None
        ),
        pairwise=pairwise,
    )


def _load_cm(path):
    data = _read_input(path, "cm file")
    if "q_v" not in data or not _is_prime_power(data["q_v"]):
        raise InputError("cm file needs a prime-power q_v")
    comps = data.get("components", [])
    if not isinstance(comps, list) or not all(isinstance(c, dict) for c in comps):
        raise InputError("cm file components must be a list of objects")
    try:
        comps = [_load_component(c) for c in comps]
        # CMAlgebra checks the tame conditions e | q_v^f - 1 and p !| e
        cm = CMAlgebra(data["q_v"], comps)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad cm component: %s" % exc)
    if not comps:
        raise InputError("cm file lists no components")
    raw_type = data.get("cm_type", {})
    if not isinstance(raw_type, dict):
        raise InputError("cm_type must map embeddings '(i,j,k)' to integers")
    cm_type = {}
    for key, d in raw_type.items():
        cm_type[_parse_embedding(key, cm)] = _int(d, "cm_type %s" % key)
    return cm, cm_type


def cmd_omega(args):
    cm, _ = _load_cm(args.cm)
    phi = _parse_embedding(args.phi, cm)
    psi = _parse_embedding(args.psi, cm)
    if phi.i != psi.i:
        raise InputError("phi and psi must lie in the same component")
    comp = cm.components[phi.i]
    try:
        closed = omega_valuation_closed(cm, phi, psi)
    except WildComponentError as exc:
        raise InputError(
            "wild component %d is missing tables (diff_valuation, pairwise): %s"
            % (phi.i, exc)
        )
    if not comp.tame:
        print("component %d is wild: closed-form valuation only" % phi.i)
        print("v(Omega) closed form: %s" % _frac_str(closed))
        return EXIT_OK
    if args.depth is not None and args.depth < 0:
        raise InputError("depth must be >= 0")
    pe = omega_period(cm, phi, psi, depth=args.depth, bound=_tower_bound())
    series = period_valuation_series(pe)
    via_l = omega_valuation_via_L(cm, phi, psi)
    agree = series == closed == via_l
    print("hat order:        %d" % hat_valuation(pe))
    print("series valuation: %s" % _frac_str(series))
    print("closed form:      %s" % _frac_str(closed))
    print("Z - mu route:     %s" % _frac_str(via_l))
    print("agreement:        %s" % ("yes" if agree else "NO"))
    return EXIT_OK if agree else EXIT_MISMATCH


# -- zv -----------------------------------------------------------------------


def _load_galois(path):
    data = _read_input(path, "galois file")
    if "q_v" not in data or not _is_prime_power(data["q_v"]):
        raise InputError("galois file needs a prime-power q_v")
    mode = data.get("mode")
    if mode == "tame":
        try:
            f, e = _int(data["f"], "f"), _int(data["e"], "e")
            return LocalGaloisDatum.tame(data["q_v"], f, e), data
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("bad tame datum: %s" % exc)
    if mode == "table":
        try:
            mu = {g: _frac(v) for g, v in (data.get("mu") or {}).items()}
            return (
                LocalGaloisDatum.from_table(
                    data["q_v"], data["elements"], data["table"],
                    data["inertia"], data["frobenius_coset"], mu,
                ),
                data,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("bad table datum: %s" % exc)
    raise InputError("galois mode must be 'tame' or 'table'")


def _ratfunc_str(f):
    return "(%r) / (%r)" % (f.num, f.den)


def cmd_zv(args):
    datum, raw = _load_galois(args.galois)
    if args.char_file is not None:
        spec = _read_input(args.char_file, "class-function file")
        if not isinstance(spec.get("values"), dict):
            raise InputError("class-function files need a values map")
        values = {}
        for g in datum.elements:
            key = "(%d,%d)" % (g.a, g.k) if raw["mode"] == "tame" else str(g)
            if key not in spec["values"]:
                raise InputError("class function misses a value for %s" % key)
            values[g] = _frac(spec["values"][key])
        a = ClassFunctionQ(datum, values)
        label = "class function from %s" % args.char_file
    elif args.char == "trivial":
        a = ClassFunctionQ.trivial(datum)
        label = "trivial character"
    else:
        if raw.get("mode") != "tame":
            raise InputError("pair characters need a tame datum")
        f, e = datum.f, datum.e
        phi = _parse_tame_pair(args.phi, f, e)
        psi = _parse_tame_pair(args.psi, f, e)
        a = indicator_pair_function(datum, phi, psi)
        label = "indicator of g.%s = %s" % (args.phi, args.psi)
    z = z_v_rational(datum, a)
    try:
        mu = mu_art_v(datum, a)
    except MissingMuError as exc:
        raise InputError(str(exc))
    lines = ["character: %s" % label, "Z_v(a, s) in x = q_v^(-s): %s" % _ratfunc_str(z)]
    for s0 in (0, 1):
        x0 = Fraction(datum.q_v) ** (-s0)
        try:
            lines.append("Z_v(a, %d) = %s" % (s0, _frac_str(z.evaluate(x0))))
        except PoleOrZeroError:
            lines.append("Z_v(a, %d): pole" % s0)
    lines.append("mu_Art,v(a) = %s" % _frac_str(mu))
    print("\n".join(lines))  # nothing printed on an error exit
    return EXIT_OK


def _parse_tame_pair(raw, f, e):
    if raw is None:
        raise InputError("pair characters need --phi and --psi")
    j, k = _int_tuple(raw, 2, "tame embeddings are written '(j,k)'")
    if not (0 <= j < f and 0 <= k < e):
        raise InputError("embedding %r out of range for f = %d, e = %d" % (raw, f, e))
    return TameEmbedding(j, k, f, e)


# -- regularize -----------------------------------------------------------------


def cmd_regularize(args):
    data = _read_input(args.config, "config")
    q = data.get("q")
    if not _is_prime_power(q):
        raise InputError("config needs a prime-power q")
    genus = _int(data.get("genus", 0), "genus")
    character = data.get("character", "trivial")
    if character == "trivial":
        l_infty, _ = zeta_closed_forms(q)
        a_identity = Fraction(1)
        mu_infty = log_q_value(0)
    else:
        lf = data.get("l_infty")
        if lf is None:
            raise InputError("non-trivial characters need an l_infty rational function")
        try:
            l_infty = RatFunc(QPoly([_frac(c) for c in lf["num"]]),
                              QPoly([_frac(c) for c in lf["den"]]))
        except ZeroDivisionError:
            raise InputError("l_infty has a zero denominator")
        except (KeyError, TypeError):
            raise InputError("l_infty needs num and den coefficient lists")
        a_identity = _frac(data.get("a_identity", 1))
        mu_infty = LogQValue(_frac(data.get("mu_infty", 0)))
    parsed, rows = [], data.get("explicit", [])
    if not isinstance(rows, list):
        raise InputError("explicit must be a list of rows, got %r" % (rows,))
    needs = ("x",) if character == "trivial" else ("x", "z_v_at_1")
    for row in rows:
        try:
            deg = _int(row["degree"], "degree")
        except (KeyError, TypeError, InputError):
            raise InputError("explicit rows need an integer degree, got %r" % (row,))
        if deg < 1 or any(key not in row for key in needs):
            raise InputError("explicit rows need a degree >= 1 and %s, got %r"
                             % (" and ".join(needs), row))
        zv1 = None if character == "trivial" else _frac(row["z_v_at_1"])
        parsed.append((str(row.get("label", "?")), deg, _frac(row["x"]), zv1))
    _check_row_digits(q, parsed if character == "trivial" else [])
    explicit = [ExplicitPlaceTerm(label, deg, LogQValue(x),
                                  Fraction(1, q ** deg - 1) if zv1 is None else zv1)
                for label, deg, x, zv1 in parsed]
    try:
        value = regularized_sum(l_infty, q, mu_infty, genus, a_identity, explicit)
        z0 = z_infty_at(l_infty, q, 0)
    except PoleOrZeroError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    corr = sum((t.x_v.coeff + t.z_v_at_one * t.degree for t in explicit), Fraction(0))
    ledger = ["regularized value ledger (coefficients of log q):",
              "  -Z^infty(a*, 0)   = %s" % _frac_str(-z0.coeff),
              "  -mu^infty_Art(a)  = %s" % _frac_str(-mu_infty.coeff),
              "  genus term        = %s" % _frac_str(-2 * genus * a_identity),
              "  explicit terms    = %s" % _frac_str(corr),
              "value: %s" % _log_q_str(value)]
    print("\n".join(ledger))  # all or nothing: a line may hit the digit limit
    return EXIT_OK


def _check_row_digits(q, rows):
    """Refuse trivial-character rows (label, degree, x, _) that cannot print,
    before q^degree is built.  Let D be the top degree, and take each row
    degree d with D < 2d, held by k rows.  A prime l with ord_l(q) = d divides
    q^d - 1 and no q^d' - 1 unless d | d', so no other row degree; it stays
    in the denominator of the sum of x + d/(q^d - 1) unless it divides kd or
    the denominator of some x, and no l serves two such d.  For d >= 3 these
    primes make up Phi_d(q) but for a factor at most d, log2 Phi_d(q) >=
    phi(d) log2 q - 2, and phi(d) > d/(e^gamma L + 2.51/L) with L = log log d
    (Rosser and Schoenfeld 1962), which is more than d/(2B + 27) for B the
    bit length of d's bit length.  log2 q is read off 2^(b-1) <= q^64 < 2^b.
    Nearer the print limit, _frac_str decides."""
    limit = sys.get_int_max_str_digits()
    if not limit or not rows:
        return
    top = max(deg for _, deg, _, _ in rows)
    counts = Counter(deg for _, deg, _, _ in rows if 2 * deg > top)
    b = (q ** 64).bit_length() - 1
    bits = -sum((x.denominator - 1).bit_length() for _, _, x, _ in rows)
    for d, k in counts.items():
        phi_low = d // (2 * d.bit_length().bit_length() + 27)
        bits += max(0, phi_low * b // 64 - 2 - d.bit_length() - (k * d).bit_length())
    if bits >= (10 ** limit).bit_length():
        raise _too_long()


# -- driver ---------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffperiods",
        description="exact period and L-factor computations for CM local shtukas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("carlitz", help="run the Carlitz product formula")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_carlitz)

    p = sub.add_parser("omega", help="period valuations of one embedding pair")
    p.add_argument("--cm", required=True,
                   help="path to a cm.json description; its cm_type is validated "
                        "but not used, since omega reports one embedding pair")
    p.add_argument("--phi", required=True, help="embedding '(i,j,k)'")
    p.add_argument("--psi", required=True, help="embedding '(i,j,k)'")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("zv", help="local zeta operator and Artin measure")
    p.add_argument("--galois", required=True, help="path to a galois.json datum")
    p.add_argument("--char", default="trivial", choices=("trivial", "pair"))
    p.add_argument("--phi", default=None, help="tame embedding '(j,k)'")
    p.add_argument("--psi", default=None, help="tame embedding '(j,k)'")
    p.add_argument("--char-file", default=None,
                   help="JSON class function {schema, values: {g: 'num/den'}}")
    p.set_defaults(fn=cmd_zv)

    p = sub.add_parser("regularize", help="regularized value of a tail sum")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_regularize)

    return parser


_parser = lru_cache(maxsize=None)(build_parser)  # built once per process, not per call


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except (CrossCheckError, LeadingTermMismatchError) as exc:
        print("cross-check failure: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except TowerBoundError as exc:
        print("resource limit: %s (FFP_TOWER_BOUND sets the cap)" % exc, file=sys.stderr)
        return EXIT_INVALID
    except (InsufficientPrecisionError, AmbiguousLeadingTermError) as exc:
        print("resource limit: %s (working precision exhausted)" % exc, file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except (TowerError, PoleOrZeroError, WildComponentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
