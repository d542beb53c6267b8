"""Expected CLI outputs, computed here without calling into ffperiods.

`check(job, result)` returns None when the job's output is right and a
one-line reason otherwise.  A nonzero exit, a traceback and a wrong value
are all failures.
"""

import json
from fractions import Fraction


def frac_str(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _moebius(n):
    m, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        p += 1
    return -m if n > 1 else m


def necklace(q, d):
    """Number of monic irreducible polynomials of degree d over F_q."""
    return sum(_moebius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


def omega_closed_form(q_v, f, e, phi, psi):
    """The three-case closed form for v(Omega(phi, psi)) of a tame component."""
    qt = q_v ** f
    base = Fraction(1, e * (qt - 1))
    if phi == psi:
        return base - Fraction(e - 1, e)
    if phi[0] == psi[0]:
        return base + Fraction(1, e)
    return Fraction(q_v ** ((psi[0] - phi[0]) % f), e * (qt - 1))


def _check_carlitz(params, out):
    q, max_degree = params["q"], params["max_degree"]
    try:
        data = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if data.get("q") != q or data.get("total") != "0/1":
        return "total %r, expected 0/1" % (data.get("total"),)
    if data.get("infty") != frac_str(Fraction(q, q - 1)):
        return "infty %r, expected %s" % (data.get("infty"), frac_str(Fraction(q, q - 1)))
    per_degree = {}
    for place in data.get("places", []):
        d = place["degree"]
        per_degree[d] = per_degree.get(d, 0) + 1
        q_v = q ** d
        expected = {
            "q_v": q_v,
            "log_abs": frac_str(Fraction(-d, q_v - 1)),
            "z_v_at_1": frac_str(Fraction(1, q_v - 1)),
            "hat_order": 1,
        }
        for key, want in expected.items():
            if place.get(key) != want:
                return "place %s: %s = %r, expected %r" % (place.get("place"), key,
                                                           place.get(key), want)
    want_counts = {d: necklace(q, d) for d in range(1, max_degree + 1)}
    if per_degree != want_counts:
        return "places per degree %r, expected %r" % (per_degree, want_counts)
    return None


def _check_omega(params, out):
    want = frac_str(omega_closed_form(params["q_v"], params["f"], params["e"],
                                      params["phi"], params["psi"]))
    lines = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    got = {k.strip(): v.strip() for k, v in lines.items()}
    for key in ("series valuation", "closed form", "Z - mu route"):
        if got.get(key) != want:
            return "%s = %r, expected %s" % (key, got.get(key), want)
    if got.get("agreement") != "yes":
        return "agreement %r" % (got.get("agreement"),)
    return None


def check(job, result):
    if result["exc"]:
        return "traceback: " + result["exc"].strip().splitlines()[-1]
    if result["rc"] != 0:
        err = result["err"].strip().splitlines()
        return "exit %s: %s" % (result["rc"], err[-1] if err else "(no stderr)")
    if job.kind == "carlitz":
        return _check_carlitz(job.params, result["out"])
    return _check_omega(job.params, result["out"])
