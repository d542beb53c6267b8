"""Test-side references shared by several test modules: the induction
lemma's closed forms and its check on the indicator pair function, the
etale unit A-motive model, and the period of a rescaled recursion family."""

from fractions import Fraction

from ffperiods.amotive import AMotiveModel
from ffperiods.cmshtuka import RecursionFamily, _omega_from_family, recursion_family
from ffperiods.lfunctions import indicator_pair_function, mu_art_v, z_v_rational
from ffperiods.ratfunc import QPoly, RatFunc
from ffperiods.series import TruncSeries
from ffperiods.towers import LocalFieldTower


def pair_mu_closed_form(datum, phi, psi, v_pi_diff=None):
    """Closed form of sum_g a_{K,phi,psi}(g) mu(g): 0 when the residue parts
    differ; v(D) for phi = psi; -v(psi(pi) - phi(pi)) otherwise."""
    if phi.j != psi.j:
        return Fraction(0)
    if phi == psi:
        return Fraction(phi.e - 1, phi.e) if phi.e > 1 else Fraction(0)
    # tame, equal residue part, different root index
    if v_pi_diff is not None:
        return -v_pi_diff
    return -Fraction(1, phi.e)


def pair_z_closed_form(datum, phi, psi):
    """Closed form (1/e_K) x^(f - E) / (1 - x^f) with E = (j(phi) - j(psi))
    reduced to {0..f-1}; matches the direct W^n resummation for the source
    embedding phi and target psi (a(g) = [g.phi = psi])."""
    f, e = phi.f, phi.e
    E = (phi.j - psi.j) % f
    num = QPoly([0] * (f - E) + [1])
    den = QPoly([1] + [0] * (f - 1) + [-1])
    return RatFunc(num, den).scale(Fraction(1, e))


def lemma_pair_check(datum, phi, psi, v_pi_diff=None):
    """Both identities for the indicator pair function: the mu-sum against its
    closed form and the Z-series against its closed form.  Returns the tuple
    (lhs_mu, rhs_mu, lhs_Z, rhs_Z, equal)."""
    a = indicator_pair_function(datum, phi, psi)
    lhs_mu = mu_art_v(datum, a)
    rhs_mu = pair_mu_closed_form(datum, phi, psi, v_pi_diff)
    lhs_z = z_v_rational(datum, a)
    rhs_z = pair_z_closed_form(datum, phi, psi)
    return lhs_mu, rhs_mu, lhs_z, rhs_z, (lhs_mu == rhs_mu and lhs_z == rhs_z)


def identity_model(q, rank, q_v=None):
    """The etale unit model: tau the identity matrix."""
    tower = LocalFieldTower.base(q_v or q)
    theta = tower.uniformizer()
    one = TruncSeries.one(tower)
    zero = TruncSeries.zero(tower)
    tau = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
    return AMotiveModel(q, rank, tau, theta, tower)


def rescaled_period(cm, phi, psi, depth, rescale):
    """The period of phi's recursion family l+ times the integral unit
    a = sum_j rescale[j] y^j (integers, rescale[0] a unit), read in the
    psi-coordinate: l'_n = sum_j a_j l_(n-j) solves the same relation, since
    sigma^f fixes the a_j."""
    fam = recursion_family(cm, phi, depth)
    a = [fam.tower.residue.elem(c) for c in rescale]
    ells = [sum((fam.ells[n - j].scale_coeff(c) for j, c in enumerate(a[:n + 1]) if c),
                fam.tower.zero()) for n in range(len(fam.ells))]
    scaled = RecursionFamily(fam.tower, fam.xi, fam.q_tilde, ells)
    if not scaled.verify_tau_property():
        raise AssertionError("rescaled family fails its defining relation")
    return _omega_from_family(scaled, cm, phi, psi)
