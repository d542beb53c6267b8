"""Good-reduction A-motive models over R = kappa[[pi]] and their local
shtukas at a finite place.

The entries of the twist matrix are polynomials in t with coefficients in R;
the structure map sends t to theta in R.  At a place cut out by a monic
irreducible p(t) of degree d the associated local shtuka is obtained by

  (i)  Hensel-solving p(T) = z for t = T(z) in R[[z]], starting from the
       residue root of p that matches theta's reduction, and
  (ii) substituting T(z) into the d-fold twisted product
       tau . sigma*tau . ... . sigma^(d-1)*tau, where sigma raises the
       R-coefficients to the q-th power and fixes t.

For the Carlitz motive at a degree-1 place the output is exactly z - zeta.
"""

from .coeffseries import poly_at_series
from .fields import PolyFq
from .series import TruncSeries
from .towers import LocalFieldTower, TowerError, _newton, newton_root


class ResidueMismatchError(ValueError):
    pass


class HenselFailureError(ArithmeticError):
    pass


class AMotiveModel:
    """rank, matrix of t-polynomials over the model tower, and theta."""

    def __init__(self, q, rank, tau_matrix, theta, tower):
        self.q = q
        self.rank = rank
        self.tau = tau_matrix  # rank x rank nested lists of TruncSeries in t
        self.theta = theta
        self.tower = tower
        if len(tau_matrix) != rank or any(len(row) != rank for row in tau_matrix):
            raise ValueError("tau matrix must be %d x %d" % (rank, rank))


def carlitz_model(q, place_poly):
    """The Carlitz motive (rank 1, tau = t - theta) over the completion at
    the place of p(theta); theta is the Hensel root of p(X) = zeta."""
    d = place_poly.degree
    q_v = q ** d
    tower = LocalFieldTower.base(q_v, prec=4 * d + 28)
    theta, _ = _theta_root(tower, q, place_poly)
    t_poly = TruncSeries(tower, {0: -theta, 1: tower.one()})
    return AMotiveModel(q, 1, [[t_poly]], theta, tower)


def _embed_place_coeffs(tower, q, place_poly):
    """The place polynomial's coefficients as residue constants of the tower."""
    src = place_poly.field
    if src.p != tower.residue.p or tower.residue.k % src.k != 0:
        raise ResidueMismatchError(
            "the model's residue field does not contain the place's coefficient field"
        )
    emb = src.embedding(tower.residue)
    return [tower.from_residue(emb(c)) for c in place_poly.coeffs]


def _theta_root(tower, q, place_poly):
    """Hensel root of p(X) = zeta in the tower, from the smallest residue
    root of p; returns (theta, residue_root)."""
    coeffs = _embed_place_coeffs(tower, q, place_poly)
    coeffs[0] = coeffs[0] - tower.uniformizer()
    root0 = _smallest_residue_root(tower.residue, place_poly)
    theta = newton_root(tower, coeffs, root0)
    return theta, root0


def _smallest_residue_root(res, place_poly):
    emb = place_poly.field.embedding(res)
    root = PolyFq(res, [emb(c) for c in place_poly.coeffs]).first_root()
    if root is None:
        raise ResidueMismatchError("the place polynomial has no root in the residue field")
    return root


def hensel_t_of_z(model, place_poly, depth):
    """T(z) in R[[z]] with p(T) = z and T(0) the residue root matching theta.

    Newton in the z-adic sense; the residue root must be simple (automatic
    for an irreducible place).
    """
    tower, prec = model.tower, depth + 1
    coeffs = _embed_place_coeffs(tower, model.q, place_poly)
    if model.theta.series.prec is not None and model.theta.series.prec < 1:
        raise HenselFailureError("theta has no determined residue")
    theta_res = model.theta.series.terms.get(0, tower.residue.zero)
    t_cur = TruncSeries(tower, {0: tower.from_residue(theta_res)}, prec)
    z_var = TruncSeries.monomial(tower, 1, prec=prec)
    poly = TruncSeries(tower, dict(enumerate(coeffs)))
    dpoly = TruncSeries(tower, {j - 1: c.scale_residue_int(j)
                                for j, c in enumerate(coeffs) if j})
    d0 = poly_at_series(dpoly, t_cur, prec, tower).terms.get(0)
    if d0 is None or not d0.series.terms or d0.ord() != 0:
        raise HenselFailureError("place root is not simple; Hensel cannot start")
    return _newton(
        t_cur, lambda t: poly_at_series(poly, t, prec, tower) - z_var,
        lambda t, fx: fx * poly_at_series(dpoly, t, prec, tower).inv(prec), prec,
        HenselFailureError("z-adic Newton did not converge"))


def _sigma_twist_poly(poly, q, n=1):
    """sigma^n on a t-polynomial: coefficients to the q^n power, t fixed."""
    return poly.map_coeffs(lambda c: c.pow(q ** n))


def amotive_to_local_shtuka(model, place_poly, depth):
    """The local shtuka matrix at the place, over truncated R[[z]].

    Returns a rank x rank nested list of TruncSeries in z.
    """
    if not place_poly.is_irreducible():
        raise ValueError("the place polynomial must be irreducible")
    d_v = place_poly.degree
    tower = model.tower
    if tower.residue.k % (d_v * place_poly.field.k) != 0:
        raise ResidueMismatchError(
            "residue field F_(%d^%d) does not contain the place's residue field"
            % (tower.residue.p, tower.residue.k)
        )
    t_of_z = hensel_t_of_z(model, place_poly, depth)
    factors = []
    for i in range(d_v):
        twisted = [
            [_sigma_twist_poly(model.tau[r][c], model.q, i) for c in range(model.rank)]
            for r in range(model.rank)
        ]
        substituted = [
            [
                poly_at_series(entry, t_of_z, depth + 1, tower)
                if entry.terms
                else TruncSeries.zero(tower, depth + 1)
                for entry in row
            ]
            for row in twisted
        ]
        factors.append(substituted)
    out = factors[0]
    for m in factors[1:]:
        out = _mat_mul(out, m, model.rank, depth + 1)
    return out


def _mat_mul(a, b, rank, prec):
    out = []
    for r in range(rank):
        row = []
        for c in range(rank):
            acc = None
            for k in range(rank):
                term = (a[r][k] * b[k][c]).truncate(prec)
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def shtuka_determinant(matrix, prec):
    """Naive Laplace determinant of a small matrix of z-series."""
    rank = len(matrix)
    if rank == 1:
        return matrix[0][0]
    det = None
    for c in range(rank):
        entry = matrix[0][c]
        minor = [
            [matrix[r][cc] for cc in range(rank) if cc != c] for r in range(1, rank)
        ]
        piece = entry * shtuka_determinant(minor, prec)
        if c % 2:
            piece = -piece
        det = piece if det is None else det + piece
    return det.truncate(prec) if det.prec is not None else det


def z_series_hat_order(series, zeta):
    """ord_(z - zeta) of a z-series with R-coefficients: expand around
    z = zeta + u and report the first u-coefficient with a visible term.

    Coefficients that vanish only within precision are treated as zero at
    that precision; the returned order is therefore an 'order within working
    precision', which is the honest notion here.
    """
    tower = zeta.tower
    bound = series.prec if series.prec is not None else max(series.terms, default=0) + 1
    shift = TruncSeries(tower, {0: zeta, 1: tower.one()}, bound)
    around = poly_at_series(series, shift, bound, tower)
    zeta_ord = zeta.ord()
    for m in range(bound):
        c = around.terms.get(m)
        if c is None:
            continue
        # the unknown z-tail O(z^bound) contributes only above this pi-order
        c = c.truncate((bound - m) * zeta_ord)
        if c.series.terms:
            return m
    raise TowerError("no visible coefficient below order %d" % bound)
