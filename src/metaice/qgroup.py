"""Superalgebra crossing matrix, Drinfeld twist, and the match with the
ice crossing weights.

The (1 + nq)-dimensional evaluation module has ordered basis labels
0 < 1 < ... < nq, label 0 standing for the - spin (odd parity) and label
a >= 1 for the + spin with charge a (even parity).  Matrices on the
tensor square are sparse dicts keyed ((alpha, beta), (gamma, delta)):
the coefficient of the output pair (alpha, beta) on the input pair
(gamma, delta).  kojima_r builds the untwisted superalgebra matrix in a
formal parameter z with q a square root of v; twisting by the diagonal
element twist_f and flipping the sign of the all-odd diagonal entry
reproduces the ice crossing table at z = (z_i/z_j)^nq entry by entry.
"""

from fractions import Fraction

from . import lattice as L
from . import scalar as S
from . import rvertex as RV
# the pair-basis matrix algebra lives in rvertex; these names stay public here
from .rvertex import (embed12, embed13, embed23, graded_swap, ice_r_matrix,
                      labels, mat_eq, mat_identity, mat_mul, pair_basis,
                      parity)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# -- matrix helpers ----------------------------------------------------------

def matrix_to_json(mat):
    """Sparse triplet dump [row, col, entry] in sorted key order."""
    return [[list(r), list(c), mat[(r, c)].to_json()]
            for r, c in sorted(mat)]


# -- the untwisted crossing matrix -------------------------------------------

def kojima_r(z, nq):
    """Crossing matrix on the tensor square in a formal parameter z.

    z is a Scalar monomial (1 for the principal specialization).  Five
    entry families: -1 on the all-odd diagonal, (-q^2+z)/(1-q^2 z) on
    equal + pairs, q(1-z)/(1-q^2 z) on unequal diagonal pairs, and
    (1-q^2)/(1-q^2 z), (1-q^2)z/(1-q^2 z) on the two swap families,
    with q^2 = v."""
    if isinstance(z, int):
        z = S.integer(z, nq)
    one = S.one(nq)
    v = S.v_pow(1, nq)
    q = S.v_pow(HALF, nq)
    den = one - v * z
    mat = {((0, 0), (0, 0)): S.Frac(S.integer(-1, nq))}
    for a in range(1, nq + 1):
        mat[((a, a), (a, a))] = S.Frac(z - v, den)
    for a in labels(nq):
        for b in labels(nq):
            if a == b:
                continue
            mat[((a, b), (a, b))] = S.Frac(q * (one - z), den)
    for a in labels(nq):
        for b in labels(nq):
            if a < b:
                # inputs (b, a) resolve to outputs (a, b) and conversely
                mat[((a, b), (b, a))] = S.Frac((one - v), den)
                mat[((b, a), (a, b))] = S.Frac((one - v) * z, den)
    return mat


# -- the diagonal twist -------------------------------------------------------

def twist_coefficient(a, b, nq):
    """Diagonal twist coefficient c_{a,b}; c_{a,b} c_{b,a} = 1."""
    if a == b:
        return S.one(nq)
    if a == 0:
        return S.v_pow(-QUARTER, nq)
    if b == 0:
        return S.v_pow(QUARTER, nq)
    if a < b:
        return S.gauss_pow(b - a, HALF, nq) * S.v_pow(-QUARTER, nq)
    return S.gauss_pow(a - b, -HALF, nq) * S.v_pow(QUARTER, nq)


def twist_f(nq):
    """The twist element: diagonal in the pair basis."""
    return {((a, b), (a, b)): S.Frac(twist_coefficient(a, b, nq))
            for a, b in pair_basis(nq)}


def _diagonal(F):
    """The entries {pair: coefficient} of a pair-diagonal element;
    ValueError when F has an entry off the diagonal."""
    if any(key != key2 for key, key2 in F):
        raise ValueError("twist element is not pair-diagonal")
    return {key: val for (key, _), val in F.items()}


def f21(F):
    """Leg swap of a pair-diagonal element."""
    return {((b, a), (b, a)): val for (a, b), val in _diagonal(F).items()}


def f_inverse(F):
    """Entrywise inverse of a pair-diagonal element."""
    return {(key, key): S.Frac(val.den, val.num)
            for key, val in _diagonal(F).items()}


def _assert_twist_cancelled(x):
    """The quarter v powers and half Gauss powers carried by the twist
    coefficients must cancel in any twisted entry."""
    for part in (x.num, x.den):
        for (vq, _zex, gex), _ in part.sparse_terms():
            if vq % 2:
                raise AssertionError("quarter v power leaked: vq=%d" % vq)
            for a, e2 in gex:
                if e2 % 2:
                    raise AssertionError(
                        "half gauss power leaked: g(%d)^%d/2" % (a, e2))


def drinfeld_twist(r_mat, F):
    """F21 R F^{-1} for a pair-diagonal twist; asserts that the
    fractional exponents introduced by the twist coefficients cancel."""
    coeff = _diagonal(F)
    out = {}
    for ((alpha, beta), (gamma, delta)), val in r_mat.items():
        left = coeff[(beta, alpha)]
        right = coeff[(gamma, delta)]
        # twist coefficients are invertible monomials, so the fractional
        # exponents cancel inside the numerator
        scale = (left.num * right.den) * (left.den * right.num).inverse()
        entry = S.Frac(scale * val.num, val.den)
        _assert_twist_cancelled(entry)
        out[((alpha, beta), (gamma, delta))] = entry
    return out


def signature_adjust(r_mat):
    """Scale the row (k1, k2) by (-1)^{[k1][k2]}: flips exactly the
    entries whose output pair is all odd."""
    out = {}
    for key, val in r_mat.items():
        (k1, k2), _ = key
        if parity(k1) and parity(k2):
            out[key] = -val
        else:
            out[key] = val
    return out


# -- comparison with the ice table --------------------------------------------

def compare_to_ice_r(nq, rows=(1, 2)):
    """Twist, sign-adjust, substitute z = Z (rvertex.crossing_z), and
    compare entrywise with the ice crossing table."""
    L.check_modulus(nq)
    big_z = RV.crossing_z(rows, nq)
    twisted = drinfeld_twist(kojima_r(big_z, nq), twist_f(nq))
    for entry in twisted.values():
        entry.assert_integral()
    adjusted = signature_adjust(twisted)
    ice = ice_r_matrix(nq, rows)
    zero = S.Frac(S.zero(nq))
    mismatches = [(key, adjusted.get(key, zero), ice.get(key, zero))
                  for key in sorted(RV.mat_diff(adjusted, ice))]
    return {"nq": nq, "rows": rows, "entries": len(ice),
            "mismatches": mismatches, "ok": not mismatches}


# -- graded Yang-Baxter equations ----------------------------------------------

def _ratio(i, j, nq):
    return S.z_pow(i, 1, nq) * S.z_pow(j, -1, nq)


def check_graded_ybe(nq, rows=(1, 2, 3), matrix_fn=None, graded=True,
                     trials=8, seed=None, p=S.DEFAULT_PRIME):
    """Braid and inversion identities for a crossing matrix in a formal
    parameter.

    matrix_fn(z) defaults to kojima_r(z, nq); the crossing at rows (a, b)
    is matrix_fn(z_a/z_b).  The braid identity is checked on the tensor
    cube with Koszul signs in the outer-leg embedding when graded;
    inversion conjugates by the (graded) swap.  Exact at every nq when
    seed is None; given a seed, at `trials` random points mod p."""
    if matrix_fn is None:
        matrix_fn = lambda z: kojima_r(z, nq)
    results = RV.check_crossings(lambda a, b: matrix_fn(_ratio(a, b, nq)),
                                 rows, nq, graded, trials, seed, p)
    if seed is None:
        (_, braid, inverse), = results
        return {"nq": nq, "rows": rows, "graded": graded,
                "mode": "symbolic", "ybe_ok": not braid,
                "unitarity_ok": not inverse, "ok": not (braid or inverse)}
    failures = [(t, tag, key) for t, braid, inverse in results
                for tag, keys in (("ybe", braid), ("unitarity", inverse))
                for key in keys]
    return {"nq": nq, "rows": rows, "graded": graded, "mode": "modular",
            "points": trials, "failures": failures,
            "ybe_ok": not any(f[1] == "ybe" for f in failures),
            "unitarity_ok": not any(f[1] == "unitarity" for f in failures),
            "ok": not failures}
