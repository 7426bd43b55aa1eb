"""Crossing (R-vertex) weights and the identities they satisfy.

Edges around a crossing carry decorated spins: (-1, 0) or (+1, c) with a
charge c in (0, nq].  A crossing between strand rows (i, j) has its
NW--SE diagonal on z_i and its SW--NE diagonal on z_j; every weight is a
fraction over the common denominator 1 - v (z_i/z_j)^nq.  The module
checks the two-row exchange identity (check_rtt) against a frozen table
of all 32 boundary spin patterns, the three-crossing braid identity
(check_rrr), inversion (check_unitarity), and the functional equation
that swapping two spectral variables induces on charged partition
functions (train_functional_equation).  Braid and inversion, for the ice
table here and for the quantum-group matrices of qgroup, are entries of
sparse products on the pair basis, all formed by check_crossings.
"""

from functools import lru_cache
from itertools import product
import math
import random

from . import scalar as S
from .lattice import check_modulus, partition_function, reduce_charge, vertex_weight

MINUS = (-1, 0)


def decorated_values(nq):
    """All nq + 1 decorated spins an edge can carry."""
    return [MINUS] + [(1, c) for c in range(1, nq + 1)]


def _decorated(leg, nq):
    """Whether leg is one of decorated_values(nq): MINUS or (1, c) with
    0 < c <= nq."""
    return leg == MINUS or (leg[0] == 1 and 0 < leg[1] <= nq)


def grid_vertex_weight(north, south, west, east, row, nq):
    """Weight of a grid vertex whose horizontal edges are decorated.

    north and south are bare spins, west and east are (spin, charge)
    pairs.  Returns zero whenever a horizontal edge is not decorated
    (_decorated), the spin pattern is not one of the six vertex kinds, or
    the charges fail the counting rule (west charge = east charge + 1 on a
    + west edge, and a - edge only carries charge 0 mod nq)."""
    if not (_decorated(west, nq) and _decorated(east, nq)):
        return S.zero(nq)
    ws, wc = west
    es, ec = east  # MINUS carries charge 0
    if ws == 1:
        if wc != reduce_charge(ec + 1, nq):
            return S.zero(nq)
    elif ec % nq:
        return S.zero(nq)
    return vertex_weight(north, south, ws, es, ec, row, nq)


# r_weight results by argument tuple; emptied when it reaches _R_MEMO_MAX
# entries, so it never holds more than that
_R_MEMO = {}
_R_MEMO_MAX = 1 << 14


def crossing_z(rows, nq):
    """Z = (z_i/z_j)^nq at strand rows (i, j): the one spectral variable
    of the crossing weights, the twisted quantum-group matrix and the
    scattering coefficients."""
    i, j = rows
    return S.z_pow(i, nq, nq) * S.z_pow(j, -nq, nq)


def r_denominator(rows, nq):
    """1 - vZ, the denominator shared by every crossing weight at strand
    rows (i, j)."""
    return S.one(nq) - S.v_pow(1, nq) * crossing_z(rows, nq)


def r_weight(nw, sw, ne, se, rows, nq):
    """Crossing weight for decorated legs in field order NW, SW, NE, SE.

    rows = (i, j) fixes Z (crossing_z) with z_i on the NW--SE diagonal.
    The result is a Frac whose denominator is exactly 1 - vZ, so tables
    of crossing weights add along the fast same-denominator path.  A leg
    that is not decorated (_decorated) gives zero."""
    key = (nw, sw, ne, se, rows, nq)
    hit = _R_MEMO.get(key)
    if hit is not None:
        return hit
    if len(_R_MEMO) >= _R_MEMO_MAX:
        _R_MEMO.clear()
    for leg in (nw, sw, ne, se):
        if not _decorated(leg, nq):
            val = S.Frac(S.zero(nq), S.one(nq))
            _R_MEMO[key] = val
            return val
    one, v, big_z = S.one(nq), S.v_pow(1, nq), crossing_z(rows, nq)
    den = r_denominator(rows, nq)
    num = S.zero(nq)
    if nw[0] == 1 and sw[0] == 1:
        a, b = nw[1], sw[1]
        if a == b:
            if ne == nw and se == nw:
                num = big_z - v
        elif ne[0] == 1 and se[0] == 1:
            c, d = ne[1], se[1]
            if c == b and d == a:
                # charges ride their strands through the crossing
                num = S.gauss(a - b, nq) * (one - big_z)
            elif c == a and d == b:
                # charges stay on their side; larger residue on top wins Z
                num = (one - v) * big_z if a > b else one - v
    elif nw[0] == -1 and sw[0] == -1:
        if ne == MINUS and se == MINUS:
            num = den
    elif nw[0] == -1:
        if ne == sw and se == MINUS:
            num = v * (one - big_z)
        elif ne == MINUS and se == sw:
            num = one - v
    else:
        if ne == MINUS and se == nw:
            num = one - big_z
        elif ne == nw and se == MINUS:
            num = (one - v) * big_z
    val = S.Frac(num, den)
    _R_MEMO[key] = val
    return val


# -- two-row exchange identity ---------------------------------------------

class CrossingTable:
    """The nonzero crossing weights and decorated grid vertices at one
    strand-row pair, as check_rtt walks them.  Only the crossings of
    crossing_support are weighed.

    den is 1 - v (z_i/z_j)^nq.  by_in maps the input legs (NW, SW) to
    (NE, SE, numerator) triples, NE outer and SE inner in
    decorated_values order; by_out maps the output legs (NE, SE) to
    (NW, SW, numerator) triples, NW outer and SW inner.  vertex[row]
    maps (north, south, west, east) to the nonzero grid_vertex_weight of
    a vertex in that row, north and south bare spins and west and east
    decorated ones.  A key absent from a map has weight zero."""

    __slots__ = ["den", "by_in", "by_out", "vertex"]

    def __init__(self, rows, nq):
        dv = decorated_values(nq)
        self.den = r_denominator(rows, nq)
        self.by_in = {}
        self.by_out = {}
        for (a, b), (c, d) in crossing_support(nq):
            nw, sw, ne, se = dv[a], dv[b], dv[c], dv[d]
            w = r_weight(nw, sw, ne, se, rows, nq)
            if not w.is_zero():
                self.by_in.setdefault((nw, sw), []).append((ne, se, w.num))
                self.by_out.setdefault((ne, se), []).append((nw, sw, w.num))
        self.vertex = {}
        for row in rows:
            weights = self.vertex[row] = {}
            for north, south, west, east in product((1, -1), (1, -1), dv, dv):
                w = grid_vertex_weight(north, south, west, east, row, nq)
                if not w.is_zero():
                    weights[(north, south, west, east)] = w


@lru_cache(maxsize=16)
def crossing_table(rows, nq):
    """The CrossingTable at strand rows (i, j) and modulus nq, built on
    first use from r_weight and grid_vertex_weight.  Cached, holding at
    most 16 tables (least recently used dropped first)."""
    return CrossingTable(rows, nq)


def check_rtt(boundary, nq, rows=(1, 2)):
    """Exchange identity for one boundary condition.

    boundary = (sigma, tau, beta, theta, rho, alpha): decorated west legs
    sigma (bottom) and tau (top), bare top spin beta, decorated east legs
    theta (top) and rho (bottom), bare bottom spin alpha.  On the left
    side the crossing comes first (NW = tau, SW = sigma) and its SE leg
    feeds the row-i vertex; on the right side the rows come first and the
    crossing receives NE = theta, SE = rho.  Returns the per-state weight
    tables keyed by internal edges and the two side sums, as numerators
    over the record's one den = 1 - v (z_i/z_j)^nq.  Only the nonzero
    crossings of crossing_table(rows, nq) are visited."""
    check_modulus(nq)
    sigma, tau, beta, theta, rho, alpha = boundary
    i, j = rows
    table = crossing_table(rows, nq)
    row_i, row_j = table.vertex[i], table.vertex[j]
    lhs = {}
    for nu, mu, num in table.by_in.get((tau, sigma), ()):
        for gam in (1, -1):
            wj = row_j.get((beta, gam, nu, theta))
            if wj is None:
                continue
            wi = row_i.get((gam, alpha, mu, rho))
            if wi is None:
                continue
            lhs[(nu, mu, gam)] = num * (wj * wi)
    rhs = {}
    for phi, psi, num in table.by_out.get((theta, rho), ()):
        for dlt in (1, -1):
            wi = row_i.get((beta, dlt, tau, phi))
            if wi is None:
                continue
            wj = row_j.get((dlt, alpha, sigma, psi))
            if wj is None:
                continue
            rhs[(phi, psi, dlt)] = num * (wj * wi)
    lhs_sum = S.Scalar.sum(lhs.values(), nq)
    rhs_sum = S.Scalar.sum(rhs.values(), nq)
    return {
        "boundary": boundary,
        "rows": rows,
        "nq": nq,
        "den": table.den,
        "lhs": lhs,
        "rhs": rhs,
        "lhs_sum": lhs_sum,
        "rhs_sum": rhs_sum,
        "equal": lhs_sum == rhs_sum,
    }


def rtt_scan(nq, rows=(1, 2)):
    """check_rtt over every boundary 6-tuple; returns a summary report."""
    check_modulus(nq)
    dv = decorated_values(nq)
    failures = []
    boundaries = 0
    inhabited = 0
    for sigma, tau, theta, rho in product(dv, dv, dv, dv):
        for beta, alpha in product((1, -1), (1, -1)):
            boundaries += 1
            res = check_rtt((sigma, tau, beta, theta, rho, alpha), nq, rows)
            if res["lhs"] or res["rhs"]:
                inhabited += 1
            if not res["equal"]:
                failures.append(res["boundary"])
    return {"nq": nq, "rows": rows, "boundaries": boundaries,
            "inhabited": inhabited, "failures": failures,
            "ok": not failures}


# -- pair-basis matrices ------------------------------------------------------
#
# Basis labels 0 < 1 < ... < nq: label 0 is the - spin (odd parity) and a
# label a >= 1 the + spin with charge a (even parity), so decorated_values
# lists the spins in label order.  A matrix on a tensor power is a sparse
# dict keyed (output labels, input labels); its entries are Fracs, or ints
# mod p once evaluated at a modular point.

def labels(nq):
    return range(nq + 1)


def parity(a):
    """1 for the - spin (label 0), 0 for the + spins."""
    return 1 if a == 0 else 0


def pair_basis(nq):
    return [(a, b) for a in labels(nq) for b in labels(nq)]


def crossing_support(nq):
    """Where a crossing weight can be nonzero: the label pairs
    ((a, b), (c, d)) with (c, d) = (a, b) or (b, a), the input spins
    kept or swapped.  Read as NW = a, SW = b, NE = c, SE = d; since the
    set {(a, b), (b, a)} is closed under swapping, it also lists the
    entries with NE = d, SE = c that ice_r_matrix keys.  Lists the
    (nq + 1)(2 nq + 1) of (nq + 1)^4 entries in the order two nested
    loops over pair_basis(nq) meet them, so NE outer and SE inner."""
    return [(ab, cd) for ab in pair_basis(nq)
            for cd in sorted({ab, ab[::-1]})]


def mat_mul(first, second, p=None):
    """Composition: apply `second`, then `first`.  Exact Frac arithmetic
    when p is None, ints mod the prime p otherwise."""
    by_row = {}
    for (r, m), val in first.items():
        by_row.setdefault(m, []).append((r, val))
    out = {}
    for (m, c), val in second.items():
        for r, left in by_row.get(m, ()):
            prod = left * val
            if (r, c) in out:
                out[(r, c)] = out[(r, c)] + prod
            else:
                out[(r, c)] = prod
    if p is None:
        return {k: w for k, w in out.items() if not w.is_zero()}
    return {k: rem for k, w in out.items() if (rem := w % p)}


def mat_diff(a, b, p=None):
    """Keys at which two matrices differ, in the iteration order of
    set(a) | set(b); entries are Fracs when p is None, residues mod p
    otherwise."""
    same = S.frac_eq if p is None else int.__eq__
    return [key for key in set(a) | set(b)
            if not same(a.get(key, 0), b.get(key, 0))]


def mat_eq(a, b):
    return not mat_diff(a, b)


def mat_identity(keys, nq):
    return {(k, k): S.Frac(S.one(nq)) for k in keys}


def embed12(mat, nq):
    out = {}
    for ((a, b), (c, d)), val in mat.items():
        for m in labels(nq):
            out[((a, b, m), (c, d, m))] = val
    return out


def embed23(mat, nq):
    out = {}
    for ((a, b), (c, d)), val in mat.items():
        for m in labels(nq):
            out[((m, a, b), (m, c, d))] = val
    return out


def embed13(mat, nq, graded):
    """Outer-leg embedding; moving the second operator leg past the
    middle tensor slot inserts a Koszul sign when graded."""
    out = {}
    for ((a, b), (c, d)), val in mat.items():
        for m in labels(nq):
            if graded and parity(m) and (parity(b) + parity(d)) % 2:
                out[((a, m, b), (c, m, d))] = -val
            else:
                out[((a, m, b), (c, m, d))] = val
    return out


def graded_swap(nq):
    """tau(v_a (x) v_b) = (-1)^{[a][b]} v_b (x) v_a as a matrix."""
    out = {}
    for a, b in pair_basis(nq):
        val = S.Frac(S.integer(-1 if parity(a) and parity(b) else 1, nq))
        out[((b, a), (a, b))] = val
    return out


def _swap(nq, graded):
    tau = graded_swap(nq)
    return tau if graded else {key: S.Frac(S.one(nq)) for key in tau}


def ice_r_matrix(nq, rows=(1, 2)):
    """The ice crossing table as a matrix on the pair basis: the entry
    at ((alpha, beta), (gamma, delta)) is the crossing weight with
    NW = alpha, SW = beta, NE = delta, SE = gamma.  Only the entries of
    crossing_support are weighed; they come in pair_basis order."""
    dv = decorated_values(nq)
    mat = {}
    for (alpha, beta), (gamma, delta) in crossing_support(nq):
        w = r_weight(dv[alpha], dv[beta], dv[delta], dv[gamma], rows, nq)
        if not w.is_zero():
            mat[((alpha, beta), (gamma, delta))] = w
    return mat


# -- braid identity and inversion ---------------------------------------------

def braid_sides(t12, t13, t23, nq, graded=False, p=None):
    """R12 R13 R23 and R23 R13 R12 on the tensor cube, from the crossing
    matrices on the three leg pairs."""
    e12, e13, e23 = embed12(t12, nq), embed13(t13, nq, graded), embed23(t23, nq)
    return (mat_mul(e12, mat_mul(e13, e23, p), p),
            mat_mul(e23, mat_mul(e13, e12, p), p))


def inversion_product(t12, t21, tau, p=None):
    """R12 tau R21 tau: the identity when the crossing inverts."""
    return mat_mul(t12, mat_mul(tau, mat_mul(t21, tau, p), p), p)


def check_crossings(table, rows, nq, graded=False, trials=20, seed=None,
                    p=S.DEFAULT_PRIME):
    """Braid and inversion identities for crossing matrices.

    table(a, b) is the pair-basis matrix of the crossing at strand rows
    (a, b).  For rows = (i, j, k), with legs 1, 2, 3 on rows i, j, k,
    R12 R13 R23 is compared with R23 R13 R12; for rows (i, j) or
    (i, j, k), R12 tau R21 tau is compared with the identity, tau the
    (graded) swap.  Exact when seed is None, at every nq; given a seed
    (0 included), at `trials` points mod the prime p drawn from
    Random(seed), each table entry evaluated once per point, and a
    ValueError unless trials is an int >= 1 and p an int prime.  Returns
    one (trial, braid keys, inversion keys) per point, the keys naming
    the entries where the two sides differ."""
    check_modulus(nq)
    if seed is not None and not (type(trials) is int and trials >= 1
                                 and type(p) is int and S.is_prime(p)):
        raise ValueError("a seeded check needs an int trials >= 1 and an int"
                         " prime p, not trials=%r, p=%r" % (trials, p))
    i, j = rows[:2]
    pairs = [(i, j)] + ([(i, rows[2]), (j, rows[2])] if len(rows) == 3 else [])
    mats = {pair: table(*pair) for pair in pairs + [(j, i)]}
    mats["tau"] = _swap(nq, graded)
    mats["one"] = mat_identity(pair_basis(nq), nq)
    if seed is None:
        points, p = [None], None    # Frac entries: mat_mul works exactly
    else:
        rng = random.Random(seed)
        points = [S.make_assignment(nq, rows, rng.randrange(1 << 62), p)
                  for _ in range(trials)]
    results = []
    for t, asg in enumerate(points):
        at = mats
        if asg is not None:
            try:
                at = {name: {key: S.eval_frac_mod(w, asg)
                             for key, w in mat.items()}
                      for name, mat in mats.items()}
            except ZeroDivisionError as exc:
                raise ZeroDivisionError("nq=%d, trial %d of seed %d: %s"
                                        % (nq, t, seed, exc)) from None
        braid = []
        if len(pairs) == 3:
            sides = braid_sides(*(at[pair] for pair in pairs), nq, graded, p)
            braid = mat_diff(*sides, p)
        inverse = mat_diff(inversion_product(at[(i, j)], at[(j, i)],
                                             at["tau"], p), at["one"], p)
        results.append((t, braid, inverse))
    return results


def _ice_table(nq):
    return lambda a, b: ice_r_matrix(nq, (a, b))


def _labels_of(boundary, nq):
    """Basis labels of decorated spins; ValueError for a leg that is not
    one of decorated_values(nq)."""
    index = {spin: a for a, spin in enumerate(decorated_values(nq))}
    if not all(spin in index for spin in boundary):
        raise ValueError("boundary %r has a leg outside decorated_values(%d)"
                         % (boundary, nq))
    return [index[spin] for spin in boundary]


def check_rrr(boundary, rows, nq):
    """Braid identity for three strands at rows (i, j, k).

    boundary = (alpha, beta, gamma, phi, eps, dlt): left legs bottom to
    top, then right legs bottom to top.  Both orders of resolving the
    three crossings must give the same sum: entry ((gamma, beta, alpha),
    (phi, eps, dlt)) of R23 R13 R12 and of R12 R13 R23."""
    check_modulus(nq)
    alpha, beta, gamma, phi, eps, dlt = _labels_of(boundary, nq)
    i, j, k = rows
    forward, backward = braid_sides(ice_r_matrix(nq, (i, j)),
                                    ice_r_matrix(nq, (i, k)),
                                    ice_r_matrix(nq, (j, k)), nq)
    key = ((gamma, beta, alpha), (phi, eps, dlt))
    zero = S.Frac(S.zero(nq))
    lhs, rhs = backward.get(key, zero), forward.get(key, zero)
    return {"boundary": boundary, "rows": rows, "nq": nq,
            "lhs_sum": lhs, "rhs_sum": rhs,
            "equal": S.frac_eq(lhs, rhs)}


def check_unitarity(alpha, beta, gamma, dlt, rows, nq):
    """A crossing followed by its reverse acts as the identity:
    sum_{x,y} W_ij(beta, alpha -> x, y) W_ji(x, y -> dlt, gamma), the
    entry ((beta, alpha), (dlt, gamma)) of R12 tau R21 tau, equals
    [alpha = gamma][beta = dlt]."""
    check_modulus(nq)
    a, b, c, d = _labels_of((alpha, beta, gamma, dlt), nq)
    i, j = rows
    prod = inversion_product(ice_r_matrix(nq, (i, j)),
                             ice_r_matrix(nq, (j, i)), _swap(nq, False))
    total = prod.get(((b, a), (d, c)), S.Frac(S.zero(nq)))
    expected = 1 if (alpha == gamma and beta == dlt) else 0
    return {"boundary": (alpha, beta, gamma, dlt), "rows": rows, "nq": nq,
            "lhs_sum": total, "rhs_sum": S.Frac(S.integer(expected, nq)),
            "equal": S.frac_eq(total, expected)}


def _sz_log2_bound(nq, trials, factors, p=S.DEFAULT_PRIME):
    """log2 of the Schwartz-Zippel failure bound for `trials` independent
    points, with `factors` crossing weights multiplied per term.

    The degree of a crossing weight at two distinct rows is at most
    4 nq + 8, its largest Frac.degree_hint: the numerator and the
    denominator 1 - vZ each have degree at most 4 + 2 nq, reached by the
    term vZ (v counts 4, in quarter steps; Z = (z_i/z_j)^nq counts 2 nq)."""
    deg = 4 * nq + 8
    # cross-multiplied identity degree: numerators and denominators of
    # `factors` fractions on each side
    total = 2 * factors * deg
    per_point = total / p
    return trials * math.log2(per_point) if per_point > 0 else float("-inf")


def _ice_scan(rows, nq, trials, seed, p):
    """Shared body of rrr_scan (three rows) and unitarity_scan (two).

    Exact at every nq when seed is None, sampled at `trials` modular
    points otherwise.  A failing braid entry
    ((gamma, beta, alpha), (phi, eps, dlt)) is the boundary
    (alpha, beta, gamma, phi, eps, dlt); a failing inversion
    entry ((beta, alpha), (dlt, gamma)) is (alpha, beta, gamma, dlt).
    Sorted label tuples list boundaries in product(dv, ...) order."""
    braid = len(rows) == 3
    results = check_crossings(_ice_table(nq), rows, nq, trials=trials,
                              seed=seed, p=p)
    dv = decorated_values(nq)
    failures = []
    for t, braid_keys, inverse_keys in results:
        found = sorted(row[::-1] + (col if braid else col[::-1])
                       for row, col in (braid_keys if braid else inverse_keys))
        for bnd in found:
            bnd = tuple(dv[a] for a in bnd)
            failures.append(bnd if seed is None else (t, bnd))
    count = len(results) * (nq + 1) ** (6 if braid else 4)
    if seed is None:
        return {"nq": nq, "mode": "symbolic", "boundaries": count,
                "failures": failures, "ok": not failures}
    return {"nq": nq, "mode": "modular", "points": trials,
            "boundaries": count, "failures": failures, "ok": not failures,
            "sz_log2_bound": _sz_log2_bound(nq, trials, 3 if braid else 2, p)}


def rrr_scan(nq, trials=20, seed=None, p=S.DEFAULT_PRIME):
    """Braid identity over every boundary 6-tuple.

    Exact symbolic sums at every nq unless a seed is given; then the
    identity is tested at `trials` random points mod p and the report
    carries the Schwartz-Zippel failure bound."""
    return _ice_scan((1, 2, 3), nq, trials, seed, p)


def unitarity_scan(nq, trials=20, seed=None, p=S.DEFAULT_PRIME):
    """Inversion over every boundary 4-tuple; exact at every nq unless a
    seed is given, sampled at `trials` modular points otherwise."""
    return _ice_scan((1, 2), nq, trials, seed, p)


# -- scattering on the all-plus sector --------------------------------------

def scattering_matrix(i, nq):
    """Charge-exchange matrix M(i; z) on two + strands at rows (i, i+1).

    Entry [(a, b)][(c, d)] is the crossing weight taking bottom/top left
    charges (a, b) to bottom/top right charges (c, d): the entry
    ((b, a), (c, d)) of ice_r_matrix at rows (i, i + 1)."""
    out = {(a, b): {} for a, b in pair_basis(nq) if a and b}
    for ((b, a), cd), w in ice_r_matrix(nq, (i, i + 1)).items():
        if a and b:
            out[(a, b)][cd] = w
    return out


def check_scattering_involution(i, nq):
    """M(i; s_i z) M(i; z) is the identity on the all-plus sector: the
    all-plus block of the exact inversion product at rows (i, i + 1).
    Failures are ((a, b), (c, d)) charge pairs in sorted order."""
    (_, _, bad), = check_crossings(_ice_table(nq), (i, i + 1), nq)
    failures = sorted((row[::-1], col[::-1]) for row, col in bad
                      if 0 not in row + col)
    return {"i": i, "nq": nq, "failures": failures, "ok": not failures}


# -- frozen boundary tables for the exchange identity ------------------------

def _zi(t, nq):
    return S.z_pow(1, -nq, nq) if t % nq == 0 else S.one(nq)


def _zj(t, nq):
    return S.z_pow(2, -nq, nq) if t % nq == 0 else S.one(nq)


def _units(nq):
    """one, v, Z and the charge-0 zi, zj at rows (1, 2): the appendix
    tables' monomials."""
    return S.one(nq), S.v_pow(1, nq), crossing_z((1, 2), nq), _zi(0, nq), _zj(0, nq)


def _case01(nq):
    one, v, Z, *_ = _units(nq)
    for k in range(nq):
        K, kk = reduce_charge(k + 1, nq), reduce_charge(k, nq)
        zz = _zi(k, nq) * _zj(k, nq)
        num = zz * (Z - v)
        yield ((K, K, kk, kk),
               {((1, K), (1, K), 1): num},
               {((1, kk), (1, kk), 1): num})
    for k in range(nq):
        for l in range(nq):
            if k == l:
                continue
            K, L = reduce_charge(k + 1, nq), reduce_charge(l + 1, nq)
            kk, ll = reduce_charge(k, nq), reduce_charge(l, nq)
            lnum = (one - v) * _zi(l, nq) * _zj(k, nq) * (Z if K > L else one)
            rnum = (one - v) * _zi(k, nq) * _zj(l, nq) * (Z if kk > ll else one)
            yield ((L, K, kk, ll),
                   {((1, K), (1, L), 1): lnum},
                   {((1, kk), (1, ll), 1): rnum})
            num = S.gauss(l - k, nq) * _zi(l, nq) * _zj(k, nq) * (one - Z)
            yield ((K, L, kk, ll),
                   {((1, K), (1, L), 1): num},
                   {((1, ll), (1, kk), 1): num})


def _case03(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        yield ((K, None, None, k),
               {(MINUS, (1, K), 1): one - v},
               {(MINUS, (1, k), 1): one - v})
    yield ((1, None, None, nq),
           {(MINUS, (1, 1), 1): (one - v) * zi},
           {((1, nq), MINUS, -1): (one - v) * zi * (one - Z),
            (MINUS, (1, nq), 1): (one - v) * zj})


def _case04(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        yield ((K, None, k, None),
               {((1, K), MINUS, 1): v * (one - Z)},
               {(MINUS, (1, k), 1): v * (one - Z)})
    yield ((1, None, nq, None),
           {((1, 1), MINUS, 1): v * zj * (one - Z),
            (MINUS, (1, 1), -1): (one - v) * (one - v) * zj},
           {((1, nq), MINUS, -1): (one - v) * (one - v) * zi * Z,
            (MINUS, (1, nq), 1): v * zj * (one - Z)})


def _case05(nq):
    one, _, Z, *_ = _units(nq)
    for k in range(nq):
        K, kk = reduce_charge(k + 1, nq), reduce_charge(k, nq)
        num = _zi(k, nq) * (one - Z)
        yield ((None, K, None, kk),
               {(MINUS, (1, K), 1): num},
               {((1, kk), MINUS, 1): num})


def _case06(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        yield ((None, K, k, None),
               {((1, K), MINUS, 1): (one - v) * Z},
               {((1, k), MINUS, 1): (one - v) * Z})
    yield ((None, 1, nq, None),
           {((1, 1), MINUS, 1): (one - v) * zj * Z,
            (MINUS, (1, 1), -1): (one - v) * zj * (one - Z)},
           {((1, nq), MINUS, 1): (one - v) * zi * Z})


def _case08(nq):
    den = r_denominator((1, 2), nq)
    yield ((None, None, None, None),
           {(MINUS, MINUS, 1): den},
           {(MINUS, MINUS, 1): den})


def _case09(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        g = S.gauss(k, nq)
        yield ((1, K, None, k),
               {((1, 1), (1, K), 1): g * (one - Z)},
               {((1, k), MINUS, -1): g * (one - Z)})
        yield ((K, 1, None, k),
               {((1, 1), (1, K), 1): one - v},
               {(MINUS, (1, k), 1): one - v})
    yield ((1, 1, None, nq),
           {((1, 1), (1, 1), 1): zi * (Z - v)},
           {((1, nq), MINUS, -1): -v * zi * (one - Z),
            (MINUS, (1, nq), 1): (one - v) * zj})


def _case10(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        g = S.gauss(k, nq)
        yield ((1, K, k, None),
               {((1, K), (1, 1), -1): g * (one - v) * Z},
               {((1, k), MINUS, -1): g * (one - v) * Z})
        yield ((K, 1, k, None),
               {((1, K), (1, 1), -1): S.gauss(-k, nq) * g * (one - Z)},
               {(MINUS, (1, k), 1): v * (one - Z)})
    yield ((1, 1, nq, None),
           {((1, 1), (1, 1), -1): -v * zj * (Z - v)},
           {((1, nq), MINUS, -1): -v * (one - v) * zi * Z,
            (MINUS, (1, nq), 1): v * zj * (one - Z)})


def _case12(nq):
    one, v, Z, *_ = _units(nq)
    yield ((1, None, None, None),
           {((1, 1), MINUS, 1): v * (one - Z),
            (MINUS, (1, 1), -1): one - v},
           {(MINUS, MINUS, -1): one - v * Z})


def _case14(nq):
    one, v, Z, *_ = _units(nq)
    yield ((None, 1, None, None),
           {((1, 1), MINUS, 1): (one - v) * Z,
            (MINUS, (1, 1), -1): one - Z},
           {(MINUS, MINUS, 1): one - v * Z})


def _case19(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        g = S.gauss(k, nq)
        yield ((K, None, nq, k),
               {(MINUS, (1, K), -1): g * (one - v) * (one - v) * zj},
               {((1, nq), (1, k), -1): g * (one - v) * (one - v) * zi * Z})
        yield ((K, None, k, nq),
               {((1, K), MINUS, 1): v * (one - v) * zi * (one - Z)},
               {((1, nq), (1, k), -1):
                    g * S.gauss(-k, nq) * (one - v) * zi * (one - Z)})
    zz = zi * zj
    yield ((1, None, nq, nq),
           {(MINUS, (1, 1), -1): -v * (one - v) * (one - v) * zz,
            ((1, 1), MINUS, 1): v * (one - v) * zz * (one - Z)},
           {((1, nq), (1, nq), -1): -v * (one - v) * zz * (Z - v)})


def _case21(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        g = S.gauss(k, nq)
        yield ((None, K, k, nq),
               {((1, K), MINUS, 1): (one - v) * (one - v) * zi * Z},
               {((1, k), (1, nq), 1): (one - v) * (one - v) * zj})
        yield ((None, K, nq, k),
               {(MINUS, (1, K), -1): g * (one - v) * zj * (one - Z)},
               {((1, k), (1, nq), 1): g * (one - v) * zj * (one - Z)})
    zz = zi * zj
    yield ((None, 1, nq, nq),
           {(MINUS, (1, 1), -1): -v * (one - v) * zz * (one - Z),
            ((1, 1), MINUS, 1): (one - v) * (one - v) * zz * Z},
           {((1, nq), (1, nq), 1): (one - v) * zz * (Z - v)})


def _case23(nq):
    one, v, Z, zi, zj = _units(nq)
    yield ((None, None, None, nq),
           {(MINUS, MINUS, 1): (one - v) * zi * (one - v * Z)},
           {(MINUS, (1, nq), 1): (one - v) * (one - v) * zj,
            ((1, nq), MINUS, -1): (one - v) * zi * (one - Z)})


def _case24(nq):
    one, v, Z, zi, zj = _units(nq)
    yield ((None, None, nq, None),
           {(MINUS, MINUS, -1): (one - v) * zj * (one - v * Z)},
           {(MINUS, (1, nq), 1): v * (one - v) * zj * (one - Z),
            ((1, nq), MINUS, -1): (one - v) * (one - v) * zi * Z})


def _case25(nq):
    one, v, Z, *_ = _units(nq)
    for k in range(nq):
        K, kk = reduce_charge(k + 1, nq), reduce_charge(k, nq)
        zz = _zi(k, nq) * _zj(k, nq)
        g = S.gauss(k, nq)
        num = g * g * zz * (Z - v)
        yield ((K, K, kk, kk),
               {((1, K), (1, K), -1): num},
               {((1, kk), (1, kk), -1): num})
    for k in range(nq):
        for l in range(nq):
            if k == l:
                continue
            K, L = reduce_charge(k + 1, nq), reduce_charge(l + 1, nq)
            kk, ll = reduce_charge(k, nq), reduce_charge(l, nq)
            gg = S.gauss(k, nq) * S.gauss(l, nq)
            lnum = gg * (one - v) * _zi(k, nq) * _zj(l, nq) * \
                (Z if L > K else one)
            rnum = gg * (one - v) * _zj(k, nq) * _zi(l, nq) * \
                (Z if ll > kk else one)
            yield ((K, L, ll, kk),
                   {((1, L), (1, K), -1): lnum},
                   {((1, ll), (1, kk), -1): rnum})
            num = gg * S.gauss(l - k, nq) * _zj(k, nq) * _zi(l, nq) * (one - Z)
            yield ((K, L, kk, ll),
                   {((1, K), (1, L), -1): num},
                   {((1, ll), (1, kk), -1): num})


def _case27(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        num = S.gauss(k, nq) * (one - v)
        yield ((K, None, None, k),
               {(MINUS, (1, K), -1): num},
               {(MINUS, (1, k), -1): num})
    yield ((1, None, None, nq),
           {(MINUS, (1, 1), -1): -v * (one - v) * zi,
            ((1, 1), MINUS, 1): v * (one - v) * zi * (one - Z)},
           {(MINUS, (1, nq), -1): -v * (one - v) * zj})


def _case28(nq):
    one, v, Z, *_ = _units(nq)
    for k in range(nq):
        K, kk = reduce_charge(k + 1, nq), reduce_charge(k, nq)
        num = v * S.gauss(k, nq) * _zj(k, nq) * (one - Z)
        yield ((K, None, kk, None),
               {((1, K), MINUS, -1): num},
               {(MINUS, (1, kk), -1): num})


def _case29(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        num = S.gauss(k, nq) * (one - Z)
        yield ((None, K, None, k),
               {(MINUS, (1, K), -1): num},
               {((1, k), MINUS, -1): num})
    yield ((None, 1, None, nq),
           {(MINUS, (1, 1), -1): -v * zi * (one - Z),
            ((1, 1), MINUS, 1): (one - v) * (one - v) * zi * Z},
           {((1, nq), MINUS, -1): -v * zi * (one - Z),
            (MINUS, (1, nq), 1): (one - v) * (one - v) * zj})


def _case30(nq):
    one, v, Z, zi, zj = _units(nq)
    for k in range(1, nq):
        K = reduce_charge(k + 1, nq)
        num = S.gauss(k, nq) * (one - v) * Z
        yield ((None, K, k, None),
               {((1, K), MINUS, -1): num},
               {((1, k), MINUS, -1): num})
    yield ((None, 1, nq, None),
           {((1, 1), MINUS, -1): -v * (one - v) * zj * Z},
           {((1, nq), MINUS, -1): -v * (one - v) * zi * Z,
            (MINUS, (1, nq), 1): v * (one - v) * zj * (one - Z)})


def _case32(nq):
    den = r_denominator((1, 2), nq)
    yield ((None, None, None, None),
           {(MINUS, MINUS, -1): den},
           {(MINUS, MINUS, -1): den})


def _empty(nq):
    return iter(())


# (label, (sigma, tau, beta, theta, rho, alpha) spins, table builder)
APPENDIX_CASES = [
    ("1", (1, 1, 1, 1, 1, 1), _case01),
    ("2", (1, 1, 1, -1, -1, 1), _empty),
    ("3", (1, -1, 1, -1, 1, 1), _case03),
    ("4", (1, -1, 1, 1, -1, 1), _case04),
    ("5", (-1, 1, 1, -1, 1, 1), _case05),
    ("6", (-1, 1, 1, 1, -1, 1), _case06),
    ("7", (-1, -1, 1, 1, 1, 1), _empty),
    ("8", (-1, -1, 1, -1, -1, 1), _case08),
    ("9", (1, 1, -1, -1, 1, 1), _case09),
    ("10", (1, 1, -1, 1, -1, 1), _case10),
    ("11", (1, -1, -1, 1, 1, 1), _empty),
    ("12", (1, -1, -1, -1, -1, 1), _case12),
    ("13", (-1, 1, -1, 1, 1, 1), _empty),
    ("14", (-1, 1, -1, -1, -1, 1), _case14),
    ("15", (-1, -1, -1, -1, 1, 1), _empty),
    ("16", (-1, -1, -1, 1, -1, 1), _empty),
    ("17", (1, 1, 1, -1, 1, -1), _empty),
    ("18", (1, 1, 1, 1, -1, -1), _empty),
    ("19", (1, -1, 1, 1, 1, -1), _case19),
    ("20", (1, -1, 1, -1, -1, -1), _empty),
    ("21", (-1, 1, 1, 1, 1, -1), _case21),
    ("22", (-1, 1, 1, -1, -1, -1), _empty),
    ("23", (-1, -1, 1, -1, 1, -1), _case23),
    ("24", (-1, -1, 1, 1, -1, -1), _case24),
    ("25", (1, 1, -1, 1, 1, -1), _case25),
    ("26", (1, 1, -1, -1, -1, -1), _empty),
    ("27", (1, -1, -1, -1, 1, -1), _case27),
    ("28", (1, -1, -1, 1, -1, -1), _case28),
    ("29", (-1, 1, -1, -1, 1, -1), _case29),
    ("30", (-1, 1, -1, 1, -1, -1), _case30),
    ("31", (-1, -1, -1, 1, 1, -1), _empty),
    ("32", (-1, -1, -1, -1, -1, -1), _case32),
]


def _decorate(spin, charge):
    return (1, charge) if spin == 1 else MINUS


def appendix_regression(nq):
    """Exchange-identity regression over all 32 boundary spin patterns.

    For every charge instantiation of every pattern check_rtt's state
    numerators, over its one den 1 - v (z_1/z_2)^nq, must equal the
    frozen ones, boundaries not covered by a frozen row must produce
    empty tables, and both side sums must agree."""
    check_modulus(nq)
    case_reports = []
    mismatches = []
    total_instances = 0
    total_states = 0
    for label, spins, builder in APPENDIX_CASES:
        golden = {}
        for charges, lhs, rhs in builder(nq):
            if charges in golden:
                raise AssertionError(
                    "case %s: duplicate charge row %r" % (label, charges))
            golden[charges] = (lhs, rhs)
        sigma_s, tau_s, beta, theta_s, rho_s, alpha = spins
        ranges = [range(1, nq + 1) if s == 1 else (None,)
                  for s in (sigma_s, tau_s, theta_s, rho_s)]
        case_states = 0
        case_instances = 0
        seen = set()
        for a, b, c, d in product(*ranges):
            case_instances += 1
            boundary = (_decorate(sigma_s, a), _decorate(tau_s, b), beta,
                        _decorate(theta_s, c), _decorate(rho_s, d), alpha)
            res = check_rtt(boundary, nq)
            if (a, b, c, d) in golden:
                seen.add((a, b, c, d))
            want_lhs, want_rhs = golden.get((a, b, c, d), ({}, {}))
            for side, got, want in (("lhs", res["lhs"], want_lhs),
                                    ("rhs", res["rhs"], want_rhs)):
                if sorted(got) != sorted(want):
                    mismatches.append((label, (a, b, c, d), side, "keys",
                                       sorted(got), sorted(want)))
                    continue
                for key, num in got.items():
                    if num != want[key]:
                        mismatches.append((label, (a, b, c, d), side, key,
                                           num, want[key]))
            if not res["equal"]:
                mismatches.append((label, (a, b, c, d), "sums",
                                   res["lhs_sum"], res["rhs_sum"]))
            case_states += len(res["lhs"]) + len(res["rhs"])
        if len(seen) != len(golden):
            mismatches.append((label, "uncovered rows",
                               sorted(set(golden) - seen)))
        total_instances += case_instances
        total_states += case_states
        case_reports.append({"case": label, "instances": case_instances,
                             "frozen_rows": len(golden),
                             "states": case_states})
    return {"nq": nq, "cases": case_reports, "instances": total_instances,
            "states": total_states, "mismatches": mismatches,
            "ok": not mismatches}


# -- spectral-swap functional equation ---------------------------------------

def train_functional_equation(lam, c, i, system):
    """Functional equation tying Z at swapped spectral variables to Z at
    the original ones.

    Z(S_{lam, s_i z}; c) equals the keep-weight times Z(S_lam; c) plus,
    when c_i and c_{i+1} differ, the swap-weight times Z(S_lam; s_i c);
    both crossing weights sit at rows (i, i+1).  c is the left-boundary
    charge vector, bottom to top, entries in (0, nq]."""
    nq = system.nq
    if tuple(lam) != system.lam:
        raise ValueError("partition %r does not match the system" % (lam,))
    if type(i) is not int:
        raise ValueError("reflection index i must be an int (bool is refused): %r" % (i,))
    if not 1 <= i <= system.r - 1:
        raise ValueError("reflection index out of range: %d" % i)
    c = tuple(reduce_charge(x, nq) for x in c)
    z_c = partition_function(system, charges=c)
    swap = {i: i + 1, i + 1: i}
    lhs = S.Frac.lift(z_c.permute_z(swap))
    ci, cj = c[i - 1], c[i]
    keep = r_weight((1, cj), (1, ci), (1, cj), (1, ci), (i, i + 1), nq)
    rhs = keep * z_c
    swap_weight = None
    if ci != cj:
        swap_weight = r_weight((1, cj), (1, ci), (1, ci), (1, cj),
                               (i, i + 1), nq)
        sc = c[:i - 1] + (cj, ci) + c[i + 1:]
        rhs = rhs + swap_weight * partition_function(system, charges=sc)
    return {"lambda": system.lam, "nq": nq, "charges": c, "i": i,
            "keep": keep, "swap": swap_weight,
            "lhs": lhs, "rhs": rhs, "equal": S.frac_eq(lhs, rhs)}
