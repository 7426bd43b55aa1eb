"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written in a different shape from the
package code (literal tables, direct enumeration, no shared helpers
beyond the modular assignment point), so that agreement is evidence and
not tautology.
"""

import functools
import itertools
import operator
from contextlib import suppress
from fractions import Fraction
from itertools import repeat
from operator import lt


# -- raw Gauss-symbol evaluation (periodicity only, no rewriting) --------

def eval_gauss_raw(exps, asg):
    """Evaluate a raw product of Gauss symbols at an assignment point.

    exps maps arbitrary integer indices to doubled exponents.  Applies
    only the definitional periodicity (index mod modulus); the rewrite
    rules are NOT used, so comparing against the normalized form tests
    the normalizer.  Indices congruent to 0 or to modulus/2 must carry
    even doubled exponents here.
    """
    p = asg.p
    nq = asg.nq
    val = 1
    for a, e2 in exps.items():
        r = a % nq
        if r == 0:
            assert e2 % 2 == 0
            g0 = (-pow(asg.u, 4, p)) % p
            val = val * pow(g0, (e2 // 2) % (p - 1), p) % p
        elif 2 * r == nq:
            assert e2 % 2 == 0
            val = val * pow(asg.gmid, (e2 // 2) % (p - 1), p) % p
        else:
            val = val * pow(asg.ghalf[r], e2 % (p - 1), p) % p
    return val


# -- the Gauss rewrite rules, one after another -------------------------

def gauss_normalize_by_rules(exps, nq):
    """Canonical form of a product of Gauss symbols at the given modulus,
    one rewrite rule after another: scalar.gauss_normalize before the
    Gauss part of a monomial was packed, kept as its reference.

    exps maps integer indices to doubled exponents.  Returns a triple
    (sign, vq, gex): sign in {1,-1}, vq a quarter-scaled v exponent picked
    up from the rewrite rules, gex a sorted tuple of (index, doubled
    exponent) pairs with indices in (0, modulus), at most one index of
    each mirror pair {a, modulus-a} present, surviving exponents positive.

    Rules applied: indices reduce mod the modulus; g(0)^e = (-1)^e v^e
    (integer e only); for a mirror pair with exponents (s, t) the smaller
    moves into the v power and the larger index keeps |s - t|; the
    self-paired index (modulus even, a = modulus/2) reduces its exponent
    mod 2 in integer steps only -- g(modulus/2) is never rewritten to a
    half power of v.
    """
    if nq is None:
        raise ValueError("gauss symbols need a modulus")
    acc = {}
    for a, e2 in exps.items():
        if e2:
            r = a % nq
            acc[r] = acc.get(r, 0) + e2
    sign = 1
    vq = 0
    e2 = acc.pop(0, 0)
    if e2:
        if e2 % 2:
            raise ValueError("half exponent on gauss index 0")
        e = e2 // 2
        if e % 2:
            sign = -sign
        vq += 4 * e
    out = []
    for a in sorted(acc):
        b = nq - a
        if a == b:
            # self-paired index: g(a)^2 = v, integer steps
            k, r2 = divmod(acc[a], 4)
            vq += 4 * k
            if r2:
                out.append((a, r2))
            continue
        if a > b and b in acc:
            continue  # already handled from the smaller side
        lo, hi = (a, b) if a < b else (b, a)
        s2 = acc.get(lo, 0)
        t2 = acc.get(hi, 0)
        m2 = min(s2, t2)
        vq += 2 * m2
        if s2 > t2:
            out.append((lo, s2 - t2))
        elif t2 > s2:
            out.append((hi, t2 - s2))
    out.sort()
    return sign, vq, tuple(out)


# -- tuple-keyed ring ------------------------------------------------------

class TupleKeyScalar:
    """A ground-ring element keyed (vq, zex, gex) with zex a sorted tuple
    of (index, exponent) pairs: the product, display and serialization
    that scalar.Scalar had before its z exponents were packed into one
    int, kept unchanged as the reference for the packed ring, with the
    sum as a plain two-operand merge of the term dicts.  The Gauss
    rewrite is passed in: gauss_normalize_by_rules, which the tests check
    against raw periodicity and against the package's gauss_normalize."""

    def __init__(self, terms, nq, gauss_normalize):
        self.terms = dict(terms)
        self.nq = nq
        self.gauss_normalize = gauss_normalize

    def _join_nq(self, other):
        if self.nq is None:
            return other.nq
        if other.nq is None or other.nq == self.nq:
            return self.nq
        raise ValueError("gauss modulus mismatch: %r vs %r" % (self.nq, other.nq))

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            c2 = out.get(key, 0) + c
            if c2:
                out[key] = c2
            else:
                del out[key]
        return TupleKeyScalar(out, self._join_nq(other), self.gauss_normalize)

    def __mul__(self, other):
        gauss_normalize = self.gauss_normalize
        nq = self._join_nq(other)
        out = {}
        for (vq1, zex1, gex1), c1 in self.terms.items():
            z1 = dict(zex1)
            for (vq2, zex2, gex2), c2 in other.terms.items():
                coef = c1 * c2
                vq = vq1 + vq2
                if zex2:
                    z = dict(z1)
                    for i, e in zex2:
                        e2 = z.get(i, 0) + e
                        if e2:
                            z[i] = e2
                        elif i in z:
                            del z[i]
                    zex = tuple(sorted(z.items()))
                else:
                    zex = zex1
                if gex1 or gex2:
                    g = dict(gex1)
                    for a, e in gex2:
                        g[a] = g.get(a, 0) + e
                    sign, dvq, gex = gauss_normalize(g, nq)
                    coef *= sign
                    vq += dvq
                else:
                    gex = ()
                key = (vq, zex, gex)
                c = out.get(key, 0) + coef
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return TupleKeyScalar(out, nq, gauss_normalize)

    def z_split(self):
        """Group terms by their z-exponent dict; yields (zex, sub-terms)."""
        groups = {}
        for (vq, zex, gex), c in self.terms.items():
            groups.setdefault(zex, {})[(vq, (), gex)] = c
        for zex in sorted(groups):
            yield zex, TupleKeyScalar(groups[zex], self.nq, self.gauss_normalize)

    def permute_z(self, perm):
        """Relabel z variables; perm maps old index -> new index."""
        out = {}
        for (vq, zex, gex), c in self.terms.items():
            zex2 = tuple(sorted((perm.get(i, i), e) for i, e in zex))
            key = (vq, zex2, gex)
            out[key] = out.get(key, 0) + c
        return TupleKeyScalar({k: c for k, c in out.items() if c}, self.nq,
                              self.gauss_normalize)

    def _term_str(self, key, coef):
        vq, zex, gex = key
        parts = []
        if coef == -1:
            lead = "-"
        elif coef == 1:
            lead = ""
        else:
            lead = str(coef) + "*"
        if vq:
            e = Fraction(vq, 4)
            parts.append("v" if e == 1 else "v^(%s)" % e)
        for i, e in zex:
            parts.append("z%d" % i if e == 1 else "z%d^%s" % (i, e))
        for a, e2 in gex:
            e = Fraction(e2, 2)
            parts.append("g(%d)" % a if e == 1 else "g(%d)^(%s)" % (a, e))
        if not parts:
            return str(coef)
        return lead + "*".join(parts)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [self._term_str(k, c) for k, c in sorted(self.terms.items())]
        s = bits[0]
        for b in bits[1:]:
            s += " - " + b[1:] if b.startswith("-") else " + " + b
        return s

    def to_json(self):
        terms = []
        for (vq, zex, gex), c in sorted(self.terms.items()):
            ve = Fraction(vq, 4)
            terms.append({
                "coef": c,
                "vexp": [ve.numerator, ve.denominator],
                "zexp": [[i, e] for i, e in zex],
                "gauss": [[a, Fraction(e2, 2).numerator, Fraction(e2, 2).denominator]
                          for a, e2 in gex],
            })
        return {"nq": self.nq, "terms": terms}


# -- ring and cover helpers that only the tests read -------------------------

def z_split(x, S):
    """Group the terms of the scalar.Scalar x by their z monomial; yields
    (zex, sub-Scalar) in order of the sorted (index, exponent) pairs zex.
    S is the scalar module."""
    groups = {}
    for (vq, z, gex), c in x.terms.items():
        groups.setdefault(z, {})[(vq, 0, gex)] = c
    for zex, z in sorted((S._z_pairs(z), z) for z in groups):
        yield zex, S._scalar(groups[z], x.nq, x.zb)


def has_gauss(x):
    """True when a term of the scalar x carries a Gauss symbol."""
    return any(gex for (_, _, gex) in x.terms)


def covers_distinguishable(first, second):
    """Parameter test separating two covers of the same degree.

    Covers (b1, c1) and (b2, c2) of degree n are distinguishable when
    2(c1 - c2) is nonzero mod n or b1 differs from b2 mod n.
    """
    if first.n != second.n:
        raise ValueError("covers must share the degree")
    n = first.n
    return (2 * (first.c - second.c)) % n != 0 or (first.b - second.b) % n != 0


# -- the partition rule, one test after another -----------------------------

def check_partition_rule(lam, r):
    """lattice.check_partition without its fast path: lam as a tuple;
    ValueError unless it is a partition of length r with int entries
    (bool refused), tested in that order."""
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("partition length %d does not match r=%d" % (len(lam), r))
    with suppress(TypeError):  # entries not comparable with ints meet the int test
        if any(map(lt, lam, repeat(0))) or any(map(lt, lam, lam[1:])):
            raise ValueError("lambda must be weakly decreasing and nonnegative")
    if not all(type(a) is int for a in lam):
        raise ValueError("lambda entries must be ints (bool is refused)")
    return lam


# -- strict interleaving triangular patterns -----------------------------

def enumerate_strict_patterns(top):
    """All strict triangular arrays with the given strictly decreasing
    top row, where each lower entry lies between its upper-right and
    upper-left neighbours (weakly) and rows strictly decrease."""
    top = tuple(top)
    assert all(top[i] > top[i + 1] for i in range(len(top) - 1))

    def extend(rows):
        prev = rows[-1]
        if len(prev) == 1:
            yield tuple(rows)
            return
        # next row entry j sits in [prev[j+1], prev[j]]
        ranges = [range(prev[j + 1], prev[j] + 1) for j in range(len(prev) - 1)]
        for cand in itertools.product(*ranges):
            if all(cand[i] > cand[i + 1] for i in range(len(cand) - 1)):
                yield from extend(rows + [list(cand)])

    return [tuple(tuple(row) for row in pat) for pat in extend([list(top)])]


# -- residue-key coset scan ----------------------------------------------

def bform_matrix(r, b, c):
    """Gram matrix with diagonal c and off-diagonal c - b."""
    return [[c if i == j else c - b for j in range(r)] for i in range(r)]


def coset_scan(n, b, c, r):
    """Brute-force coset data for the kernel of x -> Bx mod n.

    Returns (key_of, classes): key_of(x) is the defining residue tuple,
    classes maps each distinct key to the list of box vectors in
    [0,n)^r carrying it.  Two integer vectors are congruent mod the
    kernel lattice iff their keys agree.
    """
    B = bform_matrix(r, b, c)

    def key_of(x):
        return tuple(sum(B[i][j] * x[j] for j in range(r)) % n for i in range(r))

    classes = {}
    for x in itertools.product(range(n), repeat=r):
        classes.setdefault(key_of(x), []).append(x)
    return key_of, classes


# -- kernel lattice by residue scan ---------------------------------------

def kernel_basis_by_scan(params, MP):
    """Kernel lattice of x -> B.x mod n from a scan of every residue tuple
    in [0, n)^r: the n-fold coordinate vectors and each residue killed by
    the pairing generate it, and MP.hermite_basis (MP the metaplectic
    module) puts it in normal form; returns the MP.CosetData."""
    n, r = params.n, params.r
    bmat = params.bilinear_matrix()
    gens = [[n if k == idx else 0 for k in range(r)] for idx in range(r)]
    for x in itertools.product(range(n), repeat=r):
        if any(x) and not any(e % n for e in MP._b_dot(bmat, x)):
            gens.append(list(x))
    basis = MP.hermite_basis(gens, r)
    for row in basis:
        if any(e % n for e in MP._b_dot(bmat, row)):
            raise AssertionError("normal form produced a non-kernel row")
    return MP.CosetData(params, basis)


# -- literal six-vertex weight walk ---------------------------------------

def vertex_weight_oracle(north, south, west, east, east_charge, row, nq, S):
    """Independently coded per-vertex weight lookup.

    Spins are +1/-1 for vertical (north, south) and for the sign part of
    the horizontal edges; east_charge is the charge on the east edge.
    S is the scalar module (passed in to avoid an import cycle in the
    oracle file).  Returns a Scalar or None when the configuration is
    not one of the six admissible patterns.
    """
    a = east_charge
    div = (a % nq == 0)
    pat = (north, south, west, east)
    if pat == (1, 1, 1, 1):
        return S.z_pow(row, -nq, nq) if div else S.one(nq)
    if pat == (-1, -1, -1, -1):
        return S.one(nq)
    if pat == (-1, -1, 1, 1):
        g = S.gauss(a, nq)
        return g * S.z_pow(row, -nq, nq) if div else g
    if pat == (1, 1, -1, -1):
        return S.one(nq)
    if pat == (1, -1, -1, 1):
        return (S.one(nq) - S.v_pow(1, nq)) * S.z_pow(row, -nq, nq)
    if pat == (-1, 1, 1, -1):
        return S.one(nq)
    return None


def states_by_sort(top, r, nq, row_completions):
    """lattice._enumerate as (vertical, horizontal) pairs: every path down
    from the top band, one row step per distinct band of each level,
    then one sort by the bands from the bottom.  row_completions is
    lattice._row_completions."""
    paths = [((top,), ())]
    for _ in range(r):
        below = {north: row_completions(north, nq) for north in {v[-1] for v, _ in paths}}
        paths = [(vrows + (south,), hrows + (hrow,)) for vrows, hrows in paths
                 for south, hrow in below[vrows[-1]]]
    return sorted((vrows[::-1], hrows[::-1]) for vrows, hrows in paths)


def brute_force_states(r, N, top_minus_columns, nq):
    """Enumerate admissible grid states by raw search over all edges.

    Returns a list of (vertical, horizontal) matrices in the same layout
    the lattice module uses: vertical[k][j] for boundaries k = 0..r
    (bottom row of vertical edges first), horizontal[i][j] for rows
    i = 1..r stored at index i-1, entries left-to-right j = 0..N.
    Only feasible for small r*N.
    """
    # vertical edge spins: rows of boundaries, bottom (all +) to top
    # horizontal: per row, N+1 edges, left + and right -
    columns = list(range(N - 1, -1, -1))  # labels, left to right
    top = [(-1 if lbl in top_minus_columns else 1) for lbl in columns]
    bottom = [1] * N
    states = []
    inner_v = r - 1
    for v_bits in itertools.product((1, -1), repeat=inner_v * N):
        vertical = [bottom]
        for k in range(inner_v):
            vertical.append(list(v_bits[k * N:(k + 1) * N]))
        vertical.append(top)
        for h_bits in itertools.product((1, -1), repeat=r * (N - 1)):
            horizontal = []
            ok = True
            for i in range(r):
                row = [1] + list(h_bits[i * (N - 1):(i + 1) * (N - 1)]) + [-1]
                horizontal.append(row)
            # vertex conservation: number of + in (N,E) equals in (S,W)
            for i in range(1, r + 1):
                for j in range(N):
                    n_ = vertical[i][j]
                    s_ = vertical[i - 1][j]
                    w_ = horizontal[i - 1][j]
                    e_ = horizontal[i - 1][j + 1]
                    if (n_ == s_) != (w_ == e_):
                        ok = False
                        break
                    if n_ != s_ and n_ == w_:
                        # the two six-vertex c-patterns force N=E, S=W
                        # when N != S; N == W is the excluded pair
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            # charges: minus horizontal edges need charge divisible by nq
            adm = True
            for i in range(r):
                charge = 0
                charges = [0] * (N + 1)
                for j in range(N, -1, -1):
                    if j < N and horizontal[i][j + 1] == 1:
                        charge += 1
                    # charge of edge j counts + spins at or right of it
                    charges[j] = charge + (1 if horizontal[i][j] == 1 else 0)
                for j in range(N + 1):
                    if horizontal[i][j] == -1 and charges[j] % nq != 0:
                        adm = False
                        break
                if not adm:
                    break
            if adm:
                states.append((vertical, horizontal))
    return states


# -- vertex-by-vertex grid row completion -----------------------------------

def row_completions_by_vertices(north, bottom_row, nq):
    """All legal (south spins, horizontal row) fillings under a fixed row
    of north spins, by choosing a vertex type per column.  Walks right to
    left so each new horizontal edge's charge is already determined,
    pruning - edges with charge not divisible by nq, rows whose left edge
    is not +, and, on the bottom row, any - south spin."""
    results = []

    def step(j, east, echarge, south, hedges):
        if j < 0:
            if east == 1:
                results.append((tuple(south), tuple(hedges) + (-1,)))
            return
        n_ = north[j]
        if n_ == 1 and east == 1:
            cands = ((1, 1), (-1, -1))     # a1, c1
        elif n_ == -1 and east == 1:
            cands = ((-1, 1),)              # b1
        elif n_ == 1 and east == -1:
            cands = ((1, -1),)              # b2
        else:
            cands = ((-1, -1), (1, 1))      # a2, c2
        for s_, w_ in cands:
            if bottom_row and s_ != 1:
                continue
            if w_ == -1 and echarge % nq:
                continue
            step(j - 1, w_, echarge + (1 if w_ == 1 else 0),
                 (s_,) + south, (w_,) + hedges)

    step(len(north) - 1, -1, 0, (), ())
    return results


# -- dense crossing tables ----------------------------------------------------

def crossing_table_dense(rows, nq, R):
    """The by_in and by_out maps of R.CrossingTable by the dense loop:
    R.r_weight at all (nq + 1)^4 leg tuples in product order (NW, SW,
    NE, SE), zeros dropped."""
    dv = R.decorated_values(nq)
    by_in, by_out = {}, {}
    for nw, sw, ne, se in itertools.product(dv, repeat=4):
        w = R.r_weight(nw, sw, ne, se, rows, nq)
        if not w.is_zero():
            by_in.setdefault((nw, sw), []).append((ne, se, w.num))
            by_out.setdefault((ne, se), []).append((nw, sw, w.num))
    return by_in, by_out


def ice_r_matrix_dense(nq, rows, R):
    """R.ice_r_matrix by the dense loop over every pair of pair-basis
    labels: the entry at ((alpha, beta), (gamma, delta)) is the crossing
    weight with NW = alpha, SW = beta, NE = delta, SE = gamma."""
    dv = R.decorated_values(nq)
    mat = {}
    for alpha, beta in R.pair_basis(nq):
        for gamma, delta in R.pair_basis(nq):
            w = R.r_weight(dv[alpha], dv[beta], dv[delta], dv[gamma], rows, nq)
            if not w.is_zero():
                mat[((alpha, beta), (gamma, delta))] = w
    return mat


# -- dense two-row exchange tables -------------------------------------------

def rtt_tables_dense(boundary, nq, rows, R, S):
    """The exchange identity at one boundary by the dense loop: every
    (nq + 1)^2 pair of internal crossing legs on each side, each weight
    looked up through R.r_weight and R.grid_vertex_weight, and the side
    sums taken in sorted key order from 0 over 1 - v (z_i/z_j)^nq.
    Returns the record R.check_rtt returns."""
    sigma, tau, beta, theta, rho, alpha = boundary
    i, j = rows
    lhs = {}
    for nu in R.decorated_values(nq):
        for mu in R.decorated_values(nq):
            rw = R.r_weight(tau, sigma, nu, mu, rows, nq)
            if rw.is_zero():
                continue
            for gam in (1, -1):
                wj = R.grid_vertex_weight(beta, gam, nu, theta, j, nq)
                if wj.is_zero():
                    continue
                wi = R.grid_vertex_weight(gam, alpha, mu, rho, i, nq)
                if wi.is_zero():
                    continue
                lhs[(nu, mu, gam)] = rw * wj * wi
    rhs = {}
    for phi in R.decorated_values(nq):
        for psi in R.decorated_values(nq):
            rw = R.r_weight(phi, psi, theta, rho, rows, nq)
            if rw.is_zero():
                continue
            for dlt in (1, -1):
                wi = R.grid_vertex_weight(beta, dlt, tau, phi, i, nq)
                if wi.is_zero():
                    continue
                wj = R.grid_vertex_weight(dlt, alpha, sigma, psi, j, nq)
                if wj.is_zero():
                    continue
                rhs[(phi, psi, dlt)] = rw * wi * wj
    sums = []
    for table in (lhs, rhs):
        total = S.Frac(S.zero(nq), R.r_denominator(rows, nq))
        for key in sorted(table):
            total = total + table[key]
        sums.append(total)
    return {"boundary": boundary, "rows": rows, "nq": nq, "lhs": lhs,
            "rhs": rhs, "lhs_sum": sums[0], "rhs_sum": sums[1],
            "equal": S.frac_eq(*sums)}


# -- dense per-boundary braid and inversion sums ---------------------------

def _decorated(nq):
    return [(-1, 0)] + [(1, c) for c in range(1, nq + 1)]


def rrr_sums(boundary, rows, nq, weight, S):
    """Both sides of the three-strand braid identity at one boundary
    (alpha, beta, gamma, phi, eps, dlt), summed over every labelling of
    the internal edges.  weight(nw, sw, ne, se, rows, nq) is the crossing
    weight; returns (lhs, rhs) as Fracs."""
    alpha, beta, gamma, phi, eps, dlt = boundary
    i, j, k = rows
    dv = _decorated(nq)
    lhs = S.Frac(S.zero(nq), S.one(nq))
    for x in dv:
        for y in dv:
            w1 = weight(beta, alpha, x, y, (j, k), nq)
            if w1.is_zero():
                continue
            for w in dv:
                w2 = weight(gamma, x, dlt, w, (i, k), nq)
                if w2.is_zero():
                    continue
                w3 = weight(w, y, eps, phi, (i, j), nq)
                if w3.is_zero():
                    continue
                lhs = lhs + w1 * w2 * w3
    rhs = S.Frac(S.zero(nq), S.one(nq))
    for x2 in dv:
        for y2 in dv:
            u1 = weight(gamma, beta, y2, x2, (i, j), nq)
            if u1.is_zero():
                continue
            for w2 in dv:
                u2 = weight(x2, alpha, w2, phi, (i, k), nq)
                if u2.is_zero():
                    continue
                u3 = weight(y2, w2, dlt, eps, (j, k), nq)
                if u3.is_zero():
                    continue
                rhs = rhs + u1 * u2 * u3
    return lhs, rhs


def unitarity_sum(boundary, rows, nq, weight, S):
    """sum_{x,y} W_ij(beta, alpha -> x, y) W_ji(x, y -> dlt, gamma) at
    the boundary (alpha, beta, gamma, dlt); the identity wants
    [alpha = gamma][beta = dlt]."""
    alpha, beta, gamma, dlt = boundary
    i, j = rows
    dv = _decorated(nq)
    total = S.Frac(S.zero(nq), S.one(nq))
    for x in dv:
        for y in dv:
            w1 = weight(beta, alpha, x, y, (i, j), nq)
            if w1.is_zero():
                continue
            w2 = weight(x, y, dlt, gamma, (j, i), nq)
            if w2.is_zero():
                continue
            total = total + w1 * w2
    return total


# -- enumerate-and-sum class partition functions ---------------------------

def partition_classes(system, L, S):
    """Class partition functions by listing every state of the system
    (filtered to its left charges when present) and multiplying the
    oracle vertex weights edge by edge; keys are the reduced left-charge
    vectors of the states found, bottom row first."""
    nq = system.nq
    out = {}
    for st in L.enumerate_states(system):
        charges = st.charge_grid()
        w = S.one(nq)
        for i in range(st.r):
            for j in range(st.N):
                w = w * vertex_weight_oracle(
                    st.vertical[i + 1][j], st.vertical[i][j],
                    st.horizontal[i][j], st.horizontal[i][j + 1],
                    charges[i][j + 1], i + 1, nq, S)
        key = tuple((row[0] - 1) % nq + 1 for row in charges)
        out[key] = out.get(key, S.zero(nq)) + w
    return out


# -- node-by-node generating sum -------------------------------------------

def i_lambda_by_nodes(nodes, lam, nq, node_weight, S):
    """The triangular-array generating sum by adding weight times node
    monomial over every node of lam; the nodes and the node weight are
    passed in, since this checks the package's transfer.  The nodes do
    not depend on nq, so one list serves every modulus."""
    total = S.zero(nq)
    for node in nodes:
        w = node_weight(node, lam, nq)
        if not w.is_zero():
            total = total + w * S.z_mono(node.z_exponent(), nq)
    return total


# -- class pieces, one filter per class ----------------------------------

def coset_piece_by_filter(I, gamma, lam, cosets, S):
    """Sub-sum of I over monomials with z exponent in gamma - w0(lam) +
    the coset lattice: one membership test per term for this one class;
    exponents must sum to zero (trace-free support)."""
    r = cosets.params.r
    w0lam = tuple(reversed(lam))
    keep = []
    for (vq, zex, gex), coeff in I.sparse_terms():
        vec = [0] * r
        for i, e in zex:
            vec[i - 1] = e
        if sum(vec) != 0:
            raise ValueError("monomial exponent %r has nonzero sum" % (vec,))
        if cosets.contains([vec[t] - gamma[t] + w0lam[t] for t in range(r)]):
            keep.append(((vq, zex, gex), coeff))
    return S.Scalar.from_sparse(keep, I.nq)


# -- pattern weights and charges -----------------------------------------

def gt_weight(pattern, nq, row_factor, check_modulus, S):
    """Product over below-top entries of the four-way factor of
    row_factor, taken one row at a time; the row factor and the modulus
    check are passed in, since this checks the package's node weight."""
    check_modulus(nq)
    total = S.one(nq)
    for above, row in zip(pattern.rows, pattern.rows[1:]):
        total = total * row_factor(above, row, nq)
        if total.is_zero():
            return total
    return total


def charge_from_gt(pattern, N):
    """Unreduced left-edge charges, bottom grid row first:
    c'_i = N - a_{r-i,r-i} + sum_{j>r-i} (a_{r-i+1,j} - a_{r-i,j})."""
    r = pattern.r
    if N < pattern.entry(0, 0) + 1:
        raise ValueError("need N > the top row maximum")
    out = []
    for i in range(1, r + 1):
        k = r - i
        c = N - pattern.entry(k, k)
        for j in range(k + 1, r):
            c += pattern.entry(k + 1, j) - pattern.entry(k, j)
        out.append(c)
    return tuple(out)


# -- the four bijections through root dicts and per-row scans ---------------
#
# The bijections as they were when a node held its values in a dict keyed
# by root: each row is built and checked on its own, and every band and
# horizontal row is scanned afresh.  They return plain rows, root dicts
# and (vertical, horizontal) bands, and raise the package's ValueErrors.

def _layer_roots(r):
    """For k = 1..r-1, the roots fixed between array rows k - 1 and k:
    entry q of row k gives m_{r-k-q, r-k+1} = row[q] - above[q + 1]."""
    return [[(r - k - q, r - k + 1) for q in range(r - k)] for k in range(1, r)]


def _check_rows(rows):
    """Row lengths, then interleaving, one row at a time."""
    r = len(rows)
    if r < 1:
        raise ValueError("pattern needs at least one row")
    for k, row in enumerate(rows):
        if len(row) != r - k:
            raise ValueError("row %d must have %d entries" % (k, r - k))
    for k in range(1, r):
        above, row = rows[k - 1], rows[k]
        if not (all(map(operator.le, above[1:], row))
                and all(map(operator.le, row, above))):
            raise ValueError("rows %d and %d do not interleave" % (k - 1, k))


def band_by_scan(labels, N):
    """Spins of a band of N vertical edges: - at the column labels."""
    band = [1] * N
    for label in labels:
        band[N - 1 - label] = -1
    return tuple(band)


def horizontal_row_by_scan(north, south):
    """Horizontal spins between two bands, propagated right to left from
    the - right boundary; None when they do not propagate or the left
    edge does not close with +."""
    east, row = -1, [-1] * (len(north) + 1)
    for j in range(len(north) - 1, -1, -1):
        if north[j] != south[j]:
            if east != north[j]:
                return None
            east = -east
        row[j] = east
    return tuple(row) if east == 1 else None


def node_to_rows_by_dict(node, lam, check_partition):
    """crystal.node_to_gt as rows, each row read through node.m and
    tested for interleaving as it is built; strictness is tested after
    every row has been tested for interleaving."""
    r = node.r
    lam = check_partition(lam, r)
    if not all(type(a) is int for a in lam):
        raise ValueError("pattern entries must be ints (bool is refused)")
    above = tuple(map(operator.add, lam, range(r - 1, -1, -1)))
    rows, strict, value = [above], True, node.m.__getitem__
    for k, roots in enumerate(_layer_roots(r), 1):
        row = tuple(map(operator.add, above[1:], map(value, roots)))
        if not all(map(operator.le, row, above)):
            raise ValueError("rows %d and %d do not interleave" % (k - 1, k))
        strict = strict and all(map(operator.gt, row, row[1:]))
        rows.append(row)
        above = row
    if not strict:
        raise ValueError("pattern rows must strictly decrease")
    return tuple(rows)


def rows_to_m_by_dict(rows):
    """crystal.gt_to_node as its root dict, filled layer after layer."""
    m = {}
    for k, roots in enumerate(_layer_roots(len(rows)), 1):
        m.update(zip(roots, map(operator.sub, rows[k], rows[k - 1][1:])))
    return m


def rows_to_ice_by_scan(rows, N=None):
    """crystal.gt_to_ice as (vertical, horizontal); the rows must decrease
    strictly, as the rows of every GTPattern do."""
    if N is None:
        N = rows[0][0] + 1
    if N < rows[0][0] + 1:
        raise ValueError("need N > the top row maximum")
    if rows[0][-1] < 0:
        raise ValueError("column labels must be nonnegative")
    vertical = (band_by_scan((), N),) + tuple([band_by_scan(row, N) for row in reversed(rows)])
    horizontal = tuple(map(horizontal_row_by_scan, vertical[1:], vertical))
    if None in horizontal:
        raise ValueError("spins do not propagate in row %d" % (horizontal.index(None) + 1))
    return vertical, horizontal


def ice_to_rows_by_scan(vertical, horizontal):
    """crystal.ice_to_gt as rows: the - spin labels of each band, top
    band first, scanned against the width of the bottom band."""
    r, N = len(horizontal), len(vertical[0])
    if -1 in vertical[0]:
        raise ValueError("bottom boundary must carry + spins")
    rows = tuple([tuple([N - 1 - j for j, s in enumerate(vertical[r - k]) if s == -1])
                  for k in range(r)])
    _check_rows(rows)
    return rows


def node_forms_by_dict(r, m):
    """(repr, to_json, z_exponent, vector) of a rank-r CrystalNode that
    holds the root dict m itself."""
    order = [(i, j) for i in range(1, r) for j in range(i + 1, r + 1)]
    word = [x for start in range(r, 0, -1) for x in range(start, r + 1)]
    p = [0] * r
    for (i, j), value in m.items():
        p[i - 1] += value
        p[j - 1] -= value
    return ("CrystalNode(%d, %r)" % (r, m),
            {"longWord": word, "m": [[i, j, m[(i, j)]] for i, j in order]},
            tuple(p), tuple(m[root] for root in order))


# -- Tokuyama's formula at modulus one ---------------------------------------

def gt_patterns(top):
    """Gelfand-Tsetlin patterns with the given weakly decreasing top row,
    as tuples of rows from the top (length r) down to length 1."""
    top = tuple(top)
    if len(top) <= 1:
        return [(top,)] if top else [()]
    below = itertools.product(*[range(top[j + 1], top[j] + 1)
                                for j in range(len(top) - 1)])
    return [(top,) + rest for row in below for rest in gt_patterns(row)]


def _poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(map(operator.add, ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def tokuyama_z(lam):
    """Z(S_lam) at nq = 1 by Tokuyama's formula,
    prod_{i<j} (x_i - v x_j) * s_{lam*}(x) with x_i = 1/z_i and
    lam*_i = lam_1 - lam_{r+1-i}.  The Schur polynomial is the sum over
    Gelfand-Tsetlin patterns of x^(row-sum differences).  Returns a dict
    from (v exponent, x_1 exponent, ..., x_r exponent) to coefficients;
    it is cached per lam (0^7 takes seconds), so callers must not edit it."""
    r = len(lam)

    def mono(v, k=None):
        return tuple([v] + [int(t == k) for t in range(1, r + 1)])

    total = {mono(0): 1}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            total = _poly_mul(total, {mono(0, i): 1, mono(1, j): -1})
    star = [lam[0] - lam[r - 1 - i] for i in range(r)]
    schur = {}
    for pattern in gt_patterns(star):
        sums = [sum(row) for row in reversed(pattern)]
        # x_k carries the row sum of the length-k row minus that of the row below
        key = (0,) + tuple(sums[k] - (sums[k - 1] if k else 0) for k in range(r))
        schur[key] = schur.get(key, 0) + 1
    return _poly_mul(total, schur)


def as_x_poly(z, r, S):
    """A modulus-one Scalar in z_1 .. z_r as the dict tokuyama_z returns:
    (v exponent, x_1 exponent, ..., x_r exponent) -> coefficient, x = 1/z.
    S is the scalar module."""
    out = {}
    for zex, sub in z_split(z, S):
        x = dict(zex)
        xs = tuple(-x.get(i, 0) for i in range(1, r + 1))
        for (vq, _, gex), coef in sub.sparse_terms():
            assert not gex and vq % 4 == 0
            out[(vq // 4,) + xs] = coef
    return out
