"""Triangular-array state models matching the charged grid systems.

States carry three equivalent forms: a map m from positive roots (i, j),
1 <= i < j <= r, to nonnegative integers, a strict interleaved triangular
array whose top row is lambda + rho, and a grid filling from the lattice
module.  Each form carries the same weight data, and the class pieces of
the generating sum reproduce the grid partition functions per left-edge
charge class after a fixed monomial normalization.
"""

from functools import lru_cache
from itertools import chain
from operator import add, gt, itemgetter, le, sub

from . import scalar as S
from . import lattice as L
from . import metaplectic as MP


@lru_cache(maxsize=None)
def _root_order(r):
    return tuple((i, j) for i in range(1, r) for j in range(i + 1, r + 1))


@lru_cache(maxsize=None)
def _root_set(r):
    return frozenset(_root_order(r))


@lru_cache(maxsize=None)
def _layer_roots(r):
    """The one root <-> entry map: for k = 1..r-1, the roots fixed between
    array rows k - 1 and k, in column order.  Entry q of row k gives
    m_{r-k-q, r-k+1} = a_{k,k+q} - a_{k-1,k+q} = row[q] - above[q + 1]."""
    return tuple(tuple((r - k - q, r - k + 1) for q in range(r - k))
                 for k in range(1, r))


def _top_row(lam, r):
    return tuple(map(add, lam, range(r - 1, -1, -1)))


def _root_values(rows):
    """Values of the _layer_roots roots, layer after layer, read off
    consecutive array rows (a whole array, or a row and the row under
    it): row[q] - above[q + 1]."""
    return map(sub, chain.from_iterable(rows[1:]),
               chain.from_iterable(row[1:] for row in rows))


def _long_word(r):
    # fixed reduced word (r, r-1, r, ..., 1, 2, ..., r)
    word = []
    for start in range(r, 0, -1):
        word.extend(range(start, r + 1))
    return tuple(word)


def _check_partition(lam, r):
    if r < 1:
        raise ValueError("rank must be a positive integer")
    return L.check_partition(lam, r)


class CrystalNode:
    """Nonnegative integer on every positive root (i, j), i < j <= r,
    listed against the fixed reduced word.  The constructor validates its
    arguments; the package's enumeration and bijections build nodes valid
    by construction through _trusted, which skips the checks."""

    __slots__ = ["r", "m"]

    def __init__(self, r, m):
        if r < 1:
            raise ValueError("rank must be a positive integer")
        m = dict(m)
        if m.keys() != _root_set(r):
            raise ValueError("m must assign exactly the roots (i, j), 1 <= i < j <= %d" % r)
        if not all(type(v) is int and v >= 0 for v in m.values()):
            raise ValueError("root values must be nonnegative ints (bool is refused)")
        self.r = r
        self.m = m

    @classmethod
    def _trusted(cls, r, m):
        """A node from a dict m that is known to be valid for rank r."""
        node = object.__new__(cls)
        node.r = r
        node.m = m
        return node

    def vector(self):
        return tuple(map(self.m.__getitem__, _root_order(self.r)))

    def z_exponent(self):
        """Exponent vector of the node monomial: root (i, j) adds its
        value to slot i and subtracts it from slot j; entries sum to 0."""
        p = [0] * self.r
        for (i, j), m in self.m.items():
            p[i - 1] += m
            p[j - 1] -= m
        return tuple(p)

    def __eq__(self, other):
        return (isinstance(other, CrystalNode)
                and self.r == other.r and self.m == other.m)

    __hash__ = None

    def __repr__(self):
        return "CrystalNode(%d, %r)" % (self.r, self.m)

    def to_json(self):
        return {"longWord": list(_long_word(self.r)),
                "m": [[i, j, self.m[(i, j)]] for i, j in _root_order(self.r)]}


class GTPattern:
    """Triangular array, rows 0..r-1; row k holds a_{k,l} for l = k..r-1
    and interleaves with the row above: a_{k-1,l} <= a_{k,l} <= a_{k-1,l-1}.
    Strict patterns also decrease strictly within every row.  The
    constructor validates its rows; the package's bijections build
    patterns valid by construction through _trusted, which skips the
    checks."""

    __slots__ = ["r", "rows"]

    def __init__(self, rows, strict=True):
        rows = tuple(map(tuple, rows))
        _check_shape(rows)
        if set(map(type, chain.from_iterable(rows))) != {int}:
            raise ValueError("pattern entries must be ints (bool is refused)")
        _check_interleave(rows)
        if strict and not _rows_strict(rows):
            raise ValueError("pattern rows must strictly decrease")
        self.r = len(rows)
        self.rows = rows

    @classmethod
    def _trusted(cls, rows):
        """A pattern from a tuple of row tuples known to form a valid
        strict pattern."""
        pattern = object.__new__(cls)
        pattern.r = len(rows)
        pattern.rows = rows
        return pattern

    def entry(self, k, l):
        return self.rows[k][l - k]

    def is_strict(self):
        return _rows_strict(self.rows)

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return "GTPattern(%r)" % (self.rows,)

    def to_json(self):
        return [list(row) for row in self.rows]


def _rows_strict(rows):
    return all(all(map(gt, row, row[1:])) for row in rows)


def _check_shape(rows):
    """ValueError unless there is a row and row k has r - k entries."""
    r = len(rows)
    if r < 1:
        raise ValueError("pattern needs at least one row")
    for k, row in enumerate(rows):
        if len(row) != r - k:
            raise ValueError("row %d must have %d entries" % (k, r - k))


def _check_interleave(rows):
    """ValueError naming the first pair of rows where a_{k-1,l} <= a_{k,l}
    <= a_{k-1,l-1} fails."""
    for k in range(1, len(rows)):
        above, row = rows[k - 1], rows[k]
        if not (all(map(le, above[1:], row)) and all(map(le, row, above))):
            raise ValueError("rows %d and %d do not interleave" % (k - 1, k))


class Decoration:
    """Per-root flags: circled when the root value is zero, boxed when
    the membership bound is tight."""

    __slots__ = ["circled", "boxed"]

    def __init__(self, circled, boxed):
        self.circled = bool(circled)
        self.boxed = bool(boxed)

    def __eq__(self, other):
        return (isinstance(other, Decoration)
                and self.circled == other.circled and self.boxed == other.boxed)

    __hash__ = None

    def __repr__(self):
        return "Decoration(circled=%r, boxed=%r)" % (self.circled, self.boxed)

    def to_json(self):
        return {"circled": self.circled, "boxed": self.boxed}


def crystal_enumerate(lam, r):
    """All nodes of the strict triangular arrays with top row lam + rho,
    built one row at a time by lattice._rows_below, each prefix carrying
    its last row and its root values so far; sorted by value vector in
    root order, read off the layer-order values before any node is built.
    Dropping the strictness bound would admit extra assignments, but each
    of those carries a boxed-and-circled root, so the generating sum is
    unchanged."""
    lam = _check_partition(lam, r)
    prefixes = [(_top_row(lam, r), ())]
    # every prefix ending in the same row has the same continuations
    steps = {}
    for _ in range(1, r):
        nxt = []
        for above, values in prefixes:
            if above not in steps:
                steps[above] = [(row, tuple(_root_values((above, row))))
                                for row in L._rows_below(above)]
            nxt += [(row, values + step) for row, step in steps[above]]
        prefixes = nxt
    roots = tuple(chain.from_iterable(_layer_roots(r)))
    found = [values for _, values in prefixes]
    # r <= 1 has one node; at r = 2 the key is the one value, not a 1-tuple
    perm = [roots.index(root) for root in _root_order(r)]
    if perm:
        found.sort(key=itemgetter(*perm))
    return [CrystalNode._trusted(r, dict(zip(roots, values))) for values in found]


def root_data(node, lam):
    """Per-root (column sum, slack, Decoration); slack is the membership
    bound minus the tail sum minus one, so boxed means slack == -1 and
    slack < -1 is not a member."""
    r = node.r
    lam = _check_partition(lam, r)
    out = {}
    for (i, j) in _root_order(r):
        col = sum(node.m[(k, j)] for k in range(1, i + 1))
        diff = lam[r - i - 1] - lam[r - i]
        upper = sum(node.m[(i + 1, k)] for k in range(j + 1, r + 1)) if i + 1 < r else 0
        tail = sum(node.m[(i, k)] for k in range(j, r + 1))
        slack = diff + upper - tail
        if slack < -1:
            raise ValueError("membership bound fails at root %r" % ((i, j),))
        out[(i, j)] = (col, slack, Decoration(node.m[(i, j)] == 0, slack == -1))
    return out


def node_weight(node, lam, nq):
    """Product over roots: boxed and circled kills the node, circled
    alone contributes 1, otherwise the two-argument Gauss symbol at
    (column sum, slack)."""
    L.check_modulus(nq)
    data = root_data(node, lam)
    w = S.one(nq)
    for ij in _root_order(node.r):
        col, slack, dec = data[ij]
        if dec.circled and dec.boxed:
            return S.zero(nq)
        if not dec.circled:
            w = w * S.gauss_eval(col, slack, nq)
        if w.is_zero():
            return w
    return w


def i_lambda(lam, r, nq):
    """Generating sum over all nodes of weight times node monomial, by the
    lattice row transfer down the triangular array from the top row
    lam + rho, untagged.  A row's weight is _row_factor times the monomial
    in which each root (i, j) of _layer_roots adds its value to z_i and
    subtracts it from z_j."""
    lam = _check_partition(lam, r)
    L.check_modulus(nq)

    def step(roots, above):
        for row in L._rows_below(above):
            zex = [0] * r
            for (i, j), m in zip(roots, _root_values((above, row))):
                zex[i - 1] = m
                zex[j - 1] -= m
            yield row, (), _row_factor(above, row, nq) * S.z_mono(zex, nq)

    layer = L._transfer(_top_row(lam, r), _layer_roots(r), step, nq)
    return sum((classes[()] for classes in layer.values()), S.zero(nq))


def _z_vector(zex, r):
    vec = [0] * r
    for i, e in zex:
        if i > r:
            raise ValueError("monomial uses z_%d beyond rank %d" % (i, r))
        vec[i - 1] = e
    return vec


def coset_piece(I, gamma, lam, cosets):
    """Sub-sum of I over monomials with z exponent in gamma - w0(lam) +
    the coset lattice; exponents must sum to zero (trace-free support)."""
    r = cosets.params.r
    lam = _check_partition(lam, r)
    gamma = tuple(gamma)
    if len(gamma) != r:
        raise ValueError("gamma must have %d entries" % r)
    w0lam = tuple(reversed(lam))
    keep = {}
    for key, coeff in I.terms.items():
        vec = _z_vector(key[1], r)
        if sum(vec) != 0:
            raise ValueError("monomial exponent %r has nonzero sum" % (vec,))
        if cosets.contains([vec[t] - gamma[t] + w0lam[t] for t in range(r)]):
            keep[key] = coeff
    return S.Scalar(keep, I.nq)


def node_to_gt(node, lam):
    """Stack lambda + rho on top and add each root value of _layer_roots
    to the entry up and to the right.  Root values are nonnegative ints,
    so every entry is an int at least its upper right neighbour; what is
    left to reject is a non-int lam, an entry above its upper left
    neighbour (outside membership) and a row that is not strict."""
    r = node.r
    lam = _check_partition(lam, r)
    if not all(type(a) is int for a in lam):
        raise ValueError("pattern entries must be ints (bool is refused)")
    above = _top_row(lam, r)
    rows, strict, value = [above], True, node.m.__getitem__
    for k, roots in enumerate(_layer_roots(r), 1):
        row = tuple(map(add, above[1:], map(value, roots)))
        if not all(map(le, row, above)):
            raise ValueError("rows %d and %d do not interleave" % (k - 1, k))
        # as in GTPattern, every row is tested for interleaving before strictness
        strict = strict and all(map(gt, row, row[1:]))
        rows.append(row)
        above = row
    if not strict:
        raise ValueError("pattern rows must strictly decrease")
    return GTPattern._trusted(tuple(rows))


def gt_to_node(pattern):
    """Row differences read back as root values through _layer_roots; a
    valid pattern makes each one a nonnegative int."""
    roots = chain.from_iterable(_layer_roots(pattern.r))
    return CrystalNode._trusted(pattern.r, dict(zip(roots, _root_values(pattern.rows))))


def _lam_from_top(pattern):
    r = pattern.r
    return _check_partition(tuple(map(sub, pattern.rows[0], range(r - 1, -1, -1))), r)


def ice_to_gt(state):
    """Column labels with - spin on each band of vertical edges, top
    band first; the bottom boundary must be all +.  Labels read left to
    right are ints and decrease strictly, so the row lengths and the
    interleaving are what is left to check."""
    r, N = state.r, state.N
    if -1 in state.vertical[0]:
        raise ValueError("bottom boundary must carry + spins")
    rows = tuple([tuple([N - 1 - j for j, s in enumerate(state.vertical[r - k]) if s == -1])
                  for k in range(r)])
    _check_shape(rows)
    _check_interleave(rows)
    return GTPattern._trusted(rows)


def gt_to_ice(pattern, N=None):
    """Grid filling with - vertical spins at the pattern's column labels,
    horizontal spins propagated right to left from the - right boundary.
    A pattern need not be strict, so strictness is checked here, with
    the width N, nonnegative labels and the propagation."""
    rows = pattern.rows
    if not _rows_strict(rows):
        raise ValueError("pattern rows must strictly decrease")
    if N is None:
        N = rows[0][0] + 1
    if N < rows[0][0] + 1:
        raise ValueError("need N > the top row maximum")
    if rows[-1][0] < 0:
        raise ValueError("column labels must be nonnegative")
    vertical = (L._band((), N),) + tuple([L._band(row, N) for row in reversed(rows)])
    horizontal = tuple(map(L._horizontal_row, vertical[1:], vertical))
    if None in horizontal:
        raise ValueError("spins do not propagate in row %d" % (horizontal.index(None) + 1))
    return L.IceState._trusted(vertical, horizontal)


def gt_bijections(x, lam=None, N=None):
    """All three forms of one state, keyed node / pattern / ice; a node
    input needs the partition to fix the top row.  A given lam must match
    the top row, and a given N the width of a grid input."""
    if isinstance(x, CrystalNode):
        if lam is None:
            raise ValueError("a node input needs lam to fix the top row")
        pattern = node_to_gt(x, lam)
        return {"node": x, "pattern": pattern, "ice": gt_to_ice(pattern, N)}
    if isinstance(x, GTPattern):
        pattern, ice = x, None
    elif isinstance(x, L.IceState):
        if N is not None and N != x.N:
            raise ValueError("N=%r does not match the state's width %d" % (N, x.N))
        pattern, ice = ice_to_gt(x), x
    else:
        raise ValueError("expected a CrystalNode, GTPattern or IceState")
    top = _lam_from_top(pattern)
    if lam is not None and tuple(lam) != top:
        raise ValueError("lam %r does not match the top row, which gives %r"
                         % (tuple(lam), top))
    return {"node": gt_to_node(pattern), "pattern": pattern,
            "ice": gt_to_ice(pattern, N) if ice is None else ice}


def _row_factor(above, row, nq):
    """Weight factor of one row under the row above it: per entry, equal
    to the upper right gives 1, equal to the upper left gives the formal
    symbol g(e), strict on both sides gives g(e, 0), equal on both sides
    kills the pattern; e sums row[t] - above[t + 1] over t >= q."""
    w, e = S.one(nq), 0
    for q in range(len(row) - 1, -1, -1):
        x = row[q]
        e += x - above[q + 1]
        left_eq, right_eq = above[q] == x, x == above[q + 1]
        if left_eq and right_eq:
            return S.zero(nq)
        if not right_eq:
            w = w * S.gauss_eval(e, -1 if left_eq else 0, nq)
            if w.is_zero():
                return w
    return w


def gt_weight(pattern, nq):
    """Product over below-top entries of the four-way factor of
    _row_factor, taken one row at a time."""
    L.check_modulus(nq)
    total = S.one(nq)
    for above, row in zip(pattern.rows, pattern.rows[1:]):
        total = total * _row_factor(above, row, nq)
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


def verify_thm82(lam, r, N, params):
    """Charge-class partition functions against normalized class pieces.

    For each coset class with a nonzero piece, the charge vector is read
    off a support exponent: all exponents of one piece share a residue
    class mod nq because trace-free coset-lattice vectors have every
    entry divisible by nq.  The grid partition function at that charge
    vector must equal z^{-N + w0(rho) + c} z^{w0(lam)} times the piece.
    """
    lam = _check_partition(lam, r)
    if params.r != r:
        raise ValueError("cover rank %d does not match r=%d" % (params.r, r))
    nq = params.nq
    cosets = MP.lattice_and_cosets(params)
    ilam = i_lambda(lam, r, nq)
    system = L.System(lam, r, N, nq)
    w0rho = range(r)
    w0lam = tuple(reversed(lam))
    checks = []
    skipped = 0
    for gamma in cosets.gamma:
        piece = coset_piece(ilam, gamma, lam, cosets)
        if piece.is_zero():
            skipped += 1
            continue
        support = sorted(_z_vector(key[1], r) for key in piece.terms)
        base = support[0]
        for vec in support:
            if any((vec[t] - base[t]) % nq for t in range(r)):
                raise AssertionError("coset piece mixes charge classes")
        aligned = [base[t] + w0lam[t] for t in range(r)]
        if not cosets.contains([aligned[t] - gamma[t] for t in range(r)]):
            raise AssertionError("support exponent left its coset class")
        c = tuple(L.reduce_charge(N - aligned[t] - w0rho[t], nq) for t in range(r))
        lhs = L.partition_function(system, c)
        rhs = S.z_mono([c[t] - N + w0rho[t] + w0lam[t] for t in range(r)], nq) * piece
        entry = {"gamma": list(gamma), "c": list(c), "ok": lhs == rhs}
        if not entry["ok"]:
            entry["lhs"] = lhs.to_json()
            entry["rhs"] = rhs.to_json()
        checks.append(entry)
    return {"lambda": list(lam), "r": r, "N": N, "params": params.to_json(),
            "nq": nq, "checks": checks, "skipped": skipped,
            "ok": all(ch["ok"] for ch in checks)}
