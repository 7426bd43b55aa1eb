"""Triangular-array state models matching the charged grid systems.

States carry three equivalent forms: a map m from positive roots (i, j),
1 <= i < j <= r, to nonnegative integers, a strict interleaved triangular
array whose top row is lambda + rho, and a grid filling from the lattice
module.  Each form carries the same weight data, and the class pieces of
the generating sum reproduce the grid partition functions per left-edge
charge class after a fixed monomial normalization.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat
from operator import add, gt, itemgetter, le, sub

from . import scalar as S
from . import lattice as L
from . import metaplectic as MP


# bound of the rank-keyed layout memo below; an entry holds r(r-1)/2 roots
RANK_MEMO_MAX = 32

_Layout = namedtuple("_Layout", "roots layers flat in_root_order repr_template")


@lru_cache(maxsize=RANK_MEMO_MAX)
def _layout(r):
    """The rank-r root layout.  roots: the positive roots in root order.
    layers: the one root <-> entry map; for k = 1..r-1, the roots fixed
    between array rows k - 1 and k, entry q of row k giving
    m_{r-k-q, r-k+1} = row[q] - above[q + 1].  flat: the layers joined,
    the order in which a CrystalNode holds its values.  in_root_order:
    flat-order values to a tuple in root order.  repr_template: a node's
    repr as a format string over its values."""
    roots = tuple((i, j) for i in range(1, r) for j in range(i + 1, r + 1))
    layers = tuple(tuple((r - k - q, r - k + 1) for q in range(r - k))
                   for k in range(1, r))
    flat = tuple(chain.from_iterable(layers))
    perm = [flat.index(root) for root in roots]
    # itemgetter of one index returns the item, not a 1-tuple
    in_root_order = itemgetter(*perm) if len(perm) > 1 else tuple
    template = "CrystalNode(%d, {%s})" % (
        r, ", ".join("%r: %%r" % (root,) for root in flat))
    return _Layout(roots, layers, flat, in_root_order, template)


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
    listed against the fixed reduced word.  The values are held as one
    tuple in _layout flat order, layer after layer of the triangular
    array, and m is a read-only view: each read builds a fresh dict
    {root: value} in that order, so editing it leaves the node as it
    was.  The constructor validates its arguments; the package's
    enumeration and bijections build nodes valid by construction through
    _trusted, which skips the checks."""

    __slots__ = ["r", "values"]

    def __init__(self, r, m):
        if r < 1:
            raise ValueError("rank must be a positive integer")
        m = dict(m)
        roots = _layout(r).flat
        if m.keys() != set(roots):
            raise ValueError("m must assign exactly the roots (i, j), 1 <= i < j <= %d" % r)
        if not all(type(v) is int and v >= 0 for v in m.values()):
            raise ValueError("root values must be nonnegative ints (bool is refused)")
        self.r = r
        self.values = tuple(map(m.__getitem__, roots))

    @classmethod
    def _trusted(cls, r, values):
        """A node from a tuple of values, in _layout flat order, known to
        be valid for rank r."""
        node = object.__new__(cls)
        node.r = r
        node.values = values
        return node

    @property
    def m(self):
        """A fresh dict {root: value} in _layout flat order."""
        return dict(zip(_layout(self.r).flat, self.values))

    def vector(self):
        return _layout(self.r).in_root_order(self.values)

    def z_exponent(self):
        """Exponent vector of the node monomial: root (i, j) adds its
        value to slot i and subtracts it from slot j; entries sum to 0."""
        p = [0] * self.r
        for (i, j), m in zip(_layout(self.r).flat, self.values):
            p[i - 1] += m
            p[j - 1] -= m
        return tuple(p)

    def __eq__(self, other):
        return (isinstance(other, CrystalNode)
                and self.r == other.r and self.values == other.values)

    __hash__ = None

    def __repr__(self):
        return _layout(self.r).repr_template % self.values

    def to_json(self):
        return {"longWord": list(_long_word(self.r)),
                "m": [[i, j, m] for (i, j), m in zip(_layout(self.r).roots, self.vector())]}


class GTPattern:
    """Triangular array, rows 0..r-1; row k holds a_{k,l} for l = k..r-1
    and interleaves with the row above: a_{k-1,l} <= a_{k,l} <= a_{k-1,l-1},
    and every row decreases strictly.  A pattern is always strict: the
    constructor refuses any other rows, and the package's bijections
    build patterns valid by construction through _trusted, which skips
    the checks."""

    __slots__ = ["r", "rows"]

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        # the type test comes before the pair memo: (2.0, 0) == (2, 0)
        if not (set(map(type, chain.from_iterable(rows))) == {int} and _rows_ok(rows)):
            raise _pattern_error(rows)
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

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return "GTPattern(%r)" % (self.rows,)

    def to_json(self):
        return [list(row) for row in self.rows]


# the three row-pair memos below share the bound of lattice's row memos
@lru_cache(maxsize=L.ROW_MEMO_MAX)
def _pair_ok(above, row):
    """True when row is one entry shorter than above, interleaves under
    it, above[q + 1] <= row[q] <= above[q], and both rows strictly
    decrease.  Entries must be ints: the memo cannot tell 2.0 from 2."""
    return (len(row) == len(above) - 1
            and all(map(le, above[1:], row)) and all(map(le, row, above))
            and all(map(gt, above, above[1:])) and all(map(gt, row, row[1:])))


@lru_cache(maxsize=L.ROW_MEMO_MAX)
def _layer_values(above, row):
    """The root values of the _layout layer between array rows above and
    row, in flat order: row[q] - above[q + 1]."""
    return tuple(map(sub, row, above[1:]))


@lru_cache(maxsize=L.ROW_MEMO_MAX)
def _row_step(above, values):
    """(row, ok), the inverse of _layer_values: the row under `above`
    that adds a layer's root values, in order, to the entries up and to
    the right, and whether the pair passes _pair_ok.  Keys are int tuples
    (node values, and rows built from a checked partition), so the memo
    cannot meet 2.0 for 2."""
    row = tuple(map(add, above[1:], values))
    return row, _pair_ok(above, row)


def _rows_ok(rows):
    """True when int rows form a strict pattern: a last row of one
    entry, and r - 1 consecutive row pairs that pass _pair_ok."""
    return bool(rows) and len(rows[-1]) == 1 and all(map(_pair_ok, rows, rows[1:]))


def _pattern_error(rows):
    """The ValueError naming the first fault of rows that _rows_ok or the
    int test refuses, tested in the order row count and lengths, entry
    types, interleaving (first failing pair of rows), strictness."""
    r = len(rows)
    if r < 1:
        return ValueError("pattern needs at least one row")
    for k, row in enumerate(rows):
        if len(row) != r - k:
            return ValueError("row %d must have %d entries" % (k, r - k))
    if set(map(type, chain.from_iterable(rows))) != {int}:
        return ValueError("pattern entries must be ints (bool is refused)")
    for k in range(1, r):
        above, row = rows[k - 1], rows[k]
        if not (all(map(le, above[1:], row)) and all(map(le, row, above))):
            return ValueError("rows %d and %d do not interleave" % (k - 1, k))
    return ValueError("pattern rows must strictly decrease")


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
    prefixes = [(L._top_row(lam, r), ())]
    # every prefix ending in the same row has the same continuations
    steps = {}
    for _ in range(1, r):
        nxt = []
        for above, values in prefixes:
            if above not in steps:
                steps[above] = [(row, _layer_values(above, row))
                                for row in L._rows_below(above)]
            nxt += [(row, values + step) for row, step in steps[above]]
        prefixes = nxt
    found = [values for _, values in prefixes]
    found.sort(key=_layout(r).in_root_order)
    return [CrystalNode._trusted(r, values) for values in found]


def root_data(node, lam):
    """Per-root (column sum, slack, Decoration); slack is the membership
    bound minus the tail sum minus one, so boxed means slack == -1 and
    slack < -1 is not a member."""
    r = node.r
    lam = _check_partition(lam, r)
    m = node.m
    tail = {}  # m summed over (i, k), k >= j
    for i in range(1, r):
        acc = 0
        for k in range(r, i, -1):
            acc += m[(i, k)]
            tail[(i, k)] = acc
    col = {}  # m summed over (k, j), k <= i
    out = {}
    for (i, j) in _layout(r).roots:
        col[(i, j)] = col.get((i - 1, j), 0) + m[(i, j)]
        # the bound lam_{r-i} - lam_{r-i+1} plus the tail of row i + 1 past column j
        slack = lam[r - i - 1] - lam[r - i] + tail.get((i + 1, j + 1), 0) - tail[(i, j)]
        if slack < -1:
            raise ValueError("membership bound fails at root %r" % ((i, j),))
        out[(i, j)] = (col[(i, j)], slack, Decoration(m[(i, j)] == 0, slack == -1))
    return out


def node_weight(node, lam, nq):
    """Product over roots: boxed and circled kills the node, circled
    alone contributes 1, otherwise the two-argument Gauss symbol at
    (column sum, slack)."""
    L.check_modulus(nq)
    data = root_data(node, lam)
    w = S.one(nq)
    for ij in _layout(node.r).roots:
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
    in which each root (i, j) of the _layout layers adds its value to z_i
    and subtracts it from z_j.  The sum is memoised (_i_lambda) and
    shared: read only."""
    lam = _check_partition(lam, r)
    L.check_modulus(nq)
    return _i_lambda(lam, r, nq)


# bound of the generating-sum memo below: a sweep over the covers with
# n <= 4 meets at most 4 moduli nq, each in consecutive calls
I_LAMBDA_MEMO_MAX = 4


@lru_cache(maxsize=I_LAMBDA_MEMO_MAX)
def _i_lambda(lam, r, nq):
    """i_lambda for a checked partition and modulus, memoised for the
    I_LAMBDA_MEMO_MAX most recent shapes."""

    def step(roots, above):
        for row in L._rows_below(above):
            zex = [0] * r
            for (i, j), m in zip(roots, _layer_values(above, row)):
                zex[i - 1] = m
                zex[j - 1] -= m
            yield row, (), _row_factor(above, row, nq) * S.z_mono(zex, nq)

    layer = L._transfer(L._top_row(lam, r), _layout(r).layers, step, nq)
    return S.Scalar.sum((classes[()] for classes in layer.values()), nq)


def _z_vector(zex, r):
    vec = [0] * r
    for i, e in zex:
        if i > r:
            raise ValueError("monomial uses z_%d beyond rank %d" % (i, r))
        vec[i - 1] = e
    return vec


def _class_pieces(I, lam, basis):
    """I split by coset class in one pass over its packed terms: {canonical
    class: (vec, nonzero piece)}, a term with z exponent vec going to the
    class MP.reduce(basis, vec + w0(lam)), one reduce per distinct z part.
    vec is the class's first exponent; the others agree with it mod I.nq,
    as a trace-free coset-lattice vector x has Bx = b x, so x = 0 mod nq.
    lam must be checked already; exponents must sum to zero (trace-free)."""
    first = {}

    def label(zex):
        vec = _z_vector(zex, len(basis))
        if sum(vec) != 0:
            raise ValueError("monomial exponent %r has nonzero sum" % (vec,))
        gamma = MP.reduce(basis, map(add, vec, reversed(lam)))
        if any((x - y) % I.nq for x, y in zip(vec, first.setdefault(gamma, vec))):
            raise AssertionError("coset piece mixes charge classes")
        return gamma

    return {gamma: (tuple(first[gamma]), piece) for gamma, piece in I.split(label).items()}


# bound of the class-piece memo below: a grid benchmark pass meets 3
# distinct (lambda, n_Q, coset basis) keys; a sweep over the covers with
# n <= 3, taken in (n, b, c) order, meets 6 and splits each once
PIECES_MEMO_MAX = 4


@lru_cache(maxsize=PIECES_MEMO_MAX)
def _cover_pieces(lam, nq, basis):
    """_class_pieces of I_lambda at modulus nq for a coset basis given as
    a tuple of row tuples: covers with equal n_Q and an equal coset
    lattice have equal pieces.  lam must be checked already; the
    (vec, piece) pairs are shared: read only."""
    return _class_pieces(_i_lambda(lam, len(lam), nq), lam, basis)


def coset_piece(gamma, lam, cosets):
    """Sub-sum of I_lambda at the cover's n_Q over monomials with z
    exponent in gamma - w0(lam) + the coset lattice: one class of the
    memoised split _cover_pieces, shared (read only)."""
    r, nq = cosets.params.r, cosets.params.nq
    lam = _check_partition(lam, r)
    gamma = tuple(gamma)
    if len(gamma) != r:
        raise ValueError("gamma must have %d entries" % r)
    if not all(type(g) is int for g in gamma):
        raise ValueError("gamma entries must be ints (bool is refused)")
    pieces = _cover_pieces(lam, nq, tuple(map(tuple, cosets.basis)))
    return pieces.get(cosets.reduce(gamma), (None, S.zero(nq)))[1]


def node_to_gt(node, lam):
    """Stack lambda + rho on top and add each layer's node values, in
    order, to the entries up and to the right, one memoised _row_step
    per row.  Root values and lam (check_partition) are ints, root values
    nonnegative, so every entry is an int at least its upper right
    neighbour; what is left to reject is an entry above its upper left
    neighbour (outside membership) and a row that is not strict, tested
    in that order as GTPattern tests them."""
    r = node.r
    lam = _check_partition(lam, r)
    above = L._top_row(lam, r)
    rows, values, start, ok = [above], node.values, 0, True
    for size in range(r - 1, 0, -1):
        above, pair_ok = _row_step(above, values[start:start + size])
        rows.append(above)
        start += size
        ok = ok and pair_ok
    rows = tuple(rows)
    if not ok:
        raise _pattern_error(rows)
    return GTPattern._trusted(rows)


def gt_to_node(pattern):
    """Row differences read back as root values in _layout flat order,
    one memoised _layer_values per row pair; a valid pattern makes each
    one a nonnegative int."""
    rows = pattern.rows
    return CrystalNode._trusted(pattern.r, sum(map(_layer_values, rows, rows[1:]), ()))


# bound of the top-row memo below: a crystal benchmark pass meets 2 top
# rows; an entry is one row of at most r ints and its partition
TOP_MEMO_MAX = 64


@lru_cache(maxsize=TOP_MEMO_MAX)
def _lam_from_top(top, r):
    """The partition lambda = top - rho of a pattern's top row, checked;
    memoised by row.  Every GTPattern holds int entries, so no float or
    bool row reaches the memo; a refused row raises on every call."""
    return _check_partition(tuple(map(sub, top, range(r - 1, -1, -1))), r)


def ice_to_gt(state):
    """Column labels with - spin on each band of vertical edges, top
    band first; the bottom boundary must be all +.  Labels read left to
    right are ints and decrease strictly, so the row lengths and the
    interleaving are what is left to check."""
    N = state.N
    if -1 in state.vertical[0]:
        raise ValueError("bottom boundary must carry + spins")
    rows = tuple(map(L._labels, state.vertical[:0:-1], repeat(N)))
    if not _rows_ok(rows):
        raise _pattern_error(rows)
    return GTPattern._trusted(rows)


def gt_to_ice(pattern, N=None):
    """Grid filling with - vertical spins at the pattern's column labels,
    horizontal spins propagated right to left from the - right boundary.
    A pattern is strict, so what is left to check is the width N, the
    smallest label (the last entry of the top row) and the propagation."""
    rows = pattern.rows
    if N is None:
        N = rows[0][0] + 1
    if N < rows[0][0] + 1:
        raise ValueError("need N > the top row maximum")
    if rows[0][-1] < 0:
        raise ValueError("column labels must be nonnegative")
    # one memoised grid row per row pair, bottom row first
    bands, horizontal = zip(*map(L._grid_row, rows[::-1], ((),) + rows[:0:-1], repeat(N)))
    if None in horizontal:
        raise ValueError("spins do not propagate in row %d" % (horizontal.index(None) + 1))
    return L.IceState._trusted((L._band((), N),) + bands, horizontal)


def gt_bijections(x, lam=None, N=None):
    """All three forms of one state, keyed node / pattern / ice; a node
    input needs the partition to fix the top row.  A given lam must be a
    partition that matches the top row, and a given N the width of a
    grid input."""
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
    top = _lam_from_top(pattern.rows[0], pattern.r)
    if lam is not None:
        lam = _check_partition(lam, pattern.r)
        if lam != top:
            raise ValueError("lam %r does not match the top row, which gives %r"
                             % (lam, top))
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


def verify_thm82(lam, r, N, params):
    """Charge-class partition functions against normalized class pieces.

    For each coset class with a nonzero piece, the charge vector is read
    off the exponent base that _class_pieces pairs with it.  The grid
    partition function at that charge vector must equal
    z^{-N + w0(rho) + c} z^{w0(lam)} times the piece, and base + w0(lam)
    must reduce to the class the piece is reported under.
    """
    lam = _check_partition(lam, r)
    if params.r != r:
        raise ValueError("cover rank %d does not match r=%d" % (params.r, r))
    nq = params.nq
    cosets = MP.lattice_and_cosets(params)
    system = L.System(lam, r, N, nq)
    w0rho = range(r)
    w0lam = tuple(reversed(lam))
    pieces = _cover_pieces(lam, nq, tuple(map(tuple, cosets.basis)))
    checks = []
    # classes in the order of cosets.gamma, which product lists sorted
    for gamma, (base, piece) in sorted(pieces.items()):
        aligned = [base[t] + w0lam[t] for t in range(r)]
        c = tuple(L.reduce_charge(N - aligned[t] - w0rho[t], nq) for t in range(r))
        lhs = L.partition_function(system, c)
        rhs = S.z_mono([c[t] - N + w0rho[t] + w0lam[t] for t in range(r)], nq) * piece
        entry = {"gamma": list(gamma), "c": list(c),
                 "ok": cosets.reduce(aligned) == gamma and lhs == rhs}
        if not entry["ok"]:
            entry["lhs"] = lhs.to_json()
            entry["rhs"] = rhs.to_json()
        checks.append(entry)
    return {"lambda": list(lam), "r": r, "N": N, "params": params.to_json(),
            "nq": nq, "checks": checks, "skipped": cosets.index - len(pieces),
            "ok": all(ch["ok"] for ch in checks)}
