"""Charged six-vertex grid systems.

Boundary conditions come from a partition: on an r x N grid with columns
labeled N-1 .. 0 left to right, the top vertical edges at columns
(lambda + rho)_i carry - spins (rho = (r-1, ..., 1, 0)), the bottom and
left edges are +, the right edges are -.  Horizontal edges carry a charge
(the number of + horizontal spins at or to the right in the same row) and
a state is admissible for modulus nq when every - horizontal edge has
charge divisible by nq.  Rows are indexed bottom to top by z_1 .. z_r.
"""

from contextlib import suppress
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import add, ge, lt

from . import scalar as S


# vertex patterns keyed (north, south, west, east), spins +-1
VERTEX_TYPES = {
    (1, 1, 1, 1): "a1",
    (-1, -1, -1, -1): "a2",
    (-1, -1, 1, 1): "b1",
    (1, 1, -1, -1): "b2",
    (1, -1, -1, 1): "c1",
    (-1, 1, 1, -1): "c2",
}


def reduce_charge(c, nq):
    """Residue of c in the window (0, nq]; multiples of nq map to nq."""
    return (c - 1) % nq + 1


def vertex_weight(north, south, west, east, east_charge, row, nq):
    """One grid vertex as a row of one: east_charge is the unreduced
    charge on its east edge, row the 1-based z index of its row."""
    return _row_weight((north,), (south,), (west, east), row, nq, east_charge - (east == 1))


def check_partition(lam, r):
    """lam as a tuple; ValueError unless it is a partition of length r
    with int entries (bool refused), tested in that order."""
    lam = tuple(lam)
    # the common case, a weakly decreasing nonnegative row of ints, in one
    # test; anything else meets the rules below in their order
    if (len(lam) == r and set(map(type, lam)) == {int}
            and lam[-1] >= 0 and all(map(ge, lam, lam[1:]))):
        return lam
    if len(lam) != r:
        raise ValueError("partition length %d does not match r=%d" % (len(lam), r))
    with suppress(TypeError):  # entries not comparable with ints meet the int test
        if any(map(lt, lam, repeat(0))) or any(map(lt, lam, lam[1:])):
            raise ValueError("lambda must be weakly decreasing and nonnegative")
    if not all(type(a) is int for a in lam):
        raise ValueError("lambda entries must be ints (bool is refused)")
    return lam


def check_modulus(nq):
    """ValueError unless nq is a positive int (bool refused)."""
    if type(nq) is not int or nq < 1:
        raise ValueError("modulus must be a positive integer")


def check_charges(charges, r, nq):
    """charges as a tuple; ValueError unless it holds r residues in (0, nq],
    ints with bool refused."""
    charges = tuple(charges)
    if len(charges) != r or any(type(c) is not int or not 0 < c <= nq for c in charges):
        raise ValueError("left charges must be r residues in (0, nq]")
    return charges


def _top_row(lam, r):
    """lambda + rho: the column labels of the top row's - spins."""
    return tuple(map(add, lam, range(r - 1, -1, -1)))


class System:
    """Grid shape, boundary data and modulus; states and class maps are
    built from it, and memoised by shape (top band, r, nq), not on it."""

    __slots__ = ["r", "N", "nq", "lam", "top_minus", "top", "left_charges"]

    def __init__(self, lam, r, N, nq, left_charges=None):
        lam = check_partition(lam, len(lam) if r is None else r)
        r = len(lam)
        if N is None:
            N = (lam[0] if lam else 0) + r
        if type(N) is not int:
            raise ValueError("grid width N must be an int (bool is refused): %r" % (N,))
        if N < (lam[0] if lam else 0) + r:
            raise ValueError("need N >= lambda_1 + r, got N=%d" % N)
        check_modulus(nq)
        self.lam = lam
        self.r = r
        self.N = N
        self.nq = nq
        self.top_minus = frozenset(_top_row(lam, r))
        self.top = _band(self.top_minus, N)
        self.left_charges = (None if left_charges is None
                             else check_charges(left_charges, r, nq))


def boundary_from_partition(lam, r=None, N=None, nq=1, left_charges=None):
    return System(lam, r, N, nq, left_charges)


class IceState:
    """One admissible filling of the grid.

    vertical[k][j] is the spin of the vertical edge between row k and
    row k+1 (k = 0 is the bottom boundary, k = r the top), j = 0 at the
    left.  horizontal[i][j] is the spin of horizontal edge j in row i+1
    (i = 0 is the bottom row), j = 0 the left boundary edge, j = N the
    right boundary edge.

    The constructor copies its rows into tuples and checks the shape: r
    rows of N + 1 edges and r + 1 bands of N.  The package's enumeration
    and bijections pass tuples of tuples through _trusted, which skips
    the copy and the check.
    """

    __slots__ = ["vertical", "horizontal", "r", "N"]

    def __init__(self, vertical, horizontal):
        self.vertical = tuple(tuple(row) for row in vertical)
        self.horizontal = tuple(tuple(row) for row in horizontal)
        self.r = len(self.horizontal)
        self.N = len(self.vertical[0]) if self.vertical else 0
        if (len(self.vertical) != self.r + 1
                or any(len(band) != self.N for band in self.vertical)
                or any(len(row) != self.N + 1 for row in self.horizontal)):
            raise ValueError("a state needs r + 1 bands of N vertical edges "
                             "under r rows of N + 1 horizontal edges")

    @classmethod
    def _trusted(cls, vertical, horizontal):
        """A state from bands and rows that are already tuples of tuples."""
        state = object.__new__(cls)
        state.vertical = vertical
        state.horizontal = horizontal
        state.r = len(horizontal)
        state.N = len(vertical[0])
        return state

    def charge_grid(self):
        """Unreduced charge of every horizontal edge, same indexing as
        horizontal; entry j counts + spins at or to the right of edge j."""
        return tuple(tuple(accumulate(int(s == 1) for s in reversed(hrow)))[::-1]
                     for hrow in self.horizontal)

    def left_charges(self, nq=None):
        """Per-row left-boundary charges, bottom to top; reduced into
        (0, nq] when a modulus is given."""
        raw = tuple(row.count(1) for row in self.horizontal)
        return raw if nq is None else tuple(reduce_charge(c, nq) for c in raw)

    def vertex_kind(self, i, j):
        return VERTEX_TYPES[(self.vertical[i + 1][j], self.vertical[i][j],
                             self.horizontal[i][j], self.horizontal[i][j + 1])]

    def is_admissible(self, nq):
        return all(_admissible(hrow, nq) for hrow in self.horizontal)

    def __eq__(self, other):
        return (isinstance(other, IceState)
                and self.vertical == other.vertical
                and self.horizontal == other.horizontal)

    __hash__ = None

    def to_json(self, nq=None):
        obj = {
            "vertical": [list(row) for row in self.vertical],
            "horizontal": [list(row) for row in self.horizontal],
            "charges": [list(row) for row in self.charge_grid()],
            "vertex_kinds": [[self.vertex_kind(i, j) for j in range(self.N)]
                             for i in range(self.r)],
        }
        if nq is not None:
            obj["left_charges"] = list(self.left_charges(nq))
            obj["weight"] = boltzmann_weight(self, nq).to_json()
        return obj


def _row_weight(north, south, hrow, row, nq, charge=0):
    """Product of the vertex weights along one grid row, z index row, in
    closed form: z_row^(-nq k), k counting the a1 and b1 vertices whose
    east charge is divisible by nq and every c1, times the Gauss symbols
    g(east charge) of the b1 vertices, encoded once by from_sparse, times
    (1 - v)^(number of c1); zero when a vertex is none of the six types.
    charge counts the + spins east of the last edge, 0 on a grid."""
    k = c1 = 0
    gauss = {}
    for j in range(len(north) - 1, -1, -1):
        charge += hrow[j + 1] == 1
        kind = VERTEX_TYPES.get((north[j], south[j], hrow[j], hrow[j + 1]))
        if kind is None:
            return S.zero(nq)
        if kind == "c1":
            c1 += 1
            k += 1
        elif kind == "a1" or kind == "b1":
            k += charge % nq == 0
            if kind == "b1":
                gauss[charge] = gauss.get(charge, 0) + 2
    gex = tuple(gauss.items())
    zex = ((row, -nq * k),) if k else ()
    return S.Scalar.from_sparse([((4 * i, zex, gex), (-1) ** i * comb(c1, i))
                                 for i in range(c1 + 1)], nq)


def boltzmann_weight(state, nq):
    """Product of the per-vertex weights over the whole grid."""
    w = S.one(nq)
    for i in range(state.r):
        w = w * _row_weight(state.vertical[i + 1], state.vertical[i],
                            state.horizontal[i], i + 1, nq)
    return w


# bound of each per-row memo below and of crystal's row-pair memos: a
# crystal benchmark pass meets 161 distinct bands, 1,086 band pairs and
# grid rows, 721 pair keys and 1,034 layer keys; the 0^7 bijections
# 1,093 pairs
ROW_MEMO_MAX = 4096


@lru_cache(maxsize=ROW_MEMO_MAX)
def _band(labels, N):
    """Spins of a band of N vertical edges: - at the column labels."""
    band = [1] * N
    for label in labels:
        band[N - 1 - label] = -1
    return tuple(band)


@lru_cache(maxsize=ROW_MEMO_MAX)
def _labels(band, N):
    """Column labels of the - spins of a band, read left to right on a
    grid of N columns: the inverse of _band."""
    return tuple([N - 1 - j for j, s in enumerate(band) if s == -1])


def _rows_below(above):
    """Strict rows one entry shorter that interleave under `above`:
    above[q + 1] <= row[q] <= above[q].  These are the rows of a strict
    Gelfand-Tsetlin pattern, and the column labels of the - spins on the
    band of vertical edges under a band with - spins at `above`."""
    rows = [()]
    for q in range(len(above) - 1):
        rows = [row + (x,) for row in rows
                for x in range(above[q + 1], above[q] + 1) if not row or row[-1] > x]
    return rows


@lru_cache(maxsize=ROW_MEMO_MAX)
def _horizontal_row(north, south):
    """Horizontal spins between two bands of vertical spins, propagated
    right to left from the - right boundary: equal spins pass the east
    spin on, unequal ones need it equal to north and flip it.  None when
    the spins do not propagate or the left edge does not close with +."""
    east, row = -1, [-1] * (len(north) + 1)
    for j in range(len(north) - 1, -1, -1):
        if north[j] != south[j]:
            if east != north[j]:
                return None
            east = -east
        row[j] = east
    return tuple(row) if east == 1 else None


@lru_cache(maxsize=ROW_MEMO_MAX)
def _grid_row(north, south, N):
    """(band, horizontal row) of one grid row given the column labels of
    its north and south bands: the north band of N vertical edges and
    the _horizontal_row between it and the south band, None when the
    spins do not propagate."""
    band = _band(north, N)
    return band, _horizontal_row(band, _band(south, N))


def _admissible(hrow, nq):
    """True when every - edge of a horizontal row has charge (the + spins
    to its right) divisible by nq."""
    charge = 0
    for spin in reversed(hrow):
        if spin == 1:
            charge += 1
        elif charge % nq:
            return False
    return True


def _row_completions(north, nq):
    """All legal (south spins, horizontal row) fillings under a band of
    north spins: the south band's - spins sit at a row of column labels
    interleaving under the north band's, and the horizontal row between
    them must be nq-admissible."""
    N = len(north)
    souths = [_band(labels, N) for labels in _rows_below(_labels(north, N))]
    rows = [(south, _horizontal_row(north, south)) for south in souths]
    return [(south, hrow) for south, hrow in rows
            if hrow is not None and _admissible(hrow, nq)]


# bound of the state memo below: a benchmark pass enumerates at most two
# shapes; Tier-1 meets 303 distinct shapes, reusing none within a test
ENUM_MEMO_MAX = 16


@lru_cache(maxsize=ENUM_MEMO_MAX)
def _enumerate(top, r, nq):
    """Every state, in order of its bands from the bottom one up, with no
    sort: one row step per distinct band reached from the top, then every
    path up from the all-+ bottom band along those steps.  A band's level
    is its count of - spins, so each path up ends at the top band, and
    taking the steps up in band order lists the paths in order.
    Memoised for the ENUM_MEMO_MAX most recent shapes."""
    up, level = {}, {top}
    for _ in range(r):
        below = set()
        for north in level:
            for south, hrow in _row_completions(north, nq):
                up.setdefault(south, []).append((north, hrow))
                below.add(south)
        level = below
    for steps in up.values():
        steps.sort()
    paths = [((_band((), len(top)),), ())]
    for _ in range(r):
        paths = [(vrows + (north,), hrows + (hrow,)) for vrows, hrows in paths
                 for north, hrow in up.get(vrows[-1], ())]
    return tuple([IceState._trusted(vrows, hrows) for vrows, hrows in paths])


def enumerate_states(system):
    """All nq-admissible states with the system's boundary, in a fixed
    lexicographic order on vertical spins; filtered by the system's left
    charge classes when present."""
    states = _enumerate(system.top, system.r, system.nq)
    if system.left_charges is None:
        return list(states)
    return [s for s in states if s.left_charges(system.nq) == system.left_charges]


def _transfer(top, layers, step, nq):
    """The one row transfer, top row first: step(data, north) gives the
    (row below, class tag, weight) of each step down from north, data
    being the layer's entry of `layers`.  A layer maps a row to {tags of
    the steps to it, latest first: summed weight}, each entry summed once
    from its (value, weight) pairs; zero weights are skipped, zero sums
    kept."""
    layer = {top: {(): S.one(nq)}}
    for data in layers:
        nxt = {}
        for north, classes in layer.items():
            for south, tag, w in step(data, north):
                if w.is_zero():
                    continue
                out = nxt.setdefault(south, {})
                for key, value in classes.items():
                    out.setdefault(tag + key, []).append((value, w))
        layer = {south: {key: S.Scalar.sum((value * w for value, w in pairs), nq)
                         for key, pairs in out.items()} for south, out in nxt.items()}
    return layer


# bound of the class-map memo below: a sweep over the covers with n <= 4
# meets at most 4 moduli nq, so 4 shapes per (lambda, N); a grid
# benchmark pass meets 6 shapes, each in consecutive calls
CLASS_MEMO_MAX = 4


@lru_cache(maxsize=CLASS_MEMO_MAX)
def _classes(top, r, nq):
    """{reduced left charges: summed weight} by the row transfer down the
    grid from the top band, each row tagged with its reduced charge.
    Memoised for the CLASS_MEMO_MAX most recent shapes; callers must not
    change the map."""

    def step(row, north):
        return [(south, (reduce_charge(hrow.count(1), nq),),
                 _row_weight(north, south, hrow, row, nq))
                for south, hrow in _row_completions(north, nq)]

    layer = _transfer(top, range(r, 0, -1), step, nq)
    # the bottom spin row is all +: one entry, or none without states
    return next(iter(layer.values()), {})


def _class_map(system):
    """The memoised class map of the system's shape, shared: read only."""
    return _classes(system.top, system.r, system.nq)


def partition_function(system, charges=None):
    """Z(S; c) for the left-charge class c (r entries in (0, nq], else
    ValueError), by default the system's own; the sum over all classes
    when neither is set."""
    charges = (system.left_charges if charges is None
               else check_charges(charges, system.r, system.nq))
    if charges is None:
        return S.Scalar.sum(_class_map(system).values(), system.nq)
    return _class_map(system).get(charges, S.zero(system.nq))


def partition_by_class(system):
    """A copy of {reduced left charges: class partition function} over the
    inhabited classes, or over the system's own class when it has one."""
    return {c: value for c, value in _class_map(system).items()
            if system.left_charges in (None, c)}
