"""Charged six-vertex grid systems.

Boundary conditions come from a partition: on an r x N grid with columns
labeled N-1 .. 0 left to right, the top vertical edges at columns
(lambda + rho)_i carry - spins (rho = (r-1, ..., 1, 0)), the bottom and
left edges are +, the right edges are -.  Horizontal edges carry a charge
(the number of + horizontal spins at or to the right in the same row) and
a state is admissible for modulus nq when every - horizontal edge has
charge divisible by nq.  Rows are indexed bottom to top by z_1 .. z_r.
"""

from functools import lru_cache
from itertools import accumulate, repeat
from operator import lt

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
    """Weight of one grid vertex; east_charge is the unreduced charge on
    the east edge and row is the 1-based z index of the vertex's row."""
    kind = VERTEX_TYPES.get((north, south, west, east))
    if kind is None:
        return S.zero(nq)
    divisible = east_charge % nq == 0
    if kind == "a1":
        return S.z_pow(row, -nq, nq) if divisible else S.one(nq)
    if kind == "a2" or kind == "b2" or kind == "c2":
        return S.one(nq)
    if kind == "b1":
        g = S.gauss(east_charge, nq)
        return g * S.z_pow(row, -nq, nq) if divisible else g
    # c1
    return (S.one(nq) - S.v_pow(1, nq)) * S.z_pow(row, -nq, nq)


def check_partition(lam, r):
    """lam as a tuple; ValueError unless it is a partition of length r."""
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("partition length %d does not match r=%d" % (len(lam), r))
    if any(map(lt, lam, repeat(0))) or any(map(lt, lam, lam[1:])):
        raise ValueError("lambda must be weakly decreasing and nonnegative")
    return lam


def check_modulus(nq):
    """ValueError unless nq is a positive int (bool refused)."""
    if type(nq) is not int or nq < 1:
        raise ValueError("modulus must be a positive integer")


class System:
    """Grid shape, boundary data and modulus; states are built from it."""

    __slots__ = ["r", "N", "nq", "lam", "top_minus", "top", "left_charges", "_classes"]

    def __init__(self, lam, r, N, nq, left_charges=None):
        lam = check_partition(lam, len(lam) if r is None else r)
        r = len(lam)
        if N is None:
            N = (lam[0] if lam else 0) + r
        if N < (lam[0] if lam else 0) + r:
            raise ValueError("need N >= lambda_1 + r, got N=%d" % N)
        check_modulus(nq)
        self.lam = lam
        self.r = r
        self.N = N
        self.nq = nq
        self.top_minus = frozenset(lam[i] + r - 1 - i for i in range(r))
        self.top = _band(self.top_minus, N)
        if left_charges is not None:
            left_charges = tuple(left_charges)
            if len(left_charges) != r or any(not 0 < c <= nq for c in left_charges):
                raise ValueError("left charges must be r residues in (0, nq]")
        self.left_charges = left_charges
        self._classes = None


def boundary_from_partition(lam, r=None, N=None, nq=1, left_charges=None):
    return System(lam, r, N, nq, left_charges)


class IceState:
    """One admissible filling of the grid.

    vertical[k][j] is the spin of the vertical edge between row k and
    row k+1 (k = 0 is the bottom boundary, k = r the top), j = 0 at the
    left.  horizontal[i][j] is the spin of horizontal edge j in row i+1
    (i = 0 is the bottom row), j = 0 the left boundary edge, j = N the
    right boundary edge.

    The constructor copies its rows into tuples; the package's enumeration
    and bijections pass tuples of tuples through _trusted, which skips
    the copy.
    """

    __slots__ = ["vertical", "horizontal", "r", "N"]

    def __init__(self, vertical, horizontal):
        self.vertical = tuple(tuple(row) for row in vertical)
        self.horizontal = tuple(tuple(row) for row in horizontal)
        self.r = len(horizontal)
        self.N = len(vertical[0])

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
        raw = tuple(row[0] for row in self.charge_grid())
        return raw if nq is None else tuple(reduce_charge(c, nq) for c in raw)

    def vertex_kind(self, i, j):
        return VERTEX_TYPES[(self.vertical[i + 1][j], self.vertical[i][j],
                             self.horizontal[i][j], self.horizontal[i][j + 1])]

    def is_admissible(self, nq):
        return all(_admissible(hrow, nq) for hrow in self.horizontal)

    def sort_key(self):
        return self.vertical

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


def _row_weight(north, south, hrow, row, nq):
    """Product of the vertex weights along one grid row, z index row."""
    w, charge = S.one(nq), 0
    for j in range(len(north) - 1, -1, -1):
        charge += hrow[j + 1] == 1
        w = w * vertex_weight(north[j], south[j], hrow[j], hrow[j + 1],
                              charge, row, nq)
    return w


def boltzmann_weight(state, nq):
    """Product of the per-vertex weights over the whole grid."""
    w = S.one(nq)
    for i in range(state.r):
        w = w * _row_weight(state.vertical[i + 1], state.vertical[i],
                            state.horizontal[i], i + 1, nq)
    return w


def _band(labels, N):
    """Spins of a band of N vertical edges: - at the column labels."""
    band = [1] * N
    for label in labels:
        band[N - 1 - label] = -1
    return tuple(band)


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
    above = tuple(N - 1 - j for j, s in enumerate(north) if s == -1)
    souths = [_band(labels, N) for labels in _rows_below(above)]
    rows = [(south, _horizontal_row(north, south)) for south in souths]
    return [(south, hrow) for south, hrow in rows
            if hrow is not None and _admissible(hrow, nq)]


@lru_cache(maxsize=None)
def _enumerate(top, r, nq):
    """Every state as its bands and rows from the top, one row step per
    distinct band reached."""
    paths = [((top,), ())]
    for _ in range(r):
        below = {north: _row_completions(north, nq) for north in {v[-1] for v, _ in paths}}
        paths = [(vrows + (south,), hrows + (hrow,)) for vrows, hrows in paths
                 for south, hrow in below[vrows[-1]]]
    states = [IceState._trusted(vrows[::-1], hrows[::-1]) for vrows, hrows in paths]
    states.sort(key=IceState.sort_key)
    return tuple(states)


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
    the steps to it, latest first: summed weight}; zero weights are
    skipped, zero sums kept."""
    layer = {top: {(): S.one(nq)}}
    for data in layers:
        nxt = {}
        for north, classes in layer.items():
            for south, tag, w in step(data, north):
                if w.is_zero():
                    continue
                out = nxt.setdefault(south, {})
                for key, value in classes.items():
                    key = tag + key
                    term = value * w
                    out[key] = out[key] + term if key in out else term
        layer = nxt
    return layer


def _class_map(system):
    """{reduced left charges: summed weight} by the row transfer down the
    grid, each row tagged with its reduced charge; kept on system."""
    if system._classes is None:
        nq = system.nq

        def step(row, north):
            return [(south, (reduce_charge(hrow.count(1), nq),),
                     _row_weight(north, south, hrow, row, nq))
                    for south, hrow in _row_completions(north, nq)]

        layer = _transfer(system.top, range(system.r, 0, -1), step, nq)
        # the bottom spin row is all +: one entry, or none without states
        system._classes = next(iter(layer.values()), {})
    return system._classes


def partition_function(system, charges=None):
    """Z(S; c) for the left-charge class c (entries in (0, nq]), by
    default the system's own; the sum over all classes when neither is set."""
    charges = system.left_charges if charges is None else tuple(charges)
    if charges is None:
        return sum(_class_map(system).values(), S.zero(system.nq))
    return _class_map(system).get(charges, S.zero(system.nq))


def partition_by_class(system):
    """A copy of {reduced left charges: class partition function} over the
    inhabited classes, or over the system's own class when it has one."""
    return {c: value for c, value in _class_map(system).items()
            if system.left_charges in (None, c)}
