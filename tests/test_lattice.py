"""Grid-model tests: boundaries, enumeration, charges, weights, Z values."""

import itertools

import pytest

from metaice import scalar as S
from metaice import lattice as L

import oracles


# The r=3, N=5, lambda=(2,2,0) reference state, stored bottom to top.
REF_VERTICAL = (
    (1, 1, 1, 1, 1),
    (1, 1, -1, 1, 1),
    (-1, 1, -1, 1, 1),
    (-1, -1, 1, 1, -1),
)
REF_HORIZONTAL = (
    (1, 1, 1, -1, -1, -1),
    (1, -1, -1, -1, -1, -1),
    (1, 1, -1, 1, 1, -1),
)
REF_CHARGES = (
    (3, 2, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (4, 3, 2, 2, 1, 0),
)
REF_KINDS = (
    ("a1", "a1", "c2", "b2", "b2"),
    ("c2", "b2", "a2", "b2", "b2"),
    ("b1", "c2", "c1", "a1", "c2"),
)


def ref_state():
    return L.IceState(REF_VERTICAL, REF_HORIZONTAL)


# -- boundaries ------------------------------------------------------------

def test_boundary_columns_from_partition():
    assert L.boundary_from_partition((2, 2, 0), 3, 5, 1).top_minus == {4, 3, 0}
    assert L.boundary_from_partition((0,), 1, 1, 1).top_minus == {0}
    assert L.boundary_from_partition((1, 0), 2, 3, 1).top_minus == {2, 0}
    # default width is the smallest legal grid
    assert L.boundary_from_partition((2, 2, 0), 3).N == 5


def test_boundary_validation():
    with pytest.raises(ValueError):
        L.boundary_from_partition((2, 2, 0), 3, 4, 1)  # too narrow
    with pytest.raises(ValueError):
        L.boundary_from_partition((1, 2), 2, 5, 1)  # not weakly decreasing
    with pytest.raises(ValueError):
        L.boundary_from_partition((1, -1), 2, 5, 1)
    with pytest.raises(ValueError):
        L.boundary_from_partition((1, 0), 3, 5, 1)  # wrong length
    with pytest.raises(ValueError):
        L.System((1, 0), 2, 4, 2, left_charges=(0, 1))  # 0 not in (0, nq]
    # a charge vector given to partition_function meets the same rule
    system = L.System((1, 0), 2, 4, 2)
    for charges in ((1,), (1, 2, 3), (0, 1), (1, 3), (1.5, 2), (1.0, 1), (True, True)):
        with pytest.raises(ValueError, match=r"r residues in \(0, nq\]"):
            L.partition_function(system, charges)
        with pytest.raises(ValueError, match=r"r residues in \(0, nq\]"):
            L.System((1, 0), 2, 4, 2, left_charges=charges)
    for nq in (0, 1.5, True):  # the modulus is a positive int
        with pytest.raises(ValueError):
            L.System((1, 0), 2, 4, nq)
    for N in (True, 5.0, "5", 4.5):  # so is the width
        with pytest.raises(ValueError, match="grid width N must be an int"):
            L.System((0,), None, N, 1)
        with pytest.raises(ValueError, match="grid width N must be an int"):
            L.System((1, 0), 2, N, 2)


# -- the reference state ----------------------------------------------------

def test_reference_state_charges_and_kinds():
    st = ref_state()
    assert st.charge_grid() == REF_CHARGES
    assert tuple(tuple(st.vertex_kind(i, j) for j in range(5)) for i in range(3)) \
        == REF_KINDS
    assert st.left_charges() == (3, 1, 4)
    assert st.left_charges(2) == (1, 1, 2)


def test_state_constructor_checks_the_shape():
    state = ref_state()
    assert (state.r, state.N) == (3, 5)
    bad = [
        ((), ()),                                    # no bands at all
        (((1, 1),), ((1, 1, -1),)),                  # r + 1 = 2 bands wanted
        (REF_VERTICAL[:-1], REF_HORIZONTAL),         # a band short
        (REF_VERTICAL, REF_HORIZONTAL[:-1]),         # a row short
        (REF_VERTICAL[:-1] + (REF_VERTICAL[-1][:-1],), REF_HORIZONTAL),
        (REF_VERTICAL, REF_HORIZONTAL[:-1] + (REF_HORIZONTAL[-1] + (1,),)),
    ]
    for vertical, horizontal in bad:
        with pytest.raises(ValueError, match="r \\+ 1 bands"):
            L.IceState(vertical, horizontal)
    # the trusted path, which the enumeration uses, does not check
    assert L.IceState._trusted(((1, 1),), ((1, 1, -1),)).r == 1


def test_reference_state_admissibility_by_modulus():
    st = ref_state()
    assert st.is_admissible(1)
    assert st.is_admissible(2)
    assert not st.is_admissible(3)  # row 3 has a - edge of charge 2


def test_horizontal_rows_propagate_between_bands():
    for i in range(3):
        assert L._horizontal_row(REF_VERTICAL[i + 1], REF_VERTICAL[i]) \
            == REF_HORIZONTAL[i]
    # a - south spin under a + north one needs a + east spin
    assert L._horizontal_row((1, 1), (1, -1)) is None
    # equal bands carry the - right boundary through to the left edge
    assert L._horizontal_row((-1, 1, 1), (-1, 1, 1)) is None


def test_row_memos_stay_within_their_bound():
    # 2^13 distinct bands of 13 columns, more than any bound below
    N = 13
    labelings = [labels for size in range(N + 1)
                 for labels in itertools.combinations(range(N - 1, -1, -1), size)]
    assert len(labelings) == 2 * L.ROW_MEMO_MAX
    memos = (L._band, L._labels, L._horizontal_row)
    for memo in memos:
        memo.cache_clear()
    top = L._band((12, 10, 3), N)
    for labels in labelings:
        band = L._band(labels, N)
        assert band == oracles.band_by_scan(labels, N)
        assert L._labels(band, N) == labels
        assert L._horizontal_row(top, band) == oracles.horizontal_row_by_scan(top, band)
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize == L.ROW_MEMO_MAX and 0 < info.currsize <= L.ROW_MEMO_MAX
    for i in range(3):
        assert L._horizontal_row(REF_VERTICAL[i + 1], REF_VERTICAL[i]) \
            == REF_HORIZONTAL[i]


def test_grid_row_memo_stays_within_its_bound():
    # the 2^13 label rows of 13 columns under two north rows: 16,384
    # distinct keys, more than twice the bound
    N = 13
    labelings = [labels for size in range(N + 1)
                 for labels in itertools.combinations(range(N - 1, -1, -1), size)]
    norths = ((12, 10, 3), (11, 5))
    assert len(norths) * len(labelings) > 2 * L.ROW_MEMO_MAX
    L._grid_row.cache_clear()
    for north in norths:
        band = oracles.band_by_scan(north, N)
        for labels in labelings:
            south = oracles.band_by_scan(labels, N)
            assert L._grid_row(north, labels, N) == (
                band, oracles.horizontal_row_by_scan(band, south)), (north, labels)
    info = L._grid_row.cache_info()
    assert info.maxsize == L.ROW_MEMO_MAX and 0 < info.currsize <= L.ROW_MEMO_MAX
    # evicted entries come back unchanged
    band = oracles.band_by_scan((12, 10, 3), N)
    assert L._grid_row((12, 10, 3), (), N) == (band, None)
    assert L._grid_row((12, 10, 3), (11,), N) == (
        band, oracles.horizontal_row_by_scan(band, oracles.band_by_scan((11,), N)))


def _outcome(check, lam, r):
    try:
        got = check(lam, r)
    except Exception as error:  # the exception type and message are compared
        return type(error), str(error)
    return type(got), got


def test_partition_rule_matches_its_oracle():
    # lengths r - 1, r and r + 1 over int, bool, float, str and None
    # entries, negative and increasing ones included, as lists and tuples
    entries = (2, 1, 0, -1, True, False, 1.0, 0.5, "a", None)
    seen = 0
    for r in range(0, 4):
        for length in range(max(r - 1, 0), r + 2):
            for lam in itertools.product(entries, repeat=length):
                for form in (tuple, list):
                    want = _outcome(oracles.check_partition_rule, form(lam), r)
                    assert _outcome(L.check_partition, form(lam), r) == want, (lam, r)
                    seen += 1
    assert seen == 2 * (11 + 111 + 1110 + 11100)
    # a generator is read once, as a tuple
    assert L.check_partition((a for a in (2, 1, 0)), 3) == (2, 1, 0)


def test_enumeration_memo_stays_within_its_bound():
    L._enumerate.cache_clear()
    shapes = [(k, 0) for k in range(2 * L.ENUM_MEMO_MAX)]
    first = {}
    # the first shapes are enumerated again after they were dropped
    for lam in shapes + shapes[:2]:
        states = L.enumerate_states(L.boundary_from_partition(lam, 2))
        assert len(states) == len(oracles.enumerate_strict_patterns((lam[0] + 1, 0)))
        assert first.setdefault(lam, states) == states
    info = L._enumerate.cache_info()
    assert info.maxsize == L.ENUM_MEMO_MAX and 0 < info.currsize <= L.ENUM_MEMO_MAX


def test_reference_state_enumerated_exactly_for_low_moduli():
    for nq, expected in ((1, True), (2, True), (3, False)):
        sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, nq)
        assert (ref_state() in L.enumerate_states(sys_)) is expected


def test_reference_state_weight_modulus_two():
    w = L.boltzmann_weight(ref_state(), 2)
    expected = S.gauss(1, 2) * (S.one(2) - S.v_pow(1, 2)) \
        * S.z_pow(1, -2, 2) * S.z_pow(3, -2, 2)
    assert w == expected


def test_reference_state_weight_modulus_one():
    # hand product: row3 = -v(1-v) z3^-3, row2 = 1, row1 = z1^-2
    w = L.boltzmann_weight(ref_state(), 1)
    expected = -S.v_pow(1, 1) * (S.one(1) - S.v_pow(1, 1)) \
        * S.z_pow(1, -2, 1) * S.z_pow(3, -3, 1)
    assert w == expected
    assert not oracles.has_gauss(w)


# -- enumeration against oracles ---------------------------------------------

def test_count_matches_strict_pattern_oracle():
    for lam, r in (((2, 2, 0), 3), ((1, 0), 2), ((3, 1, 0), 3)):
        top = tuple(lam[i] + r - 1 - i for i in range(r))
        sys_ = L.boundary_from_partition(lam, r, None, 1)
        states = L.enumerate_states(sys_)
        patterns = oracles.enumerate_strict_patterns(top)
        assert len(states) == len(patterns)


def test_single_forced_state():
    sys_ = L.boundary_from_partition((0,), 1, 1, 1)
    states = L.enumerate_states(sys_)
    assert len(states) == 1
    assert L.boltzmann_weight(states[0], 1) == S.one(1)


def test_single_row_partition_function_is_a_monomial():
    for k in (0, 1, 3):
        sys_ = L.boundary_from_partition((k,), 1, k + 1, 1)
        z = L.partition_function(sys_)
        assert len(z.terms) == 1


def test_enumeration_against_brute_force():
    cases = (((1, 0), 2, 3), ((2, 0), 2, 4), ((1, 1, 0), 3, 4))
    for lam, r, N in cases:
        top = {lam[i] + r - 1 - i for i in range(r)}
        for nq in (1, 2, 3):
            got = L.enumerate_states(L.boundary_from_partition(lam, r, N, nq))
            raw = oracles.brute_force_states(r, N, top, nq)
            want = {(tuple(map(tuple, v)), tuple(map(tuple, h))) for v, h in raw}
            assert {(s.vertical, s.horizontal) for s in got} == want


def test_enumeration_order_matches_the_sorting_oracle():
    # every partition of at most 3 into at most 5 parts, on the narrowest
    # grid and one column wider, at nq 1-4; then the empty shape
    shapes = [lam + (0,) * (r - len(lam)) for r in range(1, 6)
              for lam in ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)) if len(lam) <= r]
    seen = 0
    for lam in shapes:
        r = len(lam)
        for N in (lam[0] + r, lam[0] + r + 1):
            for nq in (1, 2, 3, 4):
                system = L.boundary_from_partition(lam, r, N, nq)
                got = [(s.vertical, s.horizontal) for s in L.enumerate_states(system)]
                assert got == oracles.states_by_sort(system.top, r, nq,
                                                     L._row_completions), (lam, N, nq)
                seen += len(got)
    assert seen == 57730
    system = L.boundary_from_partition((), 0, 0, 1)
    assert [(s.vertical, s.horizontal) for s in L.enumerate_states(system)] == [(((),), ())]


def test_weights_against_redundant_table_walk():
    for lam, r, N, nq in (((1, 0), 2, 3, 2), ((2, 2, 0), 3, 5, 2),
                          ((2, 2, 0), 3, 5, 3)):
        sys_ = L.boundary_from_partition(lam, r, N, nq)
        for st in L.enumerate_states(sys_):
            charges = st.charge_grid()
            w = S.one(nq)
            for i in range(r):
                for j in range(N):
                    piece = oracles.vertex_weight_oracle(
                        st.vertical[i + 1][j], st.vertical[i][j],
                        st.horizontal[i][j], st.horizontal[i][j + 1],
                        charges[i][j + 1], i + 1, nq, S)
                    assert piece is not None
                    w = w * piece
            assert w == L.boltzmann_weight(st, nq)


def test_charge_recurrence_invariant():
    sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, 2)
    for st in L.enumerate_states(sys_):
        charges = st.charge_grid()
        for i in range(st.r):
            assert charges[i][st.N] == 0
            for j in range(st.N):
                bump = 1 if st.horizontal[i][j] == 1 else 0
                assert charges[i][j] == charges[i][j + 1] + bump


def test_all_plain_states_have_weight_one():
    # the single state here is c2 then b2, both weight 1
    sys_ = L.boundary_from_partition((1,), 1, 2, 1)
    states = L.enumerate_states(sys_)
    assert len(states) == 1
    st = states[0]
    assert {st.vertex_kind(0, j) for j in range(2)} <= {"a2", "b2", "c2"}
    assert L.boltzmann_weight(st, 1) == S.one(1)


# -- partition functions -----------------------------------------------------

def test_class_sums_recombine():
    sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, 2)
    by_class = L.partition_by_class(sys_)
    total = S.zero(2)
    for c, piece in by_class.items():
        assert len(c) == 3 and all(0 < x <= 2 for x in c)
        total = total + piece
    assert total == L.partition_function(sys_)


def test_charge_filter_matches_class_map():
    sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, 2)
    by_class = L.partition_by_class(sys_)
    for c, piece in by_class.items():
        assert L.partition_function(sys_, c) == piece
        filtered = L.boundary_from_partition((2, 2, 0), 3, 5, 2, left_charges=c)
        states = L.enumerate_states(filtered)
        assert all(st.left_charges(2) == c for st in states)
        assert L.partition_function(filtered) == piece


def test_class_z_exponents_share_a_coset():
    for nq in (2, 3):
        sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, nq)
        for c, piece in L.partition_by_class(sys_).items():
            anchor = None
            for zex, _sub in oracles.z_split(piece, S):
                vec = dict(zex)
                full = tuple(vec.get(i, 0) for i in (1, 2, 3))
                if anchor is None:
                    anchor = full
                assert all((a - b) % nq == 0 for a, b in zip(full, anchor))


def _small_shapes():
    yield ()
    for r in range(1, 5):
        for lam in itertools.product(range(3), repeat=r):
            if all(lam[i] >= lam[i + 1] for i in range(r - 1)):
                yield lam


def test_class_map_matches_enumerate_and_sum():
    for lam in _small_shapes():
        r = len(lam)
        for nq in (1, 2, 3):
            for N in (lam[0] + r, lam[0] + r + 1) if lam else (0, 1):
                sys_ = L.boundary_from_partition(lam, r, N, nq)
                got = L.partition_by_class(sys_)
                want = oracles.partition_classes(sys_, L, S)
                # key for key: zero-valued inhabited classes stay in the map
                assert got == want, (lam, N, nq)
    assert L.partition_by_class(L.boundary_from_partition((), 0)) == {(): S.one(1)}


def test_class_map_of_filtered_systems():
    full = L.partition_by_class(L.boundary_from_partition((2, 1, 0), 3, 5, 2))
    for c in itertools.product((1, 2), repeat=3):
        sys_ = L.boundary_from_partition((2, 1, 0), 3, 5, 2, left_charges=c)
        got = L.partition_by_class(sys_)
        assert got == oracles.partition_classes(sys_, L, S)
        assert got == ({c: full[c]} if c in full else {})
        # an explicit class still reads the whole map
        for other, piece in full.items():
            assert L.partition_function(sys_, other) == piece
    assert len(full) < 8   # some filters select no state


def test_row_step_matches_the_vertex_search():
    # every north row reached on r <= 5, lambda_1 <= 3, nq 1-3, two widths
    rows = 0
    for r in range(1, 6):
        for lam in itertools.product(range(4), repeat=r):
            if any(lam[i] < lam[i + 1] for i in range(r - 1)):
                continue
            for nq in (1, 2, 3):
                for N in (lam[0] + r, lam[0] + r + 1):
                    layer = {L.boundary_from_partition(lam, r, N, nq).top}
                    for depth in range(r):
                        nxt = set()
                        for north in layer:
                            rows += 1
                            want = oracles.row_completions_by_vertices(
                                north, depth == r - 1, nq)
                            assert sorted(L._row_completions(north, nq)) == sorted(want), \
                                (lam, N, nq, north)
                            nxt.update(south for south, _ in want)
                        layer = nxt
    assert rows == 25542


def test_tokuyama_formula_at_modulus_one():
    shapes = ((0,), (1, 0), (2, 0), (2, 1, 0), (2, 2, 0), (3, 1, 0), (0,) * 4,
              (2, 1, 1, 0), (3, 2, 0, 0), (1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
              (0,) * 6, (0,) * 7)  # 0^7 has 218,348 states
    for lam in shapes:
        z = L.partition_function(L.boundary_from_partition(lam, nq=1))
        assert oracles.as_x_poly(z, len(lam), S) == oracles.tokuyama_z(lam), lam


def test_class_map_is_built_once_and_copied(monkeypatch):
    calls = []
    completions = L._row_completions

    def spy(*args):
        calls.append(args)
        return completions(*args)

    monkeypatch.setattr(L, "_row_completions", spy)
    L._classes.cache_clear()
    sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, 2)
    by_class = L.partition_by_class(sys_)
    built = len(calls)
    assert built > 0
    c = next(iter(by_class))
    piece = by_class[c]
    total = L.partition_function(sys_)
    by_class[c] = S.zero(2)
    by_class[(2, 2, 2)] = S.one(2)  # a class in the window with no state
    assert L.partition_function(sys_, c) == piece
    assert L.partition_function(sys_, (2, 2, 2)).is_zero()
    assert L.partition_function(sys_) == total
    again = L.partition_by_class(sys_)
    # the map is memoised by shape, so a new system of the same shape
    # makes no row step either
    same_shape = L.partition_by_class(L.boundary_from_partition((2, 2, 0), 3, 5, 2))
    # counted before the oracle, whose enumeration makes row steps of its own
    assert len(calls) == built
    assert again == same_shape == oracles.partition_classes(sys_, L, S)


def test_transfer_sums_each_entry_once(monkeypatch):
    # one _classes build makes one Scalar.sum per (row, tag) entry of its
    # layers and no chained addition; the entries are counted here from
    # the row completions and their nonzero weights
    sys_ = L.boundary_from_partition((2, 1, 0), 3, 5, 2)
    top, r, nq = sys_.top, sys_.r, sys_.nq
    entries, layer = 0, {top: {()}}
    for row in range(r, 0, -1):
        nxt = {}
        for north, tags in layer.items():
            for south, hrow in L._row_completions(north, nq):
                if L._row_weight(north, south, hrow, row, nq):
                    charge = (L.reduce_charge(hrow.count(1), nq),)
                    nxt.setdefault(south, set()).update(charge + t for t in tags)
        entries += sum(map(len, nxt.values()))
        layer = nxt
    calls = {"sum": 0, "add": 0}
    real_sum, real_add = S.Scalar.sum, S.Scalar.__add__

    def spy_sum(xs, nq=None):
        calls["sum"] += 1
        return real_sum(xs, nq)

    def spy_add(self, other):
        calls["add"] += 1
        return real_add(self, other)

    monkeypatch.setattr(S.Scalar, "sum", staticmethod(spy_sum))
    monkeypatch.setattr(S.Scalar, "__add__", spy_add)
    monkeypatch.setattr(S.Scalar, "__radd__", spy_add)
    L._classes.cache_clear()
    got = dict(L._classes(top, r, nq))
    monkeypatch.undo()
    L._classes.cache_clear()
    assert entries > r and calls == {"sum": entries, "add": 0}
    assert got == oracles.partition_classes(sys_, L, S)


def test_class_map_memo_stays_within_its_bound():
    L._classes.cache_clear()
    shapes = [(k, 0) for k in range(2 * L.CLASS_MEMO_MAX)]
    first = {}
    # the first shapes are built again after they were dropped
    for lam in shapes + shapes[:2]:
        sys_ = L.boundary_from_partition(lam, 2, nq=2)
        got = L.partition_by_class(sys_)
        assert got == oracles.partition_classes(sys_, L, S)
        assert first.setdefault(lam, got) == got
    info = L._classes.cache_info()
    assert info.maxsize == L.CLASS_MEMO_MAX
    assert 0 < info.currsize <= L.CLASS_MEMO_MAX
    assert info.misses == len(shapes) + 2


def test_vertex_weight_matches_the_oracle():
    # every spin pattern at east charges 0..3nq, rows 1-3 and nq 1-6; the
    # oracle's None (none of the six types) is weight zero
    count = 0
    for nq in range(1, 7):
        for north, south, west, east in itertools.product((1, -1), repeat=4):
            for charge in range(3 * nq + 1):
                for row in (1, 2, 3):
                    want = oracles.vertex_weight_oracle(north, south, west, east,
                                                        charge, row, nq, S)
                    got = L.vertex_weight(north, south, west, east, charge, row, nq)
                    assert got == (S.zero(nq) if want is None else want), \
                        (north, south, west, east, charge, row, nq)
                    count += 1
    assert count == 3312


def test_row_weight_matches_the_vertex_product():
    # every row step of several shapes, at each nq in 1-4: the closed form
    # against the oracle's vertex weights multiplied along the row
    most = {"b1": 0, "c1": 0}
    for lam, N in (((2, 2, 0), 5), ((3, 1, 0), 6), ((0,) * 5, 6), ((2, 1, 1, 0), 7)):
        r = len(lam)
        for nq in (1, 2, 3, 4):
            layer = {L.boundary_from_partition(lam, r, N, nq).top}
            for row in range(r, 0, -1):
                nxt = set()
                for north in layer:
                    for south, hrow in L._row_completions(north, nq):
                        nxt.add(south)
                        state = L.IceState((south, north), (hrow,))
                        charges = state.charge_grid()[0]
                        want = S.one(nq)
                        for j in range(N):
                            want = want * oracles.vertex_weight_oracle(
                                north[j], south[j], hrow[j], hrow[j + 1],
                                charges[j + 1], row, nq, S)
                        assert L._row_weight(north, south, hrow, row, nq) == want, \
                            (lam, nq, north, south)
                        kinds = [state.vertex_kind(0, j) for j in range(N)]
                        for kind in most:
                            most[kind] = max(most[kind], kinds.count(kind))
                layer = nxt
    assert most["b1"] >= 3 and most["c1"] >= 2
    # a vertex that is none of the six types weighs zero
    for nq in (1, 2, 3, 4):
        assert L._row_weight((1,), (-1,), (1, 1), 1, nq).is_zero()


def test_modulus_one_states_have_no_formal_symbols():
    sys_ = L.boundary_from_partition((2, 2, 0), 3, 5, 1)
    for st in L.enumerate_states(sys_):
        assert not oracles.has_gauss(L.boltzmann_weight(st, 1))


def test_json_state_dump_round_trips_weight():
    st = ref_state()
    obj = st.to_json(nq=2)
    assert obj["left_charges"] == [1, 1, 2]
    assert S.Scalar.from_json(obj["weight"]) == L.boltzmann_weight(st, 2)
