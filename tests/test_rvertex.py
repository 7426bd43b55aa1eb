"""Crossing-weight tests: the weight table, exchange/braid/inversion
identities, the frozen boundary tables, and the spectral-swap equation."""

import itertools
import json
import math

import pytest

import oracles
from metaice import scalar as S
from metaice import lattice as L
from metaice import rvertex as R
from metaice import qgroup as Q
from metaice import cli


def big_z(nq, i=1, j=2):
    return S.z_pow(i, nq, nq) * S.z_pow(j, -nq, nq)


def den12(nq):
    return S.one(nq) - S.v_pow(1, nq) * big_z(nq)


# -- the crossing weight table ----------------------------------------------

def test_weight_equal_charges():
    for nq in (1, 2, 3):
        one, v, Z = S.one(nq), S.v_pow(1, nq), big_z(nq)
        for a in range(1, nq + 1):
            w = R.r_weight((1, a), (1, a), (1, a), (1, a), (1, 2), nq)
            assert w.num == Z - v and w.den == den12(nq)


def test_weight_transmission_and_exchange():
    nq = 3
    one, v, Z = S.one(nq), S.v_pow(1, nq), big_z(nq)
    # transmission: the charges ride their strands, NE copies SW
    w = R.r_weight((1, 1), (1, 3), (1, 3), (1, 1), (1, 2), nq)
    assert w.num == S.gauss(1 - 3, nq) * (one - Z)
    # exchange with the larger residue on the NW leg picks up Z
    w = R.r_weight((1, 3), (1, 1), (1, 3), (1, 1), (1, 2), nq)
    assert w.num == (one - v) * Z
    w = R.r_weight((1, 1), (1, 3), (1, 1), (1, 3), (1, 2), nq)
    assert w.num == one - v
    # any other all-plus completion vanishes
    w = R.r_weight((1, 1), (1, 2), (1, 3), (1, 3), (1, 2), nq)
    assert w.is_zero()


def test_weight_mixed_spins():
    for nq in (1, 2):
        one, v, Z = S.one(nq), S.v_pow(1, nq), big_z(nq)
        a = nq
        m = R.MINUS
        assert R.r_weight(m, (1, a), (1, a), m, (1, 2), nq).num == v * (one - Z)
        assert R.r_weight(m, (1, a), m, (1, a), (1, 2), nq).num == one - v
        assert R.r_weight((1, a), m, m, (1, a), (1, 2), nq).num == one - Z
        assert R.r_weight((1, a), m, (1, a), m, (1, 2), nq).num == (one - v) * Z
        assert R.r_weight(m, m, m, m, (1, 2), nq).num == den12(nq)
        # charge mismatch across the crossing vanishes
        if nq > 1:
            assert R.r_weight(m, (1, 1), (1, 2), m, (1, 2), nq).is_zero()


def test_weight_denominator_is_always_one_minus_vz():
    for nq in (1, 2, 3):
        dv = R.decorated_values(nq)
        want = den12(nq)
        nonzero = 0
        for nw, sw, ne, se in itertools.product(dv, dv, dv, dv):
            w = R.r_weight(nw, sw, ne, se, (1, 2), nq)
            assert w.den == want
            if not w.is_zero():
                nonzero += 1
        # every crossing conserves the spin pair multiset
        assert nonzero > 0


def test_weight_rows_set_the_spectral_ratio():
    nq = 2
    w = R.r_weight(R.MINUS, (1, 1), (1, 1), R.MINUS, (3, 5), nq)
    assert w.den == S.one(nq) - S.v_pow(1, nq) * big_z(nq, 3, 5)
    assert w.num == S.v_pow(1, nq) * (S.one(nq) - big_z(nq, 3, 5))


def test_weight_malformed_decorations_vanish():
    nq = 2
    assert R.r_weight((1, 0), (1, 1), (1, 1), (1, 0), (1, 2), nq).is_zero()
    assert R.r_weight((-1, 1), (1, 1), (1, 1), (-1, 1), (1, 2), nq).is_zero()


# -- the charge-conserving support -------------------------------------------

SUPPORT_ROWS = ((1, 2), (2, 1), (1, 3), (2, 3), (3, 5))


def test_support_is_the_set_of_nonzero_weights():
    for nq in range(1, 8):
        dv = R.decorated_values(nq)
        support = R.crossing_support(nq)
        assert len(support) == len(set(support)) == (nq + 1) * (2 * nq + 1)
        legs = {(dv[a], dv[b], dv[c], dv[d]) for (a, b), (c, d) in support}
        for rows in SUPPORT_ROWS:
            by_in, _ = oracles.crossing_table_dense(rows, nq, R)
            nonzero = {(nw, sw, ne, se) for (nw, sw), outs in by_in.items()
                       for ne, se, _ in outs}
            assert nonzero == legs, (nq, rows)


@pytest.mark.parametrize("nq", [1, 2, 3, 4, 5])
def test_crossing_tables_match_the_dense_build(nq):
    # entry for entry and in the same order: by_in and by_out lists, the
    # keys of both maps, and the ice matrix
    for rows in SUPPORT_ROWS:
        table = R.CrossingTable(rows, nq)
        by_in, by_out = oracles.crossing_table_dense(rows, nq, R)
        assert list(table.by_in.items()) == list(by_in.items()), rows
        assert list(table.by_out.items()) == list(by_out.items()), rows
        got, want = R.ice_r_matrix(nq, rows), oracles.ice_r_matrix_dense(nq, rows, R)
        assert list(got) == list(want), rows
        for key, w in want.items():
            assert _same_frac(got[key], w), (rows, key)
    for i in (1, 2):
        want = oracles.ice_r_matrix_dense(nq, (i, i + 1), R)
        mat = R.scattering_matrix(i, nq)
        assert list(mat) == [(a, b) for a, b in R.pair_basis(nq) if a and b]
        for (a, b), row in mat.items():
            block = [(c, d) for (ab, (c, d)) in want if ab == (b, a) and c and d]
            assert list(row) == block, (a, b)
            for (c, d), w in row.items():
                assert _same_frac(w, want[((b, a), (c, d))])


def test_builders_weigh_only_the_support(monkeypatch):
    calls = []
    plain = R.r_weight

    def spy(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(R, "r_weight", spy)
    for nq in range(1, 7):
        size = (nq + 1) * (2 * nq + 1)
        for build in (lambda: R.ice_r_matrix(nq, (1, 2)),
                      lambda: R.CrossingTable((2, 1), nq)):
            R._R_MEMO.clear()
            calls.clear()
            build()
            assert len(calls) == len(set(calls)) == size, nq
            assert len(R._R_MEMO) == size, nq


# -- decorated grid vertices --------------------------------------------------

def test_grid_vertex_weight_matches_plain_table():
    nq = 2
    # a1 with east charge in the zero class picks up z_row^-nq
    w = R.grid_vertex_weight(1, 1, (1, 1), (1, 2), 3, nq)
    assert w == S.z_pow(3, -nq, nq)
    w = R.grid_vertex_weight(1, 1, (1, 2), (1, 1), 3, nq)
    assert w == S.one(nq)
    # b1 carries the Gauss symbol of the east charge
    w = R.grid_vertex_weight(-1, -1, (1, 2), (1, 1), 1, nq)
    assert w == S.gauss(1, nq)
    # c1 forces the east charge into the zero class
    assert R.grid_vertex_weight(1, -1, R.MINUS, (1, 1), 1, nq).is_zero()
    w = R.grid_vertex_weight(1, -1, R.MINUS, (1, 2), 1, nq)
    assert w == (S.one(nq) - S.v_pow(1, nq)) * S.z_pow(1, -nq, nq)
    # c2 forces west charge 1
    assert R.grid_vertex_weight(-1, 1, (1, 2), R.MINUS, 1, nq).is_zero()
    assert R.grid_vertex_weight(-1, 1, (1, 1), R.MINUS, 1, nq) == S.one(nq)


def test_grid_vertex_weight_charge_bookkeeping():
    nq = 3
    # west charge must be east charge + 1 on a + west edge
    assert R.grid_vertex_weight(1, 1, (1, 2), (1, 1), 1, nq) == S.one(nq)
    assert R.grid_vertex_weight(1, 1, (1, 3), (1, 1), 1, nq).is_zero()
    # - west edge forces the east charge into the zero class
    assert R.grid_vertex_weight(1, 1, R.MINUS, (1, 1), 1, nq).is_zero()


# -- exchange identity ---------------------------------------------------------

def test_rtt_worked_two_state_boundary():
    # sigma = +1, tau = +(k+1), theta = +k, rho = - with k = 1, nq = 2:
    # one state on each side, both carrying g(1)(1-v)Z over 1 - vZ
    nq = 2
    one, v, Z = S.one(nq), S.v_pow(1, nq), big_z(nq)
    res = R.check_rtt(((1, 1), (1, 2), -1, (1, 1), R.MINUS, 1), nq)
    assert res["equal"]
    assert set(res["lhs"]) == {((1, 2), (1, 1), -1)}
    assert res["lhs"][((1, 2), (1, 1), -1)] == S.gauss(1, nq) * (one - v) * Z
    assert set(res["rhs"]) == {((1, 1), R.MINUS, -1)}
    assert res["rhs"][((1, 1), R.MINUS, -1)] == S.gauss(1, nq) * (one - v) * Z


def test_rtt_multi_state_sides_balance():
    # sigma = +1, tau = +1, theta = +nq, rho = -: one state against two
    nq = 2
    one, v, Z = S.one(nq), S.v_pow(1, nq), big_z(nq)
    res = R.check_rtt(((1, 1), (1, 1), -1, (1, 2), R.MINUS, 1), nq)
    assert res["equal"]
    assert len(res["lhs"]) == 1 and len(res["rhs"]) == 2
    zj = S.z_pow(2, -nq, nq)
    assert res["lhs"][((1, 1), (1, 1), -1)] == -v * zj * (Z - v)


def test_rtt_spin_conservation_empties_both_sides():
    nq = 2
    res = R.check_rtt(((1, 1), (1, 1), 1, R.MINUS, R.MINUS, 1), nq)
    assert res["lhs"] == {} and res["rhs"] == {}
    assert res["equal"]


def test_rtt_exhaustive_small_moduli():
    for nq in (1, 2):
        rep = R.rtt_scan(nq)
        assert rep["ok"]
        assert rep["boundaries"] == 4 * (nq + 1) ** 4
        assert rep["inhabited"] > 0


def _same_frac(x, y):
    return x.num == y.num and x.den == y.den


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
def test_rtt_matches_the_dense_oracle(nq):
    # every boundary, malformed legs included: same keys in the same
    # order, the same numerators over the same denominator, the same
    # verdict
    legs = R.decorated_values(nq) + [(1, 0), (1, nq + 1), (-1, 1), (-1, 5), (2, 1), (0, 0)]
    rows = [(1, 2)] + ([(2, 1), (3, 5)] if nq == 2 else [])
    for sigma, tau, theta, rho in itertools.product(legs, repeat=4):
        for beta, alpha, r in itertools.product((1, -1), (1, -1), rows):
            bnd = (sigma, tau, beta, theta, rho, alpha)
            got = R.check_rtt(bnd, nq, r)
            want = oracles.rtt_tables_dense(bnd, nq, r, R, S)
            for side in ("lhs", "rhs"):
                assert list(got[side]) == list(want[side]), (bnd, side)
                for key, num in got[side].items():
                    assert num == want[side][key].num, (bnd, key)
                    assert want[side][key].den == got["den"], (bnd, key)
                assert got[side + "_sum"] == want[side + "_sum"].num, bnd
                assert want[side + "_sum"].den == got["den"], bnd
            assert got["equal"] == want["equal"], bnd


@pytest.mark.parametrize("nq", [2, 3])
def test_warm_exchange_checks_build_no_frac(nq, monkeypatch):
    # check_rtt reads the crossing table's numerators over its one
    # denominator: once the tables are warm, neither the scan nor the
    # frozen regression wraps a state or a side sum in a Frac
    assert R.rtt_scan(nq)["ok"] and R.appendix_regression(nq)["ok"]
    built = []
    plain = S.Frac.__init__

    def spy(self, num, den=None):
        built.append(num)
        plain(self, num, den)

    monkeypatch.setattr(S.Frac, "__init__", spy)
    assert R.rtt_scan(nq)["ok"]
    assert R.appendix_regression(nq)["ok"]
    assert built == []


def test_rtt_perturbed_weight_fails_like_the_oracle(monkeypatch):
    plain = R.r_weight

    def bent(nw, sw, ne, se, rows, nq):
        w = plain(nw, sw, ne, se, rows, nq)
        return w * 2 if nw == sw == ne == se == (1, 1) else w

    monkeypatch.setattr(R, "r_weight", bent)
    R.crossing_table.cache_clear()
    try:
        nq = 2
        dv = R.decorated_values(nq)
        failing = [bnd for bnd in itertools.product(dv, dv, (1, -1), dv, dv, (1, -1))
                   if not oracles.rtt_tables_dense(bnd, nq, (1, 2), R, S)["equal"]]
        assert failing
        rep = R.rtt_scan(nq)
        assert not rep["ok"]
        assert sorted(rep["failures"]) == sorted(failing)
    finally:
        R.crossing_table.cache_clear()


class _CountingMemo(dict):
    """A dict that counts how often it is emptied."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


def test_caches_stay_within_their_bounds(monkeypatch):
    # the (1, 2) tables at nq 1-6 weigh 6 + 15 + ... + 91 = 251 distinct
    # crossings; at a cap of 64 the memo must be emptied at least three
    # times to take them all
    memo = _CountingMemo()
    monkeypatch.setattr(R, "_R_MEMO", memo)
    monkeypatch.setattr(R, "_R_MEMO_MAX", 64)
    R.crossing_table.cache_clear()
    for _ in range(2):
        for nq in range(1, 7):
            assert R.rtt_scan(nq)["ok"]
            assert R.appendix_regression(nq)["ok"]
            assert len(memo) <= 64
    assert memo.clears >= 3
    assert R.crossing_table.cache_info().currsize == 6
    # more (rows, nq) pairs than the table cache holds
    for i in range(1, 20):
        R.check_rtt((R.MINUS,) * 2 + (1, R.MINUS, R.MINUS, 1), 1, (i, i + 1))
    info = R.crossing_table.cache_info()
    assert info.currsize == info.maxsize == 16


# -- frozen boundary tables ----------------------------------------------------

@pytest.mark.parametrize("nq", [1, 2, 3, 4])
def test_appendix_regression(nq):
    rep = R.appendix_regression(nq)
    assert rep["ok"], rep["mismatches"][:4]
    assert len(rep["cases"]) == 32
    # the twelve spin patterns that violate conservation stay empty
    empty = [c for c in rep["cases"] if c["frozen_rows"] == 0]
    assert len(empty) == 12
    for case in empty:
        assert case["states"] == 0


def _with_builder(patch, label, rows):
    """Give appendix case `label` the builder rows(frozen builder, nq)."""
    cases = [(name, spins, (lambda nq, b=builder: rows(b, nq)) if name == label
              else builder) for name, spins, builder in R.APPENDIX_CASES]
    patch.setattr(R, "APPENDIX_CASES", cases)


def _doubled(builder, nq):
    for charges, lhs, rhs in builder(nq):
        yield charges, {key: num * 2 for key, num in lhs.items()}, rhs


def test_appendix_regression_reports_each_mismatch(monkeypatch, capsys):
    nq = 2
    blank = (None,) * 4
    # a doubled frozen numerator: one value mismatch, in case 8 only
    with monkeypatch.context() as patch:
        _with_builder(patch, "8", _doubled)
        rep = R.appendix_regression(nq)
    assert not rep["ok"]
    (label, charges, side, key, got, want), = rep["mismatches"]
    assert (label, charges, side, key) == ("8", blank, "lhs", (R.MINUS, R.MINUS, 1))
    assert want == got * 2
    # a frozen internal edge that no state has: a key-set mismatch
    extra = (R.MINUS, R.MINUS, 0)

    def with_extra_key(builder, nq):
        first, *rest = builder(nq)
        yield first[0], {**first[1], extra: S.one(nq)}, first[2]
        yield from rest

    with monkeypatch.context() as patch:
        _with_builder(patch, "8", with_extra_key)
        rep = R.appendix_regression(nq)
    (label, charges, side, kind, got, want), = rep["mismatches"]
    assert (label, charges, side, kind) == ("8", blank, "lhs", "keys")
    assert want == sorted(got + [extra])

    # a frozen charge row that no boundary instance meets
    def with_stray_row(builder, nq):
        yield from builder(nq)
        yield (0, 0, 0, 0), {}, {}

    with monkeypatch.context() as patch:
        _with_builder(patch, "3", with_stray_row)
        rep = R.appendix_regression(nq)
    assert rep["mismatches"] == [("3", "uncovered rows", [(0, 0, 0, 0)])]

    # a frozen charge row listed twice
    def with_repeat(builder, nq):
        first, *rest = builder(nq)
        yield from [first, first] + rest

    with monkeypatch.context() as patch:
        _with_builder(patch, "1", with_repeat)
        with pytest.raises(AssertionError, match="case 1: duplicate charge row"):
            R.appendix_regression(nq)

    # a perturbed crossing weight unbalances the side sums
    plain = R.r_weight

    def bent(nw, sw, ne, se, rows, nq):
        w = plain(nw, sw, ne, se, rows, nq)
        return w * 2 if nw == sw == ne == se == (1, 1) else w

    R.crossing_table.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(R, "r_weight", bent)
            rep = R.appendix_regression(nq)
    finally:
        R.crossing_table.cache_clear()
    sums = [m for m in rep["mismatches"] if m[2] == "sums"]
    assert sums
    assert not any(S.frac_eq(lhs, rhs) for *_, lhs, rhs in sums)
    assert R.appendix_regression(nq)["ok"]

    # the CLI reports the doubled numerator as case 8's failure only
    with monkeypatch.context() as patch:
        _with_builder(patch, "8", _doubled)
        code = cli.main(["verify", "appendix", "--nq", "1"])
    cases = json.loads(capsys.readouterr().out)
    assert code == 1 and len(cases) == 32
    failing = [case for case in cases if case["verdict"] == "fail"]
    assert [case["case"] for case in failing] == ["8"]
    assert len(failing[0]["rhs"]["mismatches"]) == 1


def test_appendix_instance_counts():
    rep = R.appendix_regression(2)
    by_label = {c["case"]: c for c in rep["cases"]}
    # four + outer legs enumerate nq^4 charge tuples
    assert by_label["1"]["instances"] == 16
    assert by_label["25"]["instances"] == 16
    # all-minus outer legs have a single instantiation
    assert by_label["8"]["instances"] == 1
    assert by_label["32"]["instances"] == 1


# -- braid identity and inversion ----------------------------------------------

def test_rrr_symbolic_exhaustive_nq1():
    rep = R.rrr_scan(1)
    assert rep["ok"] and rep["mode"] == "symbolic"
    assert rep["boundaries"] == 2 ** 6


def test_rrr_symbolic_spot_checks_nq2():
    nq = 2
    m = R.MINUS
    spots = [
        ((1, 1), (1, 2), (1, 1), (1, 1), (1, 2), (1, 1)),
        ((1, 1), m, (1, 2), (1, 2), m, (1, 1)),
        (m, (1, 1), (1, 1), (1, 1), (1, 1), m),
        (m, m, m, m, m, m),
    ]
    for bnd in spots:
        res = R.check_rrr(bnd, (1, 2, 3), nq)
        assert res["equal"], bnd
        lhs, rhs = oracles.rrr_sums(bnd, (1, 2, 3), nq, R.r_weight, S)
        assert S.frac_eq(res["lhs_sum"], lhs) and S.frac_eq(res["rhs_sum"], rhs)


def test_rrr_modular_scan():
    for nq in (2, 3):
        rep = R.rrr_scan(nq, trials=2, seed=7)
        assert rep["ok"] and rep["mode"] == "modular"
        assert rep["sz_log2_bound"] < -40


def test_sz_degree_is_the_largest_crossing_degree():
    # the closed form 4 nq + 8 against the crossing table itself
    p = S.DEFAULT_PRIME
    for nq in range(1, 8):
        dv = R.decorated_values(nq)
        deg = max(w.degree_hint()
                  for rows in ((1, 2), (1, 3), (2, 3), (2, 1))
                  for legs in itertools.product(dv, repeat=4)
                  if not (w := R.r_weight(*legs, rows, nq)).is_zero())
        for trials, factors in ((20, 2), (20, 3), (1, 1)):
            assert R._sz_log2_bound(nq, trials, factors, p) == \
                trials * math.log2(2 * factors * deg / p)


def test_unitarity_symbolic_exhaustive_nq1():
    rep = R.unitarity_scan(1)
    assert rep["ok"] and rep["mode"] == "symbolic"


def test_unitarity_symbolic_spot_checks_nq2():
    nq = 2
    m = R.MINUS
    for alpha, beta in (((1, 1), (1, 2)), ((1, 2), (1, 2)), (m, (1, 1))):
        for gamma, dlt in ((alpha, beta), (beta, alpha), (m, m)):
            res = R.check_unitarity(alpha, beta, gamma, dlt, (1, 2), nq)
            assert res["equal"]
            total = oracles.unitarity_sum((alpha, beta, gamma, dlt), (1, 2),
                                          nq, R.r_weight, S)
            assert S.frac_eq(res["lhs_sum"], total)


def test_unitarity_modular_scan():
    rep = R.unitarity_scan(2, trials=2, seed=11)
    assert rep["ok"] and rep["sz_log2_bound"] < -40
    # seed 0 is a seed, not a request for the exact check
    rep = R.unitarity_scan(2, trials=2, seed=0)
    assert rep["mode"] == "modular" and rep["points"] == 2 and rep["ok"]
    assert rep["boundaries"] == 2 * 3 ** 4


def _ice_tables(nq, pairs):
    return [R.ice_r_matrix(nq, rows) for rows in pairs]


def _plain_swap(nq):
    return {((b, a), (a, b)): S.Frac(S.one(nq)) for a, b in R.pair_basis(nq)}


@pytest.mark.parametrize("nq", [1, 2])
def test_kernel_entries_match_dense_sums(nq):
    # every braid and inversion boundary against the per-boundary loops
    dv = R.decorated_values(nq)
    zero = S.Frac(S.zero(nq))
    forward, backward = R.braid_sides(
        *_ice_tables(nq, ((1, 2), (1, 3), (2, 3))), nq)
    count = 0
    for a, b, c, f, e, d in itertools.product(range(nq + 1), repeat=6):
        lhs, rhs = oracles.rrr_sums((dv[a], dv[b], dv[c], dv[f], dv[e], dv[d]),
                                    (1, 2, 3), nq, R.r_weight, S)
        key = ((c, b, a), (f, e, d))
        assert S.frac_eq(backward.get(key, zero), lhs), key
        assert S.frac_eq(forward.get(key, zero), rhs), key
        count += 1
    assert count == (nq + 1) ** 6
    inverse = R.inversion_product(*_ice_tables(nq, ((1, 2), (2, 1))),
                                  _plain_swap(nq))
    for a, b, c, d in itertools.product(range(nq + 1), repeat=4):
        total = oracles.unitarity_sum((dv[a], dv[b], dv[c], dv[d]), (1, 2),
                                      nq, R.r_weight, S)
        assert S.frac_eq(inverse.get(((b, a), (d, c)), zero), total)


def test_modular_kernel_is_the_exact_kernel_at_a_point():
    nq = 2
    asg = S.make_assignment(nq, (1, 2, 3), 99)
    at = lambda mat: {key: S.eval_frac_mod(w, asg) for key, w in mat.items()}
    braid_tables = _ice_tables(nq, ((1, 2), (1, 3), (2, 3)))
    inverse_tables = _ice_tables(nq, ((1, 2), (2, 1))) + [_plain_swap(nq)]
    pairs = list(zip(R.braid_sides(*braid_tables, nq),
                     R.braid_sides(*map(at, braid_tables), nq, p=asg.p)))
    pairs.append((R.inversion_product(*inverse_tables),
                  R.inversion_product(*map(at, inverse_tables), p=asg.p)))
    for exact, modular in pairs:
        assert set(modular) <= set(exact)
        for key, w in exact.items():
            assert modular.get(key, 0) == S.eval_frac_mod(w, asg), key


def _bend_r_weight(monkeypatch):
    """Double the all-(1, 1) crossing weight at rows (1, 2); returns the
    bent weight function."""
    plain = R.r_weight

    def bent(nw, sw, ne, se, rows, nq):
        w = plain(nw, sw, ne, se, rows, nq)
        if rows == (1, 2) and nw == sw == ne == se == (1, 1):
            return w * 2
        return w

    monkeypatch.setattr(R, "r_weight", bent)
    return bent


def test_perturbed_weight_fails_in_boundary_order(monkeypatch):
    bent = _bend_r_weight(monkeypatch)
    for nq in (1, 2):
        dv = R.decorated_values(nq)
        braid = [bnd for bnd in itertools.product(dv, repeat=6)
                 if not S.frac_eq(*oracles.rrr_sums(bnd, (1, 2, 3), nq, bent, S))]
        inverse = [bnd for bnd in itertools.product(dv, repeat=4)
                   if not S.frac_eq(oracles.unitarity_sum(bnd, (1, 2), nq, bent, S),
                                    int(bnd[0] == bnd[2] and bnd[1] == bnd[3]))]
        assert braid and inverse
        for scan, want in ((R.rrr_scan, braid), (R.unitarity_scan, inverse)):
            per_point = [(t, bnd) for t in range(2) for bnd in want]
            rep = scan(nq)
            assert rep["mode"] == "symbolic" and rep["failures"] == want
            assert not rep["ok"]
            rep = scan(nq, trials=2, seed=5)
            assert rep["mode"] == "modular" and rep["failures"] == per_point
            assert not rep["ok"]
        rep = R.check_scattering_involution(1, nq)
        assert rep["failures"] == [((1, 1), (1, 1))]


@pytest.mark.parametrize("nq", [2, 3, 4, 5, 6])
def test_exact_and_seeded_scans_agree(nq, monkeypatch):
    # while both paths exist, the sampled check must reach the exact
    # verdict: on the ice table, and boundary by boundary on a bent one
    for scan in (R.rrr_scan, R.unitarity_scan):
        exact, sampled = scan(nq), scan(nq, seed=nq)
        assert exact["mode"] == "symbolic" and sampled["mode"] == "modular"
        assert exact["ok"] and sampled["ok"]
    _bend_r_weight(monkeypatch)
    for scan in (R.rrr_scan, R.unitarity_scan):
        exact, sampled = scan(nq), scan(nq, trials=2, seed=nq)
        assert exact["failures"] and not exact["ok"]
        assert sampled["failures"] == [(t, bnd) for t in range(2)
                                       for bnd in exact["failures"]]


VERDICTS = {
    "rrr_scan": R.rrr_scan,
    "unitarity_scan": R.unitarity_scan,
    "rtt_scan": R.rtt_scan,
    "appendix_regression": R.appendix_regression,
    "check_scattering_involution": lambda nq: R.check_scattering_involution(1, nq),
    "check_graded_ybe": Q.check_graded_ybe,
    "compare_to_ice_r": Q.compare_to_ice_r,
    "check_rtt": lambda nq: R.check_rtt(((1, 1),) * 2 + (1, (1, 1), (1, 1), 1), nq),
    "check_rrr": lambda nq: R.check_rrr(((1, 1),) * 6, (1, 2, 3), nq),
    "check_unitarity": lambda nq: R.check_unitarity((1, 1), (1, 1), (1, 1), (1, 1),
                                                    (1, 2), nq),
}


@pytest.mark.parametrize("nq", [0, -1, True, 1.5])
@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_verdicts_refuse_a_modulus_below_one(name, nq):
    # a modulus is a positive int (bool refused); 0 and -1 would otherwise
    # pass trivially or fail with an unrelated error, and True run as 1
    with pytest.raises(ValueError, match="modulus must be a positive integer"):
        VERDICTS[name](nq)


def test_braid_and_inversion_refuse_a_malformed_leg():
    # a leg outside decorated_values(nq) has no basis label; it is refused,
    # not read as an entry that both sides lack
    for leg in ((1, 9), (1, 0), (-1, 1), (2, 1)):
        with pytest.raises(ValueError, match="outside decorated_values"):
            R.check_rrr((leg,) + ((1, 1),) * 5, (1, 2, 3), 2)
        with pytest.raises(ValueError, match="outside decorated_values"):
            R.check_unitarity(leg, (1, 1), (1, 1), (1, 1), (1, 2), 2)


def test_sampled_checks_refuse_empty_or_composite_sampling():
    # a seeded check at no point checks nothing, and a composite p gives
    # wrong residues: both are refused before any point is drawn
    calls = [lambda: R.rrr_scan(2, trials=0, seed=1),
             lambda: R.rrr_scan(2, trials=-3, seed=1),
             lambda: R.rrr_scan(2, trials=1.5, seed=1),
             lambda: R.rrr_scan(2, trials=True, seed=1),
             lambda: Q.check_graded_ybe(2, trials=0, seed=1),
             lambda: Q.check_graded_ybe(2, trials=2, seed=1, p=9),
             lambda: R.unitarity_scan(2, trials=2, seed=1, p=4)]
    for call in calls:
        with pytest.raises(ValueError, match="a seeded check needs"):
            call()
    assert R.unitarity_scan(2, trials=1, seed=1, p=10007)["ok"]


def test_scattering_involution():
    for nq in (1, 2, 3):
        rep = R.check_scattering_involution(1, nq)
        assert rep["ok"]


def test_scattering_matrix_entries():
    nq = 2
    one, v = S.one(nq), S.v_pow(1, nq)
    Z = S.z_pow(1, nq, nq) * S.z_pow(2, -nq, nq)
    mat = R.scattering_matrix(1, nq)
    assert set(mat) == {(a, b) for a in (1, 2) for b in (1, 2)}
    assert mat[(1, 1)][(1, 1)].num == Z - v
    # off-diagonal rows mix the keep and swap targets only
    assert set(mat[(1, 2)]) == {(1, 2), (2, 1)}
    assert mat[(1, 2)][(1, 2)].num == (one - v) * Z  # larger charge on top
    assert mat[(2, 1)][(2, 1)].num == one - v
    assert mat[(1, 2)][(2, 1)].num == S.gauss(2 - 1, nq) * (one - Z)


# -- spectral-swap functional equation -------------------------------------------

@pytest.mark.parametrize("nq", [1, 2, 3])
def test_train_equation_row_pair(nq):
    sysm = L.boundary_from_partition((1, 0), nq=nq)
    for c in itertools.product(range(1, nq + 1), repeat=2):
        res = R.train_functional_equation((1, 0), c, 1, sysm)
        assert res["equal"], c
        if c[0] == c[1]:
            assert res["swap"] is None


def test_train_equation_three_rows():
    nq = 2
    sysm = L.boundary_from_partition((2, 2, 0), nq=nq)
    for i in (1, 2):
        for c in itertools.product(range(1, nq + 1), repeat=3):
            res = R.train_functional_equation((2, 2, 0), c, i, sysm)
            assert res["equal"], (i, c)


def test_train_equation_validates_inputs():
    sysm = L.boundary_from_partition((1, 0), nq=2)
    with pytest.raises(ValueError):
        R.train_functional_equation((2, 0), (1, 1), 1, sysm)
    with pytest.raises(ValueError):
        R.train_functional_equation((1, 0), (1, 1), 2, sysm)
    # the index is an int, bool refused, before its range is tested
    for i in (True, 1.0, 1.5, "1"):
        with pytest.raises(ValueError, match="reflection index i must be an int"):
            R.train_functional_equation((1, 0), (1, 1), i, sysm)
    # entries are reduced into (0, nq] first, so only a wrong length is refused
    for c in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="r residues"):
            R.train_functional_equation((1, 0), c, 1, sysm)
    assert R.train_functional_equation((1, 0), (3, 4), 1, sysm)["charges"] == (1, 2)
