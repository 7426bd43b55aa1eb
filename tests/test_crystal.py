"""Triangular-array model tests: enumeration, decorations, weights,
bijections with grid states, class pieces, and charge-class identities."""

import pytest

from metaice import scalar as S
from metaice import lattice as L
from metaice import crystal as C
from metaice import metaplectic as MP

import oracles


# The r=3, lambda=(2,2,0), N=5 reference state in all three forms.
REF_LAM = (2, 2, 0)
REF_M = {(1, 2): 0, (1, 3): 2, (2, 3): 1}
REF_ROWS = ((4, 3, 0), (4, 2), (2,))
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
REF_CHARGES = (3, 1, 4)


def ref_node():
    return C.CrystalNode(3, REF_M)


def ref_pattern():
    return C.GTPattern(REF_ROWS)


def _partitions(r, maxpart):
    def rec(k, hi):
        if k == 0:
            yield ()
            return
        for h in range(hi, -1, -1):
            for rest in rec(k - 1, h):
                yield (h,) + rest
    return rec(r, maxpart)


def _top_row(lam, r):
    return tuple(lam[t] + r - 1 - t for t in range(r))


# -- enumeration -----------------------------------------------------------

def test_rank_two_flat_partition_enumerates_two_nodes():
    nodes = C.crystal_enumerate((0, 0), 2)
    assert [nd.vector() for nd in nodes] == [(0,), (1,)]
    nodes = C.crystal_enumerate((5, 5), 2)
    assert [nd.vector() for nd in nodes] == [(0,), (1,)]


def test_enumeration_contains_reference_node():
    assert ref_node() in C.crystal_enumerate(REF_LAM, 3)


def test_enumeration_is_sorted_by_root_vector():
    nodes = C.crystal_enumerate((2, 1, 0), 3)
    vectors = [nd.vector() for nd in nodes]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_enumeration_counts_match_pattern_oracle_and_grid():
    for r in range(1, 5):
        for lam in _partitions(r, 6 - r):
            nodes = C.crystal_enumerate(lam, r)
            patterns = oracles.enumerate_strict_patterns(_top_row(lam, r))
            # m_{i,j} = a_{r-j+1,r-i} - a_{r-j,r-i}, where a_{k,l} is
            # entry l - k of row k, listed in root order
            vectors = sorted(tuple(pat[r - j + 1][j - i - 1] - pat[r - j][j - i]
                                   for i in range(1, r) for j in range(i + 1, r + 1))
                             for pat in patterns)
            assert [node.vector() for node in nodes] == vectors
            system = L.boundary_from_partition(lam, r)
            assert len(L.enumerate_states(system)) == len(patterns)


def test_node_validation():
    with pytest.raises(ValueError):
        C.CrystalNode(0, {})
    with pytest.raises(ValueError):
        C.CrystalNode(2, {})
    with pytest.raises(ValueError):
        C.CrystalNode(2, {(1, 2): 0, (1, 3): 0})
    with pytest.raises(ValueError):
        C.CrystalNode(2, {(1, 2): -1})
    for value in (1.5, 1.0, True, False, "1", None):
        with pytest.raises(ValueError):
            C.CrystalNode(2, {(1, 2): value})
    with pytest.raises(ValueError):
        C.crystal_enumerate((0, 1), 2)
    with pytest.raises(ValueError):
        C.crystal_enumerate((1, 0), 3)


def test_node_json_shape_lists_word_and_roots():
    assert C.CrystalNode(2, {(1, 2): 3}).to_json() == {
        "longWord": [2, 1, 2], "m": [[1, 2, 3]]}
    assert ref_node().to_json() == {
        "longWord": [3, 2, 3, 1, 2, 3],
        "m": [[1, 2, 0], [1, 3, 2], [2, 3, 1]]}


def test_node_monomial_exponents_sum_to_zero():
    assert ref_node().z_exponent() == (2, 1, -3)
    for nd in C.crystal_enumerate((3, 1, 0), 3):
        assert sum(nd.z_exponent()) == 0


# -- decorations and weights ------------------------------------------------

def test_reference_root_data():
    data = C.root_data(ref_node(), REF_LAM)
    assert data[(1, 2)] == (0, 1, C.Decoration(True, False))
    assert data[(1, 3)] == (2, 0, C.Decoration(False, False))
    assert data[(2, 3)] == (3, -1, C.Decoration(False, True))


def test_decoration_json():
    assert C.Decoration(True, False).to_json() == {"circled": True, "boxed": False}


def test_reference_node_weight_by_modulus():
    for nq in (1, 2, 3):
        expected = S.gauss_eval(3, -1, nq) * S.gauss_eval(2, 0, nq)
        assert C.node_weight(ref_node(), REF_LAM, nq) == expected
    assert C.node_weight(ref_node(), REF_LAM, 3).is_zero()
    assert not C.node_weight(ref_node(), REF_LAM, 2).is_zero()


def test_all_zero_node_weighs_one():
    nd = C.CrystalNode(3, {(1, 2): 0, (1, 3): 0, (2, 3): 0})
    for nq in (1, 2, 3):
        assert C.node_weight(nd, (3, 1, 0), nq) == 1


def test_boxed_and_circled_root_kills_the_node():
    # weak-membership assignment whose triangular array is not strict
    nd = C.CrystalNode(3, {(1, 2): 0, (1, 3): 1, (2, 3): 0})
    data = C.root_data(nd, (0, 0, 0))
    assert data[(1, 2)] == (0, -1, C.Decoration(True, True))
    for nq in (1, 2, 3):
        assert C.node_weight(nd, (0, 0, 0), nq).is_zero()
    with pytest.raises(ValueError):
        C.node_to_gt(nd, (0, 0, 0))


def test_membership_bound_violation_raises():
    nd = C.CrystalNode(2, {(1, 2): 2})
    with pytest.raises(ValueError):
        C.root_data(nd, (0, 0))
    with pytest.raises(ValueError):
        C.node_weight(nd, (0, 0), 2)


def test_membership_failure_names_the_first_root_in_root_order():
    # (1, 3) and (2, 3) both fail; (1, 2) holds with slack 0
    nd = C.CrystalNode(3, {(1, 2): 0, (1, 3): 3, (2, 3): 3})
    with pytest.raises(ValueError, match=r"root \(1, 3\)$"):
        C.root_data(nd, (0, 0, 0))
    nd = C.CrystalNode(3, {(1, 2): 5, (1, 3): 5, (2, 3): 5})
    with pytest.raises(ValueError, match=r"root \(1, 2\)$"):
        C.root_data(nd, (0, 0, 0))


def test_rank_one_generating_sum_is_unit():
    assert C.i_lambda((3,), 1, 2) == 1
    assert C.i_lambda((0,), 1, 1) == 1


def test_generating_sum_modulus_one_is_fully_evaluated():
    for lam, r in (((2, 2, 0), 3), ((3, 1), 2)):
        for key in C.i_lambda(lam, r, 1).terms:
            assert key[2] == ()


def test_transfer_matches_the_node_by_node_sum():
    cases = [(lam, nq) for r in range(1, 5) for lam in _partitions(r, 3)
             for nq in (1, 2, 3, 4)]
    cases += [((4, 3, 2, 1, 0), 2), ((4, 3, 2, 1, 0), 3)]
    for lam, nq in cases:
        expected = oracles.i_lambda_by_nodes(lam, len(lam), nq, C.crystal_enumerate,
                                             C.node_weight, S)
        assert C.i_lambda(lam, len(lam), nq) == expected, (lam, nq)


def test_generating_sum_is_tokuyama_at_modulus_one():
    # z^shift I_lam is the grid partition function on N = lam_1 + r columns
    shapes = ((0,), (1, 0), (2, 0), (2, 1, 0), (2, 2, 0), (3, 1, 0), (0,) * 4,
              (2, 1, 1, 0), (3, 2, 0, 0), (1, 0, 0, 0, 0), (2, 1, 0, 0, 0),
              (0,) * 6, (0,) * 7)  # 0^7 has 136,636 terms
    for lam in shapes:
        r = len(lam)
        N = lam[0] + r
        shift = [1 - N + t + lam[r - 1 - t] for t in range(r)]
        z = S.z_mono(shift, 1) * C.i_lambda(lam, r, 1)
        assert oracles.as_x_poly(z, r) == oracles.tokuyama_z(lam), lam


def test_generating_sum_lists_no_nodes(monkeypatch):
    def refuse(*args):
        raise AssertionError("the transfer must not list nodes")

    monkeypatch.setattr(C, "crystal_enumerate", refuse)
    monkeypatch.setattr(C, "node_weight", refuse)
    assert not C.i_lambda((2, 1, 0), 3, 2).is_zero()
    assert C.verify_thm82((2, 1, 0), 3, 5, MP.CoverParams(3, 1, 1, 3))["ok"]


def test_modulus_must_be_a_positive_int():
    for nq in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            C.i_lambda((2, 1, 0), 3, nq)
        with pytest.raises(ValueError):
            C.node_weight(ref_node(), REF_LAM, nq)
        with pytest.raises(ValueError):
            C.gt_weight(ref_pattern(), nq)


# -- class pieces ------------------------------------------------------------

def test_reference_coset_piece_carries_the_reference_term():
    cosets = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 3))
    piece = C.coset_piece(C.i_lambda(REF_LAM, 3, 2), (4, 3, 1), REF_LAM, cosets)
    expected = (S.gauss_eval(3, -1, 2) * S.gauss_eval(2, 0, 2)
                * S.z_mono((2, 1, -3), 2))
    for key, coeff in expected.terms.items():
        assert piece.terms.get(key) == coeff


def test_class_pieces_recombine_to_the_generating_sum():
    for params, lam in ((MP.CoverParams(2, 1, 1, 3), REF_LAM),
                        (MP.CoverParams(3, 1, 2, 2), (1, 0))):
        cosets = MP.lattice_and_cosets(params)
        full = C.i_lambda(lam, params.r, params.nq)
        total = S.zero(params.nq)
        for gamma in cosets.gamma:
            total = total + C.coset_piece(full, gamma, lam, cosets)
        assert total == full


def test_coset_piece_rejects_unbalanced_monomials():
    cosets = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 3))
    with pytest.raises(ValueError):
        C.coset_piece(S.z_pow(1, 1, 2), (0, 0, 0), REF_LAM, cosets)
    with pytest.raises(ValueError):
        C.coset_piece(S.one(2), (0, 0), REF_LAM, cosets)


# -- triangular arrays -------------------------------------------------------

def test_pattern_validation():
    with pytest.raises(ValueError):
        C.GTPattern(())
    with pytest.raises(ValueError):
        C.GTPattern(((2, 0), (1, 1)))  # wrong row length
    with pytest.raises(ValueError):
        C.GTPattern(((2, 0), (3,)))  # no interleave
    with pytest.raises(ValueError):
        C.GTPattern(((2, 2), (2,)))  # not strict
    for value in (2.5, 1.0, True, "1"):
        with pytest.raises(ValueError):
            C.GTPattern(((value, 0), (0,)))
        with pytest.raises(ValueError):
            C.GTPattern(((2, 0), (value,)))
    with pytest.raises(ValueError):
        C.gt_bijections(ref_node(), lam=(2.5, 1, 0))  # top row (4.5, 2, 0)
    weak = C.GTPattern(((2, 2), (2,)), strict=False)
    assert not weak.is_strict()
    assert ref_pattern().is_strict()
    assert ref_pattern().entry(1, 2) == 2
    assert ref_pattern().to_json() == [[4, 3, 0], [4, 2], [2]]


def test_reference_bijection_triangle():
    pattern = C.node_to_gt(ref_node(), REF_LAM)
    assert pattern == ref_pattern()
    assert C.gt_to_node(pattern) == ref_node()
    state = C.gt_to_ice(pattern, 5)
    assert state.vertical == REF_VERTICAL
    assert state.horizontal == REF_HORIZONTAL
    assert C.ice_to_gt(state) == pattern
    for seed in (ref_node(), ref_pattern(), L.IceState(REF_VERTICAL, REF_HORIZONTAL)):
        forms = C.gt_bijections(seed, lam=REF_LAM, N=5)
        assert forms["node"] == ref_node()
        assert forms["pattern"] == ref_pattern()
        assert forms["ice"] == state


def test_round_trips_on_wide_grids():
    for r in range(1, 5):
        for lam in _partitions(r, 5 - r):
            N = lam[0] + r + 1
            for nd in C.crystal_enumerate(lam, r):
                pattern = C.node_to_gt(nd, lam)
                assert C.gt_to_node(pattern) == nd
                state = C.gt_to_ice(pattern, N)
                assert C.ice_to_gt(state) == pattern


def test_gt_to_ice_defaults_to_the_smallest_grid():
    state = C.gt_to_ice(ref_pattern())
    assert state.N == 5
    with pytest.raises(ValueError):
        C.gt_to_ice(ref_pattern(), 4)
    with pytest.raises(ValueError):
        C.gt_to_ice(C.GTPattern(((-1,),)))


def test_bijection_input_errors():
    with pytest.raises(ValueError):
        C.gt_bijections(ref_node())  # needs lam
    with pytest.raises(ValueError):
        C.gt_to_ice(C.GTPattern(((2, 2), (2,)), strict=False))
    bottom_minus = L.IceState(((-1,), (1,)), ((1, -1),))
    with pytest.raises(ValueError):
        C.ice_to_gt(bottom_minus)
    with pytest.raises(ValueError):
        C.gt_bijections("junk")
    state = L.IceState(REF_VERTICAL, REF_HORIZONTAL)
    for form in (ref_pattern(), state):
        with pytest.raises(ValueError, match="top row"):
            C.gt_bijections(form, lam=(2, 1, 0))
        assert C.gt_bijections(form, lam=list(REF_LAM))["node"] == ref_node()
    with pytest.raises(ValueError, match="width"):
        C.gt_bijections(state, N=99)
    assert C.gt_bijections(ref_pattern(), N=6)["ice"].N == 6


def test_bijections_reject_what_their_input_does_not_imply():
    # outside membership: the row under (1, 0) would be (2,)
    with pytest.raises(ValueError, match="rows 0 and 1 do not interleave"):
        C.node_to_gt(C.CrystalNode(2, {(1, 2): 2}), (0, 0))
    # inside weak membership, but the row under (2, 1, 0) is (1, 1)
    weak = C.CrystalNode(3, {(1, 2): 0, (1, 3): 1, (2, 3): 0})
    with pytest.raises(ValueError, match="strictly decrease"):
        C.node_to_gt(weak, (0, 0, 0))
    for lam in ((2.5, 1, 0), (2.0, 2, 0), (True, True, False)):
        with pytest.raises(ValueError, match="must be ints"):
            C.node_to_gt(ref_node(), lam)
    with pytest.raises(ValueError, match="strictly decrease"):
        C.gt_to_ice(C.GTPattern(((2, 2), (2,)), strict=False))
    top = (1, -1, -1)   # labels (1, 0)
    horizontal = ((1, 1, 1, -1), (1, 1, 1, -1))
    # labels (2,) under (1, 0), and (0,) under (2, 1)
    for band, above in (((-1, 1, 1), top), ((1, 1, -1), (-1, -1, 1))):
        apart = L.IceState(((1, 1, 1), band, above), horizontal)
        with pytest.raises(ValueError, match="rows 0 and 1 do not interleave"):
            C.ice_to_gt(apart)
    # two - spins in the band that needs one
    crowded = L.IceState(((1, 1, 1), (1, -1, -1), top), horizontal)
    with pytest.raises(ValueError, match="row 1 must have 1 entries"):
        C.ice_to_gt(crowded)
    with pytest.raises(ValueError, match="at least one row"):
        C.ice_to_gt(L.IceState(((1, 1),), ()))
    # its one band reads as the valid pattern ((1,),)
    with pytest.raises(ValueError, match="bottom boundary"):
        C.ice_to_gt(L.IceState(((-1, 1), (-1, 1)), ((1, -1, -1),)))


def _assert_rebuilds(x):
    if isinstance(x, C.CrystalNode):
        rebuilt = C.CrystalNode(x.r, x.m)
    elif isinstance(x, C.GTPattern):
        rebuilt = C.GTPattern(x.rows)
    else:
        rebuilt = L.IceState(x.vertical, x.horizontal)
    assert rebuilt == x
    for field in type(x).__slots__:
        assert getattr(rebuilt, field) == getattr(x, field), (x, field)


def test_trusted_outputs_pass_the_public_constructors():
    # the enumerations and bijections build their results without the
    # constructors' checks; every result must survive those checks
    shapes = [(lam, r) for r in range(1, 5) for lam in _partitions(r, 7 - r)]
    shapes.append(((0,) * 6, 6))
    states_seen = 0
    for lam, r in shapes:
        for node in C.crystal_enumerate(lam, r):
            pattern = C.node_to_gt(node, lam)
            state = C.gt_to_ice(pattern)
            for x in (node, pattern, C.gt_to_node(pattern), state, C.ice_to_gt(state)):
                _assert_rebuilds(x)
        for state in L.enumerate_states(L.boundary_from_partition(lam, r)):
            _assert_rebuilds(state)
            states_seen += 1
    assert states_seen == 10720 + 7436


# -- array weights and charges -----------------------------------------------

def test_pattern_weight_matches_node_weight():
    for r in range(1, 5):
        for lam in _partitions(r, 5 - r):
            for nd in C.crystal_enumerate(lam, r):
                pattern = C.node_to_gt(nd, lam)
                for nq in (1, 2, 3):
                    assert C.gt_weight(pattern, nq) == C.node_weight(nd, lam, nq)


def test_pattern_weight_reference_values():
    for nq in (1, 2, 3):
        expected = S.gauss_eval(3, -1, nq) * S.gauss_eval(2, 0, nq)
        assert C.gt_weight(ref_pattern(), nq) == expected


def test_flat_entry_on_both_sides_kills_the_pattern():
    weak = C.GTPattern(((2, 2), (2,)), strict=False)
    for nq in (1, 2, 3):
        assert C.gt_weight(weak, nq).is_zero()


def test_reference_charges():
    assert C.charge_from_gt(ref_pattern(), 5) == REF_CHARGES
    assert C.charge_from_gt(C.GTPattern(((0,),)), 1) == (1,)
    with pytest.raises(ValueError):
        C.charge_from_gt(ref_pattern(), 4)


def test_charges_match_grid_left_edges():
    for r in range(1, 4):
        for lam in _partitions(r, 5 - r):
            N = lam[0] + r
            for nd in C.crystal_enumerate(lam, r):
                pattern = C.node_to_gt(nd, lam)
                state = C.gt_to_ice(pattern, N)
                assert C.charge_from_gt(pattern, N) == state.left_charges()


def test_per_state_weight_factorization():
    # B(state) = z^(c - c') * w(node) on admissible states; otherwise w = 0
    lam, r, N = (2, 1, 0), 3, 5
    for nq in (1, 2, 3):
        for nd in C.crystal_enumerate(lam, r):
            pattern = C.node_to_gt(nd, lam)
            state = C.gt_to_ice(pattern, N)
            weight = C.node_weight(nd, lam, nq)
            if not state.is_admissible(nq):
                assert weight.is_zero()
                continue
            raw = C.charge_from_gt(pattern, N)
            reduced = [L.reduce_charge(x, nq) for x in raw]
            norm = S.z_mono([reduced[t] - raw[t] for t in range(r)], nq)
            assert L.boltzmann_weight(state, nq) == norm * weight


# -- charge-class identities ---------------------------------------------

def test_charge_class_identity_trivial_cover():
    report = C.verify_thm82((1, 0), 2, 3, MP.CoverParams(1, 0, 0, 2))
    assert report["ok"]
    assert report["skipped"] == 0
    assert [ch["c"] for ch in report["checks"]] == [[1, 1]]
    assert set(report) == {"lambda", "r", "N", "params", "nq",
                           "checks", "skipped", "ok"}


def test_charge_class_identity_across_small_covers():
    for n in (1, 2, 3):
        for b in range(n):
            for c in range(2 * n):
                params = MP.CoverParams(n, b, c, 2)
                report = C.verify_thm82((1, 0), 2, 3, params)
                assert report["ok"], (n, b, c)
                cosets = MP.lattice_and_cosets(params)
                assert len(report["checks"]) + report["skipped"] == len(cosets.gamma)


def test_charge_class_identity_on_a_twisted_cover():
    # cover whose coset lattice is not generated by multiples of nq
    params = MP.CoverParams(3, 1, 2, 2)
    cosets = MP.lattice_and_cosets(params)
    assert cosets.contains((1, 1))
    report = C.verify_thm82((1, 0), 2, 3, params)
    assert report["ok"]
    assert len(report["checks"]) == 2 and report["skipped"] == 1


def _count_row_completions(monkeypatch):
    calls = []
    completions = L._row_completions

    def spy(*args):
        calls.append(args)
        return completions(*args)

    monkeypatch.setattr(L, "_row_completions", spy)
    return calls


def test_charge_class_identity_runs_one_transfer(monkeypatch):
    params = MP.CoverParams(3, 1, 1, 3)   # six nonzero classes
    calls = _count_row_completions(monkeypatch)
    report = C.verify_thm82((2, 1, 0), 3, 5, params)
    assert report["ok"] and len(report["checks"]) > 1
    during = len(calls)
    L.partition_by_class(L.System((2, 1, 0), 3, 5, params.nq))
    assert during == len(calls) - during > 0


def test_charge_class_identity_rank_mismatch():
    with pytest.raises(ValueError):
        C.verify_thm82((1, 0), 2, 3, MP.CoverParams(2, 1, 1, 3))
