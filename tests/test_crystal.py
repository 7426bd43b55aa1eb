"""Triangular-array model tests: enumeration, decorations, weights,
bijections with grid states, class pieces, and charge-class identities."""

import ast
import itertools
from pathlib import Path

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


def _gt_weight(pattern, nq):
    return oracles.gt_weight(pattern, nq, C._row_factor, L.check_modulus, S)


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
        for (_, _, gex), _ in C.i_lambda(lam, r, 1).sparse_terms():
            assert gex == ()


def test_transfer_matches_the_node_by_node_sum():
    # the nodes do not depend on nq: one enumeration per lam serves every nq
    cases = [(lam, (1, 2, 3, 4)) for r in range(1, 5) for lam in _partitions(r, 3)]
    cases += [((4, 3, 2, 1, 0), (2, 3))]
    for lam, moduli in cases:
        nodes = C.crystal_enumerate(lam, len(lam))
        for nq in moduli:
            expected = oracles.i_lambda_by_nodes(nodes, lam, nq, C.node_weight, S)
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
        assert oracles.as_x_poly(z, r, S) == oracles.tokuyama_z(lam), lam


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
            _gt_weight(ref_pattern(), nq)


# -- class pieces ------------------------------------------------------------

def test_reference_coset_piece_carries_the_reference_term():
    cosets = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 3))
    piece = C.coset_piece((4, 3, 1), REF_LAM, cosets)
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
            total = total + C.coset_piece(gamma, lam, cosets)
        assert total == full


def test_class_split_matches_the_per_class_filter():
    for lam in ((2, 2, 0), (3, 1, 0), (0, 0, 0, 0)):
        r = len(lam)
        for n in (1, 2, 3):
            for b in range(n):
                for c in range(2 * n):
                    cosets = MP.lattice_and_cosets(MP.CoverParams(n, b, c, r))
                    full = C.i_lambda(lam, r, cosets.params.nq)
                    pieces = C._class_pieces(full, lam, cosets.basis)
                    assert set(pieces) <= set(cosets.gamma)
                    for gamma in cosets.gamma:
                        want = oracles.coset_piece_by_filter(full, gamma, lam, cosets, S)
                        vec, got = pieces.get(gamma, (None, S.zero(full.nq)))
                        # the same terms in the same order
                        assert list(got.terms.items()) == list(want.terms.items())
                        assert (gamma in pieces) == bool(want)
                        if vec is not None:
                            # the vector lies in its class, and every exponent
                            # of the piece agrees with it mod n_Q
                            assert cosets.reduce(map(sum, zip(vec, lam[::-1]))) == gamma
                            for (_, zex, _), _ in got.sparse_terms():
                                ex = C._z_vector(zex, r)
                                assert not any((x - y) % full.nq for x, y in zip(ex, vec))


def test_coset_piece_rejects_unbalanced_monomials():
    cosets = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 3))
    # the class split refuses a monomial whose exponents do not sum to zero
    with pytest.raises(ValueError, match="nonzero sum"):
        C._class_pieces(S.z_pow(1, 1, 2), REF_LAM, cosets.basis)
    with pytest.raises(ValueError, match="gamma must have 3 entries"):
        C.coset_piece((0, 0), REF_LAM, cosets)
    # a non-int gamma entry is refused, not matched to no class
    for bad in ((1.5, 0, 0), (True, 3, 1), (4, 3, 1.0)):
        with pytest.raises(ValueError, match="gamma entries must be ints"):
            C.coset_piece(bad, REF_LAM, cosets)
    assert C.coset_piece((4, 3, 1), REF_LAM, cosets)
    # the piece is read from I_lambda at the cover's own n_Q
    lam, cover3 = (2, 1, 0), MP.lattice_and_cosets(MP.CoverParams(3, 1, 1, 3))
    full3 = C.i_lambda(lam, 3, 3)
    assert not C.coset_piece((2, 1, 0), lam, cover3)
    for gamma in cover3.gamma:
        want = oracles.coset_piece_by_filter(full3, gamma, lam, cover3, S)
        assert C.coset_piece(gamma, lam, cover3) == want


def test_reading_every_class_splits_once(monkeypatch):
    # coset_piece reads one class of the memoised split: the 8 classes of
    # the cover take one Scalar.split between them, and sum to I_lambda
    cosets = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 3))
    lam = (2, 2, 0)
    assert len(cosets.gamma) == 8
    full = C.i_lambda(lam, 3, cosets.params.nq)
    splits = []
    plain = S.Scalar.split

    def spy(self, label):
        splits.append(self)
        return plain(self, label)

    monkeypatch.setattr(S.Scalar, "split", spy)
    C._cover_pieces.cache_clear()
    try:
        pieces = [C.coset_piece(gamma, lam, cosets) for gamma in cosets.gamma]
    finally:
        C._cover_pieces.cache_clear()
    assert len(splits) == 1
    assert S.Scalar.sum(pieces, full.nq) == full


# -- triangular arrays -------------------------------------------------------

def test_pattern_validation():
    with pytest.raises(ValueError):
        C.GTPattern(())
    with pytest.raises(ValueError):
        C.GTPattern(((2, 0), (1, 1)))  # wrong row length
    with pytest.raises(ValueError, match="row 0 must have 2 entries"):
        C.GTPattern(((3, 2, 1), (2, 1)))  # rows one entry apart, the last of two
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
    # a pattern or a state fixes lam = (2, 2, 0) itself; an equal non-int
    # lam is refused as the node path refuses it
    pattern = C.GTPattern(((4, 3, 0), (4, 2), (2,)))
    node = C.gt_to_node(pattern)
    for form in (node, pattern, C.gt_to_ice(pattern)):
        assert C.gt_bijections(form, lam=(2, 2, 0))["pattern"] == pattern
        for lam in ((2.0, 2, 0), (2, 2.0, 0.0), (2.5, 1, 0)):
            with pytest.raises(ValueError, match="must be ints"):
                C.gt_bijections(form, lam=lam)
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


def test_editing_m_leaves_the_node_unchanged():
    node = C.gt_to_node(ref_pattern())
    before = (node.vector(), repr(node), node.to_json(), C.node_to_gt(node, REF_LAM))
    node.m[(1, 2)] = 7
    del node.m[(1, 3)]
    node.m.clear()
    assert node == ref_node() != C.CrystalNode(3, {**REF_M, (1, 2): 7})
    assert (node.vector(), repr(node), node.to_json(),
            C.node_to_gt(node, REF_LAM)) == before
    with pytest.raises(AttributeError):
        node.m = {(1, 2): 7, (1, 3): 2, (2, 3): 1}
    # the constructor keeps no reference to the dict it was given
    m = dict(REF_M)
    built = C.CrystalNode(3, m)
    m[(1, 2)] = 7
    assert built == ref_node() and built.m == REF_M


def test_bijections_match_the_dict_oracle():
    # every criterion-8 shape of rank at most 5, and (1, 0^5)
    shapes = [lam for r in range(1, 6) for lam in _partitions(r, 7 - r)]
    shapes.append((1, 0, 0, 0, 0, 0))
    seen = 0
    for lam in shapes:
        r = len(lam)
        for node in C.crystal_enumerate(lam, r):
            rows = oracles.node_to_rows_by_dict(node, lam, L.check_partition)
            pattern = C.node_to_gt(node, lam)
            assert pattern.rows == rows
            m = oracles.rows_to_m_by_dict(rows)
            back = C.gt_to_node(pattern)
            assert back == node
            assert list(back.m.items()) == list(m.items())
            state = C.gt_to_ice(pattern)
            bands = oracles.rows_to_ice_by_scan(rows)
            assert (state.vertical, state.horizontal) == bands
            assert C.ice_to_gt(state).rows == oracles.ice_to_rows_by_scan(*bands) == rows
            seen += 1
    assert seen == 102656


def test_node_forms_match_the_dict_oracle():
    for lam in ((0,) * 6, (1, 0, 0, 0, 0, 0)):
        for node in C.crystal_enumerate(lam, 6):
            m = oracles.rows_to_m_by_dict(oracles.node_to_rows_by_dict(node, lam,
                                                                       L.check_partition))
            assert (repr(node), node.to_json(), node.z_exponent(),
                    node.vector()) == oracles.node_forms_by_dict(6, m)


def _raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_bijection_errors_match_the_dict_oracle():
    check = L.check_partition
    nodes = [
        (ref_node(), (2.5, 1, 0)),       # non-int lam
        (ref_node(), (True, True, False)),
        (C.CrystalNode(2, {(1, 2): 2}), (0, 0)),    # outside membership
        (C.CrystalNode(3, {(1, 2): 5, (1, 3): 0, (2, 3): 0}), (0, 0, 0)),
        (C.CrystalNode(3, {(1, 2): 0, (1, 3): 1, (2, 3): 0}), (0, 0, 0)),  # not strict
        # row 1 is not strict and rows 1 and 2 do not interleave
        (C.CrystalNode(3, {(1, 2): 1, (1, 3): 1, (2, 3): 0}), (0, 0, 0)),
    ]
    for node, lam in nodes:
        assert (_raised(C.node_to_gt, node, lam)
                == _raised(oracles.node_to_rows_by_dict, node, lam, check))
    top = (1, -1, -1)
    horizontal = ((1, 1, 1, -1), (1, 1, 1, -1))
    states = [
        (((-1, 1), (-1, 1)), ((1, -1, -1),)),      # - spin on the bottom boundary
        (((1, 1, 1), (1, -1, -1), top), horizontal),    # wrong row lengths
        (((1, 1, 1), (1, -1, -1), (-1, -1, -1)), horizontal),
        (((1, 1),), ()),
        (((1, 1, 1), (-1, 1, 1), top), horizontal),     # bands that do not interleave
        (((1, 1, 1), (1, 1, -1), (-1, -1, 1)), horizontal),
    ]
    for vertical, hrows in states:
        assert (_raised(C.ice_to_gt, L.IceState(vertical, hrows))
                == _raised(oracles.ice_to_rows_by_scan, vertical, hrows))
    patterns = [
        (REF_ROWS, 4),               # a grid too narrow for the pattern
        (((-1,),), None),            # a negative label
        (((1, -1), (0,)), None),     # a negative label at the end of the top row
        (((2, 0, -1), (1, 0), (0,)), None),
        (((2, 1), (0,)), None),      # strict but not interleaved: no propagation
    ]
    for rows, N in patterns:
        assert (_raised(C.gt_to_ice, C.GTPattern._trusted(rows), N)
                == _raised(oracles.rows_to_ice_by_scan, rows, N))
    assert _raised(C.gt_to_ice, C.GTPattern._trusted(((2, 1), (0,))), None) == (
        ValueError, "spins do not propagate in row 2")


def test_rank_memos_stay_within_their_bound():
    C._layout.cache_clear()
    for r in range(1, C.RANK_MEMO_MAX + 9):
        node = C.CrystalNode(r, {root: 0 for root in C._layout(r).roots})
        assert node.vector() == (0,) * (r * (r - 1) // 2)
        assert repr(node) == oracles.node_forms_by_dict(r, node.m)[0]
    info = C._layout.cache_info()
    assert info.maxsize == C.RANK_MEMO_MAX and 0 < info.currsize <= C.RANK_MEMO_MAX
    # evicted ranks come back unchanged
    assert C.gt_to_node(ref_pattern()) == ref_node()
    assert ref_node().vector() == (0, 2, 1)


def test_partition_rule_refuses_non_int_entries():
    # each lam passes the length and order tests, so every entry reaches
    # the int test of lattice.check_partition
    params = MP.CoverParams(2, 1, 1, 2)
    cases = [(lam, tuple(map(int, lam)))
             for lam in ((2.0, 0), (1.5, 0), (1, 0.0), (True, 0), (True, False))]
    # entries that do not compare with ints skip the order test
    cases += [(("a", 0), (1, 0)), ((None, 0), (0, 0)), ((2, "0"), (2, 0))]
    for lam, ints in cases:
        node = C.crystal_enumerate(ints, 2)[0]
        pattern = C.node_to_gt(node, ints)
        entries = (
            lambda: L.System(lam, None, None, 1),
            lambda: L.System(lam, 2, 5, 2),
            lambda: C.i_lambda(lam, 2, 1),
            lambda: C.crystal_enumerate(lam, 2),
            lambda: C.node_to_gt(node, lam),
            lambda: C.gt_bijections(node, lam=lam),
            lambda: C.gt_bijections(pattern, lam=lam),
            lambda: C.gt_bijections(C.gt_to_ice(pattern), lam=lam),
            lambda: C.verify_thm82(lam, 2, 5, params),
        )
        for entry in entries:
            with pytest.raises(ValueError, match="must be ints"):
                entry()
    # the length and order tests still come first
    with pytest.raises(ValueError, match="length"):
        C.crystal_enumerate((1.5,), 2)
    with pytest.raises(ValueError, match="weakly decreasing"):
        L.System((0, 1.5), None, None, 1)


def test_warm_pair_memo_still_refuses_equal_non_int_rows():
    # (1.0, 0) and (True, False) hash and compare equal to (1, 0), so the
    # pair memo is warmed with int rows before the equal ones are tried
    for ints in ((2, 2, 0), (1, 1, 0)):
        node = C.crystal_enumerate(ints, 3)[0]
        pattern = C.node_to_gt(node, ints)
        state = C.gt_to_ice(pattern)
        assert C.gt_bijections(state, lam=ints)["node"] == node
        assert C.GTPattern(pattern.rows) == C.ice_to_gt(state) == pattern
    warm = C.GTPattern(((1, 0), (1,)))
    assert C.gt_bijections(C.gt_to_ice(warm))["pattern"] == warm
    for rows in (((1.0, 0), (1,)), ((1, 0), (1.0,)), ((True, False), (True,)),
                 ((4.0, 3, 0), (3, 0), (0,)), ((3, 2, False), (2, False), (False,))):
        with pytest.raises(ValueError, match="must be ints"):
            C.GTPattern(rows)


def test_pair_memo_stays_within_its_bound():
    # weakly decreasing rows of 3 entries below 10 against every row of
    # 2: 22,000 distinct pairs, more than twice the bound
    C._pair_ok.cache_clear()
    tops = list(itertools.combinations_with_replacement(range(9, -1, -1), 3))
    pairs = 0
    for above in tops:
        strict = len(set(above)) == 3
        below = {p[1] for p in oracles.enumerate_strict_patterns(above)} if strict else ()
        for row in itertools.product(range(10), repeat=2):
            assert C._pair_ok(above, row) == (row in below), (above, row)
            pairs += 1
        assert not C._pair_ok(above, above[1:] + (0,))      # a row too long
    assert pairs > 2 * L.ROW_MEMO_MAX
    info = C._pair_ok.cache_info()
    assert info.maxsize == L.ROW_MEMO_MAX and 0 < info.currsize <= L.ROW_MEMO_MAX
    # evicted entries come back unchanged
    assert C.node_to_gt(ref_node(), REF_LAM) == ref_pattern()
    assert C.gt_bijections(ref_pattern())["node"] == ref_node()
    assert C._pair_ok((9, 8, 7), (8, 7)) and not C._pair_ok((9, 8, 7), (7, 7))


def test_row_step_memos_stay_within_their_bound():
    # strict rows of 3 entries below 13 against every layer of 2 values
    # below 6: 10,296 distinct keys in each memo, more than twice the bound
    for memo in (C._row_step, C._layer_values):
        memo.cache_clear()
    tops = list(itertools.combinations(range(12, -1, -1), 3))
    keys = [(above, values) for above in tops
            for values in itertools.product(range(6), repeat=2)]
    assert len(keys) > 2 * L.ROW_MEMO_MAX
    below = {}
    for above, values in keys:
        if above not in below:
            below[above] = {p[1] for p in oracles.enumerate_strict_patterns(above)}
        row = (above[1] + values[0], above[2] + values[1])
        assert C._row_step(above, values) == (row, row in below[above]), (above, values)
        assert C._layer_values(above, row) == values
    for memo in (C._row_step, C._layer_values):
        info = memo.cache_info()
        assert info.maxsize == L.ROW_MEMO_MAX
        assert 0 < info.currsize <= L.ROW_MEMO_MAX
    # evicted entries come back unchanged
    assert C._row_step((12, 11, 10), (0, 0)) == ((11, 10), True)
    assert C._row_step((12, 11, 10), (2, 0)) == ((13, 10), False)
    assert C._layer_values((12, 11, 10), (12, 10)) == (1, 0)
    for lam in ((2, 1, 0), (1, 0, 0, 0), (2, 2, 0)):
        for node in C.crystal_enumerate(lam, len(lam)):
            rows = oracles.node_to_rows_by_dict(node, lam, L.check_partition)
            pattern = C.node_to_gt(node, lam)
            assert pattern.rows == rows
            assert C.gt_to_node(pattern) == node


def test_top_row_memo_stays_within_its_bound():
    C._lam_from_top.cache_clear()
    tops = list(itertools.combinations(range(24, -1, -1), 2))
    assert len(tops) > 2 * C.TOP_MEMO_MAX
    for top in tops + tops[:3]:
        assert C._lam_from_top(top, 2) == oracles.check_partition_rule(
            (top[0] - 1, top[1]), 2)
    info = C._lam_from_top.cache_info()
    assert info.maxsize == C.TOP_MEMO_MAX and 0 < info.currsize <= C.TOP_MEMO_MAX
    assert info.misses == len(tops) + 3
    assert C.gt_bijections(ref_pattern(), lam=REF_LAM)["node"] == ref_node()


def test_warm_top_row_memo_still_refuses_a_non_strict_top_row():
    # the top-row memo holds no error: every call with a refused row raises.
    # A pattern is strict, so the refused top rows give a negative lambda
    C._lam_from_top.cache_clear()
    for rows, lam in ((((2, 1), (1,)), (1, 1)), (((3, 2, 0), (2, 1), (1,)), (1, 1, 0))):
        pattern = C.GTPattern(rows)
        assert C.gt_bijections(pattern, lam=lam)["pattern"] == pattern
    for rows in (((1, -1), (0,)), ((0, -1), (0,)), ((2, 0, -1), (1, 0), (0,))):
        refused = C.GTPattern(rows)
        r = len(rows)
        want = _raised(oracles.check_partition_rule,
                       tuple(a - (r - 1 - t) for t, a in enumerate(rows[0])), r)
        assert want[1] == "lambda must be weakly decreasing and nonnegative"
        for _ in range(3):
            assert _raised(C.gt_bijections, refused) == want
    assert C._lam_from_top.cache_info().currsize == 2


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
                    assert _gt_weight(pattern, nq) == C.node_weight(nd, lam, nq)


def test_pattern_weight_reference_values():
    for nq in (1, 2, 3):
        expected = S.gauss_eval(3, -1, nq) * S.gauss_eval(2, 0, nq)
        assert _gt_weight(ref_pattern(), nq) == expected


def test_flat_entry_on_both_sides_kills_the_pattern():
    # no GTPattern has such an entry, but the row weight rule still kills it
    weak = C.GTPattern._trusted(((2, 2), (2,)))
    for nq in (1, 2, 3):
        assert _gt_weight(weak, nq).is_zero()


def test_reference_charges():
    assert oracles.charge_from_gt(ref_pattern(), 5) == REF_CHARGES
    assert oracles.charge_from_gt(C.GTPattern(((0,),)), 1) == (1,)
    with pytest.raises(ValueError):
        oracles.charge_from_gt(ref_pattern(), 4)


def test_charges_match_grid_left_edges():
    for r in range(1, 4):
        for lam in _partitions(r, 5 - r):
            N = lam[0] + r
            for nd in C.crystal_enumerate(lam, r):
                pattern = C.node_to_gt(nd, lam)
                state = C.gt_to_ice(pattern, N)
                assert oracles.charge_from_gt(pattern, N) == state.left_charges()


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
            raw = oracles.charge_from_gt(pattern, N)
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


def _clear_grid_memos():
    L._classes.cache_clear()
    C._i_lambda.cache_clear()
    C._cover_pieces.cache_clear()


def test_charge_class_identity_runs_one_transfer(monkeypatch):
    params = MP.CoverParams(3, 1, 1, 3)   # six nonzero classes
    calls = _count_row_completions(monkeypatch)
    _clear_grid_memos()
    report = C.verify_thm82((2, 1, 0), 3, 5, params)
    assert report["ok"] and len(report["checks"]) > 1
    during = len(calls)
    L._classes.cache_clear()
    L.partition_by_class(L.System((2, 1, 0), 3, 5, params.nq))
    assert during == len(calls) - during > 0
    # the shape's class map is memoised: a repeat check makes no row step
    assert C.verify_thm82((2, 1, 0), 3, 5, params) == report
    assert len(calls) == 2 * during


def test_cover_sweep_builds_the_grid_side_once_per_modulus(monkeypatch):
    lam, r, N = (2, 1, 0), 3, 5
    covers = [MP.CoverParams(n, b, c, r) for n in (1, 2, 3) for b in range(n)
              for c in range(2 * n)]
    moduli = sorted({params.nq for params in covers})
    assert moduli == [1, 2, 3]
    calls = _count_row_completions(monkeypatch)
    transfers = []
    transfer = L._transfer

    def spy(top, layers, step, nq):
        transfers.append((top, nq))
        return transfer(top, layers, step, nq)

    monkeypatch.setattr(L, "_transfer", spy)
    _clear_grid_memos()
    reports = [C.verify_thm82(lam, r, N, params) for params in covers]
    assert all(report["ok"] for report in reports)
    # one grid transfer (from the top band) and one I_lambda transfer (from
    # the top row lambda + rho) per modulus, each with the row steps of a
    # fresh build
    grid = [(L.System(lam, r, N, nq).top, nq) for nq in moduli]
    array = [(L._top_row(lam, r), nq) for nq in moduli]
    assert sorted(transfers) == sorted(grid + array)
    during = len(calls)
    for nq in moduli:
        L._classes.cache_clear()
        L.partition_by_class(L.System(lam, r, N, nq))
    assert during == len(calls) - during > 0
    for params, report in zip(covers, reports):
        _clear_grid_memos()
        assert C.verify_thm82(lam, r, N, params) == report, params


def _cover_class(params):
    return params.nq, tuple(map(tuple, MP.lattice_and_cosets(params).basis))


def test_cover_sweep_splits_once_per_cover_class(monkeypatch):
    # covers with equal n_Q and an equal coset basis have equal class
    # pieces, so a sweep splits I_lambda once per distinct class
    lam, r, N = (2, 1, 0), 3, 5
    covers = [MP.CoverParams(n, b, c, r) for n in (1, 2, 3) for b in range(n)
              for c in range(2 * n)]
    classes = {_cover_class(params) for params in covers}
    assert len(covers) == 28 and len(classes) == 6
    splits = []
    split = C._class_pieces

    def spy(I, shape, basis):
        splits.append((shape, I.nq, basis))
        return split(I, shape, basis)

    scalar_splits = []
    scalar_split = S.Scalar.split

    def split_spy(self, label):
        scalar_splits.append(self.nq)
        return scalar_split(self, label)

    monkeypatch.setattr(C, "_class_pieces", spy)
    monkeypatch.setattr(S.Scalar, "split", split_spy)
    _clear_grid_memos()
    reports = [C.verify_thm82(lam, r, N, params) for params in covers]
    assert all(report["ok"] for report in reports)
    assert sum(len(report["checks"]) for report in reports) == 88
    assert sorted(splits) == sorted((lam,) + key for key in classes)
    # the split that builds the pieces is the only one: no piece is
    # split again for its exponent vector
    assert len(scalar_splits) == len(classes) == 6
    # every report equals a run with the memos cleared
    for params, report in zip(covers, reports):
        _clear_grid_memos()
        assert C.verify_thm82(lam, r, N, params) == report, params


def test_a_split_that_mixes_charge_classes_fails_loudly(monkeypatch):
    # a reduce that merges two coset classes puts exponents of different
    # residues mod n_Q into one piece; the split refuses it
    lam, params = (2, 1, 0), MP.CoverParams(3, 1, 1, 3)   # six nonzero classes
    cosets = MP.lattice_and_cosets(params)
    full = C.i_lambda(lam, 3, params.nq)
    first, second = sorted(C._class_pieces(full, lam, cosets.basis))[:2]
    assert C.verify_thm82(lam, 3, 5, params)["ok"]
    reduce = MP.reduce

    def merged(basis, x):
        gamma = reduce(basis, x)
        return first if gamma == second else gamma

    monkeypatch.setattr(MP, "reduce", merged)
    _clear_grid_memos()
    with pytest.raises(AssertionError, match="coset piece mixes charge classes"):
        C.verify_thm82(lam, 3, 5, params)


def test_only_the_class_split_splits_in_the_crystal_module():
    # every coset piece and its exponent vector come from the one split
    # in _class_pieces; no other crystal.py function calls .split(
    tree = ast.parse(Path(C.__file__).read_text(), C.__file__)
    callers = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callers += [(fn.name, node.lineno) for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "split"]
    assert callers and {name for name, _ in callers} == {"_class_pieces"}, callers


def test_class_piece_memo_stays_within_its_bound():
    # three shapes at the rank-2 covers with n <= 3: 18 distinct keys,
    # more than twice the bound; the first runs come again after eviction
    C._cover_pieces.cache_clear()
    covers = [MP.CoverParams(n, b, c, 2) for n in (1, 2, 3) for b in range(n)
              for c in range(2 * n)]
    runs = [((k, 0), params) for k in range(3) for params in covers]
    keys, first = set(), {}
    for lam, params in runs + runs[:2]:
        report = C.verify_thm82(lam, 2, lam[0] + 2, params)
        assert report["ok"], (lam, params)
        assert first.setdefault((lam, repr(params)), report) == report
        assert 0 < C._cover_pieces.cache_info().currsize <= C.PIECES_MEMO_MAX
        basis = MP.lattice_and_cosets(params).basis
        assert C._cover_pieces(lam, *_cover_class(params)) == C._class_pieces(
            C.i_lambda(lam, 2, params.nq), lam, basis)
        keys.add((lam,) + _cover_class(params))
    assert len(keys) > 2 * C.PIECES_MEMO_MAX


def test_charge_class_identity_ties_each_piece_to_its_class(monkeypatch):
    # a split that drops w0(lambda) files pieces under the wrong class but
    # keeps every lhs == rhs, since c is read off each piece's support
    split = C._class_pieces
    lam = (2, 1, 0)
    for params in (MP.CoverParams(2, 0, 1, 3), MP.CoverParams(3, 1, 0, 3)):
        assert C.verify_thm82(lam, 3, 5, params)["ok"]
        basis = MP.lattice_and_cosets(params).basis
        full = C.i_lambda(lam, 3, params.nq)
        assert split(full, lam, basis).keys() != split(full, (0, 0, 0), basis).keys()
        with monkeypatch.context() as patch:
            patch.setattr(C, "_class_pieces",
                          lambda I, shape, basis: split(I, (0,) * len(shape), basis))
            # the class-piece memo is emptied before and after the patched split
            C._cover_pieces.cache_clear()
            report = C.verify_thm82(lam, 3, 5, params)
        C._cover_pieces.cache_clear()
        assert not report["ok"], params
        failed = [check for check in report["checks"] if not check["ok"]]
        assert failed and all(check["lhs"] == check["rhs"] for check in failed)


def test_generating_sum_memo_stays_within_its_bound():
    C._i_lambda.cache_clear()
    shapes = [(k, 0) for k in range(2 * C.I_LAMBDA_MEMO_MAX)]
    first = {}
    # the first shapes are summed again after they were dropped
    for lam in shapes + shapes[:2]:
        got = C.i_lambda(lam, 2, 2)
        nodes = C.crystal_enumerate(lam, 2)
        assert got == oracles.i_lambda_by_nodes(nodes, lam, 2, C.node_weight, S)
        assert first.setdefault(lam, got) == got
    info = C._i_lambda.cache_info()
    assert info.maxsize == C.I_LAMBDA_MEMO_MAX
    assert 0 < info.currsize <= C.I_LAMBDA_MEMO_MAX
    assert info.misses == len(shapes) + 2


def test_charge_class_identity_at_rank_six():
    report = C.verify_thm82((1, 0, 0, 0, 0, 0), 6, 7, MP.CoverParams(3, 1, 1, 6))
    assert report["ok"]
    assert len(report["checks"]) == 60 and report["skipped"] == 669


def test_class_split_moves_packed_terms(monkeypatch):
    # the class split groups I_lambda's packed terms: it decodes no term
    # to its sparse form and encodes none again
    calls, splits = [], []
    split = C._class_pieces

    def counting(name, f):
        return lambda *args: calls.append(name) or f(*args)

    def spy(I, lam, basis):
        splits.append(lam)
        with monkeypatch.context() as patch:
            patch.setattr(S.Scalar, "from_sparse",
                          staticmethod(counting("from_sparse", S.Scalar.from_sparse)))
            patch.setattr(S.Scalar, "sparse_terms",
                          counting("sparse_terms", S.Scalar.sparse_terms))
            return split(I, lam, basis)

    monkeypatch.setattr(C, "_class_pieces", spy)
    C._cover_pieces.cache_clear()
    try:
        report = C.verify_thm82((1, 0, 0, 0, 0, 0), 6, 7, MP.CoverParams(3, 1, 1, 6))
    finally:
        C._cover_pieces.cache_clear()
    assert report["ok"] and len(report["checks"]) == 60
    assert splits == [(1, 0, 0, 0, 0, 0)] and calls == []


def test_charge_class_identity_rank_mismatch():
    with pytest.raises(ValueError):
        C.verify_thm82((1, 0), 2, 3, MP.CoverParams(2, 1, 1, 3))
