"""Superalgebra crossing matrix tests: entry families, the diagonal
twist, the signature flip, the entrywise match with the ice table, and
the graded braid/inversion identities."""

from fractions import Fraction

import pytest

from metaice import scalar as S
from metaice import qgroup as Q


def formal_z(nq):
    return S.z_pow(9, 1, nq)


def kojima_parts(nq):
    z = formal_z(nq)
    one = S.one(nq)
    v = S.v_pow(1, nq)
    return z, one, v, one - v * z


# -- the untwisted matrix -----------------------------------------------------

def test_kojima_all_minus_entry():
    for nq in (1, 2, 3):
        K = Q.kojima_r(formal_z(nq), nq)
        assert S.frac_eq(K[((0, 0), (0, 0))], S.Frac(S.integer(-1, nq)))


def test_kojima_equal_plus_entry():
    nq = 2
    z, one, v, den = kojima_parts(nq)
    K = Q.kojima_r(z, nq)
    for a in (1, 2):
        w = K[((a, a), (a, a))]
        assert w.num == z - v and w.den == den


def test_kojima_mixed_diagonal_and_swaps():
    nq = 2
    z, one, v, den = kojima_parts(nq)
    q = S.v_pow(Fraction(1, 2), nq)
    K = Q.kojima_r(z, nq)
    for a, b in ((0, 1), (1, 0), (0, 2), (1, 2), (2, 1)):
        assert K[((a, b), (a, b))].num == q * (one - z)
    # lower output label on the left slot keeps 1, the reverse picks up z
    assert K[((1, 2), (2, 1))].num == one - v
    assert K[((2, 1), (1, 2))].num == (one - v) * z
    assert K[((0, 2), (2, 0))].num == one - v
    assert K[((2, 0), (0, 2))].num == (one - v) * z


@pytest.mark.parametrize("nq", [1, 2, 3])
def test_kojima_support(nq):
    K = Q.kojima_r(formal_z(nq), nq)
    expected = set()
    for a, b in Q.pair_basis(nq):
        expected.add(((a, b), (a, b)))
        if a != b:
            expected.add(((a, b), (b, a)))
    assert set(K) == expected
    assert len(K) == (nq + 1) ** 2 + nq * (nq + 1)


# -- the twist element ---------------------------------------------------------

def test_twist_diagonal_pairs_are_one():
    for nq in (1, 2, 3):
        F = Q.twist_f(nq)
        for a in Q.labels(nq):
            assert S.frac_eq(F[((a, a), (a, a))], S.Frac(S.one(nq)))


@pytest.mark.parametrize("nq", [1, 2, 3])
def test_twist_ff21_is_identity(nq):
    F = Q.twist_f(nq)
    prod = Q.mat_mul(F, Q.f21(F))
    assert Q.mat_eq(prod, Q.mat_identity(Q.pair_basis(nq), nq))


@pytest.mark.parametrize("nq", [1, 2])
def test_twist_braid_relation(nq):
    F = Q.twist_f(nq)
    f12 = Q.embed12(F, nq)
    f13 = Q.embed13(F, nq, True)
    f23 = Q.embed23(F, nq)
    lhs = Q.mat_mul(f12, Q.mat_mul(f13, f23))
    rhs = Q.mat_mul(f23, Q.mat_mul(f13, f12))
    assert Q.mat_eq(lhs, rhs)


def test_twist_inverse():
    nq = 3
    F = Q.twist_f(nq)
    prod = Q.mat_mul(F, Q.f_inverse(F))
    assert Q.mat_eq(prod, Q.mat_identity(Q.pair_basis(nq), nq))


# -- twisting -------------------------------------------------------------------

def test_identity_twist_returns_matrix():
    nq = 2
    K = Q.kojima_r(formal_z(nq), nq)
    ident = {((a, b), (a, b)): S.Frac(S.one(nq)) for a, b in Q.pair_basis(nq)}
    assert Q.mat_eq(Q.drinfeld_twist(K, ident), K)


def test_twisted_diagonal_entries():
    nq = 3
    z, one, v, den = kojima_parts(nq)
    K = Q.kojima_r(z, nq)
    T = Q.drinfeld_twist(K, Q.twist_f(nq))
    # unequal positive pairs pick up the Gauss sum of the label gap
    assert S.frac_eq(T[((3, 1), (3, 1))], S.Frac(S.gauss(2, nq) * (one - z), den))
    assert S.frac_eq(T[((1, 3), (1, 3))], S.Frac(S.gauss(-2, nq) * (one - z), den))
    # minus-first and minus-second mixed pairs
    assert S.frac_eq(T[((0, 2), (0, 2))], S.Frac(v * (one - z), den))
    assert S.frac_eq(T[((2, 0), (2, 0))], S.Frac(one - z, den))
    # swap families and the all-minus entry are untouched
    for key in (((1, 2), (2, 1)), ((2, 1), (1, 2)), ((0, 0), (0, 0)),
                ((1, 1), (1, 1))):
        assert S.frac_eq(T[key], K[key])


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
def test_twisted_matrix_is_integral(nq):
    T = Q.drinfeld_twist(Q.kojima_r(formal_z(nq), nq), Q.twist_f(nq))
    for entry in T.values():
        entry.assert_integral()


# -- signature ------------------------------------------------------------------

def test_signature_flips_only_all_minus_row():
    nq = 2
    K = Q.kojima_r(formal_z(nq), nq)
    A = Q.signature_adjust(K)
    assert S.frac_eq(A[((0, 0), (0, 0))], S.Frac(S.one(nq)))
    for key in K:
        if key[0] != (0, 0):
            assert S.frac_eq(A[key], K[key])
    AA = Q.signature_adjust(A)
    assert Q.mat_eq(AA, K)


# -- match with the ice table ----------------------------------------------------

def test_families_equal_before_twisting():
    # equal-positive diagonal and the two swap families need no twist
    for nq in (2, 3):
        K = Q.kojima_r(S.z_pow(1, nq, nq) * S.z_pow(2, -nq, nq), nq)
        ice = Q.ice_r_matrix(nq)
        for (row, col) in K:
            if row != col:
                assert S.frac_eq(K[(row, col)], ice[(row, col)])
            elif row[0] == row[1] and row != (0, 0):
                assert S.frac_eq(K[(row, col)], ice[(row, col)])


@pytest.mark.parametrize("nq", [1, 2, 3])
def test_compare_to_ice(nq):
    rep = Q.compare_to_ice_r(nq)
    assert rep["ok"] and not rep["mismatches"]
    assert rep["entries"] == (nq + 1) ** 2 + nq * (nq + 1)


def test_compare_to_ice_other_rows():
    rep = Q.compare_to_ice_r(2, rows=(3, 5))
    assert rep["ok"]


# -- graded identities -------------------------------------------------------------

def test_graded_swap_squares_to_identity():
    nq = 2
    tau = Q.graded_swap(nq)
    assert Q.mat_eq(Q.mat_mul(tau, tau), Q.mat_identity(Q.pair_basis(nq), nq))


def test_unitarity_at_even_pair():
    # diagonal-diagonal plus swap-swap paths collapse to 1:
    # -v(1-z)^2 + (1-v)^2 z = (z-v)(1-vz)
    nq = 2
    i, j = 1, 2
    z = S.z_pow(i, 1, nq) * S.z_pow(j, -1, nq)
    w = S.z_pow(j, 1, nq) * S.z_pow(i, -1, nq)
    tau = Q.graded_swap(nq)
    fwd = Q.kojima_r(z, nq)
    bwd = Q.mat_mul(tau, Q.mat_mul(Q.kojima_r(w, nq), tau))
    prod = Q.mat_mul(fwd, bwd)
    assert S.frac_eq(prod[((1, 2), (1, 2))], S.Frac(S.one(nq)))
    assert S.frac_eq(prod[((1, 1), (1, 1))], S.Frac(S.one(nq)))


def test_graded_ybe_symbolic():
    rep = Q.check_graded_ybe(1)
    assert rep["mode"] == "symbolic"
    assert rep["ybe_ok"] and rep["unitarity_ok"] and rep["ok"]


def test_ungraded_braid_fails_without_signature():
    # the all-minus -1 entry breaks the plain matrix braid identity,
    # so the parity signs are doing real work
    rep = Q.check_graded_ybe(1, graded=False)
    assert not rep["ybe_ok"]
    rep = Q.check_graded_ybe(1, graded=False, trials=2, seed=0)
    assert {t for t, tag, _key in rep["failures"] if tag == "ybe"} == {0, 1}


def test_graded_ybe_modular():
    rep = Q.check_graded_ybe(2, trials=4, seed=20260815)
    assert rep["mode"] == "modular"
    assert rep["ok"] and not rep["failures"]
    # a seed samples at nq = 1 too, and seed 0 is a seed
    rep = Q.check_graded_ybe(1, trials=1, seed=0)
    assert rep["mode"] == "modular" and rep["points"] == 1 and rep["ok"]


def _twisted(nq):
    F = Q.twist_f(nq)
    return lambda z: Q.drinfeld_twist(Q.kojima_r(z, nq), F)


@pytest.mark.parametrize("nq", [2, 3])
def test_exact_and_seeded_graded_ybe_agree(nq):
    # while both paths exist, the sampled check must reach the exact verdict
    for matrix_fn in (None, _twisted(nq)):
        exact = Q.check_graded_ybe(nq, matrix_fn=matrix_fn)
        sampled = Q.check_graded_ybe(nq, matrix_fn=matrix_fn, seed=nq)
        assert exact["mode"] == "symbolic" and sampled["mode"] == "modular"
        assert exact["ok"] and sampled["ok"]


@pytest.mark.parametrize("nq", [1, 2])
def test_twist_preserves_graded_ybe(nq):
    rep = Q.check_graded_ybe(nq, matrix_fn=_twisted(nq))
    assert rep["ok"]


def test_signed_twisted_passes_ungraded():
    nq = 1
    F = Q.twist_f(nq)
    fn = lambda z: Q.signature_adjust(Q.drinfeld_twist(Q.kojima_r(z, nq), F))
    rep = Q.check_graded_ybe(nq, matrix_fn=fn, graded=False)
    assert rep["ok"]


# -- serialization -----------------------------------------------------------------

def test_matrix_json_triplets():
    nq = 1
    K = Q.kojima_r(formal_z(nq), nq)
    dump = Q.matrix_to_json(K)
    assert len(dump) == len(K)
    row, col, entry = dump[0]
    assert S.frac_eq(S.Frac.from_json(entry), K[(tuple(row), tuple(col))])


def test_perturbed_matrix_failures_keep_trial_and_tag_order():
    def bend(nq):
        def bent(z):
            mat = Q.kojima_r(z, nq)
            mat[((1, 1), (1, 1))] = mat[((1, 1), (1, 1))] * 2
            return mat
        return bent

    for nq in (2, 3):
        rep = Q.check_graded_ybe(nq, matrix_fn=bend(nq))
        assert rep["mode"] == "symbolic"
        assert not rep["ybe_ok"] and not rep["unitarity_ok"]
    nq = 2
    for seed in (0, 20260815):
        rep = Q.check_graded_ybe(nq, matrix_fn=bend(nq), trials=2, seed=seed)
        assert not rep["ybe_ok"] and not rep["unitarity_ok"]
        order = [(t, tag == "unitarity") for t, tag, _key in rep["failures"]]
        assert order == sorted(order) and {t for t, _ in order} == {0, 1}
