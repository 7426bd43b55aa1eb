"""Cover lattice, coset, and scattering coefficient checks."""

from itertools import product

import pytest

from metaice import cli
from metaice import metaplectic as MP
from metaice import rvertex as RV
from metaice import scalar as S

import oracles


def brute_kernel_count(params):
    """Residue tuples x in [0, n)^r with B.x = 0 mod n, counted directly."""
    bmat = params.bilinear_matrix()
    n, r = params.n, params.r
    hits = 0
    for x in product(range(n), repeat=r):
        if not any(sum(bmat[i][k] * x[k] for k in range(r)) % n
                   for i in range(r)):
            hits += 1
    return hits


def brute_index(params):
    # the n^r residues split into kernel-residue classes of equal size
    return params.n ** params.r // brute_kernel_count(params)


def dot_cover(n, r=2):
    return MP.CoverParams(n, 1 if n > 1 else 0, 1, r)


# -- parameters ---------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        MP.CoverParams(0, 0, 0, 2)
    with pytest.raises(ValueError):
        MP.CoverParams(3, 1, 1, 0)
    p = MP.CoverParams(3, 7, 11, 2)
    assert (p.b, p.c) == (1, 5)
    # every parameter must be an int, bool refused, the message naming it
    for k, name in enumerate("nbcr"):
        for bad in (True, 2.5, 2.0, "2", None):
            args = [3, 1, 1, 2]
            args[k] = bad
            with pytest.raises(ValueError, match="cover parameter %s must be an int" % name):
                MP.CoverParams(*args)


def test_bilinear_matrix_shape():
    p = MP.CoverParams(3, 1, 2, 3)
    mat = p.bilinear_matrix()
    assert mat == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert all(mat[i][j] == mat[j][i] for i in range(3) for j in range(3))


def test_nq_values():
    for n in range(1, 7):
        for b in range(n):
            p = MP.CoverParams(n, b, 0, 2)
            assert n % p.nq == 0
    assert MP.CoverParams(5, 1, 0, 2).nq == 5
    assert MP.CoverParams(5, 5, 0, 2).nq == 1
    assert MP.CoverParams(6, 4, 0, 2).nq == 3


def test_covers_distinguishable():
    base = MP.CoverParams(4, 1, 1, 2)
    assert not oracles.covers_distinguishable(base, MP.CoverParams(4, 1, 1, 2))
    # doubling the c-difference lands on 0 mod 4: not separated
    assert not oracles.covers_distinguishable(base, MP.CoverParams(4, 1, 3, 2))
    assert oracles.covers_distinguishable(base, MP.CoverParams(4, 1, 2, 2))
    assert oracles.covers_distinguishable(base, MP.CoverParams(4, 3, 1, 2))
    with pytest.raises(ValueError):
        oracles.covers_distinguishable(base, MP.CoverParams(3, 1, 1, 2))


# -- integer lattice utilities ------------------------------------------------

def test_xgcd_identity():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = MP.xgcd(a, b)
            assert a * x + b * y == g
            assert g >= 0
            if a or b:
                assert a % g == 0 and b % g == 0


def test_hermite_basis_small():
    assert MP.hermite_basis([[4, 0], [0, 4], [2, 2]], 2) == [[2, 2], [0, 4]]
    assert MP.hermite_basis([[6, 3], [3, 0]], 2) == [[3, 0], [0, 3]]
    with pytest.raises(ValueError):
        MP.hermite_basis([[1, 0]], 2)


def test_dot_cover_lattice():
    for n in (1, 2, 3, 4):
        for r in (2, 3):
            cd = MP.lattice_and_cosets(MP.CoverParams(n, 1, 1, r))
            assert cd.basis == [[n if k == i else 0 for k in range(r)]
                                for i in range(r)]
            assert cd.index == n ** r
            assert cd.gamma == list(product(range(n), repeat=r))


def test_degree_one_lattice():
    cd = MP.lattice_and_cosets(MP.CoverParams(1, 0, 0, 3))
    assert cd.index == 1
    assert cd.gamma == [(0, 0, 0)]


def test_even_cover_example():
    # degree 2 with b = c = 2: the pairing is even, so the kernel is all of Z^2
    p = MP.CoverParams(2, 2, 2, 2)
    cd = MP.lattice_and_cosets(p)
    assert cd.index == 1
    bmat = p.bilinear_matrix()
    box = sum(1 for x in product(range(4), repeat=2)
              if not any(sum(bmat[i][k] * x[k] for k in range(2)) % 2
                         for i in range(2)))
    assert 4 ** 2 // box == cd.index


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_against_brute_oracle(n):
    for b in range(n):
        for c in (0, 1, 2 * n - 1):
            for r in (2, 3):
                p = MP.CoverParams(n, b, c, r)
                cd = MP.lattice_and_cosets(p)
                assert cd.index == brute_index(p)
                assert len(cd.gamma) == cd.index
                bmat = p.bilinear_matrix()
                for row in cd.basis:
                    assert not any(
                        sum(bmat[i][k] * row[k] for k in range(r)) % n
                        for i in range(r))
                for g in cd.gamma:
                    assert cd.reduce(g) == g
                for g in cd.gamma[:3]:
                    for row in cd.basis:
                        shifted = [g[k] - 2 * row[k] for k in range(r)]
                        assert cd.reduce(shifted) == g
                assert cd.contains(cd.basis[0])
                assert cd.contains([0] * r)


def test_kernel_basis_matches_the_residue_scan():
    # every cover with n <= 6, r <= 5 and at most 4,096 residues: 838
    covers = [MP.CoverParams(n, b, c, r) for n in range(1, 7) for r in range(1, 6)
              if n ** r <= 4096 for b in range(n) for c in range(2 * n)]
    assert len(covers) == 838
    for p in covers:
        cd, want = MP.lattice_and_cosets(p), oracles.kernel_basis_by_scan(p, MP)
        assert (cd.basis, cd.index, cd.gamma) == (want.basis, want.index, want.gamma), p


def test_rank_8_index_is_the_size_of_the_image():
    # |Z^8 / kernel| = |B.Z^8 mod n| by the first isomorphism theorem; the
    # image is the closure of 0 under adding B's columns mod n, with no
    # normal form involved
    covers = [MP.CoverParams(n, b, c, 8) for n in (1, 2, 3) for b in range(n)
              for c in range(2 * n)]
    assert len(covers) == 28
    for p in covers:
        columns = p.bilinear_matrix()   # symmetric: rows are the columns
        image, frontier = {(0,) * 8}, [(0,) * 8]
        while frontier:
            v = frontier.pop()
            for col in columns:
                w = tuple((a + b) % p.n for a, b in zip(v, col))
                if w not in image:
                    image.add(w)
                    frontier.append(w)
        assert len(image) <= 3 ** 8
        assert MP.lattice_and_cosets(p).index == len(image), p


def test_coset_json_shape():
    cd = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 2))
    blob = cd.to_json()
    assert blob["index"] == 4
    assert blob["basis"] == [[2, 0], [0, 2]]
    assert len(blob["gamma"]) == 4
    assert blob["params"]["n"] == 2


def test_sl_coset_count():
    assert MP.sl_coset_count(2, 1, 3) == 4
    assert MP.sl_coset_count(1, 0, 2) == 1
    for n in (2, 3, 4):
        for r in (2, 3, 4):
            assert MP.sl_coset_count(n, n, r) == 1
    assert MP.sl_coset_count(6, 4, 2) == 3
    with pytest.raises(ValueError):
        MP.sl_coset_count(2, 1, 1)
    # the formula divides evenly across the whole small-parameter grid
    for n in range(1, 9):
        for b in range(n + 1):
            for r in (2, 3, 4):
                assert MP.sl_coset_count(n, b, r) >= 1


# -- scattering coefficients --------------------------------------------------

def test_tau_zero_difference():
    p = dot_cover(2)
    t = MP.tau((0, 0), 1, p)
    one, v = S.one(2), S.v_pow(1, 2)
    big_z = S.z_pow(1, 2, 2) * S.z_pow(2, -2, 2)
    den = one - v * big_z
    assert S.frac_eq(t.tau1, S.Frac(one - v, den))
    want2 = S.Frac(S.gauss(1, 2) * S.z_pow(1, -1, 2) * S.z_pow(2, 1, 2)
                   * (one - big_z), den)
    assert S.frac_eq(t.tau2, want2)
    assert t.target2 == (1, -1)


def test_tau_equal_residue_sum():
    # difference 1 collapses the pair to z^(-alpha)(Z - v)/(1 - vZ)
    for nq in (1, 2, 3):
        p = dot_cover(nq)
        t = MP.tau((1, 0), 1, p)
        assert t.target2 == (1, 0)
        one, v = S.one(nq), S.v_pow(1, nq)
        big_z = S.z_pow(1, nq, nq) * S.z_pow(2, -nq, nq)
        want = S.Frac(S.z_pow(1, -1, nq) * S.z_pow(2, 1, nq) * (big_z - v),
                      one - v * big_z)
        assert S.frac_eq(t.tau1 + t.tau2, want)


def test_tau_degenerate_cover_is_plain():
    # b = 0 forces n_Q = 1: tau1 is the (1-v)/(1-v z_i/z_j) factor for any mu
    p = MP.CoverParams(3, 0, 1, 2)
    assert p.nq == 1
    one, v = S.one(1), S.v_pow(1, 1)
    ratio = S.z_pow(1, 1, 1) * S.z_pow(2, -1, 1)
    for mu in [(0, 0), (2, -1), (-3, 5)]:
        t = MP.tau(mu, 1, p)
        assert S.frac_eq(t.tau1, S.Frac(one - v, one - v * ratio))


def test_tau_validation():
    p = dot_cover(2, r=3)
    with pytest.raises(ValueError):
        MP.tau((0, 0, 0), 3, p)
    with pytest.raises(ValueError):
        MP.tau((0, 0), 1, p)
    p2 = dot_cover(2)
    for mu in ((1.5, 0), (0, 1.0), (True, 0), ("1", 0)):
        with pytest.raises(ValueError, match="coweight entries must be ints"):
            MP.tau(mu, 1, p2)
    for i in (True, 1.0, 1.5, "1"):
        with pytest.raises(ValueError, match="simple index i must be an int"):
            MP.tau((1, 0), i, p2)


def test_tau_json_shape():
    t = MP.tau((1, -1), 1, dot_cover(3))
    blob = t.to_json()
    assert blob["mu"] == [1, -1]
    assert blob["target2"] == [0, 0]
    assert blob["nq"] == 3
    assert "num" in blob["tau1"]


def test_tau_rows_follow_index():
    # the simple index fixes which spectral parameters appear
    p = dot_cover(2, r=3)
    t = MP.tau((0, 0, 0), 2, p)
    one, v = S.one(2), S.v_pow(1, 2)
    big_z = S.z_pow(2, 2, 2) * S.z_pow(3, -2, 2)
    assert S.frac_eq(t.tau1, S.Frac(one - v, one - v * big_z))


def test_tau_depends_on_the_difference_mod_nq_only():
    # every coweight against the formula at its own difference d, with
    # the exact terms of numerator and denominator
    for n, b, r in ((1, 0, 2), (2, 1, 3), (3, 1, 2), (4, 2, 3), (4, 1, 2)):
        params = MP.CoverParams(n, b, 1, r)
        nq = params.nq
        one, v = S.one(nq), S.v_pow(1, nq)
        for i in range(1, r):
            big_z = S.z_pow(i, nq, nq) * S.z_pow(i + 1, -nq, nq)
            ratio = S.z_pow(i, 1, nq) * S.z_pow(i + 1, -1, nq)
            for mu in product(range(-nq - 1, nq + 2), repeat=r):
                d = mu[i - 1] - mu[i]
                t = MP.tau(mu, i, params)
                k = (-d) % nq
                tau1 = (one - v) * S.z_pow(i, k, nq) * S.z_pow(i + 1, -k, nq)
                tau2 = S.gauss(1 - d, nq) * ratio.inverse() * (one - big_z)
                assert t.tau1.num == tau1 and t.tau2.num == tau2, (params, mu, i)
                assert t.tau1.den == t.tau2.den == one - v * big_z
    info = MP._tau_fracs.cache_info()
    assert info.currsize <= info.maxsize == 256


# -- residue identities -------------------------------------------------------

def test_prop71_equal_branch():
    for nq in (1, 2, 3, 4):
        p = dot_cover(nq)
        rep = MP.prop71_check(nq, nq, p)
        assert rep["branch"] == "one-term"
        assert rep["ok"]


def test_prop71_crossing_orientation():
    # tau2 carries the Gauss symbol at the second residue minus the first
    nq = 3
    p = dot_cover(nq)
    ci, cj = 1, 3
    rep = MP.prop71_check(ci, cj, p)
    assert rep["ok"] and rep["branch"] == "two-term"
    nu = (1 - ci, -cj)
    refl = MP.tau(MP.tau(nu, 1, p).target2, 1, p)
    one, v = S.one(nq), S.v_pow(1, nq)
    big_z = S.z_pow(1, nq, nq) * S.z_pow(2, -nq, nq)
    want = S.Frac(S.gauss(cj - ci, nq) * S.z_pow(1, -1, nq)
                  * S.z_pow(2, 1, nq) * (one - big_z), one - v * big_z)
    assert S.frac_eq(refl.tau2, want)


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
def test_prop71_exhaustive_dot_covers(nq):
    p = dot_cover(nq)
    for ci, cj in product(range(1, nq + 1), repeat=2):
        assert MP.prop71_check(ci, cj, p)["ok"]


def test_prop71_reduces_wide_residues():
    # degree 4 with b = 2 has charge window (0, 2]: residues reduce first
    p = MP.CoverParams(4, 2, 1, 2)
    assert p.nq == 2
    for ci, cj in product(range(1, 5), repeat=2):
        rep = MP.prop71_check(ci, cj, p)
        assert rep["ok"]
        assert rep["reduced"] == ((ci - 1) % 2 + 1, (cj - 1) % 2 + 1)
    with pytest.raises(ValueError):
        MP.prop71_check(0, 1, p)
    with pytest.raises(ValueError):
        MP.prop71_check(1, 5, p)


def test_theorem12_all_covers_small():
    for n in (1, 2, 3):
        for b in range(n):
            for c in range(2 * n):
                p = MP.CoverParams(n, b, c, 2)
                for pair in product(range(1, n + 1), repeat=2):
                    rep = MP.theorem12_diagram(p, pair)
                    assert rep["ok"], (n, b, c, pair)


def test_theorem12_branches():
    p = dot_cover(3)
    two = MP.theorem12_diagram(p, (1, 3))
    assert two["branch"] == "two-term" and two["ok"]
    one = MP.theorem12_diagram(p, (2, 2))
    assert one["branch"] == "one-term" and one["ok"]
    wide = MP.theorem12_diagram(MP.CoverParams(4, 2, 0, 2), (4, 1))
    assert wide["reduced"] == (2, 1) and wide["ok"]


def test_theorem12_higher_rank():
    p = dot_cover(2, r=3)
    for label in product(range(1, 3), repeat=3):
        for i in (1, 2):
            assert MP.theorem12_diagram(p, label, i)["ok"]


def test_theorem12_validation():
    p = dot_cover(2)
    with pytest.raises(ValueError):
        MP.theorem12_diagram(p, (1, 2, 1))
    with pytest.raises(ValueError):
        MP.theorem12_diagram(p, (0, 1))
    with pytest.raises(ValueError):
        MP.theorem12_diagram(p, (1, 2), i=2)
    with pytest.raises(ValueError):
        MP.theorem12_diagram(MP.CoverParams(2, 1, 1, 1), (1,))
    for bad in ((1.0, 2), (True, 2), (1, 2.5), (1, "2")):
        with pytest.raises(ValueError, match="residues must be ints"):
            MP.theorem12_diagram(p, bad)
    for i in (1.0, True, 1.5, "1"):
        with pytest.raises(ValueError, match="simple index i must be an int"):
            MP.theorem12_diagram(p, (1, 2), i=i)


def test_tau_involution():
    seen = set()
    for n in (1, 2, 3):
        p = dot_cover(n)
        for mu in product(range(-2, 3), repeat=2):
            rep = MP.tau_involution(mu, 1, p)
            seen.add((n, rep["classes"]))
            assert rep["ok"], (n, mu)
    assert (2, 1) in seen and (2, 2) in seen and (3, 2) in seen


def test_tau_involution_fails_with_a_doubled_tau2(monkeypatch):
    # negating tau2 would not do: in the two-class case it conjugates the
    # matrix by diag(1, -1), which keeps the involution
    fracs = MP._tau_fracs
    monkeypatch.setattr(MP, "_tau_fracs",
                        lambda d, i, nq: (fracs(d, i, nq)[0], 2 * fracs(d, i, nq)[1]))
    for n in (2, 3):
        for mu in product(range(-2, 3), repeat=2):
            assert not MP.tau_involution(mu, 1, dot_cover(n))["ok"], (n, mu)


def test_tau_involution_higher_rank():
    p = dot_cover(3, r=3)
    for mu in product(range(-1, 2), repeat=3):
        for i in (1, 2):
            assert MP.tau_involution(mu, i, p)["ok"]


def test_shared_denominator_verdicts_match_cross_multiplication(monkeypatch):
    # every check of verify thm12 --rank 3 compares fractions over one
    # denominator; the numerator test must give the cross-multiplied verdict
    plain = S.frac_eq
    shared = []

    def both(x, y):
        x, y = S.Frac.lift(x), S.Frac.lift(y)
        got = plain(x, y)
        assert got == (x.num * y.den == y.num * x.den), (x, y)
        shared.append(x.den == y.den)
        return got

    monkeypatch.setattr(S, "frac_eq", both)
    covers = [MP.CoverParams(n, b, c, 3) for n in range(1, 5) for b in range(n)
              for c in range(2 * n)]
    diagrams = [ok for params in covers for _, ok in cli._thm12_checks(params)]
    assert len(diagrams) == 5200 and all(diagrams)
    assert shared and all(shared)
