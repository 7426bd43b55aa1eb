"""Acceptance gate: the ten release criteria, each with its runtime
budget where one is stated.  Everything here is exact arithmetic except
the seeded modular cross-check of criterion 3, whose failure bound must
stay below 2^-40."""

import time
from itertools import product

from metaice import scalar as S
from metaice import lattice as L
from metaice import rvertex as RV
from metaice import qgroup as QG
from metaice import metaplectic as MP
from metaice import crystal as C

import oracles


def _partitions(r, maxpart):
    def rec(k, hi):
        if k == 0:
            yield ()
            return
        for h in range(hi, -1, -1):
            for rest in rec(k - 1, h):
                yield (h,) + rest
    return rec(r, maxpart)


def _covers(max_n, rank):
    return [MP.CoverParams(n, b, c, rank)
            for n in range(1, max_n + 1)
            for b in range(n) for c in range(2 * n)]


def test_criterion_1_appendix_regression():
    start = time.monotonic()
    for nq in (1, 2, 3, 4):
        rep = RV.appendix_regression(nq)
        assert rep["ok"], rep["mismatches"][:3]
        assert len(rep["cases"]) == 32
        # every free charge runs over the full residue range
        assert rep["instances"] == sum(case["instances"] for case in rep["cases"])
        assert any(case["instances"] == nq * nq for case in rep["cases"])
    assert time.monotonic() - start < 60


def test_criterion_2_exhaustive_rtt():
    start = time.monotonic()
    for nq, boundaries in ((1, 64), (2, 324), (3, 1024)):
        rep = RV.rtt_scan(nq)
        assert rep["ok"], rep["failures"][:3]
        assert rep["boundaries"] == boundaries
        assert rep["inhabited"] > 0
    assert time.monotonic() - start < 300


def test_criterion_3_rrr_and_unitarity():
    start = time.monotonic()
    for scan in (RV.rrr_scan, RV.unitarity_scan):
        for nq in (1, 2, 3):
            exact = scan(nq)
            assert exact["mode"] == "symbolic" and exact["ok"], exact["failures"][:3]
        for nq in (2, 3):
            sampled = scan(nq, seed=20260815)
            assert sampled["mode"] == "modular" and sampled["ok"]
            assert sampled["points"] >= 20
            assert sampled["sz_log2_bound"] < -40
    assert time.monotonic() - start < 600


def test_criterion_4_twist_reproduction():
    start = time.monotonic()
    for nq in (1, 2, 3):
        rep = QG.compare_to_ice_r(nq)
        assert rep["ok"], rep["mismatches"][:3]
        F = QG.twist_f(nq)
        identity = QG.mat_identity(QG.pair_basis(nq), nq)
        assert QG.mat_eq(QG.mat_mul(F, QG.f21(F)), identity)
    for nq in (1, 2):
        F = QG.twist_f(nq)
        lhs = QG.mat_mul(QG.embed12(F, nq),
                         QG.mat_mul(QG.embed13(F, nq, True), QG.embed23(F, nq)))
        rhs = QG.mat_mul(QG.embed23(F, nq),
                         QG.mat_mul(QG.embed13(F, nq, True), QG.embed12(F, nq)))
        assert QG.mat_eq(lhs, rhs)
    assert time.monotonic() - start < 60


def test_criterion_5_crossing_identities():
    start = time.monotonic()
    for params in _covers(4, 2):
        for ci, cj in product(range(1, params.n + 1), repeat=2):
            assert MP.prop71_check(ci, cj, params)["ok"], (params, ci, cj)
        for residues in product(range(1, params.n + 1), repeat=2):
            assert MP.theorem12_diagram(params, residues)["ok"], (params, residues)
    assert time.monotonic() - start < 60


def test_criterion_6_whittaker_equals_partition_function():
    start = time.monotonic()
    checked = 0
    for r, lam, columns in ((2, (1, 0), 3), (3, (2, 2, 0), 5), (3, (3, 1, 0), 6)):
        for params in _covers(3, r):
            rep = C.verify_thm82(lam, r, columns, params)
            assert rep["ok"], (params, [ch for ch in rep["checks"] if not ch["ok"]][:1])
            checked += len(rep["checks"])
    assert checked > 100
    assert time.monotonic() - start < 600


def test_criterion_7_reference_state_concordance():
    vertical = (
        (1, 1, 1, 1, 1),
        (1, 1, -1, 1, 1),
        (-1, 1, -1, 1, 1),
        (-1, -1, 1, 1, -1),
    )
    horizontal = (
        (1, 1, 1, -1, -1, -1),
        (1, -1, -1, -1, -1, -1),
        (1, 1, -1, 1, 1, -1),
    )
    charges = (
        (3, 2, 1, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
        (4, 3, 2, 2, 1, 0),
    )
    state = L.IceState(vertical, horizontal)
    assert state.charge_grid() == charges
    assert state.left_charges() == (3, 1, 4)
    for nq, present in ((1, True), (2, True), (3, False)):
        system = L.boundary_from_partition((2, 2, 0), 3, 5, nq)
        assert (state in L.enumerate_states(system)) is present
    assert state.left_charges(2) == (1, 1, 2)
    # per-table product; the overall sign is the product's, see the
    # decisions ledger for the sign of the corresponding printed value
    expected = S.gauss(1, 2) * (S.one(2) - S.v_pow(1, 2)) \
        * S.z_pow(1, -2, 2) * S.z_pow(3, -2, 2)
    assert L.boltzmann_weight(state, 2) == expected


def test_criterion_8_bijection_suite():
    for r in range(1, 8):
        for lam in _partitions(r, 7 - r):
            top = tuple(lam[t] + r - 1 - t for t in range(r))
            nodes = C.crystal_enumerate(lam, r)
            patterns = oracles.enumerate_strict_patterns(top)
            states = L.enumerate_states(L.boundary_from_partition(lam, r))
            assert len(nodes) == len(patterns) == len(states), (r, lam)
            for node in nodes:
                pattern = C.node_to_gt(node, lam)
                assert C.gt_to_node(pattern) == node
                state = C.gt_to_ice(pattern)
                assert C.ice_to_gt(state) == pattern


def test_criterion_9_functional_equation():
    for lam in ((1, 0), (2, 0), (2, 2, 0)):
        r = len(lam)
        for nq in (1, 2, 3):
            system = L.boundary_from_partition(lam, nq=nq)
            for i in range(1, r):
                for charges in product(range(1, nq + 1), repeat=r):
                    res = RV.train_functional_equation(lam, charges, i, system)
                    assert res["equal"], (lam, nq, i, charges)


def test_criterion_10_degeneration_at_modulus_one():
    for lam in ((2, 1, 0), (3, 1)):
        r = len(lam)
        system = L.boundary_from_partition(lam, r, None, 1)
        states = L.enumerate_states(system)
        top = tuple(lam[t] + r - 1 - t for t in range(r))
        assert len(states) == len(oracles.enumerate_strict_patterns(top))
        for state in states:
            assert state.is_admissible(1)
            assert not oracles.has_gauss(L.boltzmann_weight(state, 1))
        for key in C.i_lambda(lam, r, 1).terms:
            assert key[2] == ()
    involution = RV.check_scattering_involution(1, 1)
    assert involution["ok"], involution["failures"][:3]
