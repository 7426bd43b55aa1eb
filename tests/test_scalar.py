"""Ground-ring unit tests: canonical forms, ring axioms, modular points."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from metaice import scalar as S
from metaice.scalar import (
    Scalar, Frac, frac_eq, gauss_normalize, gauss_eval,
    make_assignment, eval_scalar_mod, eval_frac_mod,
)

from oracles import TupleKeyScalar, eval_gauss_raw, gauss_normalize_by_rules, z_split


# -- the key format stays in one module -------------------------------------

def test_only_the_scalar_module_reads_raw_keys():
    # a monomial key's layout is scalar.py's to change: every other module
    # goes through sparse_terms and from_sparse
    readers = set()
    for path in Path(S.__file__).parent.glob("*.py"):
        if path.name != "scalar.py":
            tree = ast.parse(path.read_text(), str(path))
            readers.update((path.name, node.lineno) for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute) and node.attr == "terms")
    assert not readers, sorted(readers)


# -- frozen normalization cases ------------------------------------------

def test_pair_relation_absorbs_to_v():
    # {1:1, 2:1} at modulus 3 collapses to v with no symbols left
    sign, vq, gex = gauss_normalize({1: 2, 2: 2}, 3)
    assert (sign, vq, gex) == (1, 4, ())


def test_unpaired_index_survives():
    sign, vq, gex = gauss_normalize({2: 2}, 5)
    assert (sign, vq, gex) == (1, 0, ((2, 2),))


def test_self_paired_index_reduces_mod_two():
    # g(2)^3 at modulus 4 = v * g(2)
    sign, vq, gex = gauss_normalize({2: 6}, 4)
    assert (sign, vq, gex) == (1, 4, ((2, 2),))


def test_index_zero_gives_sign_and_v():
    assert gauss_normalize({0: 2}, 3) == (-1, 4, ())
    assert gauss_normalize({0: 4}, 3) == (1, 8, ())
    assert gauss_normalize({3: 2}, 3) == (-1, 4, ())  # 3 = 0 mod 3


def test_index_zero_half_power_raises():
    with pytest.raises(ValueError):
        gauss_normalize({0: 1}, 3)


def test_negative_exponent_flips_to_mirror():
    # g(1)^-1 = v^-1 g(2) at modulus 3
    assert gauss_normalize({1: -2}, 3) == (1, -4, ((2, 2),))
    # and half powers: g(1)^-1/2 = v^-1/2 g(2)^1/2
    assert gauss_normalize({1: -1}, 3) == (1, -2, ((2, 1),))


def test_self_pair_never_becomes_half_v():
    # a single g(1) at modulus 2 must stay formal
    sign, vq, gex = gauss_normalize({1: 2}, 2)
    assert (sign, vq, gex) == (1, 0, ((1, 2),))
    # but its square is exactly v
    assert gauss_normalize({1: 4}, 2) == (1, 4, ())


def test_pair_relation_as_scalars():
    for nq in range(1, 7):
        for a in range(1, nq):
            assert S.gauss(a, nq) * S.gauss(nq - a, nq) == S.v_pow(1, nq)
    assert S.gauss(0, 3) == -S.v_pow(1, 3)
    assert S.gauss(3, 3) == -S.v_pow(1, 3)
    assert S.gauss_pow(1, 4, 7) * S.gauss_pow(1, 6, 7) == S.gauss_pow(1, 10, 7)


def test_gauss_eval_cases():
    one_minus_v = S.one(3) - S.v_pow(1, 3)
    assert gauss_eval(3, 0, 3) == one_minus_v
    assert gauss_eval(0, 5, 3) == one_minus_v
    assert gauss_eval(2, 0, 3).is_zero()
    assert gauss_eval(2, -2, 3).is_zero()
    assert gauss_eval(2, -7, 3).is_zero()
    assert gauss_eval(5, -1, 3) == S.gauss(2, 3)
    assert gauss_eval(3, -1, 3) == -S.v_pow(1, 3)


# -- normalizer agrees with the raw-periodicity oracle ---------------------

def test_normalizer_against_raw_oracle():
    rng = random.Random(20260815)
    for trial in range(400):
        nq = rng.randrange(1, 7)
        exps = {}
        for _ in range(rng.randrange(1, 5)):
            a = rng.randrange(-2 * nq, 3 * nq)
            e2 = rng.randrange(-6, 7)
            r = a % nq
            if r == 0 or 2 * r == nq:
                e2 -= e2 % 2  # raw oracle needs whole powers there
            if e2:
                exps[a] = exps.get(a, 0) + e2
        exps = {a: e for a, e in exps.items() if e}
        # skip if accumulated residues re-create an odd special exponent
        byres = {}
        for a, e in exps.items():
            byres[a % nq] = byres.get(a % nq, 0) + e
        if any((r == 0 or 2 * r == nq) and e % 2 for r, e in byres.items()):
            continue
        sign, vq, gex = gauss_normalize(exps, nq)
        norm = Scalar.from_sparse([((vq, (), gex), sign)], nq)
        for pt in range(3):
            asg = make_assignment(nq, [], seed=trial * 17 + pt)
            assert eval_scalar_mod(norm, asg) == eval_gauss_raw(exps, asg)


def test_normalize_idempotent_and_multiplicative():
    rng = random.Random(7)

    def draw(nq):
        # residues never 0 so index-0 half powers cannot arise
        if nq == 1:
            return {}
        return {rng.randrange(1, nq) + nq * rng.randrange(0, 3):
                rng.randrange(-4, 5) or 1
                for _ in range(rng.randrange(1, 4))}

    for trial in range(200):
        nq = rng.randrange(1, 6)
        d1 = draw(nq)
        d2 = draw(nq)
        s1, v1, g1 = gauss_normalize(d1, nq)
        s2, v2, g2 = gauss_normalize(d2, nq)
        # normalizing a canonical form is the identity
        assert gauss_normalize(dict(g1), nq) == (1, 0, g1)
        # product of canonical forms = canonical form of merged input
        merged = dict(d1)
        for a, e in d2.items():
            merged[a] = merged.get(a, 0) + e
        joined = dict(g1)
        for a, e in g2:
            joined[a] = joined.get(a, 0) + e
        s3, v3, g3 = gauss_normalize(joined, nq)
        sm, vm, gm = gauss_normalize(merged, nq)
        assert (s1 * s2 * s3, v1 + v2 + v3, g3) == (sm, vm, gm)


def test_gauss_normalize_matches_the_rule_oracle():
    rng = random.Random(20261020)
    seen = set()
    for trial in range(3000):
        nq = trial % 8 + 1
        # indices in [-nq, 2 nq]: index 0 and its shifts, both members of
        # a mirror pair, negative and half exponents
        exps = {rng.randrange(-nq, 2 * nq + 1): rng.randrange(-7, 8)
                for _ in range(rng.randrange(0, 6))}
        try:
            want = gauss_normalize_by_rules(exps, nq)
        except ValueError:
            with pytest.raises(ValueError, match="half exponent on gauss index 0"):
                gauss_normalize(exps, nq)
            seen.add("odd index 0")
            continue
        assert gauss_normalize(exps, nq) == want, (exps, nq)
        residues = {a % nq for a, e in exps.items() if e}
        seen.update(tag for tag, hit in (
            ("index 0", 0 in residues),
            ("negative", any(e < 0 for e in exps.values())),
            ("half", any(e % 2 for e in exps.values())),
            ("mirror pair", any(0 < 2 * a < nq and nq - a in residues for a in residues)),
            ("self-paired", nq % 2 == 0 and nq // 2 in residues)) if hit)
    assert seen == {"odd index 0", "index 0", "negative", "half", "mirror pair",
                    "self-paired"}
    with pytest.raises(ValueError):
        gauss_normalize({1: 2}, None)


# -- ring axioms on random elements ----------------------------------------

def random_scalar(rng, nq, nterms=3):
    s = S.zero(nq)
    for _ in range(rng.randrange(1, nterms + 1)):
        coef = rng.randrange(-5, 6) or 1
        t = S.integer(coef, nq)
        t = t * S.v_pow(Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 4))), nq)
        for i in (1, 2):
            e = rng.randrange(-2, 3)
            if e:
                t = t * S.z_pow(i, e, nq)
        if nq > 1 and rng.random() < 0.7:
            t = t * S.gauss_pow(rng.randrange(1, nq),
                                Fraction(rng.randrange(-3, 4), rng.choice((1, 2))), nq)
        s = s + t
    return s


def _random_sparse(rng, nq, nterms=4):
    """Random ((vq, zex, gex), coef) terms: z indices up to 8, negative
    exponents, quarter v powers and half Gauss powers in canonical form."""
    items = []
    for _ in range(rng.randrange(1, nterms + 1)):
        zex = tuple(sorted((i, rng.choice((-40, -3, -2, -1, 1, 2, 3, 40)))
                           for i in rng.sample(range(1, 9), rng.randrange(0, 5))))
        exps = {}
        if nq > 1:
            for _ in range(rng.randrange(0, 3)):
                a = rng.randrange(1, nq)
                exps[a] = exps.get(a, 0) + rng.randrange(-3, 4)
        sign, vq, gex = gauss_normalize_by_rules(exps, nq)
        items.append(((vq + rng.randrange(-6, 7), zex, gex), sign * rng.choice((-3, -1, 1, 2))))
    return items


def _tuple_key(items, nq):
    terms = {}
    for key, c in items:
        terms[key] = terms.get(key, 0) + c
    return TupleKeyScalar({k: c for k, c in terms.items() if c}, nq, gauss_normalize_by_rules)


def _dump(x):
    return json.dumps(x.to_json(), sort_keys=True)


def test_packed_ring_matches_the_tuple_key_oracle():
    rng = random.Random(20261018)
    for trial in range(300):
        nq = trial % 6 + 1
        a, b = _random_sparse(rng, nq), _random_sparse(rng, nq)
        x, y = Scalar.from_sparse(a, nq), Scalar.from_sparse(b, nq)
        ox, oy = _tuple_key(a, nq), _tuple_key(b, nq)
        assert dict(x.sparse_terms()) == ox.terms
        prod, want = x * y, ox * oy
        # term by term, in the same order
        assert list(prod.sparse_terms()) == list(want.terms.items())
        for got, ref in ((x, ox), (prod, want)):
            assert _dump(got) == _dump(ref)
            assert repr(got) == repr(ref)
            assert [(zex, _dump(sub)) for zex, sub in z_split(got, S)] == \
                [(zex, _dump(sub)) for zex, sub in ref.z_split()]
            perm = dict(zip(range(1, 9), rng.sample(range(1, 9), 8)))
            assert _dump(got.permute_z(perm)) == _dump(ref.permute_z(perm))
            assert Scalar.from_json(ref.to_json()) == got
            assert _dump(Scalar.from_json(json.loads(_dump(got)))) == _dump(ref)


def test_inverse_and_powers_match_the_rule_oracle():
    rng = random.Random(20261021)
    for trial in range(240):
        nq = trial % 8 + 1
        (key, _), = _random_sparse(rng, nq, nterms=1)
        coef = rng.choice((1, -1))
        m, om = Scalar.from_sparse([(key, coef)], nq), _tuple_key([(key, coef)], nq)
        vq, zex, gex = key
        sign, dvq, gex2 = gauss_normalize_by_rules({a: -e for a, e in gex}, nq)
        inverse = {(dvq - vq, tuple((i, -e) for i, e in zex), gex2): sign * coef}
        assert dict(m.inverse().sparse_terms()) == inverse, (key, nq)
        items = _random_sparse(rng, nq, nterms=3)
        x, ox = Scalar.from_sparse(items, nq), _tuple_key(items, nq)
        unit = TupleKeyScalar({(0, (), ()): 1}, nq, gauss_normalize_by_rules)
        oinv = TupleKeyScalar(inverse, nq, gauss_normalize_by_rules)
        ox_k, om_k, oinv_k = unit, unit, unit
        for k in range(4):
            for got, ref in ((x ** k, ox_k), (m ** k, om_k), (m ** -k, oinv_k)):
                assert dict(got.sparse_terms()) == ref.terms, (trial, k)
            ox_k, om_k, oinv_k = ox_k * ox, om_k * om, oinv_k * oinv


def test_z_exponents_outside_the_field_are_refused():
    top = S.Z_LIMIT - 1
    for bad in (S.Z_LIMIT, -S.Z_LIMIT, 1 << 20):
        with pytest.raises(ValueError):
            S.z_pow(2, bad)
        with pytest.raises(ValueError):
            S.z_mono([0, bad])
        with pytest.raises(ValueError):
            Scalar.from_json({"nq": None, "terms": [
                {"coef": 1, "vexp": [0, 1], "zexp": [[2, bad]], "gauss": []}]})
    # a field that a raw key filled with -2^15 has no inverse in range
    with pytest.raises(ValueError):
        Scalar({(0, -S.Z_LIMIT, 0): 1}).inverse()
    x = S.z_pow(1, top) * S.z_pow(2, 5)
    for overflow in (lambda: x * S.z_pow(1, 1), lambda: S.z_pow(1, -top) * S.z_pow(1, -1),
                     lambda: (S.one() - x) * S.z_pow(1, 1), lambda: (x + 1) * (x + 1),
                     lambda: x ** 2, lambda: S.z_pow(1, 2) ** (S.Z_LIMIT // 2)):
        with pytest.raises(ValueError):
            overflow()
    # nothing carried into z2, and the largest exponents still work
    assert list(x.sparse_terms()) == [((0, ((1, top), (2, 5)), ()), 1)]
    assert S.z_pow(1, top - 5) * S.z_pow(1, 5) * S.z_pow(2, 5) == x
    assert list((S.z_pow(1, 1 - top) * S.z_pow(1, -1)).sparse_terms()) == \
        [((0, ((1, -top),), ()), 1)]
    assert list((S.z_pow(1, 2) ** (S.Z_LIMIT // 2 - 1)).sparse_terms()) == \
        [((0, ((1, S.Z_LIMIT - 2),), ()), 1)]
    # near the limit the z parts are summed pair by pair, so a bound
    # carried through cancelling products refuses nothing
    flat = S.z_pow(1, 10000) * S.z_pow(1, -10000)
    assert flat == S.one() and flat.z_bound() == 20000
    assert flat * S.z_pow(1, 20000) == S.z_pow(1, 20000)
    assert S.z_pow(1, 20000) * S.z_pow(1, -20000) == S.one()


def test_gauss_exponents_outside_the_field_are_refused():
    top = S.Z_LIMIT - 1  # the largest doubled exponent a field holds
    for bad in (S.Z_LIMIT, -S.Z_LIMIT, 1 << 20):
        # g(4) at modulus 5 is stored as v g(1)^-1, so both name g(1)
        for a in (1, 4, 6):
            with pytest.raises(ValueError, match=r"doubled g\(1\) exponent"):
                S.gauss_pow(a, Fraction(bad, 2), 5)
        with pytest.raises(ValueError, match=r"doubled g\(2\) exponent"):
            Scalar.from_sparse([((0, (), ((2, bad),)), 1)], 5)
        with pytest.raises(ValueError, match=r"doubled g\(1\) exponent"):
            Scalar.from_json({"nq": 5, "terms": [
                {"coef": 1, "vexp": [0, 1], "zexp": [], "gauss": [[1, bad, 2]]}]})
    g = S.gauss_pow(1, Fraction(top, 2), 5)
    for overflow in (lambda: g * S.gauss(1, 5), lambda: g * S.gauss(4, 5).inverse(),
                     lambda: (g + 1) * (g + 1), lambda: g ** 2):
        with pytest.raises(ValueError, match=r"doubled g\(1\) exponent"):
            overflow()
    with pytest.raises(ValueError, match=r"^z1 exponent"):
        S.z_pow(1, top) * S.z_pow(1, 1)
    # g(0) and the self-paired symbol are rewritten, never stored
    assert S.gauss_pow(0, 1 << 20, 5) == S.v_pow(1 << 20, 5)
    assert S.gauss_pow(2, 1 << 20, 4) == S.v_pow(1 << 19, 4)
    # near the limit the Gauss parts are summed pair by pair too
    assert g * S.gauss(4, 5) == S.v_pow(1, 5) * S.gauss_pow(1, Fraction(top - 2, 2), 5)
    assert list((g * S.gauss_pow(1, -Fraction(top, 2), 5)).sparse_terms()) == \
        [((0, (), ()), 1)]
    # a Gauss index is an int, whatever the modulus reduces it to
    for bad in (1.5, "1", True):
        with pytest.raises(ValueError, match="gauss index must be an int"):
            S.gauss_pow(bad, 1, 5)
        with pytest.raises(ValueError, match="gauss index must be an int"):
            Scalar.from_sparse([((0, (), ((bad, 2),)), 1)], 5)
    # Gauss symbols need a modulus
    with pytest.raises(ValueError, match="need a modulus"):
        Scalar.from_sparse([((0, (), ((1, 2),)), 1)])
    with pytest.raises(ValueError, match="need a modulus"):
        Scalar.from_json({"nq": None, "terms": [
            {"coef": 1, "vexp": [0, 1], "zexp": [], "gauss": [[1, 1, 1]]}]})
    assert Scalar.from_sparse([((4, ((1, 2),), ()), 3)]) == 3 * S.v_pow(1) * S.z_pow(1, 2)


def test_ring_axioms():
    rng = random.Random(99)
    for _ in range(60):
        nq = rng.randrange(1, 5)
        x = random_scalar(rng, nq)
        y = random_scalar(rng, nq)
        z = random_scalar(rng, nq)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + S.zero(nq) == x
        assert x * S.one(nq) == x
        assert (x - x).is_zero()


def test_eval_is_a_homomorphism():
    rng = random.Random(3)
    for trial in range(40):
        nq = rng.randrange(1, 5)
        x = random_scalar(rng, nq)
        y = random_scalar(rng, nq)
        asg = make_assignment(nq, [1, 2], seed=trial)
        p = asg.p
        try:
            ex, ey = eval_scalar_mod(x, asg), eval_scalar_mod(y, asg)
        except ValueError:
            # a half power of the self-paired symbol has no sample value
            assert nq % 2 == 0
            continue
        assert eval_scalar_mod(x * y, asg) == ex * ey % p
        assert eval_scalar_mod(x + y, asg) == (ex + ey) % p


def test_monomial_inverse():
    rng = random.Random(5)
    for _ in range(50):
        nq = rng.randrange(2, 6)
        m = S.v_pow(Fraction(rng.randrange(-3, 4), 4), nq) \
            * S.z_pow(1, rng.randrange(-3, 4), nq) \
            * S.gauss_pow(rng.randrange(1, nq), Fraction(rng.randrange(-2, 3), 2), nq)
        m = m * S.integer(rng.choice((1, -1)), nq)
        assert m * m.inverse() == S.one(nq)
        assert m ** -2 == (m.inverse()) ** 2
    with pytest.raises(ValueError):
        (S.one(3) + S.v_pow(1, 3)).inverse()
    with pytest.raises(ValueError):
        S.integer(2, 3).inverse()


def test_pow_matches_repeated_product():
    rng = random.Random(11)
    x = random_scalar(rng, 3)
    acc = S.one(3)
    for k in range(5):
        assert x ** k == acc
        acc = acc * x


# -- fractions --------------------------------------------------------------

def test_frac_eq_cross_multiplies():
    v = S.v_pow(1, None)
    num = S.one() - v * v
    den = S.one() - v
    assert frac_eq(Frac(num, den), Frac(S.one() + v))
    assert not frac_eq(Frac(num, den), Frac(S.one() - v))


def test_frac_arithmetic_against_modular_points():
    rng = random.Random(13)
    for trial in range(30):
        nq = rng.randrange(1, 4)
        a = Frac(random_scalar(rng, nq), random_scalar(rng, nq) + S.integer(7, nq))
        b = Frac(random_scalar(rng, nq), random_scalar(rng, nq) + S.integer(5, nq))
        asg = make_assignment(nq, [1, 2], seed=1000 + trial)
        p = asg.p
        try:
            ea, eb = eval_frac_mod(a, asg), eval_frac_mod(b, asg)
            assert eval_frac_mod(a + b, asg) == (ea + eb) % p
            assert eval_frac_mod(a * b, asg) == ea * eb % p
            assert eval_frac_mod(a - b, asg) == (ea - eb) % p
            if not b.is_zero():
                assert eval_frac_mod(a / b, asg) == ea * pow(eb, p - 2, p) % p
        except (ValueError, ZeroDivisionError):
            continue


def test_frac_same_denominator_fast_path():
    v = S.v_pow(1, None)
    d = S.one() - v
    x = Frac(S.one(), d) + Frac(v, d)
    assert x.den == d
    assert frac_eq(x, Frac(S.one() + v, d))


def test_frac_times_scalar_keeps_the_denominator():
    nq = 3
    x = Frac(S.gauss(1, nq), S.one(nq) - S.v_pow(1, nq))
    y = S.z_pow(1, 2, nq) + S.gauss(2, nq)
    for other in (y, 5, S.v_pow(1)):
        prod = x * other
        assert prod.den is x.den
        full = Frac(x.num * Frac.lift(other).num, x.den * Frac.lift(other).den)
        assert prod.num == full.num and prod.den == full.den
    assert (y * x).den is x.den
    # a denominator with no modulus takes the Scalar's, as den * 1 did
    plain = Frac(S.one(), S.one() - S.v_pow(1))
    assert (plain * y).den.nq == nq
    with pytest.raises(ValueError):
        Frac(S.one(2), S.one(2) - S.v_pow(1, 2)) * y


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Frac(S.one(), S.zero())


# -- structure helpers -------------------------------------------------------

def test_permute_z_round_trip():
    x = S.z_pow(1, 2) * S.z_pow(2, -1) + S.z_pow(3, 1) * S.v_pow(1)
    swapped = x.permute_z({1: 2, 2: 1})
    assert swapped == S.z_pow(2, 2) * S.z_pow(1, -1) + S.z_pow(3, 1) * S.v_pow(1)
    assert swapped.permute_z({1: 2, 2: 1}) == x


def test_permute_z_refuses_a_map_that_is_not_a_permutation():
    # a merging map could raise an exponent above the bound the result keeps
    x = S.z_pow(1, 2) * S.z_pow(2, -1)
    assert x.zb is not None and x.permute_z({1: 2, 2: 1}).zb == x.zb
    for perm in ({1: 2}, {1: 3}, {1: 2, 2: 2}):
        with pytest.raises(ValueError, match="not a permutation"):
            x.permute_z(perm)


def test_integrality_assertions():
    S.v_pow(1, 3).assert_integral()
    (S.gauss(1, 3) * S.z_pow(1, -2, 3)).assert_integral()
    with pytest.raises(AssertionError):
        S.v_pow(Fraction(1, 4)).assert_integral()
    with pytest.raises(AssertionError):
        S.gauss_pow(1, Fraction(1, 2), 3).assert_integral()


def test_json_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        x = random_scalar(rng, 4)
        assert Scalar.from_json(x.to_json()) == x
        f = Frac(x, random_scalar(rng, 4) + S.integer(3, 4))
        g = Frac.from_json(f.to_json())
        assert g.num == f.num and g.den == f.den


def test_z_split_groups_by_monomial():
    x = S.z_pow(1, 2) * (S.one() + S.v_pow(1)) + S.z_pow(2, 1)
    groups = dict(z_split(x, S))
    assert set(groups) == {((1, 2),), ((2, 1),)}
    assert groups[((1, 2),)] == S.one() + S.v_pow(1)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        S.gauss(1, 2) * S.gauss(1, 3)


def _residue(x, asg):
    """x at a point, term by term with no memo; Gauss parts by the raw oracle."""
    p = asg.p
    total = 0
    for (vq, zex, gex), c in x.sparse_terms():
        val = c * pow(asg.u, vq % (p - 1), p) * eval_gauss_raw(dict(gex), asg)
        for i, e in zex:
            val *= pow(asg.z[i], e % (p - 1), p)
        total += val
    return total % p


def test_a_reused_point_gives_the_residues_of_a_fresh_one():
    rng = random.Random(17)
    for nq in (1, 2, 3, 4):
        shared = make_assignment(nq, [1, 2], seed=nq)
        # monomials that differ only in their Gauss part come first
        values = [S.gauss(a, nq) * S.z_pow(1, 1, nq) for a in range(1, nq)]
        values += [random_scalar(rng, nq) for _ in range(40)]
        for x in values:
            y = Frac(x, random_scalar(rng, nq) + S.integer(3, nq))
            fresh = make_assignment(nq, [1, 2], seed=nq)
            try:
                want = eval_scalar_mod(x, fresh), eval_frac_mod(y, fresh)
            except (ValueError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    eval_scalar_mod(x, shared), eval_frac_mod(y, shared)
                continue
            assert want[0] == _residue(x, fresh)
            assert want[1] == _residue(y.num, fresh) * pow(
                _residue(y.den, fresh), fresh.p - 2, fresh.p) % fresh.p
            assert (eval_scalar_mod(x, shared), eval_frac_mod(y, shared)) == want
        assert shared.monomials and shared.inverses


def test_vanished_denominator_raises_after_the_memo_fills():
    nq = 3
    asg = make_assignment(nq, [1, 2], seed=5)
    rng = random.Random(8)
    for _ in range(20):
        eval_frac_mod(Frac(random_scalar(rng, nq), S.z_pow(1, 1, nq) + S.integer(2, nq)), asg)
    assert asg.monomials and asg.inverses
    # z1 - (its value) vanishes at this point
    dead = Frac(S.one(nq), S.z_pow(1, 1, nq) - S.integer(asg.z[1], nq))
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            eval_frac_mod(dead, asg)
        assert 0 not in asg.inverses
    with pytest.raises(ZeroDivisionError):
        asg.inverse(0)
    assert 0 not in asg.inverses


def test_point_memo_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(S.ModAssignment, "MEMO_MAX", 4)
    rng = random.Random(21)
    asg = make_assignment(2, [1, 2], seed=9)
    for _ in range(30):
        x = random_scalar(rng, 2, nterms=5)
        y = Frac(S.one(2), x + S.integer(1, 2))
        fresh = make_assignment(2, [1, 2], seed=9)
        try:
            want = eval_scalar_mod(x, fresh), eval_frac_mod(y, fresh)
        except ValueError:
            continue
        assert (eval_scalar_mod(x, asg), eval_frac_mod(y, asg)) == want
    assert len(asg.monomials) == len(asg.inverses) == 4


def test_half_power_of_self_paired_symbol_has_no_value():
    x = S.gauss_pow(1, Fraction(1, 2), 2)
    asg = make_assignment(2, [], seed=0)
    with pytest.raises(ValueError):
        eval_scalar_mod(x, asg)


# -- primality of the modular prime --------------------------------------------

def test_is_prime_agrees_with_trial_division():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 3000) if S.is_prime(n)] == \
        [n for n in range(-3, 3000) if by_division(n)]


def test_is_prime_on_large_and_adversarial_inputs():
    assert S.is_prime(S.DEFAULT_PRIME)
    assert not S.is_prime(1 << 62)
    # Carmichael numbers and strong pseudoprimes to the first 12 bases
    assert not S.is_prime(561) and not S.is_prime(3215031751)
    assert not S.is_prime(399165290221 * 798330580441)
    assert not S.is_prime(S.DEFAULT_PRIME * ((1 << 17) - 1))
    with pytest.raises(ValueError):
        S.is_prime(S.PRIME_TEST_BOUND)
