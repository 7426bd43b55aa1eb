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

def _is_scalar(name):
    return name.split(".")[-1] == "scalar"


def test_only_the_scalar_module_reads_raw_keys():
    # a monomial key's layout is scalar.py's to change: every other module
    # goes through sparse_terms and from_sparse, and reads none of the
    # scalar module's private names (_scalar, _pack_z, _gauss_pack, ...)
    readers = set()
    for path in Path(S.__file__).parent.glob("*.py"):
        if path.name == "scalar.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
        aliases = {a.asname or a.name for node in imports for a in node.names
                   if _is_scalar(a.name)}
        for node in nodes:
            if isinstance(node, ast.Attribute):
                owner = node.value
                private = node.attr.startswith("_") and (
                    isinstance(owner, ast.Name) and owner.id in aliases
                    or isinstance(owner, ast.Attribute) and _is_scalar(owner.attr))
                if node.attr == "terms" or private:
                    readers.add((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and _is_scalar(node.module or ""):
                readers.update((path.name, node.lineno, a.name) for a in node.names
                               if a.name.startswith("_"))
    assert not readers, sorted(readers)


def test_no_module_decodes_terms_to_encode_them_again():
    # a function outside scalar.py that calls both sparse_terms and
    # from_sparse decodes terms only to pack them again; Scalar.split
    # moves packed terms instead
    round_trips = []
    for path in sorted(Path(S.__file__).parent.glob("*.py")):
        if path.name == "scalar.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lines = {}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    lines.setdefault(name, node.lineno)
            if "sparse_terms" in lines and "from_sparse" in lines:
                round_trips.append((path.name, fn.name, lines["sparse_terms"],
                                    lines["from_sparse"]))
    assert not round_trips, round_trips


def test_no_module_sums_from_a_zero_start():
    # the builtin sum over Scalars from an S.zero(...) start copies the
    # partial sum at every step; Scalar.sum merges each operand once
    copying = []
    for path in sorted(Path(S.__file__).parent.glob("*.py")):
        if path.name == "scalar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                continue
            starts = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
            if any(isinstance(x, ast.Call) and getattr(x.func, "attr", None) == "zero"
                   for x in starts):
                copying.append((path.name, node.lineno))
    assert not copying, copying


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
    # a missing modulus or a non-int index is refused on every branch,
    # with the encoder's messages
    for b in (-7, -2, -1, 0, 5):
        with pytest.raises(ValueError, match="gauss symbols need a modulus"):
            gauss_eval(1, b, None)
        for bad in (1.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="gauss index must be an int"):
                gauss_eval(bad, b, 3)
    with pytest.raises(ValueError, match="gauss index must be an int"):
        S.gauss_pow(1.5, 1, 3)
    # so is a non-int b, which the branches would read as -1 (for -1.5
    # and -1.0) or 0 (for 0.5)
    for bad in (-1.5, -1.0, 0.5, True, False, "0", None):
        for a in (0, 1, 3):
            with pytest.raises(ValueError, match="gauss_eval b must be an int"):
                gauss_eval(a, bad, 3)


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
    # no raw key can fill a field with -2^15: keys enter only through the
    # validating constructors and products
    with pytest.raises(TypeError):
        Scalar({(0, -S.Z_LIMIT, 0): 1})
    with pytest.raises(TypeError):
        Scalar({(0, -S.Z_LIMIT, 0): 1}, None)
    with pytest.raises(TypeError):
        Scalar()
    # an exponent of 0 is no excuse for a bad index
    with pytest.raises(ValueError, match="z index"):
        S.z_pow(0, 0)
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
    assert flat == S.one() and flat.zb == 20000
    assert flat * S.z_pow(1, 20000) == S.z_pow(1, 20000)
    assert S.z_pow(1, 20000) * S.z_pow(1, -20000) == S.one()


def _exact_bound(x):
    """max |exponent| over the z and packed Gauss exponents of x, read off
    its sparse terms; the self-paired symbol is not a packed field."""
    return max((abs(e) for (_, zex, gex), _ in x.sparse_terms()
                for a, e in zex + tuple(p for p in gex if 2 * p[0] != x.nq)), default=0)


def test_inverse_keeps_every_exponent_in_its_field():
    # inverse checks no range: a monomial built by the validating
    # constructors or by products has every packed exponent in
    # (-2^15, 2^15), and so has its inverse; a product that would push one
    # of those exponents out still raises, naming its symbol
    rng = random.Random(20261020)
    top = S.Z_LIMIT - 1
    for trial in range(400):
        nq = trial % 8 + 1
        zex = [(i, rng.randrange(-top, S.Z_LIMIT))
               for i in rng.sample(range(1, 9), rng.randrange(0, 4))]
        fields = [a for a in range(1, nq) if 2 * a <= nq]
        # a field is named by its index, its mirror or an index past nq
        gex = [(rng.choice((a, nq - a, a + nq)), rng.randrange(-top, S.Z_LIMIT))
               for a in rng.sample(fields, rng.randrange(0, len(fields) + 1))]
        if rng.random() < 0.5:
            gex.append((0, 2 * rng.randrange(-3, 4)))
        vq, coef = rng.randrange(-40, 41), rng.choice((1, -1))
        built = Scalar.from_sparse([((vq, zex, tuple(gex)), coef)], nq)
        x = S.integer(coef, nq) * S.v_pow(Fraction(vq, 4), nq)
        for i, e in zex:
            x = x * S.z_pow(i, e, nq)
        for a, e2 in gex:
            x = x * S.gauss_pow(a, Fraction(e2, 2), nq)
        assert x == built, (nq, zex, gex)
        for m in (x, built):
            inv = m.inverse()
            assert inv.zb == m.zb >= _exact_bound(inv) == _exact_bound(m)
            assert m * inv == S.one(nq)
        (_, izex, igex), _ = next(inv.sparse_terms())
        symbols = [("z", i, e) for i, e in izex]
        symbols += [("g", a, e2) for a, e2 in igex if 2 * a != nq]
        if not symbols:
            continue
        kind, i, e = rng.choice(symbols)
        # the factor fills the exponent up to the last value its field holds
        if kind == "z":
            grow = lambda d: S.z_pow(i, d if e > 0 else -d, nq)
            name = r"^z%d exponent" % i
        else:
            grow = lambda d: S.gauss_pow(i, Fraction(d, 2), nq)
            name = r"^doubled g\(%d\) exponent" % min(i, nq - i)
        assert _exact_bound(inv * grow(top - abs(e))) == top
        with pytest.raises(ValueError, match=name):
            inv * grow(S.Z_LIMIT - abs(e))


def test_every_builder_sets_a_sound_bound():
    # zb is set when a Scalar is built, and the product check trusts it:
    # every builder must give an int no smaller than the exact bound
    rng = random.Random(20261024)
    half = S.Z_LIMIT // 2
    near = 0
    for trial in range(320):
        nq = trial % 8 + 1
        a, b = (Scalar.from_sparse(_random_sparse(rng, nq), nq) for _ in range(2))
        (key, _), = _random_sparse(rng, nq, nterms=1)
        m = Scalar.from_sparse([(key, rng.choice((1, -1)))], nq)
        # two variables, so the product of big fields never overflows
        big = [S.z_pow(i, rng.randrange(1 - S.Z_LIMIT, S.Z_LIMIT), nq)
               for i in rng.sample(range(1, 9), 2)]
        gi = rng.randrange(1, nq) if nq > 1 else 0
        perm = dict(zip(range(1, 9), rng.sample(range(1, 9), 8)))
        prod = big[0] * big[1]
        built = [S.integer(rng.randrange(-3, 4), nq), S.one(nq), S.zero(nq),
                 S.v_pow(Fraction(rng.randrange(-9, 10), 4), nq),
                 S.z_pow(rng.randrange(1, 9), rng.randrange(1 - S.Z_LIMIT, S.Z_LIMIT), nq),
                 S.z_mono([rng.randrange(-99, 100) for _ in range(rng.randrange(9))], nq),
                 S.gauss_pow(gi, Fraction(2 * rng.randrange(-half, half), 2), nq),
                 S.gauss(gi, nq), S.gauss_eval(gi, rng.randrange(-2, 2), nq),
                 a, b, m, Scalar.from_json(a.to_json()), a + b, a - b, -a, a * b, a ** 3,
                 m ** -2, m.inverse(), a.permute_z(perm), prod]
        built += (a * b).split(lambda zex: len(zex) % 3).values()
        for x in built:
            assert type(x.zb) is int and x.zb >= _exact_bound(x), (x, x.zb)
        if big[0].zb + big[1].zb >= S.Z_LIMIT:
            # the near-limit branch sums the packed parts: exact
            near += 1
            assert prod.zb == _exact_bound(prod)
    assert near
    # operands whose bounds sum past the limit give the exact bound
    x = S.z_pow(1, 20000) * S.z_pow(2, 20000)
    assert x.zb == 20000 == _exact_bound(x)
    assert (x + S.z_pow(3, -9)).zb == 20000


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
    with pytest.raises(ValueError, match="gauss index must be an int"):
        S.gauss_pow(1.5, 0, 3)
    # Gauss symbols need a modulus, whatever the exponent
    with pytest.raises(ValueError, match="need a modulus"):
        Scalar.from_sparse([((0, (), ((1, 2),)), 1)])
    with pytest.raises(ValueError, match="need a modulus"):
        S.gauss_pow(1, 0, None)
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
    # each piece keeps its Gauss part, so it keeps the parent's bound
    y = S.gauss_pow(1, S.Z_LIMIT // 2 - 1, 3) * (S.one(3) + S.z_pow(1, 1, 3))
    assert [sub.zb for _, sub in z_split(y, S)] == [y.zb] * 2 and y.zb >= S.Z_LIMIT - 2


def test_split_matches_the_filter_oracle():
    # split groups the packed terms by the label of their z part: each
    # piece is the filter of the decoded terms, packed again
    rng = random.Random(20261025)
    for trial in range(200):
        nq = trial % 8 + 1
        x = Scalar.from_sparse(_random_sparse(rng, nq, nterms=8), nq)
        k = rng.randrange(1, 4)
        pure = lambda zex: sum(e for _, e in zex) % k
        asked = []
        pieces = x.split(lambda zex: asked.append(zex) or pure(zex))
        terms = list(x.sparse_terms())
        assert sorted(asked) == sorted({zex for (_, zex, _), _ in terms})
        seen, total = set(), S.zero(nq)
        for label, piece in pieces.items():
            want = Scalar.from_sparse([t for t in terms if pure(t[0][1]) == label], nq)
            assert piece and list(piece.terms.items()) == list(want.terms.items())
            assert piece.zb == x.zb and piece.nq == x.nq
            assert seen.isdisjoint(piece.terms)
            seen.update(piece.terms)
            total = total + piece
        assert total == x
    assert S.zero(3).split(len) == {}


def test_sum_is_chained_addition_in_one_merge():
    # Scalar.sum is the ring's one addition: term by term and in key
    # order it gives chained + and the tuple-key ring's merge, joins the
    # moduli (None joins any) and keeps the largest bound
    rng = random.Random(20261026)
    seen = set()
    for trial in range(400):
        nq = trial % 6 + 1
        parts = []
        for _ in range(rng.randrange(0, 6)):
            free = rng.random() < 0.3
            parts.append((_random_sparse(rng, 1 if free else nq), None if free else nq))
        if parts and rng.random() < 0.3:
            # an operand that cancels the first
            parts.append(([(key, -c) for key, c in parts[0][0]], parts[0][1]))
        start = rng.choice((None, nq))
        xs = [Scalar.from_sparse(items, m) for items, m in parts]
        total = Scalar.sum(iter(xs), start)
        want_nq = nq if start or any(m for _, m in parts) else None
        assert total.nq == want_nq and total.zb == max((x.zb for x in xs), default=0)
        oracle = TupleKeyScalar({}, start, gauss_normalize_by_rules)
        for items, m in parts:
            oracle = oracle + _tuple_key(items, m)
        assert list(total.sparse_terms()) == list(oracle.terms.items())
        if xs:
            chain = xs[0]
            for x in xs[1:]:
                chain = chain + x
            assert list(total.terms.items()) == list(chain.terms.items())
        seen.add((len(xs), total.is_zero()))
    assert {(0, True), (1, False), (2, True), (5, False)} <= seen
    x = S.z_pow(1, 3, 2) * S.gauss(1, 2) - S.v_pow(1, 2)
    assert Scalar.sum([]).is_zero() and Scalar.sum([]).nq is None
    assert Scalar.sum((), 3).nq == 3 and Scalar.sum((), 3).zb == 0
    # one operand shares its terms, no copy
    assert Scalar.sum([x]).terms is x.terms and Scalar.sum([x], 2).nq == 2
    assert Scalar.sum([S.v_pow(1)], 5).nq == 5
    assert Scalar.sum([x, -x, x, -x]).is_zero() and Scalar.sum([x, -x]).zb == x.zb
    wide = S.z_pow(1, S.Z_LIMIT - 1)
    assert Scalar.sum([S.one(), wide, S.one()]).zb == S.Z_LIMIT - 1
    with pytest.raises(ValueError) as plus:
        S.gauss(1, 2) + S.gauss(1, 3)
    for operands, start in (([S.gauss(1, 2), S.one(), S.gauss(1, 3)], None),
                            ([S.one(), S.gauss(1, 3)], 2), ([S.gauss(1, 3)], 2)):
        with pytest.raises(ValueError) as summed:
            Scalar.sum(operands, start)
        assert str(summed.value) == str(plus.value) == "gauss modulus mismatch: 2 vs 3"


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
