"""Exact ground-ring arithmetic shared by every other module.

Elements live in the Laurent ring generated by a deformation parameter v
(quarter powers permitted), spectral variables z_1, z_2, ... and formal
Gauss symbols g(a) (half powers permitted) at a fixed modulus, subject to
the rewrite rules

    g(0) = -v,        g(a) * g(modulus - a) = v    for a not cong 0.

A monomial is keyed by three ints (vq, z, g): vq is 4x the v exponent, z
the z exponents packed into one int, a signed 16-bit field per variable:
z = sum(e_i << 16*(i-1)), the empty monomial being 0.  g holds one symbol
per mirror pair: g(0) = -v and g(modulus - a) = v g(a)^-1 go into the
sign and vq on the way in, g >> 3 packs the signed doubled exponent of
g(a) for each 0 < a < modulus - a at index a, like z, and the low 3 bits
hold the doubled exponent in [0, 4) of the self-paired g(modulus/2).  So
a product adds the three ints, carrying 4 from the low bits of g into vq
as g(modulus/2)^2 = v.  Every packed field, z or Gauss, keeps |e| <
Z_LIMIT = 2^15: constructors refuse an exponent outside it, and a product
(so also a power) raises ValueError naming the variable or symbol when
the exponent of a term pair would leave it, so no field ever carries into
the next.  Each Scalar carries zb, an int bound on its packed exponents
that Scalar.from_sparse, the one encoder, sets as it checks each field,
so a product checks its operands' bounds and sums packed parts pair by
pair only near the limit.  Only this module reads keys: sparse_terms()
decodes them (z into sorted (index, exponent) pairs, the Gauss part into
gauss_normalize's canonical form), from_sparse() packs them and split()
groups them by z part.
"""

from fractions import Fraction
from math import gcd
import random

# default prime for modular identity testing, 2^61 - 1 (Mersenne, = 3 mod 4)
DEFAULT_PRIME = (1 << 61) - 1


def _scaled(e, k, what):
    """k * e as an int, for an int e or an e that Fraction takes with k * e
    integral; ValueError naming the exponent (what) otherwise."""
    if type(e) is int:
        return k * e
    scaled = Fraction(e) * k
    if scaled.denominator != 1:
        raise ValueError("%s exponent must be a multiple of 1/%d: %r" % (what, k, e))
    return int(scaled)


Z_LIMIT = 1 << 15  # every packed exponent has |e| < Z_LIMIT
_Z_MASK = (1 << 16) - 1


def _pack_z(pairs, symbol="z%d"):
    """(packed form, largest |exponent|) of (index, exponent) pairs;
    indices are ints >= 1, and an index given twice has its exponents
    summed.  ValueError, naming the variable by symbol % index, when an
    exponent falls outside its field."""
    acc = {}
    for i, e in pairs:
        if type(i) is not int or i < 1:
            raise ValueError("z index must be an int >= 1: %r" % (i,))
        acc[i] = acc.get(i, 0) + e
    z = 0
    for i, e in acc.items():
        if type(e) is not int or abs(e) >= Z_LIMIT:
            raise ValueError("%s exponent %r outside (-2^15, 2^15)" % (symbol % i, e))
        z += e << (16 * (i - 1))
    return z, max(map(abs, acc.values()), default=0)


def _z_pairs(z):
    """The sorted (index, exponent) pairs of a packed part: the one
    decoder of the packed form."""
    pairs = []
    i = 1
    while z:
        e = ((z + Z_LIMIT) & _Z_MASK) - Z_LIMIT
        if e:
            pairs.append((i, e))
        z = (z - e) >> 16
        i += 1
    return tuple(pairs)


_GAUSS = "doubled g(%d)"


def _gauss_pack(pairs, nq):
    """(sign, vq, g, bound) of a product of Gauss symbols given as (index,
    doubled exponent) pairs, packed as the module docstring says, bound as
    _pack_z's: the one encoder of the Gauss part.  An index that is not an
    int, or a half power of g(0), raises ValueError."""
    if nq is None:
        raise ValueError("gauss symbols need a modulus")
    acc = {}
    for a, e2 in pairs:
        if type(a) is not int:
            raise ValueError("gauss index must be an int: %r" % (a,))
        acc[a % nq] = acc.get(a % nq, 0) + e2
    e0 = acc.pop(0, 0)
    if e0 % 2:
        raise ValueError("half exponent on gauss index 0")
    h = 0 if nq % 2 else acc.pop(nq // 2, 0)
    # g(nq - a)^(e/2) = v^(e/2) g(a)^(-e/2)
    high = [(nq - a, -e2) for a, e2 in acc.items() if 2 * a > nq]
    packed = [(a, e2) for a, e2 in acc.items() if 2 * a < nq] + high
    vq = 2 * (e0 - sum(e2 for _, e2 in high)) + h - h % 4
    g, bound = _pack_z(packed, _GAUSS)
    return (-1 if e0 % 4 else 1), vq, (g << 3) + h % 4, bound


def _gauss_parts(vq, g, nq):
    """(vq, gex) of a monomial's v and packed Gauss parts, gex in
    gauss_normalize's canonical form: the one decoder of the Gauss part.
    A negative exponent of g(a) is read as g(nq - a) times a power of v."""
    gex = [(nq // 2, g & 7)] if g & 7 else []
    for a, e2 in _z_pairs(g >> 3):
        gex.append((a, e2) if e2 > 0 else (nq - a, -e2))
        vq += 2 * min(e2, 0)
    return vq, tuple(sorted(gex))


def gauss_normalize(exps, nq):
    """Canonical form of a product of Gauss symbols at the given modulus.

    exps maps integer indices to doubled exponents.  Returns a triple
    (sign, vq, gex): sign in {1,-1}, vq a quarter-scaled v exponent picked
    up from the rewrite rules, gex a sorted tuple of (index, doubled
    exponent) pairs with indices in (0, modulus), at most one index of
    each mirror pair {a, modulus-a} present, surviving exponents positive.

    Rules applied: indices reduce mod the modulus; g(0)^e = (-1)^e v^e
    (integer e only); for a mirror pair with exponents (s, t) the smaller
    moves into the v power and the larger index keeps |s - t|; the
    self-paired index (modulus even, a = modulus/2) reduces its exponent
    mod 2 in integer steps only -- g(modulus/2) is never rewritten to a
    half power of v.  A doubled exponent that the packed form would
    store outside (-2^15, 2^15) raises ValueError.  The package's own
    builders hand raw pairs to from_sparse instead, which encodes once.
    """
    sign, vq, g, _ = _gauss_pack(exps.items(), nq)
    return (sign,) + _gauss_parts(vq, g, nq)


def _scalar(terms, nq, zb):
    """A Scalar owning `terms` (packed keys, nonzero coefficients), no copy."""
    s = Scalar.__new__(Scalar)
    s.terms = terms
    s.nq = nq
    s.zb = zb
    return s


def _join_nq(a, b):
    """The modulus of an operation on moduli a and b, None joining any."""
    if a is not None and b is not None and a != b:
        raise ValueError("gauss modulus mismatch: %r vs %r" % (a, b))
    return b if a is None else a


def _product_bound(x, y):
    """Bound on the packed exponents of x * y: the sum of the operands'
    bounds, or near the field's limit the exact one, from every pair of
    packed parts summed; ValueError when an exponent of a term pair
    would leave its field."""
    zb = x.zb + y.zb
    if zb < Z_LIMIT:
        return zb
    # the distinct (z pairs, Gauss pairs) of each operand's keys
    first, second = ({(_z_pairs(z), _z_pairs(g >> 3)) for _, z, g in s.terms} for s in (x, y))
    return max((max(_pack_z(zex + zex2)[1], _pack_z(gex + gex2, _GAUSS)[1])
                for zex, gex in first for zex2, gex2 in second), default=0)


class Scalar:
    """Sparse exact element of the v / z / Gauss ground ring.

    terms maps packed monomial keys (module docstring) to nonzero integer
    coefficients and is not changed once the Scalar is built.  nq is the
    Gauss modulus, or None for elements that use no Gauss symbols.  zb is
    an int bound on |exponent| over all packed exponents, z and Gauss,
    set by every builder.  Scalar(...) is a TypeError: keys enter through
    from_sparse, the one encoder, which checks every exponent and sets zb
    (from_json and every constructor but integer, one and zero call it),
    and through ring operations on Scalars already built.
    """

    __slots__ = ["terms", "nq", "zb"]

    def __init__(self, *args, **kwargs):
        raise TypeError("Scalar has no public constructor; use from_sparse")

    # -- construction helpers ------------------------------------------

    @staticmethod
    def from_sparse(items, nq=None):
        """The Scalar with terms ((vq, zex, gex), coef), zex being (index,
        exponent) pairs and gex a tuple of (index, doubled exponent)
        pairs of Gauss symbols, which need a modulus nq: the inverse of
        sparse_terms.  Equal monomials are summed."""
        terms, zb = {}, 0
        packed = {(): (1, 0, 0, 0)}  # terms often share a Gauss part
        for (vq, zex, gex), c in items:
            if gex not in packed:
                packed[gex] = _gauss_pack(gex, nq)
            sign, dvq, g, gb = packed[gex]
            z, b = _pack_z(zex)
            zb = max(zb, b, gb)
            key = (vq + dvq, z, g)
            c = terms.get(key, 0) + sign * c
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
        return _scalar(terms, nq, zb)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- ring structure ------------------------------------------------

    @staticmethod
    def sum(xs, nq=None):
        """The sum of the Scalars xs, zero(nq) when there are none: the ring's
        one merge loop, which copies the first operand's terms only when a
        second one arrives.  Moduli join with nq; the bound is the largest."""
        xs = iter(xs)
        first = next(xs, None)
        if first is None:
            return zero(nq)
        nq, zb, terms = _join_nq(nq, first.nq), first.zb, first.terms
        for x in xs:
            if terms is first.terms:
                terms = dict(terms)
            nq, zb = _join_nq(nq, x.nq), max(zb, x.zb)
            for k, c in x.terms.items():
                c += terms.get(k, 0)
                if c:
                    terms[k] = c
                else:
                    del terms[k]
        return _scalar(terms, nq, zb)

    def __add__(self, other):
        if isinstance(other, int):
            other = integer(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _scalar({k: -c for k, c in self.terms.items()}, self.nq, self.zb)

    def __sub__(self, other):
        if isinstance(other, int):
            other = integer(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = integer(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        nq = _join_nq(self.nq, other.nq)
        zb = _product_bound(self, other)
        out = {}
        get = out.get
        items = other.terms.items()
        for (vq1, z1, g1), c1 in self.terms.items():
            for (vq2, z2, g2), c2 in items:
                g = g1 + g2
                # a self-paired field that reaches 4 carries: g(nq/2)^2 = v
                key = (vq1 + vq2 + 4, z1 + z2, g - 4) if g & 4 else (vq1 + vq2, z1 + z2, g)
                c = get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return _scalar(out, nq, zb)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = one(self.nq)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self):
        """Inverse of a monomial unit (single term, coefficient +-1)."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible here")
        (vq, z, g), c = next(iter(self.terms.items()))
        if c not in (1, -1):
            raise ValueError("unit coefficient must be +-1, got %r" % (c,))
        # g(nq/2)^(-h/2) = v^-1 g(nq/2)^((4 - h)/2) keeps the field in [0, 4)
        key = (-vq - 4, -z, 4 - g) if g & 7 else (-vq, -z, -g)
        return _scalar({key: c}, self.nq, self.zb)

    def __eq__(self, other):
        if isinstance(other, int):
            other = integer(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # -- structure inspection ------------------------------------------

    def sparse_terms(self):
        """Yield ((vq, zex, gex), coef) per term, zex being the sorted
        (index, exponent) pairs of its z part and gex its canonical Gauss
        part (gauss_normalize)."""
        zs, gs = {}, {0: (0, ())}  # terms often share a z part and a Gauss part
        for (vq, z, g), c in self.terms.items():
            if z not in zs:
                zs[z] = _z_pairs(z)
            if g not in gs:
                gs[g] = _gauss_parts(0, g, self.nq)
            dvq, gex = gs[g]
            yield (vq + dvq, zs[z], gex), c

    def split(self, label):
        """{label(z pairs): piece}, label called once per distinct z part
        with its sorted (index, exponent) pairs; the pieces share no term,
        sum to self and keep its keys and bound."""
        labels, pieces = {}, {}
        for key, c in self.terms.items():
            z = key[1]
            if z not in labels:
                labels[z] = label(_z_pairs(z))
            pieces.setdefault(labels[z], {})[key] = c
        return {k: _scalar(terms, self.nq, self.zb) for k, terms in pieces.items()}

    def permute_z(self, perm):
        """Relabel z variables; perm maps old index -> new index and must
        permute its own keys, so no two terms merge and every bound on
        the exponents still holds.  Each distinct z part is repacked once."""
        if set(perm) != set(perm.values()):
            raise ValueError("z relabelling %r is not a permutation" % (perm,))
        moved = {z: _pack_z((perm.get(i, i), e) for i, e in _z_pairs(z))[0]
                 for z in {key[1] for key in self.terms}}
        return _scalar({(vq, moved[z], g): c for (vq, z, g), c in self.terms.items()},
                       self.nq, self.zb)

    def assert_integral(self):
        """Raise unless all v powers are integers and g powers integral."""
        for (vq, _z, gex), _ in self.sparse_terms():
            if vq % 4:
                raise AssertionError("quarter v power leaked: vq=%d" % vq)
            for a, e2 in gex:
                if e2 % 2:
                    raise AssertionError("half gauss power leaked: g(%d)^%d/2" % (a, e2))
        return self

    def degree_hint(self):
        """Crude total-degree bound; tests check rvertex._sz_log2_bound by it."""
        d = 0
        for (vq, zex, gex), _ in self.sparse_terms():
            t = abs(vq) + sum(abs(e) for _, e in zex) + sum(abs(e) for _, e in gex)
            d = max(d, t)
        return d

    # -- display / serialization ---------------------------------------

    def _term_str(self, key, coef):
        vq, zex, gex = key
        parts = []
        if coef == -1:
            lead = "-"
        elif coef == 1:
            lead = ""
        else:
            lead = str(coef) + "*"
        if vq:
            e = Fraction(vq, 4)
            parts.append("v" if e == 1 else "v^(%s)" % e)
        for i, e in zex:
            parts.append("z%d" % i if e == 1 else "z%d^%s" % (i, e))
        for a, e2 in gex:
            e = Fraction(e2, 2)
            parts.append("g(%d)" % a if e == 1 else "g(%d)^(%s)" % (a, e))
        if not parts:
            return str(coef)
        return lead + "*".join(parts)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [self._term_str(k, c) for k, c in sorted(self.sparse_terms())]
        s = bits[0]
        for b in bits[1:]:
            s += " - " + b[1:] if b.startswith("-") else " + " + b
        return s

    def to_json(self):
        # vexp and each gauss exponent in lowest terms, as Fraction gives them
        terms = []
        for (vq, zex, gex), c in sorted(self.sparse_terms()):
            d = gcd(vq, 4)
            terms.append({
                "coef": c,
                "vexp": [vq // d, 4 // d],
                "zexp": [[i, e] for i, e in zex],
                "gauss": [[a, e2, 2] if e2 % 2 else [a, e2 // 2, 1] for a, e2 in gex],
            })
        return {"nq": self.nq, "terms": terms}

    @staticmethod
    def from_json(obj):
        items = []
        for t in obj["terms"]:
            vn, vd = t["vexp"]
            items.append(((_scaled(Fraction(vn, vd), 4, "v"),
                           [(int(i), int(e)) for i, e in t["zexp"]],
                           tuple(sorted((int(a), _scaled(Fraction(n, d), 2, "gauss"))
                                        for a, n, d in t["gauss"]))),
                          t["coef"]))
        return Scalar.from_sparse(items, obj.get("nq"))


# -- convenience constructors -------------------------------------------

def integer(n, nq=None):
    return _scalar({(0, 0, 0): n} if n else {}, nq, 0)


def one(nq=None):
    return integer(1, nq)


def zero(nq=None):
    return _scalar({}, nq, 0)


def v_pow(e, nq=None):
    return Scalar.from_sparse((((_scaled(e, 4, "v"), (), ()), 1),), nq)


def z_pow(i, e, nq=None):
    return Scalar.from_sparse((((0, ((i, e),), ()), 1),), nq)


def z_mono(vec, nq=None):
    """z^vec for an integer vector; vec[k] is the exponent of z_{k+1}."""
    return Scalar.from_sparse((((0, enumerate(vec, 1), ()), 1),), nq)


def gauss_pow(a, e, nq):
    return Scalar.from_sparse((((0, (), ((a, _scaled(e, 2, "gauss")),)), 1),), nq)


def gauss(a, nq):
    return gauss_pow(a, 1, nq)


def gauss_eval(a, b, nq):
    """Two-argument Gauss symbol as a ring element.

    b <= -2 gives 0; b >= 0 gives (1 - v) when a is divisible by the
    modulus and 0 otherwise; b == -1 gives the formal one-argument symbol
    (with g(0) rewritten to -v).  A missing modulus, or an index a or a
    b that is not an int (bool refused), raises ValueError.
    """
    if nq is None:
        raise ValueError("gauss symbols need a modulus")
    if type(a) is not int:
        raise ValueError("gauss index must be an int: %r" % (a,))
    if type(b) is not int:
        raise ValueError("gauss_eval b must be an int: %r" % (b,))
    if b <= -2:
        return zero(nq)
    if b >= 0:
        if a % nq == 0:
            return one(nq) - v_pow(1, nq)
        return zero(nq)
    return gauss(a, nq)


# -- fractions -----------------------------------------------------------

class Frac:
    """Quotient of two Scalars; no cancellation is attempted.

    Equality (frac_eq) compares numerators over a shared denominator and
    cross-multiplies otherwise, so representatives never need a common
    form.  Addition keeps the denominator when both sides share
    it, which the vertex-weight tables are arranged to exploit.
    """

    __slots__ = ["num", "den"]

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = integer(num)
        if den is None:
            den = one(num.nq)
        elif isinstance(den, int):
            den = integer(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def lift(x):
        if isinstance(x, Frac):
            return x
        return Frac(x)

    def __add__(self, other):
        other = Frac.lift(other)
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-Frac.lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int) or (isinstance(other, Scalar)
                                      and other.nq in (None, self.den.nq)):
            # other's denominator is one: keep ours
            return Frac(self.num * other, self.den)
        other = Frac.lift(other)
        return Frac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Frac.lift(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero Frac")
        return Frac(self.num * other.den, self.den * other.num)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = Frac.lift(other)
        return frac_eq(self, other)

    __hash__ = None

    def permute_z(self, perm):
        return Frac(self.num.permute_z(perm), self.den.permute_z(perm))

    def degree_hint(self):
        return self.num.degree_hint() + self.den.degree_hint()

    def assert_integral(self):
        self.num.assert_integral()
        self.den.assert_integral()
        return self

    def __repr__(self):
        if self.den == one(self.den.nq):
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(obj):
        return Frac(Scalar.from_json(obj["num"]), Scalar.from_json(obj["den"]))


def frac_eq(x, y):
    """Exact equality of two fractions: of the numerators when the
    denominators are equal, else by cross multiplication.  Both tests
    agree unless the shared denominator is a zero divisor, and every
    denominator the package builds is a product of units and factors
    1 - v * (monomial), which are not."""
    x = Frac.lift(x)
    y = Frac.lift(y)
    if x.den == y.den:
        return x.num == y.num
    return x.num * y.den == y.num * x.den


# -- modular identity testing --------------------------------------------

# The smallest strong pseudoprime to the first 13 prime bases (OEIS
# A014233); below it those bases decide primality exactly.  The first 12
# bases alone are fooled by 318665857834031151167461.
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin test, exact for n < PRIME_TEST_BOUND;
    larger n raise ValueError."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError("primality of %d is not decided exactly" % n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModAssignment:
    """A random point for modular identity checks.

    Encodes v^(1/4) as a unit u, each z variable as a unit, and every
    Gauss symbol as a unit consistent with the rewrite rules: for a
    mirror pair a < modulus-a the half symbols satisfy
    g(a)^(1/2) = w and g(modulus-a)^(1/2) = u^2/w so the pair relation
    g(a)g(modulus-a) = u^4 = v holds exactly; g(0) = -u^4; the
    self-paired index (even modulus) gets sign * u^2 whose square is v.
    Half powers of g(0) or of the self-paired symbol have no consistent
    value and raise.

    A point is fixed once made: it remembers the residue of each monomial
    key it has evaluated (monomials) and the inverse of each nonzero
    denominator residue (inverses), at most MEMO_MAX entries each; past
    that, values are computed without being stored.
    """

    __slots__ = ["p", "nq", "u", "z", "ghalf", "gmid", "monomials", "inverses"]

    MEMO_MAX = 1 << 16

    def __init__(self, p, nq, u, z, ghalf, gmid):
        self.p = p
        self.nq = nq
        self.u = u
        self.z = z
        self.ghalf = ghalf
        self.gmid = gmid
        self.monomials = {}
        self.inverses = {}

    def z_value(self, i):
        if i not in self.z:
            raise KeyError("no value assigned for z%d" % i)
        return self.z[i]

    def monomial(self, key):
        """Residue of the monomial with packed key (vq, z, g) and
        coefficient 1."""
        val = self.monomials.get(key)
        if val is not None:
            return val
        p = self.p
        vq, gex = _gauss_parts(key[0], key[2], self.nq)
        val = pow(self.u, vq % (p - 1), p)
        for i, e in _z_pairs(key[1]):
            val = val * pow(self.z_value(i), e % (p - 1), p) % p
        for a, e2 in gex:
            if 2 * a == self.nq:
                if e2 % 2:
                    raise ValueError("half power of the self-paired gauss symbol")
                val = val * pow(self.gmid, (e2 // 2) % (p - 1), p) % p
            else:
                val = val * pow(self.ghalf[a], e2 % (p - 1), p) % p
        if len(self.monomials) < self.MEMO_MAX:
            self.monomials[key] = val
        return val

    def inverse(self, residue):
        """Inverse of a residue; ZeroDivisionError when it is zero."""
        inv = self.inverses.get(residue)
        if inv is not None:
            return inv
        if residue == 0:
            raise ZeroDivisionError("denominator vanished at the sample point")
        inv = pow(residue, self.p - 2, self.p)
        if len(self.inverses) < self.MEMO_MAX:
            self.inverses[residue] = inv
        return inv


def make_assignment(nq, z_indices, seed, p=DEFAULT_PRIME):
    rng = random.Random(seed)
    unit = lambda: rng.randrange(1, p)
    u = unit()
    z = {i: unit() for i in z_indices}
    ghalf = {}
    gmid = None
    if nq:
        u2 = pow(u, 2, p)
        for a in range(1, nq):
            b = nq - a
            if a < b:
                w = unit()
                ghalf[a] = w
                ghalf[b] = (u2 * pow(w, p - 2, p)) % p
            elif a == b:
                sigma = rng.choice((1, -1))
                gmid = (sigma * u2) % p
    return ModAssignment(p, nq, u, z, ghalf, gmid)


def eval_scalar_mod(x, asg):
    """Evaluate a Scalar at a modular assignment point."""
    if x.nq is not None and asg.nq is not None and x.nq != asg.nq:
        raise ValueError("assignment modulus mismatch")
    monomial = asg.monomial
    return sum(c * monomial(key) for key, c in x.terms.items()) % asg.p


def eval_frac_mod(x, asg):
    x = Frac.lift(x)
    num = eval_scalar_mod(x.num, asg)
    return num * asg.inverse(eval_scalar_mod(x.den, asg)) % asg.p
