"""Cover data and scattering coefficients for the two-parameter family.

A degree-n cover is pinned by residues b mod n and c mod 2n.  These fix
a symmetric bilinear form on the rank-r coweight lattice (diagonal c,
off-diagonal c - b), the value Q(alpha) = b on every simple coroot, and
the charge modulus n_Q = n / gcd(n, b).  From the form we compute the
kernel lattice Lambda of x -> B.x mod n, canonical coset representatives
of Z^r / Lambda, and the closed-form SL coset count.  From (b, n_Q) we
compute the scattering coefficients tau1/tau2 of the simple reflection
operators and check, residue by residue, that they match the two-strand
crossing weights from `rvertex` once the right z-monomials are attached.
"""

import math
from functools import lru_cache
from itertools import product

from . import rvertex as RV
from . import scalar as S
from .lattice import reduce_charge


# -- cover parameters --------------------------------------------------------

class CoverParams:
    """Degree, twisting residues, and rank of one cover.

    b is stored mod n and c mod 2n.  n_Q = n / gcd(n, b) with the
    convention gcd(n, 0) = n, so b = 0 gives n_Q = 1.
    """

    __slots__ = ["n", "b", "c", "r"]

    def __init__(self, n, b, c, r):
        for name, x in (("n", n), ("b", b), ("c", c), ("r", r)):
            if type(x) is not int:
                raise ValueError("cover parameter %s must be an int (bool is refused): %r"
                                 % (name, x))
        if n < 1:
            raise ValueError("cover degree must be at least 1")
        if r < 1:
            raise ValueError("rank must be at least 1")
        self.n = n
        self.b = b % n
        self.c = c % (2 * n)
        self.r = r

    @property
    def nq(self):
        return self.n // math.gcd(self.n, self.b)

    def bilinear_matrix(self):
        """r x r integer matrix: diagonal c, off-diagonal c - b."""
        return [[self.c if row == col else self.c - self.b
                 for col in range(self.r)] for row in range(self.r)]

    def to_json(self):
        return {"n": self.n, "b": self.b, "c": self.c, "r": self.r}

    def __repr__(self):
        return "CoverParams(n=%d, b=%d, c=%d, r=%d)" % (
            self.n, self.b, self.c, self.r)


# -- integer lattice utilities ----------------------------------------------

def xgcd(a, b):
    """Extended gcd: (g, x, y) with a*x + b*y = g and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hermite_basis(gens, r):
    """Upper-triangular basis of the lattice spanned by integer rows.

    Requires a full-rank span.  Pivots are positive and every entry
    above a pivot is reduced into [0, pivot).
    """
    rows = [list(g) for g in gens]
    basis = []
    for col in range(r):
        pivot = None
        rest = []
        for row in rows:
            if row[col] == 0:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                g, s, t = xgcd(pivot[col], row[col])
                u, w = row[col] // g, pivot[col] // g
                combo = [s * pivot[k] + t * row[k] for k in range(r)]
                rest.append([u * pivot[k] - w * row[k] for k in range(r)])
                pivot = combo
        if pivot is None:
            raise ValueError("generators do not span full rank")
        if pivot[col] < 0:
            pivot = [-e for e in pivot]
        basis.append(pivot)
        rows = rest
    for col in range(r):
        for row in range(col):
            q = basis[row][col] // basis[col][col]
            if q:
                basis[row] = [basis[row][k] - q * basis[col][k]
                              for k in range(r)]
    return basis


def _b_dot(bmat, x):
    r = len(bmat)
    return [sum(bmat[row][k] * x[k] for k in range(r)) for row in range(r)]


def reduce(basis, x):
    """Canonical representative of x modulo the lattice spanned by the
    rows of an upper-triangular basis with positive pivots: entry k
    lands in [0, basis[k][k])."""
    v = list(x)
    for idx, row in enumerate(basis):
        q = v[idx] // row[idx]
        if q:
            v = [e - q * b for e, b in zip(v, row)]
    return tuple(v)


class CosetData:
    """Kernel lattice of x -> B.x mod n plus canonical coset labels.

    basis is upper triangular; index is the pivot product |Z^r / Lambda|.
    """

    __slots__ = ["params", "basis", "index"]

    def __init__(self, params, basis):
        self.params = params
        self.basis = basis
        self.index = 1
        for k in range(params.r):
            self.index *= basis[k][k]

    @property
    def gamma(self):
        """Every tuple in the pivot box prod [0, basis[k][k]), each its own
        canonical representative; built on each read, since only reports
        and tests list the classes."""
        return list(product(*[range(row[k]) for k, row in enumerate(self.basis)]))

    def reduce(self, x):
        """Canonical representative of x modulo the lattice."""
        return reduce(self.basis, x)

    def contains(self, x):
        return not any(self.reduce(x))

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "bilinear": self.params.bilinear_matrix(),
            "basis": [list(row) for row in self.basis],
            "index": self.index,
            "gamma": [list(g) for g in self.gamma],
        }


def lattice_and_cosets(params):
    """Kernel lattice of the mod-n pairing and its coset representatives.

    One Hermite normal form of the augmented pairing lattice in Z^{2r},
    spanned by the rows (B e_k | e_k) and (n e_k | 0), gives the kernel
    basis in canonical form; each row's membership in the kernel is
    rechecked entry by entry.
    """
    n, r = params.n, params.r
    bmat = params.bilinear_matrix()
    # bmat is symmetric, so its row k is B e_k
    gens = [bmat[k] + [int(k == idx) for idx in range(r)] for k in range(r)]
    gens += [[n * int(k == idx) for idx in range(2 * r)] for k in range(r)]
    # the span holds (v | x) exactly when v = B.x mod n, so its vectors
    # with v = 0 are the kernel; in the triangular basis those are the
    # combinations of the last r rows, which are zero on the first r columns
    basis = [row[r:] for row in hermite_basis(gens, 2 * r)[r:]]
    for row in basis:
        if any(e % n for e in _b_dot(bmat, row)):
            raise AssertionError("normal form produced a non-kernel row")
    return CosetData(params, basis)


def sl_coset_count(n, b, r):
    """Closed-form coset count n^(r-1) / (gcd(b r, n) gcd(b, n)^(r-2))."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    num = n ** (r - 1)
    den = math.gcd(b * r, n) * math.gcd(b, n) ** (r - 2)
    if num % den:
        raise ArithmeticError("coset count formula gave a non-integer")
    return num // den


# -- scattering coefficients -------------------------------------------------

class TauPair:
    """tau1/tau2 of one simple scattering operator at a coweight.

    tau1 multiplies the coweight class of mu itself; tau2 multiplies the
    class of the reflected shift s_i(mu) + alpha_i, stored in target2.
    Both classes are taken modulo n_Q times the kernel lattice.
    """

    __slots__ = ["mu", "i", "nq", "tau1", "tau2", "target2"]

    def __init__(self, mu, i, nq, tau1, tau2, target2):
        self.mu = mu
        self.i = i
        self.nq = nq
        self.tau1 = tau1
        self.tau2 = tau2
        self.target2 = target2

    def to_json(self):
        return {
            "mu": list(self.mu),
            "i": self.i,
            "nq": self.nq,
            "tau1": self.tau1.to_json(),
            "tau2": self.tau2.to_json(),
            "target2": list(self.target2),
        }


def tau(mu, i, params):
    """Scattering coefficients at coweight mu for the simple index i.

    The pairing value on the coroot is b*(mu_i - mu_{i+1}), so its ratio
    to Q(alpha) = b is the plain difference d = mu_i - mu_{i+1} and stays
    meaningful when b = 0.  tau1 is (1-v) z^(k alpha) / (1 - v Z) with
    k = (-d) mod n_Q; tau2 is g(1-d) z^(-alpha) (1 - Z) / (1 - v Z), the
    Gauss argument b(1-d) collapsed through the n_Q-periodic symbol;
    Z = (z_i/z_{i+1})^n_Q (rvertex.crossing_z).
    """
    r = params.r
    if type(i) is not int:
        raise ValueError("simple index i must be an int (bool is refused): %r" % (i,))
    if not 1 <= i < r:
        raise ValueError("simple index out of range")
    if len(mu) != r:
        raise ValueError("coweight length must match the rank")
    for m in mu:
        if type(m) is not int:
            raise ValueError("coweight entries must be ints (bool is refused): %r" % (m,))
    d = mu[i - 1] - mu[i]
    nq = params.nq
    tau1, tau2 = _tau_fracs(d % nq, i, nq)
    target2 = list(mu)
    target2[i - 1], target2[i] = mu[i] + 1, mu[i - 1] - 1
    return TauPair(tuple(mu), i, nq, tau1, tau2, tuple(target2))


@lru_cache(maxsize=256)
def _tau_fracs(d, i, nq):
    """tau1 and tau2 at pairing difference d, which they see only mod
    nq.  Cached, holding at most 256 pairs (least recently used dropped
    first)."""
    one, v, big_z = S.one(nq), S.v_pow(1, nq), RV.crossing_z((i, i + 1), nq)
    den = RV.r_denominator((i, i + 1), nq)
    k = (-d) % nq
    tau1 = S.Frac((one - v) * S.z_pow(i, k, nq) * S.z_pow(i + 1, -k, nq), den)
    tau2 = S.Frac(S.gauss(1 - d, nq) * S.z_pow(i, -1, nq)
                  * S.z_pow(i + 1, 1, nq) * (one - big_z), den)
    return tau1, tau2


def prop71_check(ci, cj, params):
    """Match tau against the crossing weights at one residue pair.

    Residues are reduced into the charge window (0, n_Q] and attached to
    the rank-2 coweight nu = rho - c.  Unequal reduced residues demand
    two identities: tau1 equals z^((c_i - c_j - 1) alpha) times the
    charge-swap weight, and tau2 equals z^(-alpha) times the
    charge-crossing weight.  Equal reduced residues demand the one-term
    identity tau1 + tau2 = z^(-alpha) times the equal-charge weight.
    The check is theorem12_diagram on the rank-2 cover at i = 1, whose
    identities are these with the monomials moved to the tau side, and
    which refuses residues outside (0, n] with a ValueError.
    """
    rep = theorem12_diagram(CoverParams(params.n, params.b, params.c, 2), (ci, cj))
    return {
        "residues": (ci, cj),
        "reduced": rep["reduced"],
        "nq": params.nq,
        "branch": rep["branch"],
        "checks": rep["checks"],
        "ok": rep["ok"],
    }


def theorem12_diagram(params, residues, i=1):
    """Both routes around the scattering/crossing square at one label.

    A label is a residue vector c in (0, n]^r; each entry is reduced
    into (0, n_Q] and the attached coweight is nu = rho - c, paired with
    the monomial z^(-nu).  Route one scatters the coweight and reads the
    output monomials at the swapped parameters (s_i z)^(-nu) and
    (s_i z)^(-mu) with mu = s_i(nu) + alpha_i.  Route two applies the
    crossing weights at rows (i, i+1) to the label pair and keeps the
    input monomial z^(-nu).  Both routes are divided by that monomial, a
    unit, so the verdict compares tau1 z^(nu - s_i nu) with the
    charge-swap weight and tau2 z^(nu - s_i mu) = tau2 z^(alpha_i) with
    the charge-crossing weight; for equal reduced residues, their sum
    with the equal-charge weight.
    """
    r = params.r
    if r < 2:
        raise ValueError("rank must be at least 2")
    if len(residues) != r:
        raise ValueError("label length must match the rank")
    if type(i) is not int:
        raise ValueError("simple index i must be an int (bool is refused): %r" % (i,))
    if not 1 <= i < r:
        raise ValueError("simple index out of range")
    n = params.n
    for ck in residues:
        if type(ck) is not int:
            raise ValueError("residues must be ints (bool is refused): %r" % (ck,))
        if not 0 < ck <= n:
            raise ValueError("labels must lie in (0, n]")
    nq = params.nq
    label = [reduce_charge(ck, nq) for ck in residues]
    nu = [r - 1 - k - label[k] for k in range(r)]
    lead = tau(tuple(nu), i, params)
    refl = tau(lead.target2, i, params)
    # nu - s_i nu is (nu_i - nu_{i+1}) alpha_i, and nu - s_i mu is alpha_i
    alpha = [0] * r
    alpha[i - 1], alpha[i] = 1, -1
    by_nu = S.z_mono([(nu[i - 1] - nu[i]) * e for e in alpha], nq)
    by_mu = S.z_mono(alpha, nq)
    a, b = label[i - 1], label[i]
    if a != b:
        swap_wt = RV.r_weight((1, b), (1, a), (1, b), (1, a), (i, i + 1), nq)
        cross_wt = RV.r_weight((1, b), (1, a), (1, a), (1, b), (i, i + 1), nq)
        checks = [
            S.frac_eq(lead.tau1 * by_nu, swap_wt),
            S.frac_eq(refl.tau2 * by_mu, cross_wt),
        ]
        branch = "two-term"
    else:
        equal_wt = RV.r_weight((1, a), (1, a), (1, a), (1, a),
                               (i, i + 1), nq)
        total = lead.tau1 * by_nu + refl.tau2 * by_mu
        checks = [S.frac_eq(total, equal_wt)]
        branch = "one-term"
    return {
        "params": params.to_json(),
        "residues": tuple(residues),
        "reduced": tuple(label),
        "i": i,
        "branch": branch,
        "checks": checks,
        "ok": all(checks),
    }


def tau_involution(mu, i, params):
    """Scattering coefficients applied at s_i z and then at z.

    The coefficients form a matrix on the one or two coweight classes
    supporting mu; composing the matrix at swapped parameters with the
    matrix at z must give the identity.
    """
    swap = {i: i + 1, i + 1: i}
    lead = tau(tuple(mu), i, params)
    nq = params.nq
    d = mu[i - 1] - mu[i]
    if (1 - d) % nq == 0:
        # reflected class equals the class of mu: one total coefficient
        classes, mat = 1, {(0, 0): lead.tau1 + lead.tau2}
    else:
        refl = tau(lead.target2, i, params)
        classes, mat = 2, {(0, 0): lead.tau1, (0, 1): lead.tau2,
                           (1, 0): refl.tau2, (1, 1): refl.tau1}
    swapped = {key: w.permute_z(swap) for key, w in mat.items()}
    ok = RV.mat_eq(RV.mat_mul(swapped, mat), RV.mat_identity(range(classes), nq))
    return {"mu": tuple(mu), "i": i, "classes": classes, "ok": ok}
