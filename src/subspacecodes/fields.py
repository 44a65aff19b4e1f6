"""Finite field arithmetic for GF(q), q = p^m up to 2**20.

Elements are canonical integers in [0, q): the base-p digits of the integer
are the polynomial coefficients over GF(p), lowest degree first.  A FieldSpec
carries the modulus and (for q <= 2**16) exp/log tables over a multiplicative
generator, so products cost two table lookups.

ExtensionView pairs a base field GF(q) with GF(q^m) and fixes the polynomial
basis {1, a, a^2, ..., a^{m-1}} where `a` is the residue class of x.  It
provides coordinate expansion, its inverse, and Frobenius powers x -> x^(q^i).
Over a composite base the expansion is linear over GF(p), and its matrix is
inverted once, with the row form's elimination (``matrices.row_form``).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadParams, FieldTooLarge, NoExtensionView, NotPrime

MAX_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16


def smallest_prime_factor(n: int) -> int:
    """Smallest prime dividing n >= 2, by trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(p: int) -> bool:
    return p >= 2 and smallest_prime_factor(p) == p


def _poly_mul_mod_p(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(tuple(a))


def _poly_divisible(a: tuple[int, ...], d: tuple[int, ...], p: int) -> bool:
    return len(_poly_mod(a, d, p)) == 0


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            low = _decode_poly(enc, p)
            div = low + (0,) * (d - len(low)) + (1,)
            if _poly_divisible(poly, div, p):
                return False
    return True


def _decode_poly(enc: int, p: int) -> tuple[int, ...]:
    digits = []
    while enc:
        digits.append(enc % p)
        enc //= p
    return tuple(digits)


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    "Smallest" means smallest integer encoding of the non-leading
    coefficients (c0 + c1*p + ...); deterministic across runs.
    """
    if m == 1:
        return (0, 1)
    for enc in range(p**m):
        low = _decode_poly(enc, p)
        poly = low + (0,) * (m - len(low)) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """Arithmetic context for GF(p^m_total).

    Immutable after construction and safe to share between threads; every
    operation is a pure function of integer representations.
    """

    def __init__(self, p: int, m_total: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        order = p**m_total
        if order > MAX_ORDER:
            raise FieldTooLarge(f"p^m = {order} exceeds {MAX_ORDER}")
        if len(modulus) != m_total + 1 or modulus[-1] != 1:
            raise BadParams("modulus must be monic of degree m_total")
        if not _is_irreducible(modulus, p):
            raise BadParams("modulus is reducible")
        self.p = p
        self.m_total = m_total
        self.modulus = modulus
        self.order = order
        self._hash = hash((p, modulus))  # row_form and every Subspace key hash the field
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if order <= _TABLE_LIMIT:
            self._build_tables()

    # -- representation helpers ------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a representation, length m_total."""
        out = []
        for _ in range(self.m_total):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, digits) -> int:
        a = 0
        for d in reversed(tuple(digits)):
            a = a * self.p + d % self.p
        return a

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m_total == 1:
            return (a + b) % self.p
        out = 0
        scale = 1
        for _ in range(self.m_total):
            out += ((a + b) % self.p) * scale
            a //= self.p
            b //= self.p
            scale *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m_total == 1:
            return -a % self.p
        out = 0
        scale = 1
        for _ in range(self.m_total):
            out += (-a % self.p) * scale
            a //= self.p
            scale *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m_total == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mul_mod_p(self.digits(a), self.digits(b), self.p)
        return self.from_digits(_poly_mod(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.order - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._mul_poly(out, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return out

    # -- tables --------------------------------------------------------------

    def _build_tables(self) -> None:
        g = self._find_generator()
        exp = [1] * (self.order - 1)
        log = [0] * self.order
        x = 1
        for i in range(self.order - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_poly(x, g)
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        n = self.order - 1
        factors = []
        m = n
        while m > 1:
            factors.append(smallest_prime_factor(m))
            while m % factors[-1] == 0:
                m //= factors[-1]
        # self.pow multiplies polynomials here: the tables do not exist yet.
        # Over GF(2), n = 1 has no prime factors and 1 generates.
        for cand in range(1, self.order):
            if all(self.pow(cand, n // f) != 1 for f in factors):
                return cand
        raise AssertionError("no generator found")  # unreachable

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.p}^{self.m_total}))"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FieldSpec:
    """GF(p^m) with the smallest irreducible modulus; cached, deterministic."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise BadParams("extension degree must be >= 1")
    if p**m > MAX_ORDER:
        raise FieldTooLarge(f"p^m = {p**m} exceeds {MAX_ORDER}")
    return FieldSpec(p, m, smallest_irreducible(p, m))


class ExtensionView:
    """GF(q^m) viewed as an m-dimensional vector space over GF(q).

    The basis is always {1, a, ..., a^{m-1}} with `a` the residue class of x
    in the extension field.  For a prime base field the coordinates are just
    the base-p digits; for a composite base an embedding of GF(q) into
    GF(q^m) is located once, the map from coordinates to p-digits is
    inverted once over GF(p) in the row form, and a coordinate vector is
    one combination of that inverse's rows by the p-digits of x.
    """

    def __init__(self, base: FieldSpec, ext: FieldSpec):
        if ext.p != base.p or ext.m_total % base.m_total != 0:
            raise BadParams("ext is not an extension of base")
        self.base = base
        self.ext = ext
        self.m = ext.m_total // base.m_total
        self.alpha = ext.p if self.m > 1 else 0  # class of x (rep p^1)
        self.basis = tuple(ext.pow(self.alpha, j) if self.m > 1 else 1 for j in range(self.m))
        self._prime_base = base.m_total == 1
        if not self._prime_base:
            self._embed_root = self._find_embedding_root()
            self._invert_digit_map()
        self._check_basis_independent()

    def _find_embedding_root(self) -> int:
        """Element of ext that is a root of base.modulus, defining GF(q) -> GF(q^m)."""
        mod = self.base.modulus
        for cand in range(self.ext.order):
            acc = 0
            for c in reversed(mod):
                acc = self.ext.add(self.ext.mul(acc, cand), c % self.ext.p)
            if acc == 0:
                return cand
        raise NoExtensionView("no embedding of base field found")

    def embed(self, b: int) -> int:
        """Image of base element b inside the extension field."""
        if self._prime_base:
            return b
        acc = 0
        for d in reversed(self.base.digits(b)):
            acc = self.ext.add(self.ext.mul(acc, self._embed_root), d)
        return acc

    def _invert_digit_map(self) -> None:
        """M^-1 for the digit map M over GF(p), whose row c is the p-digits
        of embed(p^t) * a^j for c = j*k + (k-1-t), k = base.m_total: so
        block j of a coordinate vector holds the base element's p-digits
        as ``code`` reads them.  The rref of [M | I] is [I | M^-1], and row
        i of M^-1 is the coordinates of the i-th digit p^i."""
        from .matrices import row_form  # matrices imports this module

        ext, k, prime = self.ext, self.base.m_total, make_field(self.ext.p, 1)
        n = ext.m_total
        self._digits = digits = row_form(prime, n)
        self._block = row_form(prime, k)
        products = [ext.mul(self.embed(ext.p**t), b) for b in self.basis for t in reversed(range(k))]
        rows = [
            digits.join(digits.row_of(ext.digits(v)), digits.row_of([int(i == c) for i in range(n)]))
            for c, v in enumerate(products)
        ]
        self._inverse = [digits.unflatten(row, 2)[1] for row in row_form(prime, 2 * n).rref(rows)]

    def _check_basis_independent(self) -> None:
        probe = set()
        for x in self.basis:
            probe.add(x)
        if len(probe) != self.m:
            raise BadParams("basis elements repeat")
        # full check: expanding each basis vector must give the identity
        for j, x in enumerate(self.basis):
            coords = self.expand(x)
            expect = tuple(1 if i == j else 0 for i in range(self.m))
            if coords != expect:
                raise BadParams("polynomial basis is not independent over base")

    def expand(self, x: int) -> tuple[int, ...]:
        """Coordinates c with x = sum c_j * basis_j, c_j in the base field."""
        if self._prime_base:
            return self.ext.digits(x)
        coords = self._digits.combine(self.ext.digits(x), self._inverse)
        return tuple(map(self._block.code, self._block.unflatten(coords, self.m)))

    def collapse(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != self.m:
            raise BadParams(f"expected {self.m} coordinates")
        acc = 0
        for c, b in zip(coords, self.basis):
            acc = self.ext.add(acc, self.ext.mul(self.embed(c), b))
        return acc

    def frobenius(self, x: int, i: int) -> int:
        """x ** (q ** (i mod m)) in the extension field."""
        e = pow(self.base.order, i % self.m, self.ext.order - 1)
        return self.ext.pow(x, e)

    def __repr__(self) -> str:
        return f"ExtensionView(GF({self.base.order}) -> GF({self.ext.order}))"


@lru_cache(maxsize=None)
def extension_view(base: FieldSpec, m: int) -> ExtensionView:
    """Build (and cache) the view of GF(base.order^m) over base."""
    ext = make_field(base.p, base.m_total * m)
    return ExtensionView(base, ext)
