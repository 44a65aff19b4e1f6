"""Closed-form bounds on the sizes of constant-dimension and projective codes.

Everything is evaluated in exact integer / rational arithmetic.  Upper
bounds are reported as exact integers (floors of the defining expressions),
lower bounds as exact rationals together with their ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParams
from .subspaces import gaussian


def sphere_volume(n: int, k: int, t: int, q: int) -> int:
    """Number of k-subspaces within distance 2t of a fixed one."""
    return sum(
        q ** (i * i) * gaussian(k, i, q) * gaussian(n - k, i, q)
        for i in range(t + 1)
    )


def projective_space_size(n: int, q: int) -> int:
    return sum(gaussian(n, k, q) for k in range(n + 1))


@dataclass
class BoundReport:
    """Exact bounds on the maximum size of an (n, M, 2*delta, k) code."""

    q: int
    n: int
    k: int
    delta: int
    effective_k: int
    sphere_packing_upper: int
    singleton_upper: int
    anticode_upper: int
    johnson_upper: int
    sphere_covering_lower: Fraction
    graham_sloane_lower: Fraction | None
    delta_k_exact: int | None = None
    delta_k_upper: int | None = None
    delta_k_lower: int | None = None
    notes: tuple[str, ...] = ()

    @property
    def best_upper(self) -> int:
        vals = [
            self.sphere_packing_upper,
            self.singleton_upper,
            self.anticode_upper,
            self.johnson_upper,
        ]
        if self.delta_k_exact is not None:
            vals.append(self.delta_k_exact)
        if self.delta_k_upper is not None:
            vals.append(self.delta_k_upper)
        return min(vals)

    @property
    def best_lower(self) -> int:
        vals = [_ceil(self.sphere_covering_lower)]
        if self.graham_sloane_lower is not None:
            vals.append(_ceil(self.graham_sloane_lower))
        if self.delta_k_lower is not None:
            vals.append(self.delta_k_lower)
        if self.delta_k_exact is not None:
            vals.append(self.delta_k_exact)
        return max(vals)

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "delta": self.delta,
            "sphere_packing_upper": self.sphere_packing_upper,
            "singleton_upper": self.singleton_upper,
            "anticode_upper": self.anticode_upper,
            "johnson_upper": self.johnson_upper,
            "sphere_covering_lower": str(self.sphere_covering_lower),
            "sphere_covering_lower_ceil": _ceil(self.sphere_covering_lower),
            "graham_sloane_lower": (
                str(self.graham_sloane_lower)
                if self.graham_sloane_lower is not None
                else None
            ),
            "delta_k_exact": self.delta_k_exact,
            "delta_k_upper": self.delta_k_upper,
            "delta_k_lower": self.delta_k_lower,
            "best_upper": self.best_upper,
            "best_lower": self.best_lower,
            "notes": list(self.notes),
        }


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def johnson_chain(n: int, k: int, delta: int, q: int) -> int:
    """Nested-floor recursion ending at the trivial single-codeword level."""
    value = 1
    for j in range(delta, k + 1):
        nn = n - k + j
        value = (q**nn - 1) * value // (q**j - 1)
    return value


def cdc_bounds(n: int, k: int, delta: int, q: int) -> BoundReport:
    """Bound report for constant-dimension codes, exact arithmetic.

    k > n/2 is reduced to n-k first (complementation preserves sizes and
    distances).  delta exceeding min(k, n-k) leaves only one-word codes.
    """
    if not (1 <= delta <= k <= n):
        raise BadParams(f"need 1 <= delta <= k <= n, got n={n} k={k} delta={delta}")
    notes: list[str] = []
    ek = min(k, n - k)
    if ek != k:
        notes.append(f"reduced to k={ek} by orthogonal complementation")
    if delta > ek:
        one = Fraction(1)
        return BoundReport(
            q, n, k, delta, ek, 1, 1, 1, 1, one, None,
            delta_k_exact=1,
            notes=tuple(notes + ["distance exceeds the ambient maximum: single word"]),
        )
    kk = ek
    t = (delta - 1) // 2
    g = gaussian(n, kk, q)
    packing = g // sphere_volume(n, kk, t, q)
    singleton = gaussian(n - delta + 1, kk - delta + 1, q)
    anticode = gaussian(n, kk - delta + 1, q) // gaussian(kk, kk - delta + 1, q)
    johnson = johnson_chain(n, kk, delta, q)
    covering = Fraction(g, sphere_volume(n, kk, delta - 1, q))
    if delta >= 2:
        gs = Fraction((q - 1) * g, (q**n - 1) * q ** (n * (delta - 2)))
    else:
        gs = None
        notes.append("graham-sloane lower bound needs delta >= 2")

    dk_exact = dk_upper = dk_lower = None
    if delta == kk:
        if n % kk == 0:
            dk_exact = (q**n - 1) // (q**kk - 1)
        else:
            dk_upper = (q**n - 1) // (q**kk - 1) - 1
        r = n % kk
        num = q**n - q**kk * (q**r - 1) - 1
        assert num % (q**kk - 1) == 0
        dk_lower = num // (q**kk - 1)
    return BoundReport(
        q,
        n,
        k,
        delta,
        kk,
        packing,
        singleton,
        anticode,
        johnson,
        covering,
        gs,
        delta_k_exact=dk_exact,
        delta_k_upper=dk_upper,
        delta_k_lower=dk_lower,
        notes=tuple(notes),
    )


def pspace_lower_bound(n: int, d: int, q: int) -> Fraction:
    """Covering-style lower bound on the largest projective-space code:
    |P|^2 over the summed sizes of distance-(d-1) balls."""
    if not 1 <= d <= n:
        raise BadParams(f"need 1 <= d <= n, got n={n} d={d}")
    total = projective_space_size(n, q)
    denom = 0
    for k in range(n + 1):
        gnk = gaussian(n, k, q)
        for j in range(d):
            for i in range(j + 1):
                if i > k or j - i > n - k:
                    continue  # out-of-range Gaussian coefficients vanish
                denom += (
                    gaussian(n - k, j - i, q)
                    * gaussian(k, i, q)
                    * gnk
                    * q ** (i * (j - i))
                )
    return Fraction(total * total, denom)
