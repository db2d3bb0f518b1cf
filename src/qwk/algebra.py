"""Exact coefficient arithmetic: Gaussian rationals and sparse multivariate polynomials.

Everything downstream is built on two types:

  GaussRat   a + b*i with a, b arbitrary-precision rationals (i**2 = -1)
  MultiPoly  sparse polynomial over GaussRat with named variables

A polynomial is a dict mapping exponent tuples (aligned with the ``variables``
tuple) to nonzero GaussRat coefficients.  The zero polynomial is the empty
dict.  Values are immutable by convention: no operation mutates its inputs,
so polynomials can be shared freely between workers.

Truncated power series are not a MultiPoly feature: they are lists of
coefficient layers, one per power of the series variable, and their kernels
live in ``qwk.special``.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

Rat = Fraction

Scalar = Union[int, Fraction, "GaussRat"]


def rat_str(x: Fraction) -> str:
    """Canonical text form "p/q", with "/q" omitted when q == 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GaussRat:
    """Gaussian rational a + b*i, always in canonical (reduced) form."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def of(x: Scalar) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(x)

    def is_real(self) -> bool:
        return self.im == 0

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: Scalar) -> "GaussRat":
        o = GaussRat.of(other)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other: Scalar) -> "GaussRat":
        o = GaussRat.of(other)
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalar) -> "GaussRat":
        o = GaussRat.of(other)
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other: Scalar) -> "GaussRat":
        if isinstance(other, (int, Fraction)):
            return GaussRat(self.re * other, self.im * other)
        o = other
        if self.im == 0 and o.im == 0:
            return GaussRat(self.re * o.re)
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussRat":
        if isinstance(other, (int, Fraction)):
            return GaussRat(self.re / other, self.im / other)
        o = other
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return self * o.conj() / n

    def __pow__(self, n: int) -> "GaussRat":
        if n < 0:
            return (GaussRat(1) / self) ** (-n)
        out = GaussRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def abs1(self) -> Fraction:
        """|re| + |im|; an exact norm used for discrepancy reports."""
        return abs(self.re) + abs(self.im)

    def to_str(self) -> str:
        """Canonical text form "p/q+r/s*i"; pure reals as "p/q"."""
        if self.im == 0:
            return rat_str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{rat_str(self.re)}{sign}{rat_str(abs(self.im))}*i"

    def __repr__(self):
        return f"GaussRat({self.to_str()})"


I = GaussRat(0, 1)
ZERO = GaussRat(0)
ONE = GaussRat(1)


def _coerce(x: Scalar) -> GaussRat:
    return x if isinstance(x, GaussRat) else GaussRat(x)


class MultiPoly:
    """Sparse multivariate polynomial over GaussRat.

    ``variables`` fixes the exponent-tuple layout.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str],
                 terms: Optional[Mapping[tuple, Scalar]] = None,
                 _normalized: bool = False):
        vs = tuple(variables)
        object.__setattr__(self, "variables", vs)
        if _normalized:
            object.__setattr__(self, "terms", dict(terms) if terms else {})
            return
        clean: dict = {}
        if terms:
            for exps, c in terms.items():
                g = _coerce(c)
                if not g:
                    continue
                e = tuple(exps)
                if len(e) != len(vs):
                    raise ValueError("exponent tuple length mismatch")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent")
                if e in clean:
                    s = clean[e] + g
                    if s:
                        clean[e] = s
                    else:
                        del clean[e]
                else:
                    clean[e] = g
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def const(c: Scalar, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(variables)
        g = _coerce(c)
        terms = {(0,) * len(vs): g} if g else {}
        return MultiPoly(vs, terms, _normalized=True)

    @staticmethod
    def var(name: str, variables: Optional[Iterable[str]] = None) -> "MultiPoly":
        vs = tuple(variables) if variables is not None else (name,)
        if name not in vs:
            raise KeyError(f"unknown variable {name!r}")
        e = tuple(1 if v == name else 0 for v in vs)
        return MultiPoly(vs, {e: ONE}, _normalized=True)

    # ------------------------------------------------------------------
    # alignment over a common variable tuple

    def _remap(self, vs: tuple) -> dict:
        if vs == self.variables:
            return self.terms
        idx = []
        for v in self.variables:
            idx.append(vs.index(v))
        n = len(vs)
        out = {}
        for exps, c in self.terms.items():
            e = [0] * n
            for j, x in enumerate(exps):
                if x:
                    e[idx[j]] = x
            out[tuple(e)] = c
        return out

    def _common_vars(self, other: "MultiPoly") -> tuple:
        if self.variables == other.variables:
            return self.variables
        vs = list(self.variables)
        seen = set(vs)
        for v in other.variables:
            if v not in seen:
                vs.append(v)
                seen.add(v)
        return tuple(vs)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.variables)
        vs = self._common_vars(other)
        ta = self._remap(vs)
        tb = other._remap(vs)
        out = dict(ta)
        for e, c in tb.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return MultiPoly(vs, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()},
                         _normalized=True)

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.variables)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return MultiPoly.const(other, self.variables) - self

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = _coerce(other)
            if not c:
                return MultiPoly(self.variables, {}, _normalized=True)
            return MultiPoly(self.variables,
                             {e: v * c for e, v in self.terms.items()},
                             _normalized=True)
        vs = self._common_vars(other)
        ta = self._remap(vs)
        tb = other._remap(vs)
        out: dict = {}
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if e in out:
                    s = out[e] + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:
                    out[e] = ca * cb
        return MultiPoly(vs, out, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRat)):
            other = MultiPoly.const(other, self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vs = self._common_vars(other)
        return self._remap(vs) == other._remap(vs)

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    # queries

    def coeff_extract(self, monomial: Mapping[str, int]) -> GaussRat:
        """Exact coefficient of the given monomial; 0 if absent."""
        e = [0] * len(self.variables)
        for v, x in monomial.items():
            try:
                e[self.variables.index(v)] = x
            except ValueError:
                raise KeyError(f"unknown variable {v!r}") from None
        return self.terms.get(tuple(e), ZERO)

    def coeff_of_var_power(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var**k, as a polynomial in the remaining variables."""
        j = self.variables.index(var)
        rest = tuple(v for v in self.variables if v != var)
        out = {}
        for exps, c in self.terms.items():
            if exps[j] != k:
                continue
            e = tuple(x for i, x in enumerate(exps) if i != j)
            out[e] = c
        return MultiPoly(rest, out, _normalized=True)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def var_degree(self, var: str) -> int:
        j = self.variables.index(var)
        if not self.terms:
            return -1
        return max(e[j] for e in self.terms)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> GaussRat:
        """Evaluate at a point; every variable must be assigned."""
        vals = [_coerce(assignment[v]) for v in self.variables]
        total = GaussRat(0)
        for exps, c in self.terms.items():
            t = c
            for v, x in zip(vals, exps):
                if x:
                    t = t * v ** x
            total = total + t
        return total

    # ------------------------------------------------------------------
    # substitution and renaming

    def substitute(self, var: str, replacement: Union["MultiPoly", Scalar]) -> "MultiPoly":
        """Substitute a polynomial (or constant) for ``var``, exactly.

        Covers the linear changes of variables used by the engine as a
        special case.
        """
        j = self.variables.index(var)
        rest = tuple(v for v in self.variables if v != var)
        if not isinstance(replacement, MultiPoly):
            replacement = MultiPoly.const(replacement, rest)
        # group by the power of var, then Horner over descending powers
        by_pow: dict = {}
        for exps, c in self.terms.items():
            k = exps[j]
            e = tuple(x for i, x in enumerate(exps) if i != j)
            by_pow.setdefault(k, {})[e] = c
        if not by_pow:
            return MultiPoly(rest, {}, _normalized=True)
        result = None
        last = 0
        for k in sorted(by_pow, reverse=True):
            layer = MultiPoly(rest, by_pow[k], _normalized=True)
            if result is None:
                result = layer
            else:
                result = result * replacement ** (last - k) + layer
            last = k
        return result * replacement ** last

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        vs = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(vs)) != len(vs):
            raise ValueError("renaming collides")
        return MultiPoly(vs, self.terms, _normalized=True)

    def with_variables(self, vs: Iterable[str]) -> "MultiPoly":
        """Reindex onto the given variable tuple (a superset of the support)."""
        vs = tuple(vs)
        return MultiPoly(vs, self._remap(vs), _normalized=True)

    # ------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
            mono = "*".join(f"{v}^{x}" if x > 1 else v
                            for v, x in zip(self.variables, exps) if x)
            cs = c.to_str()
            if mono:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)
