"""Exact coefficient arithmetic: Gaussian rationals and sparse multivariate polynomials.

Everything downstream is built on two types:

  GaussRat   a + b*i with a, b arbitrary-precision rationals (i**2 = -1)
  MultiPoly  sparse (Laurent) polynomial over GaussRat with named variables

and the package's immutable value classes (symbol terms, partitions,
correlator keys, identity reports) derive from ``Record``, which gives them
field equality, hash, repr and pickling without the ``dataclasses`` machinery.

A polynomial is a dict mapping exponent tuples (aligned with the ``variables``
tuple) to nonzero GaussRat coefficients.  The zero polynomial is the empty
dict.  Exponents may be negative, so sums, products, ``derivative`` and
comparisons also serve Laurent polynomials (the lattice sums of
``qwk.identities``), and ``evaluate`` takes a negative power of a value
exactly (zero raises ZeroDivisionError), while ``__pow__``, ``substitute``
and ``degree`` stay polynomial-only.  MultiPoly is the one sparse polynomial
type of the package: the u-representation of ``qwk.diffpoly`` and the
Weyl-algebra elements of ``qwk.weyl`` are MultiPolys too, with the grade as
the exponent of a variable ``h``.  Values are immutable by convention: no
operation mutates its inputs, so polynomials can be shared freely between
workers; both types copy and pickle by rebuilding through their
constructors.

Truncated power series are not a MultiPoly feature: they are lists of
coefficient layers, one per power of the series variable, and their kernels
live in ``qwk.series``.

Every coefficient the engine writes is real, so GaussRat keeps a real fast
path: a real value's imaginary part is one shared ``Fraction(0)``, results are
built from parts that are already Fractions without coercing them again,
``GaussRat(x)`` and ``GaussRat.of(x)`` of a real x coerce x alone, with no
``Fraction(0)`` built for the imaginary part, ``+ * ==`` dispatch on
``type(x) is`` before any general coercion, and ``+ * - == bool`` take a
real path on an identity test.  GaussRat is the
coefficient type at symbol boundaries; between them the commutator kernel
reads each operand term as integer numerators over one denominator, computes
with Python integers and its integer structure constants, and wraps each
output value in a GaussRat once.  A non-real value travels as a GaussRat
with integer parts along the same code, which mixes the two through the
reflected operators.  The powers of i are read from ``I_POWERS``.

No floating point is used anywhere: a float part is refused with TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Optional, Union

Rat = Fraction

Scalar = Union[int, Fraction, "GaussRat"]


def rat_str(x: Fraction) -> str:
    """Canonical text form "p/q", with "/q" omitted when q == 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_ZERO = Fraction(0)


def _part(x) -> Fraction:
    """One exact part of a GaussRat; a float is refused rather than read as its binary value."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"GaussRat takes exact parts, not the float {x!r}")
    return Fraction(x)


class GaussRat:
    """Gaussian rational a + b*i, always in canonical (reduced) form.

    A real value's imaginary part is the one shared ``Fraction(0)``, so the
    arithmetic can take its real path on an identity test; every other path
    stays exact for any parts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        _set_re(self, _part(re))
        # a real value (the default im = 0) takes the shared zero with no coercion
        if type(im) is not int or im:
            im = _part(im)
        _set_im(self, im if im else _ZERO)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which never sets an attribute
        return GaussRat, (self.re, self.im)

    @staticmethod
    def of(x: Scalar) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        t = type(x)
        if t is Fraction:
            return _gauss(x)
        if t is int:
            return _gauss(Fraction(x))
        return GaussRat(x)

    def is_real(self) -> bool:
        return self.im == 0

    def conj(self) -> "GaussRat":
        return _gauss(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or (self.im is not _ZERO and bool(self.im))

    def __eq__(self, other) -> bool:
        if type(other) is GaussRat:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: Scalar) -> "GaussRat":
        o = other if type(other) is GaussRat else GaussRat.of(other)
        if self.im is _ZERO and o.im is _ZERO:
            return _gauss(self.re + o.re)
        return _gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        if self.im is _ZERO:
            return _gauss(-self.re)
        return _gauss(-self.re, -self.im)

    def __sub__(self, other: Scalar) -> "GaussRat":
        return self + -GaussRat.of(other)

    def __rsub__(self, other: Scalar) -> "GaussRat":
        return GaussRat.of(other) + -self

    def __mul__(self, other: Scalar) -> "GaussRat":
        t = type(other)
        if t is GaussRat:
            if self.im is _ZERO and other.im is _ZERO:
                return _gauss(self.re * other.re)
            return _gauss(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)
        if t is int or t is Fraction:
            if self.im is _ZERO:
                return _gauss(self.re * other)
            return _gauss(self.re * other, self.im * other)
        return self * GaussRat.of(other)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussRat":
        o = GaussRat.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return self * o.conj() * (1 / n)

    def __rtruediv__(self, other: Scalar) -> "GaussRat":
        return GaussRat.of(other) / self

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


_set_re = GaussRat.re.__set__
_set_im = GaussRat.im.__set__


def _gauss(re: Fraction, im: Fraction = _ZERO) -> GaussRat:
    """re + im*i, from parts that are already Fractions."""
    g = object.__new__(GaussRat)
    _set_re(g, re)
    _set_im(g, im if im is _ZERO or im else _ZERO)
    return g


I = GaussRat(0, 1)
ZERO = GaussRat(0)
ONE = GaussRat(1)
# i^n is I_POWERS[n % 4], for any integer n
I_POWERS = (ONE, I, GaussRat(-1), GaussRat(0, -1))


class MultiPoly:
    """Sparse multivariate (Laurent) polynomial over GaussRat.

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
                g = GaussRat.of(c)
                if not g:
                    continue
                e = tuple(exps)
                if len(e) != len(vs):
                    raise ValueError("exponent tuple length mismatch")
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

    def __reduce__(self):
        return MultiPoly, (self.variables, self.terms, True)

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def const(c: Scalar, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(variables)
        g = GaussRat.of(c)
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
            c = GaussRat.of(other)
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

    def derivative(self, var: str) -> "MultiPoly":
        """d/d(var), exact on negative exponents too; zero when ``var`` is not a variable."""
        if var not in self.variables:
            return MultiPoly(self.variables, {}, _normalized=True)
        j = self.variables.index(var)
        return MultiPoly(self.variables,
                         {exps[:j] + (exps[j] - 1,) + exps[j + 1:]: c * exps[j]
                          for exps, c in self.terms.items() if exps[j]},
                         _normalized=True)

    # ------------------------------------------------------------------
    # queries

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
        vals = [assignment[v] for v in self.variables]
        return sum((c * prod(v ** x if x > 0 else GaussRat.of(v) ** x
                             for v, x in zip(vals, exps) if x)
                    for exps, c in self.terms.items()), ZERO)

    # ------------------------------------------------------------------
    # substitution

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

    # ------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
            mono = "*".join(f"{v}^{x}" if x != 1 else v
                            for v, x in zip(self.variables, exps) if x)
            cs = c.to_str()
            if mono:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)


class Record:
    """Base of the immutable value classes: the fields are the ``__slots__``, in order.

    Equality and hash are by the tuple of fields, between instances of one
    class only, and ``repr`` lists the fields by name.  ``copy``, ``deepcopy``
    and ``pickle`` rebuild through the constructor, which takes the fields
    positionally; a subclass's ``__init__`` validates them and sets each
    with ``object.__setattr__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def require_ints(what: str, values) -> None:
    """Refuse any value that is not an int, bools included, naming it as ``what``."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{what} {v!r} is not an integer")
