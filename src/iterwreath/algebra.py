"""Sparse exact-rational arithmetic in the tower's group algebras.

Elements are finite linear combinations of tree automorphisms at a fixed
level with exact rational coefficients: a coefficient is a Python int when
it is integral and a Fraction otherwise, so products of orbit sums run on
integer arithmetic.  `fractions` is imported in `_rational` alone, the first
time a coefficient that is not an int is normalised, so a process whose
coefficients are all ints never loads it (nor `decimal` and `numbers`).
Zero coefficients are never stored, and term iteration is in canonical
swap-word order, so serialized output is byte-deterministic.

A product accumulates its coefficients on the `perm` bytes of each term
pair's product, whose hash is computed once, in C, and interns each
distinct result once; its terms keep the order in which their products
first occur.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import filterfalse

from .treegroup import (
    MAX_ENUM_LEVEL,
    LevelMismatch,
    LevelTooLarge,
    SubgroupSpec,
    TreeAutomorphism,
    _from_perm,
    _pool,
    from_perms,
    table,
)


def _rational(c):
    """c as an exact rational: an int when integral, else a Fraction."""
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class AlgebraElement:
    """Exact rational linear combination of same-level tree automorphisms."""

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms=None):
        clean = {}
        for g, c in (terms or {}).items():
            if g.level != level:
                raise LevelMismatch(
                    f"term {g!r} has level {g.level}, expected {level}")
            if type(c) is not int:
                c = _rational(c)
            if c:
                clean[g] = c
        self.level = level
        self.terms = clean

    @classmethod
    def _trusted(cls, level: int, terms: dict) -> "AlgebraElement":
        """Element of nonzero normalised coefficients on level-`level` terms."""
        x = object.__new__(cls)
        x.level, x.terms = level, terms
        return x

    @classmethod
    def _from_perms(cls, level: int, coeffs: dict) -> "AlgebraElement":
        """Element from int or Fraction coefficients keyed by the `perm` bytes
        of level-`level` elements; each key is interned once."""
        return cls._trusted(level, {
            _pool.get(k) or _from_perm(level, k):
            c.numerator if type(c) is not int and c.denominator == 1 else c
            for k, c in coeffs.items() if c})

    @classmethod
    def of(cls, g: TreeAutomorphism, coeff=1) -> "AlgebraElement":
        return cls(g.level, {g: coeff})

    @classmethod
    def from_elements(cls, level: int, elements) -> "AlgebraElement":
        """Coefficient-1 sum over a set of elements (e.g. an orbit)."""
        return cls(level, {g: 1 for g in elements})

    def canonical_terms(self):
        return tuple((g, self.terms[g]) for g in sorted(self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.level == other.level and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.level, frozenset(self.terms.items())))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not self._compatible(other):
            return NotImplemented
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return AlgebraElement(self.level, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not self._compatible(other):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.level, {g: -c for g, c in self.terms.items()})

    def scaled(self, c) -> "AlgebraElement":
        if type(c) is not int:
            c = _rational(c)
        return AlgebraElement(self.level, {g: c * v for g, v in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not self._compatible(other):
            return NotImplemented
        out, rights = {}, other.terms.items()
        for g, a in self.terms.items():
            g_table = table(g.perm)  # h.perm through it is g * h
            for h, b in rights:
                k = h.perm.translate(g_table)
                out[k] = out.get(k, 0) + a * b
        return AlgebraElement._from_perms(self.level, out)

    def commutes_with(self, g: TreeAutomorphism) -> bool:
        """self * g == g * self, compared on the `perm` bytes of the term
        products; the products of one g with distinct terms are distinct."""
        g_table, terms = table(g.perm), self.terms.items()
        return ({g.perm.translate(table(h.perm)): c for h, c in terms}
                == {h.perm.translate(g_table): c for h, c in terms})

    def _compatible(self, other) -> bool:
        """Whether `other` is an element, so that Python can name the operator
        and both types otherwise; an element of another level is an error."""
        if not isinstance(other, AlgebraElement):
            return False
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level}")
        return True

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        bits = [f"{c}*{g.cycle_string()}" for g, c in self.canonical_terms()]
        return "AlgebraElement(" + " + ".join(bits) + ")"


class Orbit(namedtuple("Orbit", "representative elements")):
    """A conjugation orbit: canonical-min representative plus all elements."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.elements)


def _label_orbits(level, acting, seeds, labels) -> int:
    """The frontier walk: each `perm` seed not yet in `labels`, in order, walks
    the conjugation graph of the subgroup's generators (embedded single swaps,
    so t * x * t conjugates) and labels each perm it reaches with its orbit's
    number, counted from 0 in this call.  Returns the number of orbits."""
    gens = [(t.perm, table(t.perm)) for t in acting.generators(level)]
    count = 0
    for seed in filterfalse(labels.__contains__, seeds):
        labels[seed], frontier = count, [seed]
        while frontier:
            x_table = frontier.pop().ljust(256, b"\0")  # t through it is x * t
            for t, t_table in gens:
                y = t.translate(x_table).translate(t_table)
                if y not in labels:
                    labels[y] = count
                    frontier.append(y)
        count += 1
    return count


def orbit(g: TreeAutomorphism, acting: SubgroupSpec) -> Orbit:
    """Closure of {g} under conjugation by the acting subgroup: one
    `_label_orbits` walk into a fresh dict, interning only the orbit found."""
    level = g.level
    if level > MAX_ENUM_LEVEL:
        raise LevelTooLarge(f"orbit computation capped at level {MAX_ENUM_LEVEL}")
    _label_orbits(level, acting, (g.perm,), labels := {})
    elems = from_perms(level, labels)
    return Orbit(elems[0], elems)


def orbit_sum(g: TreeAutomorphism, acting: SubgroupSpec) -> AlgebraElement:
    return AlgebraElement.from_elements(g.level, orbit(g, acting).elements)


def class_sum(g: TreeAutomorphism) -> AlgebraElement:
    """Conjugacy-class sum: orbit sum under embedded(g.level), the whole group."""
    return orbit_sum(g, SubgroupSpec.embedded(g.level))


def centralizes(x: AlgebraElement, sub: SubgroupSpec) -> bool:
    """True iff x commutes with the embedded subgroup.

    Commuting with every generator suffices since generators generate; the
    tests compare it with commuting with every element of the subgroup.
    """
    return all(x.commutes_with(t) for t in sub.generators(x.level))
