"""Spanning check for the identity-block factorization, used by the tests.

Whether the class sums of the embedded level-n group times the unital
algebra generated by the d-generators span the whole adjacent-level
centralizer algebra.
"""

from fractions import Fraction

from iterwreath.algebra import AlgebraElement
from iterwreath.endo import d_generator_table
from iterwreath.structure import class_count, conjugacy_classes
from iterwreath.treegroup import embed_to, group_order, identity


class _Span:
    """Echelonized sparse span of algebra elements over the rationals."""

    def __init__(self, level: int):
        self.level = level
        self.rows = {}

    def _reduce(self, x: AlgebraElement) -> AlgebraElement:
        while x:
            pivot = min(x.terms)
            row = self.rows.get(pivot)
            if row is None:
                return x
            x = x - row.scaled(x.terms[pivot])
        return x

    def add(self, x: AlgebraElement) -> bool:
        x = self._reduce(x)
        if not x:
            return False
        pivot = min(x.terms)
        self.rows[pivot] = x.scaled(Fraction(1) / x.terms[pivot])
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _generated_algebra_rows(level: int, generators):
    """Linear basis of the unital algebra generated by the given elements."""
    span = _Span(level)
    one = AlgebraElement.of(identity(level))
    span.add(one)
    frontier = [one]
    while frontier:
        fresh = []
        for v in frontier:
            for g in generators:
                w = v * g
                reduced = span._reduce(w)
                if reduced:
                    span.add(reduced)
                    fresh.append(reduced)
        frontier = fresh
    return list(span.rows.values())


def id_factor_span_check(n: int):
    """Dimensions of (class sums) x (generated block) against the centralizer.

    Returns (product span dimension, centralizer dimension); equality means
    the two factors together span the whole adjacent-level centralizer.
    """
    level = n + 1
    swaps, sums = d_generator_table(n, level)
    block_rows = _generated_algebra_rows(level, [elt for _, elt in swaps + sums])
    class_sums = [
        AlgebraElement.from_elements(level, (embed_to(x, level) for x in c.elements))
        for c in conjugacy_classes(n).orbits]
    span = _Span(level)
    for c in class_sums:
        for d in block_rows:
            span.add(c * d)
    centralizer_dim = group_order(n) * (class_count(n) + 1)
    return span.dimension, centralizer_dim
