"""Bases and generating sets for endomorphisms of iterated induction/restriction.

The space of natural transformations of Ind^k Res^l at level n is realized
inside the tensor bimodule of the level-(n+k-l) and level-n group algebras
over the level-(n-l) one.  Its basis elements are pairs (left element,
right-coset representative); conjugation permutes those pairs after a
renormalization step that re-expresses a conjugated representative through
the coset structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraElement, centralizes, orbit_sum
from .structure import (
    VerificationError,
    centralizer_algebra_basis,
    class_count,
    closure_failure,
    conjugacy_classes,
    coset_rep_pairs,
    expand_in_orbit_basis,
    orbit_index,
)
from .treegroup import (
    MAX_ENUM_LEVEL,
    LevelTooLarge,
    SubgroupSpec,
    TreeAutomorphism,
    UsageError,
    beta,
    beta_product,
    embed_to,
    factorize,
    full_group,
    group_order,
    hat_embed,
    identity,
)

MAX_POWER_EXPONENT = 8


class HomSpaceEmpty(ValueError):
    """More restrictions than the level allows: the hom space is empty."""


@dataclass(frozen=True, order=True)
class TensorBasisElement:
    """One basis tensor: left group element and a named coset representative.

    The representative is coset_b * beta_product(coset_indices) for the
    right cosets of the embedded level-`base_level` subgroup at the level of
    `coset_b`; coset_b lies in the chain of shifted copies between the two.
    """

    left: TreeAutomorphism
    coset_b: TreeAutomorphism
    coset_indices: tuple
    base_level: int

    def coset_rep(self) -> TreeAutomorphism:
        return self.coset_b * beta_product(self.coset_b.level, self.coset_indices)


def _validate_params(n: int, k: int, l: int) -> None:
    if n < 0 or k < 0 or l < 0:
        raise ValueError(f"parameters must be >= 0, got {(n, k, l)}")
    if l > n:
        raise HomSpaceEmpty(
            f"cannot restrict {l} times from level {n}: the hom space is empty")
    if k < l:
        raise UsageError(
            f"left tensor level n+k-l = {n + k - l} would sit below level {n}")
    if max(n, n + k - l) > MAX_ENUM_LEVEL:
        raise LevelTooLarge(
            f"tensor basis capped at level {MAX_ENUM_LEVEL}, "
            f"got left level {n + k - l}")


def tensor_basis(n: int, k: int, l: int):
    """All pairs (left element, coset representative); the tensor basis."""
    _validate_params(n, k, l)
    reps = coset_rep_pairs(n - l, n)
    out = tuple(sorted(
        TensorBasisElement(a, b, indices, n - l)
        for a in full_group(n + k - l)
        for b, indices, _ in reps))
    expected = group_order(n + k - l) * group_order(n) // group_order(n - l)
    if len(out) != expected:
        raise VerificationError(
            f"tensor basis size {len(out)}, expected {expected}")
    return out


def _renormalize(left: TreeAutomorphism, right: TreeAutomorphism,
                 base_level: int):
    """The tensor left (x) right renormalized through the coset transversal.

    Returns (tensor, factorization of right); the factorization's base part
    is the prefix that crossed into the left factor.
    """
    split = factorize(right, base_level)
    chain = math.prod(split.hats, start=identity(right.level))
    tensor = TensorBasisElement(left * embed_to(split.base, left.level),
                                chain, split.indices, base_level)
    return tensor, split


def _conj_action_detail(h: TreeAutomorphism, t: TensorBasisElement):
    """Conjugate the tensor inside the bimodule and renormalize.

    h acts by h * (a (x) x) * h^-1 = (h*a) (x) (x*h^-1); the right factor is
    re-expressed through the coset transversal and its level-(n-l) prefix
    crosses the tensor into the left factor.  Restricted to the embedded
    level-(n-l) subgroup this is plain conjugation of both factors, which is
    the action the endomorphism basis needs; over the whole level-n group it
    is still a left action (the naive two-sided conjugation formula is not).

    Returns (image, crossed, index_changed), where `crossed` is the prefix
    that moved left and index_changed records whether the swap-index part of
    the representative moved.
    """
    n = t.coset_b.level
    if h.level != n:
        raise ValueError(f"acting element level {h.level}, expected {n}")
    image, split = _renormalize(embed_to(h, t.left.level) * t.left,
                                t.coset_rep() * h.inverse(), t.base_level)
    return image, split.base, split.indices != t.coset_indices


def conj_action_tensor(h: TreeAutomorphism, t: TensorBasisElement) -> TensorBasisElement:
    """Left action of a level-n element on the tensor basis."""
    image, _, _ = _conj_action_detail(h, t)
    return image


@dataclass(frozen=True)
class EndBasis:
    """Orbit-sum basis of the endomorphism space for parameters (n, k, l).

    The commutation constraint on the space comes from the level-(n-l)
    subgroup, so the orbits are taken under its embedded copy.  For l = 0
    the vectors are plain algebra elements; otherwise each vector is the
    coefficient-1 sum over a tuple of tensor basis elements.
    """

    n: int
    k: int
    l: int
    dimension: int
    vectors: tuple
    acting_level: int
    index_change_count: int


def compose_tensor_sums(x: dict, y: dict) -> dict:
    """Compose endomorphism elements given as tensor formal sums, x after y.

    The element sum_j c_j (a_j (x) x_j) acts on the bimodule by multiplying
    in the middle, a (x) u -> a * (sum ...) * u, which is only well defined
    when the sum commutes with the level-(n-l) subgroup; orbit-sum vectors
    qualify, single tensors generally do not.  For such x the composition is
    sum_{i,j} c_j d_i (a'_i a_j) (x) (x_j x'_i) renormalized through the
    coset transversal.  Keys are tensor basis elements, values exact
    rational coefficients; zero terms are dropped.
    """
    out: dict = {}
    for t2, d in y.items():
        rep2 = t2.coset_rep()
        for t1, c in x.items():
            key, _ = _renormalize(t2.left * t1.left, t1.coset_rep() * rep2,
                                  t1.base_level)
            coeff = out.get(key, 0) + c * d
            if coeff:
                out[key] = coeff
            else:
                out.pop(key, None)
    return out


def end_basis_closure(basis: "EndBasis"):
    """Whether products of the orbit-sum vectors stay inside their span.

    Expands every pairwise composition in the orbit-sum basis.  Returns
    (closed, first_failure); the result is reported, never asserted, since
    no closed description of these products is available at l > 0.
    """
    if basis.l == 0:
        failure = closure_failure(basis.vectors)
        return failure is None, failure
    index = orbit_index(basis.vectors)
    vectors = [dict.fromkeys(vec, 1) for vec in basis.vectors]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            product = compose_tensor_sums(a, b)
            if expand_in_orbit_basis(product, index, basis.dimension) is None:
                return False, (i, j)
    return True, None


def end_ind_res_basis(n: int, k: int, l: int) -> EndBasis:
    basis = tensor_basis(n, k, l)
    gens = SubgroupSpec.embedded(n - l).generators(n)

    parent = {t: t for t in basis}

    def find(t):
        while parent[t] is not t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    changes = 0
    for t in basis:
        for g in gens:
            image, _, index_changed = _conj_action_detail(g, t)
            if index_changed:
                changes += 1
            ra, rb = find(t), find(image)
            if ra is not rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups = {}
    for t in basis:
        groups.setdefault(find(t), []).append(t)
    orbits = [tuple(sorted(members)) for members in groups.values()]
    orbits.sort()

    if l == 0:
        vectors = tuple(
            AlgebraElement.from_elements(n + k, (t.left for t in members))
            for members in orbits)
    else:
        vectors = tuple(orbits)
    return EndBasis(n, k, l, len(vectors), vectors, n - l, changes)


# --- generating sets ---------------------------------------------------------

def d_generator_table(n: int, m: int):
    """Labeled generators of the non-central block of the centralizer algebra.

    Leftmost-swap generators of each shifted copy between the levels, plus
    the orbit sums of descending generator products over the new indices;
    every entry is checked to centralize the embedded level-n subgroup.
    """
    if not n < m:
        raise UsageError(f"need n < m, got {(n, m)}")
    if m > MAX_ENUM_LEVEL:
        raise LevelTooLarge(f"generator table capped at level {MAX_ENUM_LEVEL}")
    sub = SubgroupSpec.embedded(n)
    table = []
    for shift in range(m - n):
        for i in range(1, n + shift + 1):
            elt = AlgebraElement.of(embed_to(hat_embed(beta(n + shift, i)), m))
            table.append((f"b{i}^({shift})", elt))
    for size in range(1, m - n + 1):
        for indices in combinations(range(n + 1, m + 1), size):
            w = beta_product(m, indices).inverse()
            label = "o(" + " ".join(f"b{j}" for j in reversed(indices)) + ")"
            table.append((label, orbit_sum(w, sub)))
    for label, elt in table:
        if not centralizes(elt, sub):
            raise VerificationError(f"generator {label} fails to centralize")
    return tuple(table)


def power_table(n: int, max_k: int):
    """Exact powers of the adjacent-level orbit sum of the root swap.

    For n = 1 the odd powers collapse to 2**(k-1) times the orbit sum; that
    identity is asserted.  Other expansions are recorded, not asserted.
    """
    if n < 1 or n > MAX_ENUM_LEVEL - 1:
        raise LevelTooLarge(f"power table needs 1 <= n <= {MAX_ENUM_LEVEL - 1}")
    if not 1 <= max_k <= MAX_POWER_EXPONENT:
        raise UsageError(f"max_k must be in 1..{MAX_POWER_EXPONENT}")
    o = orbit_sum(beta(n + 1, n + 1), SubgroupSpec.embedded(n))
    powers = [o]
    for _ in range(max_k - 1):
        powers.append(powers[-1] * o)
    if n == 1:
        for k in range(3, max_k + 1, 2):
            if powers[k - 1] != o.scaled(1 << (k - 1)):
                raise VerificationError(
                    f"odd power identity fails at k={k}")
    return tuple(powers)


# --- opposite-algebra comparison ----------------------------------------------

@dataclass(frozen=True)
class OppositeReport:
    n: int
    k: int
    dimension: int
    closure_ok: bool
    transpose_ok: bool
    left_constants: tuple   # composition by left multiplication
    right_constants: tuple  # composition by right multiplication


def opposite_check(n: int, k: int) -> OppositeReport:
    """Structure constants under left versus right multiplication composition.

    Natural transformations of iterated restriction compose by multiplying on
    the left, those of iterated induction on the right; on the shared
    orbit-sum basis the two tables must be transposes of each other.
    """
    if n + k > MAX_ENUM_LEVEL - 1:
        raise LevelTooLarge(
            f"opposite check capped at ambient level {MAX_ENUM_LEVEL - 1}")
    basis = centralizer_algebra_basis(n, k)
    dim = len(basis)
    index = orbit_index(v.terms for v in basis)

    def expand(x, y):
        return expand_in_orbit_basis((x * y).terms, index, dim)

    left = tuple(tuple(expand(a, b) for b in basis) for a in basis)
    right = tuple(tuple(expand(b, a) for b in basis) for a in basis)
    closure_ok = all(c is not None for row in left + right for c in row)
    transpose_ok = closure_ok and left == tuple(zip(*right))
    return OppositeReport(n, k, dim, closure_ok, transpose_ok, left, right)


# --- spanning check for the identity-block factorization -----------------------

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
            x = x - row.scaled(x.coefficient(pivot))
        return x

    def add(self, x: AlgebraElement) -> bool:
        x = self._reduce(x)
        if x.is_zero():
            return False
        pivot = min(x.terms)
        self.rows[pivot] = x.scaled(Fraction(1) / x.coefficient(pivot))
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _generated_algebra_rows(level: int, generators):
    """Linear basis of the unital algebra generated by the given elements."""
    span = _Span(level)
    one = AlgebraElement.one(level)
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
    block_rows = _generated_algebra_rows(
        level, [elt for _, elt in d_generator_table(n, level)])
    class_sums = [
        AlgebraElement.from_elements(level, (embed_to(x, level) for x in c.elements))
        for c in conjugacy_classes(n).orbits]
    span = _Span(level)
    for c in class_sums:
        for d in block_rows:
            span.add(c * d)
    centralizer_dim = group_order(n) * (class_count(n) + 1)
    return span.dimension, centralizer_dim
