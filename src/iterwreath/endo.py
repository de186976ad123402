"""Bases and generating sets for endomorphisms of iterated induction/restriction.

The space of natural transformations of Ind^k Res^l at level n is realized
inside the tensor bimodule of the level-m and level-n group algebras over the
level-b one, m = n+k-l and b = n-l.  Its basis elements are tensors a (x) r
of a left element and a right-coset representative of the embedded level-b
group.  A level-n element g acts by a (x) r -> (g*a*y) (x) r', where the
renormalization r * g^-1 = y * r' moves the level-b prefix y into the left.

Internally a tensor is the integer left_index * R + rep_index: lefts in word
order, the R representatives sorted by (coset_b, coset_indices), so integer
order is TensorBasisElement order.  Since y and r' depend on (r, g) only, the
orbit search reads one table entry per (rep, generator) and never factorizes
per tensor; composition reads a table over rep pairs, r1 * r2 = y * r'.
TensorBasisElement values are built only at the boundary: tensor_basis,
conj_action_tensor and the end-basis vectors a caller reads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import combinations

from .algebra import AlgebraElement, centralizes, orbit_sum
from .structure import (
    VerificationError,
    algebra_constants,
    centralizer_algebra_basis,
    coset_rep_pairs,
    structure_constants,
)
from .treegroup import (
    MAX_ENUM_LEVEL,
    LevelTooLarge,
    SubgroupSpec,
    TreeAutomorphism,
    UsageError,
    beta,
    beta_product,
    element_cache,
    embed_to,
    factorize,
    full_group,
    group_order,
    hat_embed,
    identity,
)

MAX_POWER_EXPONENT = 8
# Tensor bases are built one entry per tensor; 2**23 is end-basis 4 1 1.
MAX_TENSORS = 1 << 23


class HomSpaceEmpty(ValueError):
    """More restrictions than the level allows: the hom space is empty."""


class TensorBasisElement(namedtuple("TensorBasisElement",
                                    "left coset_b coset_indices base_level")):
    """One basis tensor: left group element and a named coset representative.

    The representative is coset_b * beta_product(coset_indices) for the
    right cosets of the embedded level-`base_level` subgroup at the level of
    `coset_b`; coset_b lies in the chain of shifted copies between the two.
    Tensors order as their field tuples.
    """

    __slots__ = ()

    def coset_rep(self) -> TreeAutomorphism:
        """The representative, as the cached tensor index holds it."""
        index = _tensor_index(self.left.level, self.coset_b.level, self.base_level)
        return index.reps[index.rep_index[self.coset_b, self.coset_indices]][2]


def tensor_count(m: int, n: int, b: int) -> int:
    """|A_m| |A_n| / |A_b|: the number of tensors over the level-b group."""
    return group_order(m) * group_order(n) // group_order(b)


def tensor_index(n: int, k: int, l: int) -> _TensorIndex:
    """The integer tensors of the (n, k, l) basis, once the parameters pass."""
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
    size = tensor_count(n + k - l, n, n - l)
    if size > MAX_TENSORS:
        raise LevelTooLarge(
            f"tensor basis capped at {MAX_TENSORS} tensors, got {size}")
    return _tensor_index(n + k - l, n, n - l)


def tensor_basis(n: int, k: int, l: int):
    """All pairs (left element, coset representative); the tensor basis."""
    index = tensor_index(n, k, l)
    return tuple(map(index.tensor, range(index.size)))


class _TensorIndex:
    """Integer tensors t = left_index * R + rep_index for one level triple."""

    def __init__(self, m: int, n: int, b: int):
        self.m, self.b, self.lefts = m, b, full_group(m)
        self.reps = sorted(coset_rep_pairs(b, n), key=lambda rep: rep[:2])
        self.pairs = {}
        self.rep_index = {rep[:2]: i for i, rep in enumerate(self.reps)}
        self.size = len(self.lefts) * len(self.reps)
        expected = tensor_count(m, n, b)
        if self.size != expected:
            raise VerificationError(
                f"tensor basis size {self.size}, expected {expected}")

    def encode(self, left: TreeAutomorphism, rep: int) -> int:
        # a level-m rank is |A_m| plus the word read in binary
        return (left.rank - len(self.lefts)) * len(self.reps) + rep

    def number(self, t: TensorBasisElement) -> int:
        return self.encode(t.left, self.rep_index[t.coset_b, t.coset_indices])

    def tensor(self, t: int) -> TensorBasisElement:
        left, rep = divmod(t, len(self.reps))
        return TensorBasisElement(self.lefts[left], *self.reps[rep][:2], self.b)

    def split(self, right: TreeAutomorphism):
        """Renormalize right = y * rep: (rep index, y at the left level)."""
        f = factorize(right, self.b)
        chain = math.prod(f.hats, start=identity(right.level))
        return self.rep_index[chain, f.indices], embed_to(f.base, self.m)

    def product(self, r1: int, r2: int):
        """The rep-pair table, filled on use: the split of rep r1 * rep r2."""
        if (r1, r2) not in self.pairs:
            self.pairs[r1, r2] = self.split(self.reps[r1][2] * self.reps[r2][2])
        return self.pairs[r1, r2]

    def compose(self, x: dict, y: dict) -> dict:
        """compose_tensor_sums on integer tensors."""
        out: dict = {}
        width, lefts = len(self.reps), self.lefts
        for t2, d in y.items():
            for t1, c in x.items():
                rep, crossed = self.product(t1 % width, t2 % width)
                key = self.encode(
                    lefts[t2 // width] * lefts[t1 // width] * crossed, rep)
                out[key] = out.get(key, 0) + c * d
        return {t: c for t, c in out.items() if c}


# one index per level triple, shared by every caller, like full_group
_tensor_index = element_cache(_TensorIndex)


def conj_action_tensor(h: TreeAutomorphism, t: TensorBasisElement) -> TensorBasisElement:
    """Left action of a level-n element on the tensor basis.

    Conjugates the tensor inside the bimodule and renormalizes.  Restricted
    to the embedded level-(n-l) subgroup this is plain conjugation of both
    factors, which is the action the endomorphism basis needs; over the whole
    level-n group it is still a left action (the naive two-sided conjugation
    formula is not).
    """
    n, m = t.coset_b.level, t.left.level
    if h.level != n:
        raise ValueError(f"acting element level {h.level}, expected {n}")
    index = _tensor_index(m, n, t.base_level)
    rep, crossed = index.split(t.coset_rep() * h.inverse())
    return index.tensor(index.encode(embed_to(h, m) * t.left * crossed, rep))


class TensorOrbits(Sequence):
    """End-basis vectors at l > 0: tuples of tensors, built on access.

    `roots` maps each integer tensor to the least member of its orbit; the
    orbits are grouped on first access, in order of their least members.
    """

    def __init__(self, index: _TensorIndex, roots: list):
        self.index, self.roots = index, roots

    @cached_property
    def orbits(self) -> list:
        groups: dict = {}
        for t, root in enumerate(self.roots):
            groups.setdefault(root, []).append(t)
        return list(groups.values())

    def __len__(self) -> int:
        return len(self.orbits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return tuple(map(self.index.tensor, self.orbits[i]))


class EndBasis(namedtuple("EndBasis", "n k l dimension vectors acting_level "
                                       "index_change_count")):
    """Orbit-sum basis of the endomorphism space for parameters (n, k, l).

    The commutation constraint on the space comes from the level-(n-l)
    subgroup, so the orbits are taken under its embedded copy.  For l = 0
    the vectors are plain algebra elements; otherwise each vector is the
    coefficient-1 sum over a tuple of tensor basis elements, and `vectors`
    is a TensorOrbits sequence that builds them on access.
    """

    __slots__ = ()


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
    t = next(iter(x or y), None)
    if t is None:
        return {}
    index = _tensor_index(t.left.level, t.coset_b.level, t.base_level)
    out = index.compose({index.number(s): c for s, c in x.items()},
                        {index.number(s): c for s, c in y.items()})
    return {index.tensor(s): c for s, c in out.items()}


def end_basis_closure(basis: "EndBasis"):
    """Whether products of the orbit-sum vectors stay inside their span.

    Algebra products at l = 0, compositions otherwise, read until the first
    that leaves it: (closed, its (i, j) in row-major order, or None).
    """
    if basis.l == 0:
        rows = algebra_constants(basis.vectors)
    else:
        n = basis.n
        tensors = _tensor_index(n + basis.k - basis.l, n, n - basis.l)
        rows = structure_constants(
            [dict.fromkeys(map(tensors.number, vec), 1) for vec in basis.vectors],
            tensors.compose)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell is None:
                return False, (i, j)
    return True, None


def _generator_table(index: _TensorIndex, gens):
    """Per (rep r, generator g): the split of r * g^-1, as (rep index, y)."""
    return [[index.split(rep * g.inverse()) for g in gens]
            for _, _, rep in index.reps]


def end_ind_res_basis(n: int, k: int, l: int) -> EndBasis:
    """Orbit sums of the tensor basis under the embedded level-(n-l) group,
    from a union-find over integer tensors."""
    index, m = tensor_index(n, k, l), n + k - l
    gens = SubgroupSpec.embedded(n - l).generators(n)
    width, parent = len(index.reps), list(range(index.size))

    def find(t):
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    lifts = [embed_to(g, m) for g in gens]
    movers, changes = {}, 0  # movers[g, y][a]: the tensor (g * a * y) (x) rep 0
    for r, row in enumerate(_generator_table(index, gens)):
        for g, (target, y) in zip(lifts, row):
            changes += index.reps[target][1] != index.reps[r][1]
            if (g, y) not in movers:
                movers[g, y] = [index.encode(g * a * y, 0) for a in index.lefts]
            for a, b in zip(range(r, index.size, width), movers[g, y]):
                ra, rb = find(a), find(b + target)
                if ra < rb:
                    parent[rb] = ra
                elif rb < ra:
                    parent[ra] = rb
    for t in range(index.size):  # a parent never exceeds its child
        parent[t] = parent[parent[t]]
    vectors = TensorOrbits(index, parent)
    if l == 0:
        vectors = tuple(AlgebraElement.from_elements(
            m, map(index.lefts.__getitem__, orbit)) for orbit in vectors.orbits)
    dimension = sum(map(int.__eq__, parent, range(index.size)))
    return EndBasis(n, k, l, dimension, vectors, n - l,
                    changes * len(index.lefts))


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

    Nothing is asserted here: the power-table report decides whether, at
    n = 1, the odd powers collapse to 2**(k-1) times the orbit sum.
    """
    if n < 1 or n > MAX_ENUM_LEVEL - 1:
        raise LevelTooLarge(f"power table needs 1 <= n <= {MAX_ENUM_LEVEL - 1}")
    if not 1 <= max_k <= MAX_POWER_EXPONENT:
        raise UsageError(f"max_k must be in 1..{MAX_POWER_EXPONENT}")
    o = orbit_sum(beta(n + 1, n + 1), SubgroupSpec.embedded(n))
    powers = [o]
    for _ in range(max_k - 1):
        powers.append(powers[-1] * o)
    return tuple(powers)


# --- opposite-algebra comparison ----------------------------------------------

class OppositeReport(namedtuple("OppositeReport", "dimension closure_ok "
                                 "transpose_ok left_constants right_constants")):
    """The constants of composition by left and by right multiplication."""

    __slots__ = ()


def opposite_check(n: int, k: int) -> OppositeReport:
    """Structure constants under left versus right multiplication composition.

    Natural transformations of iterated restriction compose by multiplying on
    the left, those of iterated induction on the right; on the shared
    orbit-sum basis the two tables must be transposes of each other.  The
    left table multiplies algebra elements; the right one composes the same
    sums as tensors of the l = 0 bimodule, whose composition x after y
    multiplies y's elements by x's, so no product is read twice.
    """
    if n + k > MAX_ENUM_LEVEL - 1:
        raise LevelTooLarge(
            f"opposite check capped at ambient level {MAX_ENUM_LEVEL - 1}")
    basis = centralizer_algebra_basis(n, k)
    tensors = _tensor_index(n + k, n, n)
    sums = [{tensors.encode(g, 0): c for g, c in v.terms.items()} for v in basis]
    left = tuple(map(tuple, algebra_constants(basis)))
    right = tuple(map(tuple, structure_constants(sums, tensors.compose)))
    closure_ok = all(c is not None for row in left + right for c in row)
    transpose_ok = closure_ok and left == tuple(zip(*right))
    return OppositeReport(len(basis), closure_ok, transpose_ok, left, right)
