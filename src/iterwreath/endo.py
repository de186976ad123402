"""Bases and generating sets for endomorphisms of iterated induction/restriction.

The space of natural transformations of Ind^k Res^l at level n is realized
inside the tensor bimodule of the level-m and level-n group algebras over the
level-b one, m = n+k-l and b = n-l.  Its basis elements are tensors a (x) r
of a left element and a right-coset representative of the embedded level-b
group.  A level-n element g acts by a (x) r -> (g*a*y) (x) r', where the
renormalization r * g^-1 = y * r' moves the level-b prefix y into the left.

Internally a tensor is the integer left_index * R + rep_index: lefts in word
order, the R representatives in the transversal's (b, I) order, so integer
order is TensorBasisElement order.  Since y and r' depend on (r, g) only, the
orbit search reads one table entry per (rep, generator) and never factorizes
per tensor; composition reads a table over rep pairs, r1 * r2 = y * r'.
TensorBasisElement values are built only at the boundary: tensor_basis
and the end-basis vectors a caller reads.
"""

from __future__ import annotations

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
    _from_perm,
    _pool,
    beta,
    beta_product,
    element_cache,
    embed_to,
    factorize,
    full_group,
    group_order,
    table,
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
        self.reps = [(chain, indices, _from_perm(n, perm))  # interned here only
                     for chain, indices, perm in coset_rep_pairs(b, n)]
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
        return self.rep_index[f.chain, f.indices], embed_to(f.base, self.m)

    def product(self, r1: int, r2: int):
        """The rep-pair table, filled on use: the split of rep r1 * rep r2."""
        if (r1, r2) not in self.pairs:
            self.pairs[r1, r2] = self.split(self.reps[r1][2] * self.reps[r2][2])
        return self.pairs[r1, r2]

    def times(self, t1: int, ts) -> list:
        """The tensor of t1 after t2 for each t2 in ts: (a2 * a1 * y) (x) rep
        where rep r1 * rep r2 = y * rep, read off `perm` bytes and the pool."""
        width, lefts = len(self.reps), self.lefts
        left, r1 = divmod(t1, width)
        a1_table, offset = table(lefts[left].perm), len(lefts)
        crossed = [None] * width  # (rep, a1 * y), for each rep r2 ts touches
        out = []
        for t2 in ts:
            left, r2 = divmod(t2, width)
            if crossed[r2] is None:
                rep, y = self.product(r1, r2)
                crossed[r2] = rep, y.perm.translate(a1_table)
            rep, perm = crossed[r2]
            product = _pool[perm.translate(table(lefts[left].perm))]
            out.append((product.rank - offset) * width + rep)
        return out


# one index per level triple, shared by every caller, like full_group
_tensor_index = element_cache(_TensorIndex)


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
    out: dict = {}
    ys = {index.number(s): d for s, d in y.items()}
    for s, c in x.items():
        for key, d in zip(index.times(index.number(s), ys), ys.values()):
            out[key] = out.get(key, 0) + c * d
    return {index.tensor(s): c for s, c in out.items() if c}


def end_basis_closure(basis: "EndBasis"):
    """Whether compositions of an l > 0 basis' tensor orbit-sum vectors stay
    inside their span, read until the first that leaves it: (closed, its
    (i, j) in row-major order, or None).  At l = 0 the vectors are algebra
    elements: read `structure.algebra_constants(basis.vectors)`.
    """
    n = basis.n
    tensors = _tensor_index(n + basis.k - basis.l, n, n - basis.l)
    rows = structure_constants(
        [list(map(tensors.number, vec)) for vec in basis.vectors], tensors.times)
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
    from a frontier walk over integer tensors."""
    index, m = tensor_index(n, k, l), n + k - l
    gens = SubgroupSpec.embedded(n - l).generators(n)
    width, roots = len(index.reps), list(range(index.size))
    lifts = [embed_to(g, m) for g in gens]
    movers, changes = {}, 0  # movers[g, y][a]: the tensor (g * a * y) (x) rep 0
    steps = []  # steps[r]: (movers[g, y], target rep) per generator g
    for r, row in enumerate(_generator_table(index, gens)):
        for g, (target, y) in zip(lifts, row):
            changes += index.reps[target][1] != index.reps[r][1]
            if (g, y) not in movers:
                movers[g, y] = [index.encode(g * a * y, 0) for a in index.lefts]
        steps.append([(movers[g, y], target) for g, (target, y) in zip(lifts, row)])
    for t in range(index.size) if gens else ():  # no generator: all singletons
        if roots[t] == t:  # no earlier walk reached t: the least of its orbit
            frontier = [t]
            while frontier:
                a, r = divmod(frontier.pop(), width)
                for mover, target in steps[r]:
                    s = mover[a] + target
                    if roots[s] != t:
                        roots[s] = t
                        frontier.append(s)
    vectors = TensorOrbits(index, roots)
    if l == 0:
        vectors = tuple(AlgebraElement.from_elements(
            m, map(index.lefts.__getitem__, orbit)) for orbit in vectors.orbits)
    dimension = sum(map(int.__eq__, roots, range(index.size)))
    return EndBasis(n, k, l, dimension, vectors, n - l,
                    changes * len(index.lefts))


# --- generating sets ---------------------------------------------------------

def d_generator_table(n: int, m: int):
    """Labeled generators of the non-central block of the centralizer algebra.

    Leftmost-swap generators of each shifted copy between the levels, plus
    the orbit sums of descending generator products over the new indices;
    every entry is checked to centralize the embedded level-n subgroup.
    """
    if not n < m <= MAX_ENUM_LEVEL:
        raise UsageError(f"need n < m <= {MAX_ENUM_LEVEL}, got {(n, m)}")
    sub = SubgroupSpec.embedded(n)
    labels = (f"b{i}^({shift})" for shift in range(m - n)
              for i in range(1, n + shift + 1))
    gens = [(label, AlgebraElement.of(g)) for label, g in
            zip(labels, SubgroupSpec.hat_chain(n, m - 1).generators(m))]
    for size in range(1, m - n + 1):
        for indices in combinations(range(n + 1, m + 1), size):
            w = beta_product(m, indices).inverse()
            label = "o(" + " ".join(f"b{j}" for j in reversed(indices)) + ")"
            gens.append((label, orbit_sum(w, sub)))
    for label, elt in gens:
        if not centralizes(elt, sub):
            raise VerificationError(f"generator {label} fails to centralize")
    return tuple(gens)


def power_table(n: int, max_k: int):
    """Exact powers of the adjacent-level orbit sum of the root swap.

    Nothing is asserted here: the power-table report decides whether, at
    n = 1, the odd powers collapse to 2**(k-1) times the orbit sum.
    """
    if not 1 <= n <= MAX_ENUM_LEVEL - 1:
        raise UsageError(
            f"power table needs 1 <= n <= {MAX_ENUM_LEVEL - 1}, got {n}")
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
    """The constants of composition by left and by right multiplication.

    Row i, cell j of each table is the sparse {orbit: coefficient} expansion
    of the product of orbit sums i and j, or None where it leaves the span.
    """

    __slots__ = ()


def opposite_check(n: int, k: int) -> OppositeReport:
    """Structure constants under left versus right multiplication composition.

    Natural transformations of iterated restriction compose by multiplying on
    the left, those of iterated induction on the right; on the shared
    orbit-sum basis the two tables must be transposes of each other.  The
    left table multiplies the elements' `perm` bytes; the right one composes
    the same sums as tensors of the l = 0 bimodule (`_TensorIndex.times`),
    whose composition x after y multiplies y's elements by x's, so no
    product is read twice.
    """
    if n + k > MAX_ENUM_LEVEL - 1:
        raise LevelTooLarge(
            f"opposite check capped at ambient level {MAX_ENUM_LEVEL - 1}")
    basis = centralizer_algebra_basis(n, k)
    tensors = _tensor_index(n + k, n, n)
    sums = [[tensors.encode(g, 0) for g in v.terms] for v in basis]
    left = tuple(map(tuple, algebra_constants(basis)))
    right = tuple(map(tuple, structure_constants(sums, tensors.times)))
    closure_ok = all(c is not None for row in left + right for c in row)
    transpose_ok = closure_ok and left == tuple(zip(*right))
    return OppositeReport(len(basis), closure_ok, transpose_ok, left, right)
