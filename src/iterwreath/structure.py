"""Structural invariants of the tower, verified by brute force.

Closed-form counting formulas are treated as predictions; exhaustive
computation over the finite groups is the ground truth, and every
decomposition built here re-checks its own partition properties.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .algebra import AlgebraElement, orbit
from .treegroup import (
    MAX_ENUM_LEVEL,
    LevelTooLarge,
    SubgroupSpec,
    TreeAutomorphism,
    _from_perm,
    _pool,
    beta,
    beta_product,
    element_cache,
    embed_to,
    from_perms,
    full_group,
    group_order,
    identity,
    table,
)


class VerificationError(RuntimeError):
    """A structural claim failed its exhaustive re-check."""


# --- counting --------------------------------------------------------------

@lru_cache(maxsize=None)
def class_count(n: int) -> int:
    """Number of conjugacy classes: c_0 = 1, c_n = c_{n-1}(3 + c_{n-1})/2."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n == 0:
        return 1
    prev = class_count(n - 1)
    num = prev * (3 + prev)
    assert num % 2 == 0
    return num // 2


def _orbit_count(n: int, k: int, a: int) -> int:
    """|A_n|*...*|A_{n+k-1}| * (c_n + a), the form both readings share."""
    if k < 0:
        raise ValueError(f"offset must be >= 0, got {k}")
    prod = 1
    for j in range(k):
        prod *= group_order(n + j)
    return prod * (class_count(n) + a)


def predicted_orbit_count(n: int, k: int) -> int:
    """Predicted orbit count of level-n conjugation on the level-(n+k) group.

    Index-corrected reading: |A_n|*...*|A_{n+k-1}| * (c_n + 2**k - 1), which
    reproduces the adjacent-level count |A_n|*(c_n + 1) at k = 1 and the
    class count at k = 0.
    """
    return _orbit_count(n, k, (1 << k) - 1)


def predicted_orbit_count_literal(n: int, k: int) -> int:
    """The stated formula read literally, for comparison against brute force.

    Literally the multiplier for the level-(n+k) action is c_n + a_{k-1}
    with a_0 = 0, a_r = 2*a_{r-1} + 1, i.e. c_n + 2**(k-1) - 1; at k = 0
    it is the class count.
    """
    return _orbit_count(n, k, (1 << max(k - 1, 0)) - 1)


# --- centers and centralizers ----------------------------------------------

def center_closed_form(n: int):
    """{identity, product of all sibling-leaf swaps}, the predicted center."""
    if n == 0:
        return (identity(0),)
    word = [0] * ((1 << n) - 1)
    for pos in range((1 << (n - 1)) - 1, (1 << n) - 1):
        word[pos] = 1
    return tuple(sorted((identity(n), TreeAutomorphism.from_word(word))))


def center(n: int):
    """Brute-force center: the centralizer of the whole level-n group."""
    return group_centralizer(n, 0)


def group_centralizer(n: int, k: int):
    """Brute-force centralizer of the embedded level-n group at level n+k."""
    if k < 0:
        raise ValueError(f"offset must be >= 0, got {k}")
    ambient = n + k
    if ambient > MAX_ENUM_LEVEL:
        raise LevelTooLarge(
            f"centralizer computation capped at level {MAX_ENUM_LEVEL}")
    out = full_group(ambient)
    for t in SubgroupSpec.embedded(n).generators(ambient):
        t_table = table(t.perm)  # x * t against t * x, on perm bytes
        out = [x for x in out
               if t.perm.translate(table(x.perm)) == x.perm.translate(t_table)]
    return tuple(out)


# --- orbit decompositions ---------------------------------------------------

class OrbitLabel(namedtuple("OrbitLabel", "kind base indices shift")):
    """Structured name for one conjugation orbit.

    kind "class": the orbit is (conjugacy class of `base`) * `shift`;
    kind "beta": the orbit is (orbit of the descending generator product
    over `indices`) * `shift`, with `shift` running over the commuting
    shifted-copy chain; `base` is None for kind "beta".
    """

    __slots__ = ()


class OrbitDecomposition(namedtuple("OrbitDecomposition",
                                    "ambient_level orbits labels",
                                    defaults=(None,))):
    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.orbits)


def _orbit_partition(elements, spec: SubgroupSpec):
    """Partition into conjugation orbits, in order of their first element."""
    seen = set()
    orbits = []
    for seed in elements:
        if seed not in seen:
            orbits.append(orbit(seed, spec))
            seen.update(orbits[-1].elements)
    return tuple(orbits)


def conjugacy_classes(n: int, allow_large: bool = False) -> OrbitDecomposition:
    """All conjugacy classes by brute force; level 4 is opt-in."""
    if n > MAX_ENUM_LEVEL:
        raise LevelTooLarge(f"class enumeration capped at level {MAX_ENUM_LEVEL}")
    if n == MAX_ENUM_LEVEL and not allow_large:
        raise LevelTooLarge(
            "conjugacy classes at level 4 scan 32768 elements; "
            "pass allow_large=True (CLI: --allow-large)")
    spec = SubgroupSpec.full()
    return OrbitDecomposition(n, _orbit_partition(full_group(n), spec))


def orbit_decomposition(n: int, k: int, allow_large: bool = False) -> OrbitDecomposition:
    """Orbits of level-n conjugation on the level-(n+k) group, with labels.

    Each orbit is labeled either (class of g) * h or (orbit of a descending
    generator product) * h; the labeling is re-checked to hit every computed
    orbit exactly once.
    """
    ambient = n + k
    if ambient > MAX_ENUM_LEVEL:
        raise LevelTooLarge(
            f"orbit decomposition capped at ambient level {MAX_ENUM_LEVEL}")
    if k == 0:
        classes = conjugacy_classes(n, allow_large)
        labels = tuple(OrbitLabel("class", o.representative, (), identity(n))
                       for o in classes.orbits)
        return OrbitDecomposition(n, classes.orbits, labels)

    spec = SubgroupSpec.embedded(n)
    orbits = _orbit_partition(full_group(ambient), spec)
    orbit_of = {g.perm: i for i, o in enumerate(orbits) for g in o.elements}

    # a label's set is (elements) * h, as the perm bytes of each product
    shifts = SubgroupSpec.hat_chain(n, ambient - 1).elements(ambient)
    classes = conjugacy_classes(n)
    label_sets = []
    for cls in classes.orbits:
        tables = [table(embed_to(x, ambient).perm) for x in cls.elements]
        rep = embed_to(cls.representative, ambient)
        for h in shifts:
            label_sets.append((OrbitLabel("class", rep, (), h),
                               frozenset(h.perm.translate(t) for t in tables)))
    for size in range(1, k + 1):
        for indices in combinations(range(n + 1, ambient + 1), size):
            w = beta_product(ambient, indices).inverse()
            tables = [table(x.perm) for x in orbit(w, spec).elements]
            for h in shifts:
                label_sets.append((OrbitLabel("beta", None, indices, h),
                                   frozenset(h.perm.translate(t) for t in tables)))

    assigned = [None] * len(orbits)
    for label, perms in label_sets:
        idx = orbit_of.get(next(iter(perms)))
        if idx is None or {g.perm for g in orbits[idx].elements} != perms:
            raise VerificationError(f"label {label} does not match any orbit")
        if assigned[idx] is not None:
            raise VerificationError(
                f"orbit {orbits[idx].representative} labeled twice")
        assigned[idx] = label
    if any(lab is None for lab in assigned):
        raise VerificationError("structured labeling misses some orbits")
    return OrbitDecomposition(ambient, orbits, tuple(assigned))


def centralizer_algebra_basis(n: int, k: int, allow_large: bool = False):
    """Orbit sums of the level-n conjugation action: a centralizer basis.

    Linear independence is free (disjoint supports); commutation with the
    embedded subgroup is re-checked by callers and tests.
    """
    decomp = orbit_decomposition(n, k, allow_large)
    return tuple(AlgebraElement.from_elements(decomp.ambient_level, o.elements)
                 for o in decomp.orbits)


def orbit_index(supports):
    """Map each key of disjoint orbit supports to (orbit number, orbit size)."""
    return {key: (i, len(support))
            for i, support in enumerate(supports) for key in support}


def expand_in_orbit_basis(terms, index, dim: int):
    """Coefficients of `terms` on the `dim` orbit sums numbered by `index`.

    `terms` maps keys to nonzero coefficients (an AlgebraElement's terms or
    a tensor formal sum) and `index` is the basis's orbit_index.  One pass;
    None if a key lies in no orbit, a coefficient is not constant on its
    orbit, or an orbit is only partly covered.
    """
    coeffs = [0] * dim
    missing = {}
    for key, c in terms.items():
        i, size = index.get(key, (None, 0))
        if i is None or coeffs[i] and coeffs[i] != c:
            return None
        coeffs[i] = c
        missing[i] = missing.get(i, size) - 1
    return None if any(missing.values()) else tuple(coeffs)


def structure_constants(vectors, compose):
    """Expansions of compose(a, b) over ordered pairs of orbit-sum vectors.

    `vectors` are key->coefficient dicts with disjoint supports.  Rows and
    their cells are lazy: a product is made only when its cell is read, and
    a cell is None where the product leaves the span.
    """
    index, dim = orbit_index(vectors), len(vectors)

    def row(a):
        return (expand_in_orbit_basis(compose(a, b), index, dim) for b in vectors)

    return map(row, vectors)


def algebra_constants(basis):
    """structure_constants of algebra orbit sums under the algebra product."""
    vector = {id(v.terms): v for v in basis}  # keyed by its own terms dict
    return structure_constants([v.terms for v in basis], lambda x, y: (
        vector[id(x)] * vector[id(y)]).terms)


# --- coset systems -----------------------------------------------------------

class CosetSystem(namedtuple("CosetSystem", "ambient_level representatives "
                                             "sizes cosets stated_representatives")):
    """A verified partition of the ambient group into cosets.

    `representatives` are the canonical minima of each coset (sorted);
    `stated_representatives` are the generated products whose completeness
    the construction asserts, aligned with `cosets`.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.cosets)


def _coset_system(systems, ambient: int, label: str) -> CosetSystem:
    """Order (coset, stated representative) pairs by each coset's least
    element and verify the partition, the one check of the coset layer: the
    cosets' elements, repeats kept, are the |A| distinct elements."""
    systems = sorted(systems, key=lambda system: system[0][0].rank)
    ranks = [g.rank for coset, _ in systems for g in coset]
    order, covered = group_order(ambient), len(set(ranks))
    if not len(ranks) == order == covered:
        raise VerificationError(
            f"{label}: cosets cover {covered} of {order} elements "
            f"(total size {len(ranks)})")
    return CosetSystem(
        ambient_level=ambient,
        representatives=tuple(c[0] for c, _ in systems),
        sizes=tuple(len(c) for c, _ in systems),
        cosets=tuple(c for c, _ in systems),
        stated_representatives=tuple(rep for _, rep in systems),
    )


def coset_rep_pairs(base: int, ambient: int):
    """Transversal of the embedded level-`base` subgroup, as (b, I, product).

    b runs over the chain of shifted copies between the two levels and I over
    subsets of {base+1, ..., ambient}; the product b * beta_product(I) is the
    representative.  For ambient == base the single representative is trivial.
    """
    if base > ambient:
        raise ValueError(f"base {base} exceeds ambient {ambient}")
    if base == ambient:
        return ((identity(ambient), (), identity(ambient)),)
    chain = SubgroupSpec.hat_chain(base, ambient - 1).elements(ambient)
    betas = [(indices, beta_product(ambient, indices).perm)
             for size in range(ambient - base + 1)
             for indices in combinations(range(base + 1, ambient + 1), size)]
    out = []
    for b in chain:
        b_table = table(b.perm)  # w through it is b * w
        for indices, w in betas:
            p = w.translate(b_table)
            out.append((b, indices, _pool.get(p) or _from_perm(ambient, p)))
    out.sort(key=lambda item: item[2].rank)
    return tuple(out)


def right_coset_reps(n: int, l: int) -> CosetSystem:
    """Right cosets of the embedded level-n group inside level n+l+1."""
    ambient = n + l + 1
    if ambient > MAX_ENUM_LEVEL:
        raise LevelTooLarge(
            f"right-coset enumeration capped at level {MAX_ENUM_LEVEL}")
    tables = [table(x.perm) for x in SubgroupSpec.embedded(n).elements(ambient)]
    return _coset_system(
        ((from_perms(ambient, [rep.perm.translate(t) for t in tables]), rep)
         for _, _, rep in coset_rep_pairs(n, ambient)),
        ambient, "right cosets")


@element_cache
def double_cosets(n: int) -> CosetSystem:
    """Two-sided cosets of the embedded level-n group inside level n+1.

    The shifted copy's elements each give a coset of size |A_n| (they
    centralize the embedded subgroup), and the root swap gives one coset of
    size |A_n|**2.  Only left stability and the partition are checked: a
    partition leaves no room for a repeat, and the report compares the
    sizes.  Built once per level: the Mackey census reads the same system.
    """
    ambient = n + 1
    if ambient > MAX_ENUM_LEVEL:
        raise LevelTooLarge(
            f"double-coset enumeration capped at level {MAX_ENUM_LEVEL}")
    spec = SubgroupSpec.embedded(n)
    base = [y.perm for y in spec.elements(ambient)]
    gen_tables = [table(t.perm) for t in spec.generators(ambient)]

    systems = []
    for b in SubgroupSpec.hat(n).elements(ambient):
        b_table = table(b.perm)
        coset = from_perms(ambient, (y.translate(b_table) for y in base))
        block = {x.perm for x in coset}
        # left stability by generators makes b*A_n the full two-sided coset
        for t_table in gen_tables:
            if any(x.translate(t_table) not in block for x in block):
                raise VerificationError(
                    f"coset of {b.cycle_string()} is not left-stable")
        systems.append((coset, b))

    root = beta(ambient, ambient)
    right = [y.translate(table(root.perm)) for y in base]  # root * y
    # cosets are interned as they are built: a set of fresh perm bytes costs
    # memory that the interned elements already hold
    big = from_perms(ambient, (p.translate(x_table)
                               for x_table in map(table, base) for p in right))
    systems.append((big, root))
    return _coset_system(systems, ambient, "double cosets")


# --- defining relations -------------------------------------------------------

class RelationInstance(namedtuple("RelationInstance", "family params holds")):
    __slots__ = ()


class PresentationReport(namedtuple("PresentationReport", "instances untestable")):
    """Evaluation of the three defining relation families at one level.

    Relation symbols are indexed from the root down (symbol 1 is the root
    swap): family 3 only closes under that indexing, which brute force
    confirms.  Instances whose literal index range runs past the deepest
    generator are recorded as untestable instead of evaluated.
    """

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(inst.holds for inst in self.instances)

    def family_counts(self):
        counts = {1: 0, 2: 0, 3: 0}
        for inst in self.instances:
            counts[inst.family] += 1
        return counts


def check_presentation(n: int) -> PresentationReport:
    """Evaluate the defining relations in the permutation representation."""
    if n > MAX_ENUM_LEVEL:
        raise LevelTooLarge(f"presentation check capped at level {MAX_ENUM_LEVEL}")

    def sym(i):
        # root-first indexing of relation symbols
        return beta(n, n + 1 - i)

    e = identity(n)
    instances = []
    untestable = []
    for i in range(1, n + 1):
        instances.append(RelationInstance(1, (i,), sym(i) * sym(i) == e))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                w = sym(i) * sym(j) * sym(i) * sym(j)
                instances.append(RelationInstance(2, (i, j), (w * w).is_identity))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n - i + 1):
                if j + k > n:
                    untestable.append((i, j, k))
                    continue
                w = sym(i) * sym(j) * sym(i) * sym(j + k)
                instances.append(
                    RelationInstance(3, (i, j, k), (w * w).is_identity))
    return PresentationReport(tuple(instances), tuple(untestable))
