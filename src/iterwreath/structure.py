"""Structural invariants of the tower, verified by brute force.

Closed-form counting formulas are treated as predictions; exhaustive
computation over the finite groups is the ground truth, and every
decomposition built here re-checks its own partition properties.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property, lru_cache, reduce
from itertools import combinations

from .algebra import AlgebraElement, Orbit, _label_orbits, orbit
from .treegroup import (
    MAX_ENUM_LEVEL,
    LevelTooLarge,
    SubgroupSpec,
    TreeAutomorphism,
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


def _orbit_count(n: int, k: int, e: int) -> int:
    """|A_n|*...*|A_{n+k-1}| * (c_n + 2**e - 1), the form both readings share."""
    if k < 0:
        raise ValueError(f"offset must be >= 0, got {k}")
    prod = 1
    for j in range(k):
        prod *= group_order(n + j)
    return prod * (class_count(n) + (1 << e) - 1)


def predicted_orbit_count(n: int, k: int) -> int:
    """Predicted orbit count of level-n conjugation on the level-(n+k) group.

    Index-corrected reading: |A_n|*...*|A_{n+k-1}| * (c_n + 2**k - 1), which
    reproduces the adjacent-level count |A_n|*(c_n + 1) at k = 1 and the
    class count at k = 0.
    """
    return _orbit_count(n, k, k)


def predicted_orbit_count_literal(n: int, k: int) -> int:
    """The stated formula read literally, for comparison against brute force.

    Literally the multiplier for the level-(n+k) action is c_n + a_{k-1}
    with a_0 = 0, a_r = 2*a_{r-1} + 1, i.e. c_n + 2**(k-1) - 1; at k = 0
    it is the class count.
    """
    return _orbit_count(n, k, max(k - 1, 0))


# --- centers and centralizers ----------------------------------------------

def center_closed_form(n: int):
    """{identity, product of all sibling-leaf swaps}, the predicted center."""
    if n == 0:
        return (identity(0),)
    half = 1 << (n - 1)  # the sibling-leaf swaps: the last bits of the word
    return identity(n), TreeAutomorphism.from_word("0" * (half - 1) + "1" * half)


def center(n: int):
    """Brute-force center: the centralizer of the whole level-n group."""
    return group_centralizer(n, 0)


@element_cache
def group_centralizer(n: int, k: int):
    """Brute-force centralizer of the embedded level-n group at level n+k: the
    level-(n-1) one there, filtered by the one generator that n adds."""
    if k < 0:
        raise ValueError(f"offset must be >= 0, got {k}")
    if n == 0:
        return full_group(k)
    below = group_centralizer(n - 1, k + 1)  # full_group(n + k) checks the cap first
    t = SubgroupSpec.embedded(n).generators(n + k)[-1]
    t_perm, t_table = t.perm, table(t.perm)  # x * t against t * x
    return tuple(x for x in below
                 if t_perm.translate(x.perm.ljust(256, b"\0"))
                 == x.perm.translate(t_table))


# --- orbit decompositions ---------------------------------------------------

class OrbitLabel(namedtuple("OrbitLabel", "kind base indices shift")):
    """Structured name for one conjugation orbit.

    kind "class": the orbit is (conjugacy class of `base`) * `shift`;
    kind "beta": the orbit is (orbit of the descending generator product
    over `indices`) * `shift`, with `shift` running over the commuting
    shifted-copy chain; `base` is None for kind "beta".
    """

    __slots__ = ()


class OrbitDecomposition(namedtuple("OrbitDecomposition", "orbits labels",
                                    defaults=(None,))):
    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.orbits)


def _orbit_partition(n: int, ambient: int):
    """Level-n conjugation orbits on full_group(ambient), each in rank order,
    and each perm's orbit number: one `_label_orbits` pass seeded in rank
    order numbers the orbits by least element, and one more fills them."""
    group = full_group(ambient)
    perms, labels = [g.perm for g in group], {}
    count = _label_orbits(ambient, SubgroupSpec.embedded(n), perms, labels)
    members = [[] for _ in range(count)]
    for g, i in zip(group, map(labels.__getitem__, perms)):
        members[i].append(g)
    return tuple(Orbit(m[0], tuple(m)) for m in members), labels


def conjugacy_classes(n: int) -> OrbitDecomposition:
    """All conjugacy classes by brute force."""
    return OrbitDecomposition(_orbit_partition(n, n)[0])


def orbit_decomposition(n: int, k: int) -> OrbitDecomposition:
    """Orbits of level-n conjugation on the level-(n+k) group, with labels.

    Each orbit is labeled either (class of g) * h or (orbit of a descending
    generator product) * h, re-checked to hit every orbit exactly once; at
    k = 0 the orbits are the classes.  Only the `orbits` report reads this:
    the orbit-sum bases take the bare partition.
    """
    ambient, spec = n + k, SubgroupSpec.embedded(n)
    orbits, orbit_of = _orbit_partition(n, ambient)
    classes = conjugacy_classes(n).orbits if k else orbits
    # a label's set is (elements) * h, as perm bytes; a class element's table
    # is its perm, then `tail`: the fixed labels, padded
    tail = bytes(range(1 << n, 1 << ambient)).ljust(256 - (1 << n), b"\0")
    def bases():  # each (kind, base, indices) and its elements' tables
        for cls in classes:
            yield (("class", embed_to(cls.representative, ambient), ()),
                   [x.perm + tail for x in cls.elements])
        for size in range(1, k + 1):
            for indices in combinations(range(n + 1, ambient + 1), size):
                w = orbit(beta_product(ambient, indices).inverse(), spec)
                yield ("beta", None, indices), [table(x.perm) for x in w.elements]
    shifts = SubgroupSpec.hat_chain(n, ambient - 1).elements(ambient)
    assigned = [None] * len(orbits)
    for base, tables in bases():
        for h in shifts:  # each label's set is checked as soon as it is built
            label, perms = OrbitLabel(*base, h), {h.perm.translate(t) for t in tables}
            idx = orbit_of.get(next(iter(perms)))
            if idx is None or {g.perm for g in orbits[idx].elements} != perms:
                raise VerificationError(f"label {label} does not match any orbit")
            if assigned[idx] is not None:
                raise VerificationError(
                    f"orbit {orbits[idx].representative} labeled twice")
            assigned[idx] = label
    if any(lab is None for lab in assigned):
        raise VerificationError("structured labeling misses some orbits")
    return OrbitDecomposition(orbits, tuple(assigned))


def centralizer_algebra_basis(n: int, k: int):
    """Orbit sums of the level-n conjugation action: a centralizer basis.

    From the bare orbit partition, whose elements are not checked again as
    terms; only orbit_decomposition checks labels.  Linear independence is
    free (disjoint supports); the report and the tests re-check commutation.
    """
    return tuple(AlgebraElement._trusted(n + k, dict.fromkeys(o.elements, 1))
                 for o in _orbit_partition(n, n + k)[0])


def orbit_index(supports):
    """Map each key of disjoint orbit supports to (orbit number, orbit size);
    structure_constants and its per-product reference both read it."""
    return {key: (i, len(support))
            for i, support in enumerate(supports) for key in support}


def expand_in_orbit_basis(terms, index, dim: int):
    """Coefficients of `terms` on the `dim` orbit sums numbered by `index`.

    `terms` maps keys to nonzero coefficients (an AlgebraElement's terms or
    a tensor formal sum) and `index` is the basis's orbit_index.  One pass;
    None if a key lies in no orbit, a coefficient is not constant on its
    orbit, or an orbit is only partly covered.  structure_constants does not
    call it: it is the one-product reference that the tests compare each
    structure-constant cell with, and benchmarks/tracing.py wraps it.
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


def structure_constants(supports, times):
    """Sparse expansions of the products of coefficient-1 orbit sums, by row.

    `supports` are the disjoint key lists of the sums, and `times(k, keys)`
    is the list of product keys of k with each key.  Row i counts the
    products of its keys with every key, one call of `times` per key, and
    its cell j is {orbit: coefficient} for sum i times sum j, or None where
    the product leaves the span: a product key lies in no orbit, or an orbit
    gets two coefficients or is only partly covered.  Rows are lazy; the
    coefficients are positive counts, so nothing cancels.
    """
    index = orbit_index(supports)
    keys = [key for support in supports for key in support]
    column = [j for j, support in enumerate(supports) for _ in support]

    def row(support):
        products = Counter()
        for k in support:
            products.update(zip(column, times(k, keys)))
        columns, landed = zip(*products)
        cells = [{} for _ in supports]
        # (column, (orbit, size) of the product, coefficient) -> how many
        # products; an orbit is covered by one coefficient iff it has size
        for (j, place, c), count in Counter(zip(
                columns, map(index.get, landed), products.values())).items():
            if cells[j] is not None:
                if place is None or count != place[1]:
                    cells[j] = None
                else:
                    cells[j][place[0]] = c
        return cells

    return map(row, supports)


def perm_times(k: bytes, perms) -> list:
    """The `perm` of k * h for each h.perm in perms: h.perm through k's table."""
    k_table = table(k)
    return [p.translate(k_table) for p in perms]


def algebra_constants(basis):
    """structure_constants of coefficient-1 algebra orbit sums under the
    algebra product, on `perm` bytes."""
    return structure_constants([[g.perm for g in v.terms] for v in basis],
                               perm_times)


# --- coset systems -----------------------------------------------------------

class CosetSystem:
    """A partition of the ambient group into cosets, checked when built.

    `systems()` yields (coset, stated representative) pairs, each coset a
    sequence of `perm` bytes and its representative the perm of a member.  It
    is a callable so that right cosets, kept as columns, make rows only while
    a pass reads them: a list of rows raised the peak RSS of `verify-all
    --allow-large` from 27.7 to 30.2 MB for no CPU gain (medians of 11 pinned
    runs, 2-CPU host).  The one check of the coset layer runs at once: the
    perms, repeats kept, are the |A| distinct elements.  The ordering, built
    on first read, builds `full_group(ambient)`, which ranks each element from
    its halves instead of reading its swap word, and takes the cosets and
    their representatives from the pool: `representatives` are the coset
    minima (sorted), and `stated_representatives`, the generated products
    whose completeness the construction asserts, are aligned with `cosets`.
    """

    def __init__(self, systems, ambient: int, label: str):
        total, covered, count = 0, set(), 0
        for count, (coset, _) in enumerate(systems(), 1):
            total += len(coset)
            covered.update(coset)
        order = group_order(ambient)
        if not total == order == len(covered):
            raise VerificationError(
                f"{label}: cosets cover {len(covered)} of {order} elements "
                f"(total size {total})")
        self.ambient_level, self.count, self._systems = ambient, count, systems

    @cached_property
    def _ordered(self):
        full_group(self.ambient_level)  # the cosets cover it
        systems = sorted(((from_perms(self.ambient_level, coset), rep)
                          for coset, rep in self._systems()),
                         key=lambda system: system[0][0].rank)
        del self._systems  # the cosets' elements hold their perms now
        return tuple(zip(*((coset, _pool[rep]) for coset, rep in systems)))

    cosets = property(lambda self: self._ordered[0])
    stated_representatives = property(lambda self: self._ordered[1])
    representatives = property(lambda self: tuple(c[0] for c in self.cosets))
    sizes = property(lambda self: tuple(map(len, self.cosets)))


def coset_rep_pairs(base: int, ambient: int):
    """Transversal of the embedded level-`base` subgroup, as (b, I, perm).

    In (b, I) order, the one order of the transversal: b runs over the chain
    of shifted copies between the two levels by rank, I over the subsets of
    {base+1, ..., ambient} as sorted tuples, and perm is the `perm` of the
    representative b * beta_product(I).  At ambient == base the chain is
    empty and the one representative is the identity.
    """
    chain = SubgroupSpec.hat_chain(base, ambient - 1).elements(ambient)
    betas = sorted((indices, beta_product(ambient, indices).perm)
                   for size in range(ambient - base + 1)
                   for indices in combinations(range(base + 1, ambient + 1), size))
    out = []
    for b in chain:
        b_table = table(b.perm)  # w through it is b * w
        out.extend((b, indices, w.translate(b_table)) for indices, w in betas)
    return tuple(out)


def right_coset_reps(n: int, l: int) -> CosetSystem:
    """Right cosets of the embedded level-n group inside level n+l+1."""
    ambient = n + l + 1
    reps = [rep for _, _, rep in coset_rep_pairs(n, ambient)]
    tables = [table(x.perm) for x in SubgroupSpec.embedded(n).elements(ambient)]
    # one column of x * rep per subgroup element x; each coset is a row
    columns = [[rep.translate(t) for rep in reps] for t in tables]
    return CosetSystem(lambda: zip(zip(*columns), reps), ambient, "right cosets")


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
    spec = SubgroupSpec.embedded(n)
    base = [y.perm for y in spec.elements(ambient)]
    gen_tables = [table(t.perm) for t in spec.generators(ambient)]

    systems = []
    for b in SubgroupSpec.hat_chain(n, n).elements(ambient):
        b_table = table(b.perm)
        coset = [y.translate(b_table) for y in base]
        block = set(coset)
        # left stability by generators makes b*A_n the full two-sided coset
        for t_table in gen_tables:
            if any(x.translate(t_table) not in block for x in block):
                raise VerificationError(
                    f"coset of {b.cycle_string()} is not left-stable")
        systems.append((coset, b.perm))

    root = beta(ambient, ambient)
    right = [y.translate(table(root.perm)) for y in base]  # root * y
    big = [p.translate(x_table) for x_table in map(table, base) for p in right]
    systems.append((big, root.perm))
    return CosetSystem(lambda: systems, ambient, "double cosets")


# --- defining relations -------------------------------------------------------

class RelationInstance(namedtuple("RelationInstance", "family params holds")):
    __slots__ = ()


class PresentationReport(namedtuple("PresentationReport", "instances untestable")):
    """Evaluation of the three defining relation families at one level.

    Relation symbols are indexed from the root down (symbol 1 is the root
    swap): family 3 only closes under that indexing, which brute force
    confirms.  Instances whose word names a symbol past the deepest
    generator are recorded as untestable instead of evaluated.
    """

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(inst.holds for inst in self.instances)

    def family_counts(self):
        return {f: sum(inst.family == f for inst in self.instances)
                for f in (1, 2, 3)}


def check_presentation(n: int) -> PresentationReport:
    """Evaluate the defining relations in the permutation representation: one
    row (family, params, word) per instance, the word in root-first symbols,
    holds iff the square of its word's product is the identity."""
    if n > MAX_ENUM_LEVEL:
        raise LevelTooLarge(f"presentation check capped at level {MAX_ENUM_LEVEL}")
    symbols = range(1, n + 1)
    rows = [(1, (i,), (i,)) for i in symbols]
    rows += [(2, (i, j), (i, j, i, j)) for i in symbols for j in symbols if i != j]
    rows += [(3, (i, j, k), (i, j, i, j + k)) for i in symbols
             for j in symbols if i < j for k in range(1, n - i + 1)]
    sym = {i: beta(n, n + 1 - i) for i in symbols}  # symbol 1 is the root swap
    instances, untestable = [], []
    for family, params, word in rows:
        if max(word) > n:
            untestable.append(params)
        else:
            w = reduce(TreeAutomorphism.__mul__, map(sym.__getitem__, word))
            instances.append(RelationInstance(family, params, (w * w).is_identity))
    return PresentationReport(tuple(instances), tuple(untestable))
