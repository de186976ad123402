"""The sweeps that run on `perm` bytes against references on interned products.

Orbits, centralizers, coset systems and the Mackey intersections compute
their products as `bytes.translate` and intern only their results.  Each
reference here restates the same computation with plain `*`, `==` and
`sorted()` over TreeAutomorphism values; results and their order must agree.
"""

import math
from itertools import combinations, product

import pytest

from iterwreath import (
    SubgroupSpec,
    beta,
    beta_product,
    conjugate_intersection,
    double_cosets,
    embed_to,
    full_group,
    group_centralizer,
    hat_embed,
    identity,
    orbit,
    right_coset_reps,
)
from iterwreath.structure import coset_rep_pairs


def subgroup_elements_reference(spec, ambient):
    if spec.kind == "embedded":
        return tuple(sorted(embed_to(g, ambient) for g in full_group(spec.lo)))
    factors = [[embed_to(hat_embed(g), ambient) for g in full_group(m)]
               for m in range(spec.lo, spec.hi + 1)]
    return tuple(sorted(math.prod(combo, start=identity(ambient))
                        for combo in product(*factors)))


def orbit_reference(g, acting):
    gens = acting.generators(g.level)
    seen, frontier = {g}, [g]
    while frontier:
        x = frontier.pop()
        for t in gens:
            y = t * x * t
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


def centralizer_reference(n, k):
    gens = SubgroupSpec.embedded(n).generators(n + k)
    return tuple(x for x in full_group(n + k)
                 if all(x * t == t * x for t in gens))


def coset_rep_pairs_reference(base, ambient):
    if base == ambient:
        return ((identity(ambient), (), identity(ambient)),)
    chain = subgroup_elements_reference(
        SubgroupSpec.hat_chain(base, ambient - 1), ambient)
    out = [(b, indices, b * beta_product(ambient, indices))
           for b in chain
           for size in range(ambient - base + 1)
           for indices in combinations(range(base + 1, ambient + 1), size)]
    return tuple(sorted(out, key=lambda item: item[:2]))  # (b, I) order


def right_cosets_reference(n, l):
    """(coset, stated representative) pairs, sorted as tuples."""
    ambient = n + l + 1
    base = subgroup_elements_reference(SubgroupSpec.embedded(n), ambient)
    return sorted((tuple(sorted(x * rep for x in base)), rep)
                  for _, _, rep in coset_rep_pairs_reference(n, ambient))


def double_cosets_reference(n):
    ambient = n + 1
    base = subgroup_elements_reference(SubgroupSpec.embedded(n), ambient)
    hat = subgroup_elements_reference(SubgroupSpec.hat_chain(n, n), ambient)
    systems = [(tuple(sorted(b * y for y in base)), b) for b in hat]
    root = beta(ambient, ambient)
    big = {x * root * y for x in base for y in base}
    systems.append((tuple(sorted(big)), root))
    return sorted(systems)


def conjugate_intersection_reference(n, g):
    base = subgroup_elements_reference(SubgroupSpec.embedded(n), n + 1)
    ginv = g.inverse()
    conjugated = {g * x * ginv for x in base}
    return tuple(x for x in base if x in conjugated)


def all_specs(ambient):
    """Every named subgroup that fits in the level-`ambient` group."""
    return ([SubgroupSpec.embedded(m) for m in range(ambient + 1)]
            + [SubgroupSpec.hat_chain(lo, hi)
               for hi in range(ambient) for lo in range(hi + 1)])


AMBIENT_CASES = [(spec, ambient) for ambient in range(4)
                 for spec in all_specs(ambient)]
CASE_IDS = [f"{spec.kind}-{spec.lo}-{spec.hi}@{ambient}"
            for spec, ambient in AMBIENT_CASES]


@pytest.mark.parametrize("spec, ambient", AMBIENT_CASES, ids=CASE_IDS)
def test_subgroup_elements_match_products(spec, ambient):
    assert spec.elements(ambient) == subgroup_elements_reference(spec, ambient)


@pytest.mark.parametrize("spec", [SubgroupSpec.embedded(3),
                                  SubgroupSpec.hat_chain(0, 3),
                                  SubgroupSpec.hat_chain(2, 3)])
def test_level_four_subgroup_elements_match_products(spec):
    assert spec.elements(4) == subgroup_elements_reference(spec, 4)


@pytest.mark.parametrize("spec, ambient", AMBIENT_CASES, ids=CASE_IDS)
def test_orbit_matches_product_walk(spec, ambient):
    for g in full_group(ambient):
        got = orbit(g, spec)
        expected = orbit_reference(g, spec)
        assert got.elements == expected, (g, spec)
        assert got.representative == expected[0]


LEVEL_FOUR_SEEDS = [
    (beta(4, 4), SubgroupSpec.embedded(4)),
    (beta(4, 4), SubgroupSpec.embedded(3)),
    (beta(4, 1) * beta(4, 3), SubgroupSpec.embedded(4)),
    (beta_product(4, (1, 2, 3, 4)), SubgroupSpec.embedded(4)),
    (beta(4, 2) * beta(4, 4), SubgroupSpec.hat_chain(0, 3)),
]


@pytest.mark.parametrize("g, spec", LEVEL_FOUR_SEEDS)
def test_level_four_orbit_matches_product_walk(g, spec):
    assert orbit(g, spec).elements == orbit_reference(g, spec)


CENTRALIZER_CASES = [(n, k) for n in range(5) for k in range(5 - n)]  # n + k <= 4


@pytest.mark.parametrize("n, k", CENTRALIZER_CASES)
def test_group_centralizer_matches_products(n, k):
    assert group_centralizer(n, k) == centralizer_reference(n, k)


@pytest.mark.parametrize("base, ambient",
                         [(b, a) for a in range(4) for b in range(a + 1)])
def test_coset_rep_pairs_match_products(base, ambient):
    assert coset_rep_pairs(base, ambient) == tuple(
        (b, indices, rep.perm)
        for b, indices, rep in coset_rep_pairs_reference(base, ambient))


@pytest.mark.parametrize("n, l", [(n, l) for n in range(3) for l in range(3 - n)])
def test_right_cosets_match_products(n, l):
    system = right_coset_reps(n, l)
    expected = right_cosets_reference(n, l)
    assert list(zip(system.cosets, system.stated_representatives)) == expected
    assert system.representatives == tuple(c[0] for c, _ in expected)
    assert system.sizes == tuple(len(c) for c, _ in expected)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_double_cosets_match_products(n):
    system = double_cosets(n)
    expected = double_cosets_reference(n)
    assert list(zip(system.cosets, system.stated_representatives)) == expected
    assert system.representatives == tuple(c[0] for c, _ in expected)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_conjugate_intersection_matches_products(n):
    for g in full_group(n + 1):
        assert conjugate_intersection(n, g) == conjugate_intersection_reference(
            n, g), g
