"""Independent cross-checks against a general permutation-group library.

These re-derive orders, centers, centralizers, and class counts with
Schreier-Sims machinery that shares no code with this package, so agreement
is meaningful evidence rather than a tautology.
"""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup

from iterwreath.algebra import orbit
from iterwreath.structure import center, conjugacy_classes, group_centralizer
from iterwreath.treegroup import SubgroupSpec, beta, full_group, group_order


def as_sympy(g):
    return SymPerm([v - 1 for v in g.images])


def generated(gens):
    return PermutationGroup([as_sympy(g) for g in gens])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_group_order(n):
    group = generated(SubgroupSpec.embedded(n).generators(n))
    assert group.order() == group_order(n)


@pytest.mark.parametrize("n", [2, 3])
def test_generators_generate_the_enumerated_group(n):
    group = generated(SubgroupSpec.embedded(n).generators(n))
    ours = {as_sympy(g) for g in full_group(n)}
    assert set(group.elements) == ours


@pytest.mark.parametrize("n", [2, 3])
def test_center_against_library(n):
    group = generated(SubgroupSpec.embedded(n).generators(n))
    lib_center = set(group.center().elements)
    assert lib_center == {as_sympy(g) for g in center(n)}


@pytest.mark.parametrize("n", [1, 2])
def test_centralizer_against_library(n):
    ambient = generated(SubgroupSpec.embedded(n + 1).generators(n + 1))
    embedded = generated(SubgroupSpec.embedded(n).generators(n + 1))
    lib = set(ambient.centralizer(embedded).elements)
    assert lib == {as_sympy(g) for g in group_centralizer(n, 1)}


@pytest.mark.parametrize("n", [2, 3])
def test_class_count_against_library(n):
    group = generated(SubgroupSpec.embedded(n).generators(n))
    assert len(group.conjugacy_classes()) == conjugacy_classes(n).count


def test_root_swap_class_against_library():
    group = generated(SubgroupSpec.embedded(3).generators(3))
    target = as_sympy(beta(3, 3))
    lib_class = next(c for c in group.conjugacy_classes() if target in c)
    ours = {as_sympy(g) for g in orbit(beta(3, 3), SubgroupSpec.embedded(3)).elements}
    assert set(lib_class) == ours
