"""The row-counting structure-constants kernel against per-product references.

Every cell of `structure_constants`, made dense, must equal what
`expand_in_orbit_basis` reads off one product of two orbit sums: an
`AlgebraElement` product for the left tables, a `compose_tensor_sums`
result for the right ones.  Mutant kernels check that a cell is None
exactly where that expansion says the product leaves the span.
"""

import random
from collections import Counter

import pytest

from iterwreath import (
    TreeAutomorphism,
    centralizer_algebra_basis,
    end_ind_res_basis,
    expand_in_orbit_basis,
    identity,
    opposite_check,
    orbit_index,
)
from iterwreath import endo, structure
from iterwreath.endo import TensorBasisElement, compose_tensor_sums
from iterwreath.structure import structure_constants
from iterwreath.treegroup import reset_caches


def dense(cell, dim):
    return None if cell is None else tuple(cell.get(o, 0) for o in range(dim))


def end_supports(basis):
    """The integer-tensor supports of an l > 0 basis and their index."""
    n, l = basis.n, basis.l
    tensors = endo._tensor_index(n + basis.k - l, n, n - l)
    return [list(map(tensors.number, vec)) for vec in basis.vectors], tensors


@pytest.mark.parametrize("n, k", [(0, 2), (1, 0), (1, 1), (2, 1), (1, 2)])
def test_opposite_tables_match_per_product_expansions(n, k):
    basis = centralizer_algebra_basis(n, k)
    dim = len(basis)
    report = opposite_check(n, k)

    def as_tensor(v):
        return {TensorBasisElement(g, identity(n), (), n): c
                for g, c in v.terms.items()}

    tensors = [as_tensor(v) for v in basis]
    left_index = orbit_index(v.terms for v in basis)
    right_index = orbit_index(tensors)
    for i, (a, x) in enumerate(zip(basis, tensors)):
        for j, (b, y) in enumerate(zip(basis, tensors)):
            assert dense(report.left_constants[i][j], dim) == expand_in_orbit_basis(
                (a * b).terms, left_index, dim)
            assert dense(report.right_constants[i][j], dim) == expand_in_orbit_basis(
                compose_tensor_sums(x, y), right_index, dim)


@pytest.mark.parametrize("n, k, l, rows", [
    (2, 1, 1, None), (2, 2, 2, None),
    # one composition per cell takes about 5 s for the 288 x 288 table of
    # (2, 2, 1), and the 2048 tensors of (3, 1, 1) make 4.2 million
    # products: every cell of some rows drawn at random stands in for these
    (2, 2, 1, 32), (3, 1, 1, 8),
])
def test_end_basis_constants_match_per_composition_expansions(n, k, l, rows):
    basis = end_ind_res_basis(n, k, l)
    vectors = list(basis.vectors)
    if rows is not None:
        random.Random(0).shuffle(vectors)
    dim = len(vectors)
    supports, tensors = end_supports(basis._replace(vectors=vectors))
    sums = [dict.fromkeys(vec, 1) for vec in vectors]
    index = orbit_index(vectors)
    table = structure_constants(supports, tensors.times)
    for i, row in zip(range(dim if rows is None else rows), table):
        for j, cell in enumerate(row):
            assert dense(cell, dim) == expand_in_orbit_basis(
                compose_tensor_sums(sums[i], sums[j]), index, dim)


@pytest.mark.parametrize("m, n, b", [(3, 3, 3), (3, 2, 1), (3, 3, 2), (2, 2, 0)])
def test_tensor_times_matches_element_products(m, n, b):
    # t1 after t2 is (a2 * a1 * y) (x) rep, where rep r1 * rep r2 = y * rep
    tensors = endo._tensor_index(m, n, b)
    width, lefts = len(tensors.reps), tensors.lefts
    ts = random.Random(m * 100 + n * 10 + b).sample(range(tensors.size), 24)
    for t1 in ts:
        expected = []
        for t2 in ts:
            rep, y = tensors.split(tensors.reps[t1 % width][2]
                                   * tensors.reps[t2 % width][2])
            expected.append(tensors.encode(
                lefts[t2 // width] * lefts[t1 // width] * y, rep))
        assert tensors.times(t1, ts) == expected


# --- mutant kernels ------------------------------------------------------------------

def moved_product(times, supports):
    """`times` with the product of one key pair moved to the next orbit,
    out of an orbit that it then covers only in part."""
    index, keys = orbit_index(supports), [key for s in supports for key in s]
    k0, key0 = next((k, key) for k in keys[::-1]
                    for key, p in zip(keys, times(k, keys)) if index[p][1] > 1)

    def mutant(k, keys):
        out = times(k, keys)
        if k == k0:
            out = [supports[(index[p][0] + 1) % len(supports)][0] if key == key0
                   else p for key, p in zip(keys, out)]
        return out

    return mutant


def stray_product(times, supports):
    """`times` with the product of one key pair in no orbit at all."""
    k0, key0, stray = supports[1][-1], supports[2][0], object()

    def mutant(k, keys):
        return [stray if (k, key) == (k0, key0) else p
                for key, p in zip(keys, times(k, keys))]

    return mutant


def kernels():
    """(supports, times) of a left algebra table and of an l > 0 tensor table."""
    basis = centralizer_algebra_basis(1, 2)
    yield [[g.perm for g in v.terms] for v in basis], structure.perm_times
    supports, tensors = end_supports(end_ind_res_basis(2, 1, 1))
    yield supports, tensors.times


@pytest.mark.parametrize("mutate", [moved_product, stray_product])
@pytest.mark.parametrize("which", [0, 1])
def test_mutant_kernel_fails_exactly_the_cells_the_expansion_flags(mutate, which):
    supports, times = list(kernels())[which]
    times = mutate(times, supports)
    dim, index = len(supports), orbit_index(supports)
    reference = [[expand_in_orbit_basis(
        Counter(p for k in a for p in times(k, b)), index, dim) for b in supports]
        for a in supports]
    cells = [[dense(cell, dim) for cell in row]
             for row in structure_constants(supports, times)]
    assert cells == reference
    assert sum(cell is None for row in reference for cell in row) >= 1


# --- work counts -----------------------------------------------------------------------

def test_opposite_check_calls_each_kernel_once_per_support_key(monkeypatch):
    # opposite-check 1 2: 80 orbit sums over the 128 elements of level 3;
    # the per-cell path composed 6400 pairs per table
    calls = []

    def counted(supports, times):
        count = [sum(map(len, supports)), 0]  # support keys, kernel calls
        calls.append(count)

        def kernel(k, keys):
            count[1] += 1
            return times(k, keys)

        return original(supports, kernel)

    original = structure.structure_constants
    monkeypatch.setattr(structure, "structure_constants", counted)
    monkeypatch.setattr(endo, "structure_constants", counted)
    assert opposite_check(1, 2).transpose_ok
    assert calls == [[128, 128], [128, 128]]


def test_opposite_check_multiplies_almost_no_elements(monkeypatch):
    # the per-cell path made 32773 element products from cold caches
    reset_caches()
    count = 0
    original = TreeAutomorphism.__mul__

    def counted(g, h):
        nonlocal count
        count += 1
        return original(g, h)

    monkeypatch.setattr(TreeAutomorphism, "__mul__", counted)
    assert opposite_check(1, 2).transpose_ok
    assert count <= 10
