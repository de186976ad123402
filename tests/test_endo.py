import random
from fractions import Fraction
from itertools import product

import pytest

from iterwreath import endo
from iterwreath.algebra import AlgebraElement, centralizes, orbit, orbit_sum
from iterwreath.endo import (
    TensorBasisElement,
    compose_tensor_sums,
    d_generator_table,
    end_basis_closure,
    end_ind_res_basis,
    opposite_check,
    power_table,
    tensor_basis,
)
from iterwreath.structure import (
    VerificationError,
    algebra_constants,
    centralizer_algebra_basis,
    coset_rep_pairs,
)
from iterwreath.treegroup import (
    HomSpaceEmpty,
    LevelTooLarge,
    SubgroupSpec,
    TreeAutomorphism,
    UsageError,
    _pool,
    beta,
    embed_to,
    factorize,
    full_group,
    group_order,
    identity,
    reset_caches,
)

import span_check
from cycle_notation import elem
from span_check import id_factor_span_check
from tensor_action import conj_action_tensor


# --- tensor bases -----------------------------------------------------------

def test_tensor_basis_sizes():
    assert len(tensor_basis(1, 1, 1)) == 4
    assert len(tensor_basis(2, 1, 1)) == 32
    for n, k, l in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]:
        expected = (group_order(n + k - l) * group_order(n)) // group_order(n - l)
        assert len(tensor_basis(n, k, l)) == expected


def test_tensor_basis_without_restriction_is_whole_level():
    basis = tensor_basis(1, 1, 0)
    assert len(basis) == group_order(2)
    assert all(t.coset_b.is_identity and t.coset_indices == () for t in basis)
    assert [t.left for t in basis] == list(full_group(2))


@pytest.mark.parametrize("n,k,l", [(1, 1, 0), (2, 1, 1), (1, 2, 1), (2, 2, 1),
                                   (3, 1, 1), (3, 2, 2)])
def test_tensor_basis_is_built_in_sorted_order(n, k, l):
    # lefts in word order times reps in (coset_b, indices) order is exactly
    # the field-tuple order, so no sort is needed
    basis = tensor_basis(n, k, l)
    assert basis == tuple(sorted(basis))
    assert len(set(basis)) == len(basis)


def test_tensor_basis_elements_sort_as_their_field_tuples():
    basis = list(tensor_basis(2, 1, 1))
    random.Random(4).shuffle(basis)
    assert sorted(basis) == [TensorBasisElement(*fields)
                             for fields in sorted(map(tuple, basis))]
    assert min(basis) == tensor_basis(2, 1, 1)[0]


def test_tensor_basis_rejects_over_restriction():
    with pytest.raises(HomSpaceEmpty):
        tensor_basis(1, 1, 2)
    with pytest.raises(HomSpaceEmpty):
        tensor_basis(2, 0, 3)


def test_tensor_basis_rejects_negative_offset():
    with pytest.raises(ValueError):
        tensor_basis(2, 0, 1)


def test_tensor_index_rejects_a_negative_parameter():
    with pytest.raises(ValueError, match=r"^parameters must be >= 0, "
                                         r"got \(1, -1, 0\)$") as caught:
        endo.tensor_index(1, -1, 0)
    assert type(caught.value) is ValueError


def test_tensor_basis_guard():
    with pytest.raises(LevelTooLarge):
        tensor_basis(4, 1, 0)


def test_tensor_basis_size_cap_counts_tensors_not_levels():
    assert endo.tensor_index(4, 1, 1).size == 1 << 23  # the largest allowed
    for k in (2, 3, 4):
        with pytest.raises(LevelTooLarge, match="tensors"):
            endo.tensor_index(4, k, k)


def test_tensor_index_short_of_a_rep_is_caught(monkeypatch):
    original = endo.coset_rep_pairs
    monkeypatch.setattr(endo, "coset_rep_pairs",
                        lambda base, ambient: original(base, ambient)[1:])
    reset_caches()  # the (1, 1, 0) index may be cached
    with pytest.raises(VerificationError, match="tensor basis size"):
        tensor_basis(1, 1, 1)


@pytest.mark.parametrize("m, n, b", [(1, 1, 0), (1, 1, 1), (2, 2, 1), (3, 2, 0),
                                     (3, 3, 1), (4, 3, 2)])
def test_tensor_index_reads_the_transversal_in_order(m, n, b):
    # the transversal's (b, I) order is the index's order: no second sort
    index = endo._tensor_index(m, n, b)
    got = [(chain, indices, rep.perm) for chain, indices, rep in index.reps]
    assert got == list(coset_rep_pairs(b, n))
    assert all(isinstance(rep, TreeAutomorphism) and rep is _pool[rep.perm]
               for _, _, rep in index.reps)


def test_coset_rep_reads_the_index(monkeypatch):
    # the representative is the one the tensor index stores, not a product
    # rebuilt per call
    index = endo.tensor_index(2, 1, 1)

    def rebuilt(*args):
        raise AssertionError("beta_product called")

    monkeypatch.setattr(endo, "beta_product", rebuilt)
    for t in tensor_basis(2, 1, 1):
        assert t.coset_rep() is index.reps[index.number(t) % len(index.reps)][2]


def test_coset_rep_reconstruction():
    for t in tensor_basis(2, 1, 1):
        rep = t.coset_rep()
        assert rep.level == 2
        assert rep == t.coset_b * (beta(2, 2) if t.coset_indices == (2,)
                                   else identity(2))


# --- conjugation action on tensors ---------------------------------------------

def test_action_of_identity_fixes_everything():
    for n, k, l in [(1, 1, 1), (2, 1, 1)]:
        e = identity(n)
        for t in tensor_basis(n, k, l):
            assert conj_action_tensor(e, t) == t


def test_action_frozen_example():
    # h * (e (x) e) * h^-1 = h (x) h^-1; nothing crosses over the trivial
    # base, so the right factor renormalizes to the swap representative
    t = TensorBasisElement(identity(1), identity(1), (), 0)
    moved = conj_action_tensor(beta(1, 1), t)
    assert moved == TensorBasisElement(beta(1, 1), identity(1), (1,), 0)
    assert conj_action_tensor(beta(1, 1), moved) == t


def test_action_restricted_to_base_subgroup_is_plain_conjugation():
    # over the level-(n-l) subgroup the bimodule action coincides with
    # conjugating both tensor factors and re-expressing the right one
    basis = tensor_basis(2, 1, 1)
    for h in SubgroupSpec.embedded(1).elements(2):
        for t in basis:
            image = conj_action_tensor(h, t)
            split = factorize(h * t.coset_rep() * h.inverse(), 1)
            assert image.left == h * t.left * h.inverse() * split.base
            assert image.coset_b == split.chain
            assert image.coset_indices == split.indices


def test_action_maps_basis_into_basis():
    for n, k, l in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        basis = set(tensor_basis(n, k, l))
        for h in full_group(n):
            for t in basis:
                assert conj_action_tensor(h, t) in basis


@pytest.mark.parametrize("n,k,l", [(1, 1, 1), (2, 1, 1)])
def test_action_is_left_group_action(n, k, l):
    basis = tensor_basis(n, k, l)
    group = full_group(n)
    for h1, h2 in product(group, repeat=2):
        h12 = h1 * h2
        for t in basis:
            assert conj_action_tensor(h12, t) == conj_action_tensor(
                h1, conj_action_tensor(h2, t))


def test_action_moves_chain_part_of_representative():
    # the root-swap representative times the deepest swap renormalizes with
    # a shifted-copy factor; the acting element lands in the left factor
    # (so no prefix crossed) and the swap-index part does not move
    t = TensorBasisElement(identity(2), identity(2), (2,), 1)
    image = conj_action_tensor(beta(2, 1), t)
    assert image.left.cycle_string() == "(1 2)"
    assert image.coset_b.cycle_string() == "(3 4)"
    assert image.coset_indices == (2,)


# --- endomorphism bases -------------------------------------------------------------

def test_end_basis_full_restriction_level_one():
    eb = end_ind_res_basis(1, 1, 1)
    assert eb.dimension == 4
    assert eb.acting_level == 0
    assert all(len(vec) == 1 for vec in eb.vectors)


def test_end_basis_level_two_dimension_against_fixed_point_oracle():
    eb = end_ind_res_basis(2, 1, 1)
    basis = tensor_basis(2, 1, 1)
    g = SubgroupSpec.embedded(1).generators(2)[0]
    fixed = sum(1 for t in basis if conj_action_tensor(g, t) == t)
    # dimension of the commutant of an order-2 group: (size + fixed) / 2
    assert fixed == 8
    assert eb.dimension == (len(basis) + fixed) // 2 == 20


def test_end_basis_vectors_partition_tensor_basis():
    for n, k, l in [(1, 1, 1), (2, 1, 1)]:
        eb = end_ind_res_basis(n, k, l)
        seen = set()
        for vec in eb.vectors:
            assert not (seen & set(vec))
            seen.update(vec)
        assert seen == set(tensor_basis(n, k, l))


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_end_basis_no_restriction_equals_centralizer_basis(n, k):
    # (3, 1) has orbits of up to 128 tensors, each walked from its least member
    eb = end_ind_res_basis(n, k, 0)
    reference = centralizer_algebra_basis(n, k)
    assert eb.dimension == len(reference)
    assert tuple(eb.vectors) == tuple(reference)


def test_end_basis_records_index_renormalizations():
    for n, k, l in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        eb = end_ind_res_basis(n, k, l)
        assert eb.index_change_count == 0


def _reference_end_basis(n, k, l):
    """(dimension, vectors, index changes) from a union-find over tensors.

    Written against the public tensor action only: no integer indices, no
    renormalisation tables.
    """
    basis = tensor_basis(n, k, l)
    gens = SubgroupSpec.embedded(n - l).generators(n)
    parent = {t: t for t in basis}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    changes = 0
    for t in basis:
        for g in gens:
            image = conj_action_tensor(g, t)
            changes += image.coset_indices != t.coset_indices
            a, b = sorted((find(t), find(image)))
            parent[b] = a
    orbits = {}
    for t in basis:
        orbits.setdefault(find(t), []).append(t)
    vectors = sorted(tuple(sorted(members)) for members in orbits.values())
    if l == 0:
        vectors = [AlgebraElement.from_elements(n + k, (t.left for t in vec))
                   for vec in vectors]
    return len(vectors), tuple(vectors), changes


REFERENCE_CASES = [(1, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1), (2, 1, 1),
                   (2, 2, 1), (3, 1, 1), (2, 2, 2)]


@pytest.mark.parametrize("n,k,l", REFERENCE_CASES)
def test_end_basis_matches_dataclass_union_find(n, k, l):
    eb = end_ind_res_basis(n, k, l)
    assert (eb.dimension, tuple(eb.vectors), eb.index_change_count) == \
        _reference_end_basis(n, k, l)
    assert len(eb.vectors) == eb.dimension


@pytest.mark.parametrize("n,k,l,corrupt", [
    (1, 1, 0, "crossed"), (1, 2, 0, "crossed"), (2, 1, 1, "crossed"),
    (3, 1, 1, "crossed"), (2, 1, 1, "target"), (3, 1, 1, "target")])
def test_corrupted_renormalisation_table_is_caught(monkeypatch, n, k, l, corrupt):
    # one wrong (rep, generator) entry must change the dimension or the
    # vectors, so the reference comparison above can fail; at l = 0 there is
    # a single representative, so only the crossed prefix can be wrong
    reference = _reference_end_basis(n, k, l)[:2]
    original = endo._generator_table

    def corrupted(index, gens):
        table = original(index, gens)
        target, y = table[0][0]
        if corrupt == "target":
            table[0][0] = ((target + 1) % len(index.reps), y)
        else:
            table[0][0] = (target, y * embed_to(gens[0], index.m))
        return table

    monkeypatch.setattr(endo, "_generator_table", corrupted)
    eb = end_ind_res_basis(n, k, l)
    assert (eb.dimension, tuple(eb.vectors)) != reference


def test_end_basis_vectors_are_a_sequence_of_tensor_tuples():
    eb = end_ind_res_basis(2, 1, 1)
    vectors = tuple(eb.vectors)
    assert eb.vectors[3] == vectors[3]
    assert eb.vectors[-1] == vectors[-1]
    assert eb.vectors[2:7:2] == vectors[2:7:2]
    assert vectors[5] in eb.vectors
    with pytest.raises(IndexError):
        eb.vectors[len(vectors)]


def test_reset_caches_also_empties_the_tensor_index_cache():
    before = end_ind_res_basis(2, 1, 1)
    assert endo._tensor_index.cache_info().currsize > 0
    reset_caches()
    assert endo._tensor_index.cache_info().currsize == 0
    after = end_ind_res_basis(2, 1, 1)
    assert after.dimension == before.dimension
    assert tuple(after.vectors) == tuple(before.vectors)


def test_end_basis_rejects_over_restriction():
    with pytest.raises(HomSpaceEmpty):
        end_ind_res_basis(1, 1, 2)


# --- composition of endomorphism elements ---------------------------------------

def test_identity_tensor_is_a_unit_for_composition():
    from iterwreath.endo import compose_tensor_sums

    unit = {TensorBasisElement(identity(2), identity(2), (), 1): 1}
    for t in tensor_basis(2, 1, 1):
        assert compose_tensor_sums(unit, {t: 1}) == {t: 1}
        assert compose_tensor_sums({t: 1}, unit) == {t: 1}


def test_composition_associates_on_commutant_vectors():
    # middle multiplication is only well defined for commuting sums, so
    # associativity is checked on the orbit-sum vectors themselves
    from iterwreath.endo import compose_tensor_sums

    eb = end_ind_res_basis(2, 1, 1)
    vectors = [dict.fromkeys(vec, 1) for vec in eb.vectors]
    for a in vectors[:6]:
        for b in vectors[:6]:
            for c in vectors[:6]:
                lhs = compose_tensor_sums(compose_tensor_sums(a, b), c)
                rhs = compose_tensor_sums(a, compose_tensor_sums(b, c))
                assert lhs == rhs


def test_composition_matches_convolution_without_restriction():
    # at l = 0 the right factors are trivial, so composing endomorphisms is
    # convolution of the left factors in reversed order
    from iterwreath.endo import compose_tensor_sums

    basis = centralizer_algebra_basis(1, 1)
    x, y = basis[4], basis[5]

    def as_tensor(v):
        return {TensorBasisElement(g, identity(1), (), 1): c
                for g, c in v.terms.items()}

    composed = compose_tensor_sums(as_tensor(x), as_tensor(y))
    reversed_product = y * x
    assert composed == as_tensor(reversed_product)


def test_composing_single_tensors_resolves_one_rep_pair():
    # (3,3,3) has 128 representatives; two single tensors touch one pair
    index = endo.tensor_index(3, 3, 3)
    index.pairs.clear()  # a table filled on use
    for count, (s, t) in enumerate([(1000, 5000), (77, 16000)], 1):
        compose_tensor_sums({index.tensor(s): 1}, {index.tensor(t): 1})
        assert len(index.pairs) == count


@pytest.mark.parametrize("n,k,l", [(1, 1, 1), (2, 1, 1), (1, 2, 1)])
def test_end_basis_closure_reported(n, k, l):
    # the claim the end-basis verdict asserts at l > 0: the pairwise
    # compositions of the orbit-sum vectors land in their span
    from iterwreath.endo import end_basis_closure

    closed, witness = end_basis_closure(end_ind_res_basis(n, k, l))
    assert closed and witness is None


def test_end_basis_closure_no_restriction_matches_expansion():
    # at l = 0 the vectors are algebra orbit sums: every product expands
    rows = algebra_constants(end_ind_res_basis(1, 1, 0).vectors)
    assert all(cell is not None for row in rows for cell in row)


def _residual_closure(vectors):
    """First pair whose composition leaves the span, by orbit subtraction."""
    sums = [dict.fromkeys(vec, 1) for vec in vectors]
    for i, a in enumerate(sums):
        for j, b in enumerate(sums):
            product = compose_tensor_sums(a, b)
            for vec in vectors:
                coeff = product.get(min(vec), 0)
                if not coeff:
                    continue
                for t in vec:
                    remaining = product.get(t, 0) - coeff
                    if remaining:
                        product[t] = remaining
                    else:
                        product.pop(t, None)
            if product:
                return False, (i, j)
    return True, None


@pytest.mark.parametrize("n,k,l", [(2, 1, 1), (1, 2, 1)])
@pytest.mark.parametrize("merge", range(6))
def test_end_basis_closure_first_failure_matches_residual_reference(n, k, l, merge):
    # merging two adjacent orbits breaks closure; the expansion must report
    # the same first failing pair as subtracting orbit by orbit
    basis = end_ind_res_basis(n, k, l)
    vectors = list(basis.vectors)
    vectors[merge:merge + 2] = [vectors[merge] + vectors[merge + 1]]
    broken = basis._replace(vectors=tuple(vectors), dimension=len(vectors))
    result = end_basis_closure(broken)
    assert result == _residual_closure(broken.vectors)
    assert not result[0]


# --- orbit stability and centrality ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_swap_orbit_same_under_both_actions(n):
    root = beta(n + 1, n + 1)
    small = orbit(root, SubgroupSpec.embedded(n))
    big = orbit(root, SubgroupSpec.embedded(n + 1))
    assert small.elements == big.elements
    assert small.size == group_order(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_swap_orbit_sum_is_central_one_level_up(n):
    o = orbit_sum(beta(n + 1, n + 1), SubgroupSpec.embedded(n))
    assert centralizes(o, SubgroupSpec.embedded(n + 1))


# --- generating sets ----------------------------------------------------------------------

def test_d_generator_table_adjacent_level_one():
    swaps, sums = d_generator_table(1, 2)
    assert [key for key, _ in swaps + sums] == [(0, 1), (2,)]
    (_, swap), (_, osum) = swaps + sums
    assert swap == AlgebraElement.of(elem(2, "(3 4)"))
    assert osum == (AlgebraElement.of(elem(2, "(1 3)(2 4)"))
                    + AlgebraElement.of(elem(2, "(1 4)(2 3)")))


def test_d_generator_table_two_levels_up_from_two():
    swaps, sums = d_generator_table(2, 4)
    assert [key for key, _ in swaps] == [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]
    assert [key for key, _ in sums] == [(3,), (4,), (3, 4)]


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_d_generators_centralize_embedded_subgroup(n, m):
    sub = SubgroupSpec.embedded(n)
    swaps, sums = d_generator_table(n, m)
    for _, g in swaps + sums:
        assert centralizes(g, sub)


@pytest.mark.parametrize("n", [1, 2])
def test_root_swap_orbit_sum_commutes_with_shifted_generators(n):
    swaps, sums = d_generator_table(n, n + 1)
    gens = [e for _, e in swaps]
    for _, o in sums:
        for g in gens:
            assert o * g == g * o


def test_d_generators_bad_parameters():
    with pytest.raises(ValueError):
        d_generator_table(2, 2)
    with pytest.raises(UsageError, match=r"got \(2, 5\)"):
        d_generator_table(2, 5)


def test_d_generator_that_fails_to_centralize_is_caught(monkeypatch):
    # a bare root swap is no orbit sum and moves the embedded generator
    monkeypatch.setattr(endo, "orbit_sum", lambda w, sub: AlgebraElement.of(w))
    with pytest.raises(VerificationError, match="fails to centralize"):
        d_generator_table(1, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_class_sums_times_generated_block_span_centralizer(n):
    span_dim, centralizer_dim = id_factor_span_check(n)
    assert span_dim == centralizer_dim


def test_span_pivot_normalization_is_exact():
    g, h = identity(2), elem(2, "(1 2)")
    span = span_check._Span(2)
    assert span.add(AlgebraElement(2, {g: 3, h: 1}))
    row = span.rows[g]
    assert type(row.terms[h]) is Fraction and row.terms[h] == Fraction(1, 3)
    assert type(row.terms[g]) is int and row.terms[g] == 1


def test_span_check_coefficients_stay_exact(monkeypatch):
    spans = []

    class RecordingSpan(span_check._Span):
        def __init__(self, level):
            super().__init__(level)
            spans.append(self)

    monkeypatch.setattr(span_check, "_Span", RecordingSpan)
    id_factor_span_check(1)
    coefficients = [c for span in spans for row in span.rows.values()
                    for c in row.terms.values()]
    # int when integral, otherwise an exact Fraction; never a float
    assert coefficients and all(
        type(c) is int or type(c) is Fraction and c.denominator != 1
        for c in coefficients)


# --- power table ---------------------------------------------------------------------------

def test_power_table_odd_identities():
    powers = power_table(1, 7)
    o = powers[0]
    for k in (3, 5, 7):
        assert powers[k - 1] == o.scaled(1 << (k - 1))


def test_power_table_even_values_recorded():
    powers = power_table(1, 4)
    e = AlgebraElement.of(identity(2))
    z = AlgebraElement.of(elem(2, "(1 2)(3 4)"))
    assert powers[1] == e.scaled(2) + z.scaled(2)
    assert powers[3] == e.scaled(8) + z.scaled(8)
    # even powers are not multiples of the orbit sum
    assert powers[1] != powers[0].scaled(2)


def test_power_table_level_two_runs_and_is_central():
    powers = power_table(2, 3)
    assert len(powers[0].terms) == 8
    assert centralizes(powers[2], SubgroupSpec.embedded(3))


def test_power_table_coefficients_stay_exact():
    coefficients = [c for x in power_table(2, 4) for c in x.terms.values()]
    assert coefficients and all(type(c) is int for c in coefficients)


def test_power_table_guards():
    with pytest.raises(UsageError, match="got 4"):
        power_table(4, 2)
    with pytest.raises(UsageError):
        power_table(0, 2)
    with pytest.raises(ValueError):
        power_table(1, 9)
    with pytest.raises(ValueError):
        power_table(1, 0)


# --- opposite algebra ------------------------------------------------------------------------

def test_opposite_check_center_is_commutative():
    report = opposite_check(1, 0)
    assert report.dimension == 2
    assert report.closure_ok and report.transpose_ok
    assert report.left_constants == report.right_constants


def test_opposite_check_adjacent_level_one():
    report = opposite_check(1, 1)
    assert report.dimension == 6
    assert report.closure_ok
    assert report.transpose_ok
    for a in range(6):
        for b in range(6):
            assert report.left_constants[a][b] == report.right_constants[b][a]


@pytest.mark.parametrize("n, k", [(0, 2), (2, 1)])
def test_opposite_check_catches_a_swapped_right_composition(monkeypatch, n, k):
    # these algebras are not commutative, so right composition in the order
    # of left multiplication breaks the transpose and nothing else
    assert opposite_check(n, k).transpose_ok
    original = endo._TensorIndex.times
    monkeypatch.setattr(endo._TensorIndex, "times", lambda self, t1, ts: [
        original(self, t2, [t1])[0] for t2 in ts])
    report = opposite_check(n, k)
    assert report.closure_ok and not report.transpose_ok
    assert report.left_constants == report.right_constants


def test_opposite_check_guard():
    with pytest.raises(LevelTooLarge):
        opposite_check(3, 1)
