from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterwreath import structure, treegroup
from iterwreath.algebra import (
    AlgebraElement,
    Orbit,
    centralizes,
    class_sum,
    orbit,
)
from iterwreath.structure import (
    VerificationError,
    center,
    center_closed_form,
    centralizer_algebra_basis,
    check_presentation,
    class_count,
    conjugacy_classes,
    double_cosets,
    expand_in_orbit_basis,
    group_centralizer,
    orbit_decomposition,
    orbit_index,
    predicted_orbit_count,
    predicted_orbit_count_literal,
    right_coset_reps,
)
from iterwreath.treegroup import (
    LevelTooLarge,
    SubgroupSpec,
    beta,
    embed_to,
    full_group,
    group_order,
    identity,
    reset_caches,
)

from cycle_notation import elem


def expand(x, basis):
    index = orbit_index(v.terms for v in basis)
    return expand_in_orbit_basis(x.terms, index, len(basis))


def cycles(elements):
    return [g.cycle_string() for g in elements]


# --- counting ------------------------------------------------------------------

def test_class_count_values():
    assert [class_count(n) for n in range(6)] == [1, 2, 5, 20, 230, 26795]


def test_class_count_rejects_negative():
    with pytest.raises(ValueError):
        class_count(-1)


@pytest.mark.parametrize("call", [lambda: predicted_orbit_count_literal(1, -1),
                                  lambda: group_centralizer(1, -1),
                                  lambda: predicted_orbit_count(1, -1)])
def test_negative_offset_is_refused(call):
    with pytest.raises(ValueError, match="^offset must be >= 0, got -1$") as caught:
        call()
    assert type(caught.value) is ValueError


def test_predicted_orbit_counts():
    assert predicted_orbit_count(1, 1) == 6
    assert predicted_orbit_count(2, 1) == 48
    assert predicted_orbit_count(1, 2) == 80
    assert predicted_orbit_count(2, 0) == 5
    assert predicted_orbit_count_literal(1, 2) == 48
    assert predicted_orbit_count_literal(1, 1) == 4


# --- centers -----------------------------------------------------------------------

def test_center_level_one_is_whole_group():
    assert cycles(center(1)) == ["e", "(1 2)"]


def test_center_matches_closed_form():
    assert cycles(center(2)) == ["e", "(1 2)(3 4)"]
    assert cycles(center(3)) == ["e", "(1 2)(3 4)(5 6)(7 8)"]
    for n in (1, 2, 3, 4):
        assert center(n) == center_closed_form(n)


def test_center_guard():
    with pytest.raises(LevelTooLarge):
        center(5)


# --- centralizers ---------------------------------------------------------------------

def test_group_centralizer_level_one_explicit():
    got = set(cycles(group_centralizer(1, 1)))
    assert got == {"e", "(3 4)", "(1 2)", "(1 2)(3 4)"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_centralizer_is_center_times_shifted_copy(n):
    computed = group_centralizer(n, 1)
    assert len(computed) == 2 * group_order(n)
    hat = SubgroupSpec.hat_chain(n, n).elements(n + 1)
    product = tuple(sorted(embed_to(z, n + 1) * b
                           for z in center_closed_form(n) for b in hat))
    assert computed == product


def test_group_centralizer_offset_zero_is_center():
    for n in (1, 2, 3):
        assert group_centralizer(n, 0) == center(n)


# --- conjugacy classes -------------------------------------------------------------------

def test_conjugacy_class_counts_match_recursion():
    for n, expected in [(1, 2), (2, 5), (3, 20)]:
        decomp = conjugacy_classes(n)
        assert decomp.count == expected == class_count(n)
        assert sum(o.size for o in decomp.orbits) == group_order(n)


def test_record_count_is_the_number_of_parts():
    # the count property shadows tuple.count on the record classes
    decomp = conjugacy_classes(2)
    assert decomp.count == len(decomp.orbits) == 5
    assert decomp.labels is None
    system = right_coset_reps(1, 1)
    assert system.count == len(system.cosets) == 64


def test_classes_partition_is_disjoint():
    decomp = conjugacy_classes(3)
    seen = set()
    for o in decomp.orbits:
        assert not (seen & set(o.elements))
        seen.update(o.elements)
    assert len(seen) == 128


# --- orbit decompositions --------------------------------------------------------------------

@pytest.mark.parametrize("n, ambient",
                         [(0, 2), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_orbit_partition_is_the_orbit_of_each_uncovered_seed(n, ambient):
    spec, covered, expected = SubgroupSpec.embedded(n), set(), []
    for seed in full_group(ambient):
        if seed not in covered:
            expected.append(orbit(seed, spec))
            covered.update(expected[-1].elements)
    partition, orbit_of = structure._orbit_partition(n, ambient)
    assert partition == tuple(expected)
    assert orbit_of == {g.perm: i for i, o in enumerate(expected) for g in o.elements}
    for o in partition:
        assert o.representative is o.elements[0] == min(o.elements)
        assert all(a.rank < b.rank for a, b in zip(o.elements, o.elements[1:]))


def test_orbit_decomposition_adjacent_level_one_explicit():
    decomp = orbit_decomposition(1, 1)
    got = [set(cycles(o.elements)) for o in decomp.orbits]
    assert got == [
        {"e"},
        {"(3 4)"},
        {"(1 2)"},
        {"(1 2)(3 4)"},
        {"(1 3)(2 4)", "(1 4)(2 3)"},
        {"(1 3 2 4)", "(1 4 2 3)"},
    ]
    assert decomp.count == 6


def test_orbit_decomposition_labels_level_one():
    decomp = orbit_decomposition(1, 1)
    by_rep = {o.representative.cycle_string(): lab
              for o, lab in zip(decomp.orbits, decomp.labels)}
    four_cycles = by_rep["(1 3 2 4)"]
    assert four_cycles.kind == "beta"
    assert four_cycles.indices == (2,)
    assert four_cycles.shift.cycle_string() == "(3 4)"
    swaps = by_rep["(1 2)"]
    assert swaps.kind == "class"
    assert swaps.base.cycle_string() == "(1 2)"
    assert swaps.shift.cycle_string() == "e"


def test_orbit_decomposition_counts():
    assert orbit_decomposition(2, 1).count == 48
    assert orbit_decomposition(1, 2).count == 80


def test_orbit_decomposition_adjudicates_count_readings():
    computed = orbit_decomposition(1, 2).count
    assert computed == predicted_orbit_count(1, 2)
    assert computed != predicted_orbit_count_literal(1, 2)


def test_orbit_decomposition_top_level_counts():
    # heavier in-guard cases; the labeling bijection is re-checked inside
    assert orbit_decomposition(3, 1).count == 2688 == predicted_orbit_count(3, 1)
    assert orbit_decomposition(2, 2).count == 8192 == predicted_orbit_count(2, 2)


def test_orbit_decomposition_offset_zero_is_classes():
    decomp = orbit_decomposition(2, 0)
    classes = conjugacy_classes(2)
    assert decomp.count == classes.count
    assert [o.elements for o in decomp.orbits] == [o.elements for o in classes.orbits]
    assert all(lab.kind == "class" for lab in decomp.labels)


def test_orbit_decomposition_guard():
    with pytest.raises(LevelTooLarge):
        orbit_decomposition(2, 3)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2)])
def test_orbit_label_census(n, k):
    # class-type labels: one per (class of the base group, chain shift);
    # swap-type labels: one per (nonempty index set, chain shift)
    decomp = orbit_decomposition(n, k)
    chain_size = 1
    for m in range(n, n + k):
        chain_size *= group_order(m)
    kinds = {"class": 0, "beta": 0}
    for label in decomp.labels:
        kinds[label.kind] += 1
    assert kinds["class"] == class_count(n) * chain_size
    assert kinds["beta"] == ((1 << k) - 1) * chain_size


def test_orbit_label_short_of_an_element_matches_no_orbit(monkeypatch):
    real = structure.conjugacy_classes

    def short(n):
        decomp = real(n)
        i = next(i for i, o in enumerate(decomp.orbits) if o.size > 1)
        cls = decomp.orbits[i]
        orbits = list(decomp.orbits)
        orbits[i] = Orbit(cls.representative, cls.elements[:-1])
        return decomp._replace(orbits=tuple(orbits))

    monkeypatch.setattr(structure, "conjugacy_classes", short)
    with pytest.raises(VerificationError, match="does not match any orbit"):
        orbit_decomposition(2, 1)


def test_orbit_labeled_twice_is_caught(monkeypatch):
    # every swap-type label built on the identity repeats a class label
    monkeypatch.setattr(structure, "beta_product",
                        lambda level, indices: identity(level))
    with pytest.raises(VerificationError, match="labeled twice"):
        orbit_decomposition(1, 2)


def test_swap_label_short_of_an_element_matches_no_orbit(monkeypatch):
    # each swap base's orbit loses its last element, so the first swap label
    # matches no orbit, while every class label still does
    real = structure.orbit

    def short(g, spec):
        found = real(g, spec)
        return found._replace(elements=found.elements[:-1])

    monkeypatch.setattr(structure, "orbit", short)
    with pytest.raises(VerificationError, match="does not match any orbit") as exc:
        orbit_decomposition(1, 2)
    assert "kind='beta'" in str(exc.value)


@pytest.mark.parametrize("n,k", [(2, 0), (1, 1), (2, 1), (1, 2), (0, 3)])
def test_orbit_walks_once_per_swap_base(monkeypatch, n, k):
    # one walk per nonempty index set, never one per chain shift
    real, walked = structure.orbit, []

    def counted(g, spec):
        walked.append(g)
        return real(g, spec)

    monkeypatch.setattr(structure, "orbit", counted)
    orbit_decomposition(n, k)
    assert len(walked) == (1 << k) - 1


def test_orbit_missed_by_every_label_is_caught(monkeypatch):
    # one base class dropped: its shifted copies get no label
    real = structure.conjugacy_classes

    def dropped(n):
        decomp = real(n)
        return decomp._replace(orbits=decomp.orbits[:-1])

    monkeypatch.setattr(structure, "conjugacy_classes", dropped)
    with pytest.raises(VerificationError, match="misses some orbits"):
        orbit_decomposition(2, 1)


def test_trivial_base_level_edges():
    assert right_coset_reps(0, 0).count == 2
    assert double_cosets(0).count == 2
    decomp = orbit_decomposition(0, 1)
    assert decomp.count == 2 == predicted_orbit_count(0, 1)
    assert all(o.size == 1 for o in decomp.orbits)


# --- coset systems ------------------------------------------------------------------------------

def test_right_cosets_adjacent_level_one():
    system = right_coset_reps(1, 0)
    assert system.count == 4
    assert set(system.sizes) == {2}
    stated = set(cycles(system.stated_representatives))
    assert stated == {"e", "(3 4)", "(1 3)(2 4)", "(1 4 2 3)"}
    # canonical representatives are the coset minima
    for rep, coset in zip(system.representatives, system.cosets):
        assert rep == min(coset)


@pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)])
def test_right_cosets_partition_all_parameter_sets(n, l):
    system = right_coset_reps(n, l)
    ambient = n + l + 1
    assert system.ambient_level == ambient
    assert system.count == group_order(ambient) // group_order(n)
    assert all(size == group_order(n) for size in system.sizes)
    assert sum(system.sizes) == group_order(ambient)


@pytest.mark.parametrize("edit", [lambda reps: reps[1:],
                                  lambda reps: reps + reps[:1]],
                         ids=["rep-dropped", "rep-repeated"])
def test_cosets_that_are_no_partition_are_caught(monkeypatch, edit):
    original = structure.coset_rep_pairs
    monkeypatch.setattr(structure, "coset_rep_pairs",
                        lambda base, ambient: edit(original(base, ambient)))
    with pytest.raises(VerificationError, match="right cosets: cosets cover"):
        right_coset_reps(1, 1)


def test_repeated_subgroup_element_fails_the_cover_check(monkeypatch):
    # the identity listed twice in place of the other member of the embedded
    # level-1 group: every coset keeps its size but covers one element
    original = SubgroupSpec.elements

    def repeated(self, ambient):
        members = original(self, ambient)
        return members[:1] * len(members) if self.kind == "embedded" else members

    monkeypatch.setattr(SubgroupSpec, "elements", repeated)
    with pytest.raises(VerificationError) as caught:
        right_coset_reps(1, 1)
    assert str(caught.value) == (
        "right cosets: cosets cover 64 of 128 elements (total size 128)")


def test_right_cosets_guard():
    with pytest.raises(LevelTooLarge):
        right_coset_reps(2, 2)


def test_double_cosets_level_one_explicit():
    system = double_cosets(1)
    assert system.count == 3
    assert sorted(system.sizes) == [2, 2, 4]
    big = next(c for c in system.cosets if len(c) == 4)
    assert set(cycles(big)) == {"(1 3)(2 4)", "(1 4)(2 3)", "(1 3 2 4)", "(1 4 2 3)"}
    stated = set(cycles(system.stated_representatives))
    assert stated == {"e", "(3 4)", "(1 3)(2 4)"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_double_cosets_census(n):
    system = double_cosets(n)
    order = group_order(n)
    assert system.count == order + 1
    assert sorted(system.sizes) == sorted([order] * order + [order * order])
    assert sum(system.sizes) == group_order(n + 1)
    assert 2 * order ** 2 == group_order(n + 1)


def test_double_cosets_built_once_per_level_until_reset():
    # the Mackey census reads the system the double-coset check built, and
    # the order its first read built
    assert double_cosets(2) is double_cosets(2)
    assert double_cosets(2).cosets is double_cosets(2).cosets
    reset_caches()
    assert double_cosets.cache_info().currsize == 0


def test_shifted_coset_that_is_not_left_stable_is_caught(monkeypatch):
    # the root swap times the embedded group is a right coset only
    original = SubgroupSpec.elements

    def with_root_swap(self, ambient):
        members = original(self, ambient)
        if self.kind == "hat_chain":
            members += (beta(ambient, ambient),)
        return members

    reset_caches()  # double_cosets(1) may be cached
    monkeypatch.setattr(SubgroupSpec, "elements", with_root_swap)
    with pytest.raises(VerificationError, match="is not left-stable"):
        double_cosets(1)


def test_double_cosets_guard():
    with pytest.raises(LevelTooLarge):
        double_cosets(4)


# --- centralizer algebra bases ---------------------------------------------------------------------

def test_centralizer_basis_adjacent_level_one():
    basis = centralizer_algebra_basis(1, 1)
    assert len(basis) == 6
    o = (AlgebraElement.of(elem(2, "(1 3)(2 4)"))
         + AlgebraElement.of(elem(2, "(1 4)(2 3)")))
    assert o in list(basis)
    sub = SubgroupSpec.embedded(1)
    assert all(centralizes(v, sub) for v in basis)


def test_centralizer_basis_offset_zero_is_class_sums():
    for n in (1, 2, 3):
        basis = centralizer_algebra_basis(n, 0)
        assert len(basis) == class_count(n)
        classes = {class_sum(g) for g in full_group(n)}
        assert set(basis) == classes


def test_centralizer_basis_closure_frozen_products():
    basis = centralizer_algebra_basis(1, 1)
    # basis order is by orbit representative word:
    # e, (3 4), (1 2), (1 2)(3 4), swap-pair sum, four-cycle sum
    v = list(basis)
    assert expand(v[4] * v[4], basis) == (2, 0, 0, 2, 0, 0)
    assert expand(v[4] * v[5], basis) == (0, 2, 2, 0, 0, 0)
    assert expand(v[5] * v[5], basis) == (2, 0, 0, 2, 0, 0)


def test_centralizer_basis_closure_all_pairs():
    basis = centralizer_algebra_basis(1, 1)
    for a in basis:
        for b in basis:
            assert expand(a * b, basis) is not None


def test_expand_reports_remainder():
    basis = centralizer_algebra_basis(1, 1)
    stray = AlgebraElement.of(elem(2, "(1 3)(2 4)"))  # half an orbit sum
    assert expand(stray, basis) is None


@lru_cache(maxsize=None)
def _cached_basis(n, k):
    return centralizer_algebra_basis(n, k)


def _residual_expansion(x, basis):
    """Read each orbit's coefficient at its minimum, subtract the scaled
    orbit sum, and require a zero remainder."""
    residual = dict(x.terms)
    coeffs = []
    for v in basis:
        c = x.terms.get(min(v.terms), 0)
        coeffs.append(c)
        for g in v.terms:
            remaining = residual.get(g, 0) - c
            if remaining:
                residual[g] = remaining
            else:
                residual.pop(g, None)
    return None if residual else tuple(coeffs)


_RATIONALS = st.sampled_from(
    sorted({Fraction(a, b) for a in range(-6, 7) for b in range(1, 7)}))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(nk=st.sampled_from([(1, 1), (2, 1), (1, 2)]), data=st.data())
def test_expansion_agrees_with_residual_reference(nk, data):
    # random rational combinations of orbit sums, optionally missing one
    # element of an orbit, carrying a stray term, or expanded in a basis
    # with some orbits left out (so some keys lie in no orbit)
    basis = _cached_basis(*nk)
    level = sum(nk)
    coeffs = data.draw(st.lists(_RATIONALS, min_size=len(basis),
                                max_size=len(basis)))
    terms = {g: c for c, v in zip(coeffs, basis) for g in v.terms}
    change = data.draw(st.sampled_from(["none", "drop", "stray", "sub-basis"]))
    if change == "drop":
        orbit_ = data.draw(st.sampled_from(basis))
        terms.pop(data.draw(st.sampled_from(sorted(orbit_.terms))))
    elif change == "stray":
        g = data.draw(st.sampled_from(full_group(level)))
        terms[g] = terms.get(g, 0) + data.draw(_RATIONALS.filter(bool))
    elif change == "sub-basis":
        left_out = data.draw(st.sets(st.sampled_from(basis), min_size=1))
        basis = tuple(v for v in basis if v not in left_out)
    x = AlgebraElement(level, terms)
    assert expand(x, basis) == _residual_expansion(x, basis)


# --- defining relations -------------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_presentation_all_testable_instances_hold(n):
    report = check_presentation(n)
    assert report.all_pass
    assert all(inst.holds for inst in report.instances)


def test_presentation_instance_counts():
    assert len(check_presentation(1).instances) == 1
    report4 = check_presentation(4)
    counts = report4.family_counts()
    assert counts[1] == 4
    assert counts[2] == 12
    assert counts[3] == 4
    assert len(report4.untestable) == 10


def test_presentation_untestable_range():
    # literal index ranges run past the deepest generator
    report = check_presentation(3)
    assert (1, 2, 2) in report.untestable
    assert all(j + k > 3 for _, j, k in report.untestable)


def test_relation_family_three_needs_root_first_indexing(monkeypatch):
    # with symbol 1 mapped to the deepest swap instead of the root swap,
    # family 3 fails from level 3 on, so the family only closes in the
    # root-first indexing; check_presentation reads structure's beta
    monkeypatch.setattr(structure, "beta",
                        lambda level, i: treegroup.beta(level, level + 1 - i))
    failing = {n: [(inst.family, inst.params)
                   for inst in check_presentation(n).instances if not inst.holds]
               for n in range(5)}
    assert failing == {0: [], 1: [], 2: [], 3: [(3, (1, 2, 1))],
                       4: [(3, (1, 2, 1)), (3, (1, 2, 2)), (3, (1, 3, 1)),
                           (3, (2, 3, 1))]}


def test_presentation_spec_instances():
    # (s1 s2)**4 at level 2 and (s1 s2 s1 s3)**2 at level 3
    report2 = check_presentation(2)
    assert any(inst.family == 2 and inst.params == (1, 2) and inst.holds
               for inst in report2.instances)
    report3 = check_presentation(3)
    assert any(inst.family == 3 and inst.params == (1, 2, 1) and inst.holds
               for inst in report3.instances)
