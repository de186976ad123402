import operator
import random
import re
from fractions import Fraction

import pytest

from iterwreath import (
    AlgebraElement,
    LevelMismatch,
    LevelTooLarge,
    SubgroupSpec,
    beta,
    centralizes,
    class_sum,
    embed_to,
    full_group,
    identity,
    orbit,
    orbit_sum,
)
from iterwreath.treegroup import reset_caches

from cycle_notation import elem


def commutes(x, t):
    """x * t == t * x as algebra products, interned term by term."""
    t = AlgebraElement.of(t)
    return x * t == t * x


def centralizes_exhaustive(x, sub):
    """Commutes with every element of the subgroup: the definition itself."""
    return all(commutes(x, t) for t in sub.elements(x.level))


def root_orbit_sum(n):
    """Orbit sum of the level-(n+1) root swap under the embedded level-n copy."""
    return orbit_sum(beta(n + 1, n + 1), SubgroupSpec.embedded(n))


# --- linear structure ---------------------------------------------------------

def test_add_zero_and_cancellation():
    x = root_orbit_sum(1)
    assert x + AlgebraElement(2) == x
    e = AlgebraElement.of(identity(2))
    assert e.scaled(2) - e == e
    assert not x - x


def test_double_is_termwise():
    x = root_orbit_sum(1)
    doubled = x + x
    assert doubled == x.scaled(2)
    assert len(doubled.terms) == 2
    assert all(c == 2 for c in doubled.terms.values())


def test_zero_coefficients_never_stored():
    g = elem(2, "(1 2)")
    x = AlgebraElement(2, {g: Fraction(0)})
    assert not x and x.terms == {}


def test_level_mismatch_rejected():
    with pytest.raises(LevelMismatch):
        AlgebraElement.of(identity(2)) + AlgebraElement.of(identity(3))
    with pytest.raises(LevelMismatch):
        AlgebraElement.of(identity(2)) - AlgebraElement.of(identity(3))
    with pytest.raises(LevelMismatch):
        AlgebraElement.of(identity(2)) * AlgebraElement.of(identity(3))
    with pytest.raises(LevelMismatch):
        AlgebraElement(2, {identity(3): 1})


@pytest.mark.parametrize("symbol", "+-*")
def test_operand_that_is_not_an_element_is_a_type_error(symbol):
    op = {"+": operator.add, "-": operator.sub, "*": operator.mul}[symbol]
    message = f"for {symbol}: 'AlgebraElement' and 'int'"
    with pytest.raises(TypeError, match=re.escape(message)):
        op(root_orbit_sum(1), 2)


def test_canonical_terms_sorted_by_word():
    x = root_orbit_sum(1) + AlgebraElement.of(identity(2))
    words = [g.word_string() for g, _ in x.canonical_terms()]
    assert words == sorted(words)


# --- convolution ----------------------------------------------------------------

def test_one_is_neutral():
    e = AlgebraElement.of(identity(2))
    x = root_orbit_sum(1) + e.scaled(Fraction(1, 3))
    assert e * x == x
    assert x * e == x


def test_root_orbit_sum_square_frozen():
    # ((1 3)(2 4) + (1 4)(2 3))**2 expanded by hand
    expected = (AlgebraElement.of(identity(2)).scaled(2)
                + AlgebraElement.of(elem(2, "(1 2)(3 4)")).scaled(2))
    o = root_orbit_sum(1)
    assert o * o == expected


def test_root_orbit_sum_cube_collapses():
    o = root_orbit_sum(1)
    assert o * o * o == o.scaled(4)


def _random_element(rng, level, size=3):
    group = full_group(level)
    terms = {}
    for _ in range(size):
        g = group[rng.randrange(len(group))]
        terms[g] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return AlgebraElement(level, terms)


def test_multiplication_associates_and_distributes():
    rng = random.Random(11)
    for level in (2, 3):
        for _ in range(25):
            x = _random_element(rng, level)
            y = _random_element(rng, level)
            z = _random_element(rng, level)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


def _naive_product(x, y):
    """x * y by a double loop over element products, through the public
    constructor: the reference for value and term order."""
    out = {}
    for g, a in x.terms.items():
        for h, b in y.terms.items():
            out[g * h] = out.get(g * h, 0) + a * b
    return AlgebraElement(x.level, out)


def assert_same_product(x, y):
    p, ref = x * y, _naive_product(x, y)
    assert p == ref
    assert list(p.terms.items()) == list(ref.terms.items())
    assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in p.terms.values())
    return p


@pytest.mark.parametrize("coefficient", ["int", "fraction"])
def test_product_matches_naive_double_loop(coefficient):
    rng = random.Random(17)
    for level in (1, 2, 3):
        group = full_group(level)
        for size in (1, 2, 5, 12):
            pair = []
            for _ in range(2):
                terms = {}
                for _ in range(size):
                    g = group[rng.randrange(len(group))]
                    terms[g] = (rng.randrange(-3, 4) if coefficient == "int" else
                                Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)))
                pair.append(AlgebraElement(level, terms))
            assert_same_product(*pair)


def test_product_cancels_to_zero():
    # z = (1 2)(3 4) is a central involution, so (e + z)(e - z) = e - z**2 = 0
    e = AlgebraElement.of(identity(2))
    z = AlgebraElement.of(elem(2, "(1 2)(3 4)"))
    p = assert_same_product(e + z, e - z)
    assert not p and p.terms == {}
    # a partial cancellation keeps the surviving terms in first-product order
    g = AlgebraElement.of(elem(2, "(1 3)(2 4)"))
    assert_same_product(e + z, e - z + g)


def test_fraction_products_that_become_integral_are_stored_as_int():
    e, z = identity(2), elem(2, "(1 2)(3 4)")
    x = AlgebraElement(2, {e: Fraction(2, 3), z: Fraction(1, 2)})
    y = AlgebraElement(2, {e: Fraction(3, 2), z: 2})
    p = assert_same_product(x, y)
    # e: 2/3 * 3/2 + 1/2 * 2 = 2;  z: 2/3 * 2 + 1/2 * 3/2 = 25/12
    assert type(p.terms.get(e, 0)) is int and p.terms.get(e, 0) == 2
    assert p.terms.get(z, 0) == Fraction(25, 12)


def test_product_interns_elements_the_pool_has_not_seen():
    reset_caches()
    g, h = elem(3, "(1 5)(2 6)(3 7)(4 8)"), elem(3, "(1 2)")
    (k,) = (AlgebraElement.of(g) * AlgebraElement.of(h)).terms
    assert k is g * h


# --- coefficient contract -----------------------------------------------------------

def test_products_of_orbit_sums_store_int_coefficients():
    x = root_orbit_sum(2) * root_orbit_sum(2) * class_sum(beta(3, 1))
    assert x.terms and all(type(c) is int for c in x.terms.values())


def test_integral_coefficients_are_stored_as_int():
    e = identity(2)
    x = AlgebraElement(2, {e: Fraction(6, 3)})
    assert type(x.terms.get(e, 0)) is int
    assert x == AlgebraElement.of(e, 2) and hash(x) == hash(AlgebraElement.of(e, 2))
    assert AlgebraElement(2).terms.get(e, 0) == 0


def test_scaling_by_a_third_keeps_a_fraction():
    x = root_orbit_sum(1).scaled(Fraction(1, 3))
    assert x.terms
    assert all(type(c) is Fraction and c == Fraction(1, 3) for c in x.terms.values())
    assert all(type(c) is int for c in x.scaled(3).terms.values())
    assert x.scaled(3) == root_orbit_sum(1)
    assert all(type(c) is int and c == 3
               for c in root_orbit_sum(1).scaled(3).terms.values())
    y = AlgebraElement(2, {identity(2): Fraction(1, 3), beta(2, 1): 0.5})
    assert [(type(c), c) for c in y.terms.values()] == [
        (Fraction, Fraction(1, 3)), (Fraction, Fraction(1, 2))]


# --- orbits -----------------------------------------------------------------------

def test_orbit_of_identity_is_singleton():
    for spec in (SubgroupSpec.embedded(2), SubgroupSpec.embedded(1),
                 SubgroupSpec.embedded(0)):
        o = orbit(identity(2), spec)
        assert o.elements == (identity(2),)
        assert o.representative == identity(2)


def test_orbit_of_root_swap_under_embedded_level_one():
    o = orbit(beta(2, 2), SubgroupSpec.embedded(1))
    assert {g.cycle_string() for g in o.elements} == {"(1 3)(2 4)", "(1 4)(2 3)"}
    assert o.representative == min(o.elements)


def test_orbit_above_the_enumeration_cap_is_refused():
    # a level-5 element exists, but its orbit walk is not made
    with pytest.raises(LevelTooLarge, match="^orbit computation capped at level 4$"):
        orbit(beta(5, 5), SubgroupSpec.embedded(1))


def test_root_swap_orbit_agrees_for_embedded_and_full():
    small = orbit(beta(3, 3), SubgroupSpec.embedded(2))
    big = orbit(beta(3, 3), SubgroupSpec.embedded(3))
    assert small.elements == big.elements
    assert small.size == 8


def test_generator_walk_matches_exhaustive_conjugation():
    # the orbit walk follows generators only; cross-check the definition
    for n in (1, 2):
        spec = SubgroupSpec.embedded(n)
        subgroup = spec.elements(n + 1)
        for g in full_group(n + 1):
            walked = set(orbit(g, spec).elements)
            direct = {h * g * h.inverse() for h in subgroup}
            assert walked == direct


def test_orbit_sizes_divide_subgroup_order():
    for n in (1, 2):
        spec = SubgroupSpec.embedded(n)
        order = len(spec.elements(n + 1))
        for g in full_group(n + 1):
            assert order % orbit(g, spec).size == 0


def test_orbit_sum_examples():
    e = identity(2)
    assert orbit_sum(e, SubgroupSpec.embedded(2)) == AlgebraElement.of(e)
    o = orbit_sum(beta(2, 2), SubgroupSpec.embedded(1))
    assert o == (AlgebraElement.of(elem(2, "(1 3)(2 4)"))
                 + AlgebraElement.of(elem(2, "(1 4)(2 3)")))


def test_class_sums_are_central_level_two():
    for g in full_group(2):
        assert centralizes(class_sum(g), SubgroupSpec.embedded(2))


# --- centralizer membership ---------------------------------------------------------

def test_centralizes_trivial_cases():
    assert centralizes(AlgebraElement.of(identity(2)), SubgroupSpec.embedded(2))
    assert centralizes(AlgebraElement.of(identity(2)), SubgroupSpec.embedded(1))


def test_centralizes_examples():
    assert centralizes(orbit_sum(beta(3, 3), SubgroupSpec.embedded(2)),
                       SubgroupSpec.embedded(3))
    assert centralizes(AlgebraElement.of(elem(2, "(3 4)")),
                       SubgroupSpec.embedded(1))
    assert not centralizes(AlgebraElement.of(elem(2, "(1 3)(2 4)")),
                           SubgroupSpec.embedded(1))


@pytest.mark.parametrize("other, missed", [
    ("(1 3)(2 4)(5 7)(6 8)", 1), ("(3 4)(7 8)", 2), ("(7 8)", 3)])
def test_centralizes_fails_on_the_one_generator_missed(other, missed):
    sub = SubgroupSpec.embedded(3)
    x = AlgebraElement(4, {identity(4): 1, embed_to(elem(3, other), 4): 2})
    gens = sub.generators(4)
    assert [x.commutes_with(t) for t in gens] == [i != missed for i in (1, 2, 3)]
    assert [x.commutes_with(t) for t in gens] == [commutes(x, t) for t in gens]
    assert not centralizes(x, sub)


def test_generator_test_matches_exhaustive_definition():
    for n in (1, 2):
        spec = SubgroupSpec.embedded(n)
        for g in full_group(n + 1):
            x = orbit_sum(g, spec)
            assert centralizes(x, spec) == centralizes_exhaustive(x, spec)
            assert centralizes(x, spec)  # orbit sums always centralize
