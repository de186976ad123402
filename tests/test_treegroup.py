import random
import re
import sys
from functools import lru_cache
from itertools import product

import pytest

from iterwreath import (
    AlgebraElement,
    LevelMismatch,
    LevelTooLarge,
    NotATreeAutomorphism,
    SubgroupSpec,
    TreeAutomorphism,
    beta,
    beta_product,
    embed_to,
    factorize,
    full_group,
    group_order,
    hat_embed,
    identity,
    perm_embed,
)
from iterwreath import treegroup
from iterwreath.structure import coset_rep_pairs
from iterwreath.treegroup import MAX_BYTE_LEVEL, MAX_ENUM_LEVEL, _swap_word, reset_caches

from cycle_notation import elem, images


# --- permutations -----------------------------------------------------------

def test_permutation_rejects_non_bijection():
    for bad in [(1, 1, 3, 4), (1, 2, 4, 4), (2, 2, 3, 4)]:
        with pytest.raises(NotATreeAutomorphism):
            TreeAutomorphism.from_permutation(2, bad)


def test_permutation_cycle_string_roundtrip():
    for text in ["e", "(1 2)", "(1 3)(2 4)", "(1 3 2 4)", "(1 5)(2 6)(3 7)(4 8)",
                 "(1 2)(5 7 6 8)"]:
        level = 3 if "5" in text else 2
        g = elem(level, text)
        assert g.images == images(1 << level, text)
        assert g.cycle_string() == text
        assert (g * g.inverse()).cycle_string() == "e"


def test_permutation_compose_is_after():
    a = elem(2, "(1 2)")
    b = elem(2, "(1 3)(2 4)")
    ab = a * b
    assert ab.cycle_string() == "(1 3 2 4)"
    assert ab.images == tuple(a.images[v - 1] for v in b.images)


# --- identity and generators --------------------------------------------------

def test_identity_degenerate_level():
    e0 = identity(0)
    assert e0.word == ()
    assert e0.images == (1,)


def test_identity_level_two():
    e = identity(2)
    assert e.word_string() == "000"
    assert e.images == (1, 2, 3, 4)


def test_identity_is_neutral_on_whole_level_two_group():
    e = identity(2)
    for g in full_group(2):
        assert e * g == g
        assert g * e == g


def test_beta_examples():
    assert beta(1, 1).cycle_string() == "(1 2)"
    assert beta(2, 2).cycle_string() == "(1 3)(2 4)"
    assert beta(3, 3).cycle_string() == "(1 5)(2 6)(3 7)(4 8)"


def test_beta_matches_transposition_product_formula():
    # independent oracle: the product of (j, 2**(i-1)+j) over j
    for n in range(1, 5):
        for i in range(1, n + 1):
            half = 1 << (i - 1)
            expected = tuple(x + half if x <= half else
                             x - half if x <= 2 * half else x
                             for x in range(1, (1 << n) + 1))
            assert beta(n, i).images == expected


def test_beta_index_out_of_range():
    with pytest.raises(ValueError):
        beta(2, 0)
    with pytest.raises(ValueError):
        beta(2, 3)


def test_beta_product_empty_is_identity():
    assert beta_product(2, []) == identity(2)


def test_beta_product_level_two():
    g = beta_product(2, [1, 2])
    assert g.word_string() == "101"
    assert g.cycle_string() == "(1 3 2 4)"


def test_beta_product_matches_pair_multiplication():
    assert beta_product(3, [2, 3]) == beta(3, 2) * beta(3, 3)


def test_beta_product_rejects_non_increasing():
    with pytest.raises(ValueError):
        beta_product(3, [2, 2])
    with pytest.raises(ValueError):
        beta_product(3, [3, 1])


# --- multiplication, inversion, conjugation ------------------------------------

def test_generators_are_involutions():
    for n in range(1, 5):
        for i in range(1, n + 1):
            assert beta(n, i) * beta(n, i) == identity(n)
    # the orbit walk conjugates by t * x * t, so every subgroup generator
    # must be an involution
    for ambient in range(1, 5):
        specs = [SubgroupSpec.embedded(m) for m in range(ambient + 1)]
        specs += [SubgroupSpec.hat_chain(lo, hi)
                  for hi in range(ambient) for lo in range(hi + 1)]
        for spec in specs:
            for t in spec.generators(ambient):
                assert t * t == identity(ambient), (spec, ambient)


def test_multiply_frozen_example():
    g = beta(2, 1) * beta(2, 2)
    assert g.word_string() == "101"
    assert g.cycle_string() == "(1 3 2 4)"


def test_level_two_group_is_closed():
    group = set(full_group(2))
    products = {g * h for g in group for h in group}
    assert products == group
    assert len(group) == 8


def test_multiply_level_mismatch():
    with pytest.raises(LevelMismatch):
        beta(2, 1) * beta(3, 1)


@pytest.mark.parametrize("operand", [2, None, AlgebraElement.of(beta(2, 1))],
                         ids=["int", "none", "algebra-element"])
def test_operand_that_is_not_an_element_is_a_type_error(operand):
    g = beta(2, 1)
    kind = type(operand).__name__
    with pytest.raises(TypeError, match=re.escape(
            f"for *: 'TreeAutomorphism' and '{kind}'")):
        g * operand
    with pytest.raises(TypeError, match=re.escape(
            f"'<' not supported between instances of 'TreeAutomorphism' and '{kind}'")):
        g < operand


def test_inverse_examples():
    assert identity(3).inverse() == identity(3)
    for i in (1, 2, 3):
        assert beta(3, i).inverse() == beta(3, i)


def test_inverse_antihomomorphism_exhaustive_level_two():
    for g in full_group(2):
        for h in full_group(2):
            assert (g * h).inverse() == h.inverse() * g.inverse()


def test_conjugate_by_identity():
    e = identity(2)
    for g in full_group(2):
        assert e * g * e.inverse() == g


def test_conjugate_frozen_example():
    h = beta(2, 1)
    assert (h * beta(2, 2) * h.inverse()).cycle_string() == "(1 4)(2 3)"


def test_conjugation_preserves_cycle_type():
    def cycle_type(g):
        return sorted(c.count(" ") + 1 for c in g.cycle_string().split(")")[:-1])

    for g in full_group(2):
        for h in full_group(2):
            assert cycle_type(h * g * h.inverse()) == cycle_type(g)


# --- the permutation representation --------------------------------------------

def test_cycle_string_frozen_examples():
    assert TreeAutomorphism.from_word("100").cycle_string() == "(1 3)(2 4)"
    assert TreeAutomorphism.from_word("010").cycle_string() == "(1 2)"
    assert TreeAutomorphism.from_word("000").cycle_string() == "e"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_permutation_representation_is_injective_homomorphism(n):
    # injectivity plus the pointwise homomorphism law; multiplication is
    # delegated to permutation composition, so these two facts also settle
    # associativity at this level
    group = full_group(n)
    assert len({g.images for g in group}) == len(group)
    for g in group:
        for h in group:
            gh = g * h
            assert all(gh.images[x - 1] == g.images[h.images[x - 1] - 1]
                       for x in range(1, (1 << n) + 1))


def test_from_permutation_frozen_example():
    g = TreeAutomorphism.from_permutation(2, images(4, "(1 3 2 4)"))
    assert g.word_string() == "101"


def test_from_permutation_rejects_block_splitter():
    with pytest.raises(NotATreeAutomorphism):
        TreeAutomorphism.from_permutation(2, images(4, "(1 2 3)"))


def test_from_permutation_rejects_wrong_degree():
    with pytest.raises(ValueError):
        TreeAutomorphism.from_permutation(2, images(8, "e"))


def test_from_permutation_roundtrip_level_three():
    # elements are interned: every constructor returns the pooled object
    for g in full_group(3):
        assert elem(3, g.cycle_string()) is g
        assert TreeAutomorphism.from_permutation(3, g.images) is g
        assert TreeAutomorphism.from_word(g.word) is g


@pytest.mark.parametrize("level", [0, 1, 2, 3, 8])
@pytest.mark.parametrize("bad", ["zero", "one past", "300"])
def test_from_permutation_rejects_labels_out_of_range(level, bad):
    # labels outside 1..2**level, also those no byte can hold, are a bad map
    value = {"zero": 0, "one past": 2 ** level + 1, "300": 300}[bad]
    for position in (0, (1 << level) - 1):
        imgs = list(range(1, (1 << level) + 1))
        imgs[position] = value
        with pytest.raises(NotATreeAutomorphism):
            TreeAutomorphism.from_permutation(level, imgs)


@pytest.mark.parametrize("level, values", [(0, range(5)), (1, range(5)),
                                           (2, range(1, 5))])
def test_from_permutation_accepts_exactly_the_group(level, values):
    # every map into `values` (level 2: all 256 maps of 1..4); a label out of
    # range, a repeated label or a split leaf block must raise
    accepted = []
    for imgs in product(values, repeat=1 << level):
        try:
            g = TreeAutomorphism.from_permutation(level, imgs)
        except ValueError:
            continue
        assert g.images == imgs
        accepted.append(g)
    assert sorted(accepted) == list(full_group(level))


# --- embeddings -----------------------------------------------------------------

def test_perm_embed_keeps_cycle_notation():
    g = perm_embed(beta(1, 1))
    assert g.level == 2
    assert g.cycle_string() == "(1 2)"
    assert perm_embed(identity(3)) == identity(4)
    for g in full_group(2):
        assert perm_embed(g).cycle_string() == g.cycle_string()


# --- swap words, rebuilt by the wreath recursion --------------------------------
#
# The breadth-first word of a level-n tree has one block of 2**j bits per
# depth j; the left subtree owns the first half of each block.  These
# references split and merge words recursively, the way the level-n group is
# built from two level-(n-1) halves and a root bit.

def _split_word(level, word):
    left, right = [], []
    for j in range(level - 1):  # the depth-(j+1) block starts at 2**(j+1) - 1
        half = 1 << j
        left += word[2 * half - 1:3 * half - 1]
        right += word[3 * half - 1:4 * half - 1]
    return word[0], tuple(left), tuple(right)


def _merge_word(level, s, left, right):
    out = [s]
    for j in range(level - 1):
        block = slice((1 << j) - 1, (2 << j) - 1)
        out += left[block] + right[block]
    return tuple(out)


@lru_cache(maxsize=None)  # each level-(n-1) half recurs in many level-n words
def _wreath_images(level, word):
    """0-based leaf images: subtrees act first, the root swap last, so with
    h = 2**(level-1) a left leaf i goes to f_L(i) + s*h and a right leaf to
    f_R(i) + (1-s)*h."""
    if level == 0:
        return (0,)
    s, left, right = _split_word(level, word)
    h = 1 << (level - 1)
    return (tuple(v + s * h for v in _wreath_images(level - 1, left))
            + tuple(v + (1 - s) * h for v in _wreath_images(level - 1, right)))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_perm_matches_wreath_recursion_on_the_word(n):
    words = set()
    for g in full_group(n):
        word = g.word
        assert tuple(g.perm) == _wreath_images(n, word)
        assert g.word_string() == "".join(map(str, word))
        assert g.is_identity == (not any(word))
        words.add(word)
    assert len(words) == group_order(n)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_embeddings_match_merged_swap_words(n):
    # the embeddings are built from perm bytes; the swap words say the same
    h = 1 << n
    for g in full_group(n):
        zeros = (0,) * len(g.word)
        lower = perm_embed(g)
        assert lower is TreeAutomorphism.from_word(
            _merge_word(n + 1, 0, g.word, zeros))
        assert lower.images == g.images + tuple(range(h + 1, 2 * h + 1))
        upper = hat_embed(g)
        assert upper is TreeAutomorphism.from_word(
            _merge_word(n + 1, 0, zeros, g.word))
        assert upper.images == tuple(range(1, h + 1)) + tuple(v + h for v in g.images)


def test_perm_embed_is_homomorphism_on_level_two():
    for g in full_group(2):
        for h in full_group(2):
            assert perm_embed(g * h) == perm_embed(g) * perm_embed(h)


def test_hat_embed_examples():
    assert hat_embed(beta(1, 1)).cycle_string() == "(3 4)"
    g = elem(2, "(1 2)")
    assert hat_embed(g).cycle_string() == "(5 6)"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_swap_conjugation_sends_embedded_to_shifted(n):
    root = beta(n + 1, n + 1)
    images = set()
    for g in full_group(n):
        conj = root * perm_embed(g) * root.inverse()
        assert conj == hat_embed(g)
        images.add(conj)
    assert len(images) == group_order(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedded_and_shifted_copies_commute_elementwise(n):
    embedded = [perm_embed(g) for g in full_group(n)]
    shifted = [hat_embed(g) for g in full_group(n)]
    for a in embedded:
        for b in shifted:
            assert a * b == b * a


# --- enumeration ------------------------------------------------------------------

def test_group_orders_single_and_double_level():
    assert [group_order(n) for n in range(5)] == [1, 2, 8, 128, 32768]
    for n in range(1, 5):
        assert group_order(n) == 2 * group_order(n - 1) ** 2


def test_full_enumeration_sizes():
    for n in range(5):
        assert len(full_group(n)) == group_order(n)


def test_full_enumeration_is_sorted_and_unique():
    for n in (1, 2, 3, 4):
        group = full_group(n)
        assert list(group) == sorted(group)
        assert list(group) == sorted(group, key=lambda g: g.word)
        assert len(set(group)) == len(group)


def test_full_enumeration_ranks_agree_with_the_swap_words_read_off():
    reset_caches()
    for n in range(5):
        group = full_group(n)
        assert [g.rank for g in group] == [
            int(b"1" + _swap_word(n, g.perm), 2) for g in group]
        assert all(a.rank < b.rank for a, b in zip(group, group[1:]))


def test_full_enumeration_keeps_the_elements_interned_before_it():
    reset_caches()
    before = [identity(4), *(beta(4, i) for i in range(1, 5)),
              TreeAutomorphism.from_word("101100111000101")]
    group = full_group(4)
    for g in before:
        assert group[g.rank - len(group)] is g


def test_full_enumeration_reads_no_swap_word_off_the_leaf_images(monkeypatch):
    reset_caches()
    full_group(3)

    def read(level, perm):
        raise AssertionError(f"swap word of a level-{level} perm read")

    monkeypatch.setattr(treegroup, "_swap_word", read)
    assert len(full_group(4)) == group_order(4)


def test_full_enumeration_guard():
    with pytest.raises(LevelTooLarge):
        full_group(5)
    with pytest.raises(LevelTooLarge):
        SubgroupSpec.embedded(5).elements(5)
    # leaf labels are stored one per byte: levels stop at MAX_BYTE_LEVEL
    assert identity(MAX_BYTE_LEVEL).perm == bytes(range(256))
    root = beta(MAX_BYTE_LEVEL, MAX_BYTE_LEVEL)
    assert (root * root).is_identity and root.inverse() is root
    above = MAX_BYTE_LEVEL + 1
    for build in (lambda: identity(above), lambda: beta(above, 1),
                  lambda: TreeAutomorphism.from_word("0" * ((1 << above) - 1)),
                  lambda: TreeAutomorphism.from_permutation(
                      above, range(1, (1 << above) + 1)),
                  lambda: perm_embed(root), lambda: hat_embed(root)):
        with pytest.raises(LevelTooLarge):
            build()


def test_level_one_group():
    assert [g.cycle_string() for g in full_group(1)] == ["e", "(1 2)"]


def test_hat_subgroup_elements():
    got = [g.cycle_string() for g in SubgroupSpec.hat_chain(1, 1).elements(2)]
    assert got == ["e", "(3 4)"]


def test_hat_chain_order_and_closure():
    chain = SubgroupSpec.hat_chain(1, 2)
    elems = chain.elements(3)
    assert len(elems) == group_order(1) * group_order(2) == 2 * 8
    members = set(elems)
    for a in elems:
        for b in elems:
            assert a * b in members


def test_embedded_elements_fix_new_labels():
    for g in SubgroupSpec.embedded(2).elements(3):
        assert all(g.images[x - 1] == x for x in range(5, 9))


def test_trivial_subgroup():
    trivial = SubgroupSpec.embedded(0)
    assert trivial.elements(3) == (identity(3),)
    assert trivial.generators(3) == ()


def test_subgroup_spec_validation():
    with pytest.raises(ValueError):
        SubgroupSpec.hat_chain(3, 1)
    with pytest.raises(ValueError):
        SubgroupSpec.embedded(3).elements(2)
    with pytest.raises(ValueError):
        SubgroupSpec.hat_chain(2, 2).elements(2)


def test_subgroup_generators_generate():
    for spec, ambient in [(SubgroupSpec.embedded(2), 3),
                          (SubgroupSpec.hat_chain(2, 2), 3),
                          (SubgroupSpec.hat_chain(1, 2), 3)]:
        gens = spec.generators(ambient)
        closure = set(gens) | {identity(ambient)}
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert closure == set(spec.elements(ambient))


def test_subgroup_spec_repr_is_the_field_form():
    assert repr(SubgroupSpec.embedded(2)) == (
        "SubgroupSpec(kind='embedded', lo=2, hi=2)")
    assert repr(SubgroupSpec.hat_chain(1, 2)) == (
        "SubgroupSpec(kind='hat_chain', lo=1, hi=2)")
    with pytest.raises(ValueError, match=r"^SubgroupSpec\(kind='embedded', "
                                         r"lo=3, hi=3\) does not fit in level 2$"):
        SubgroupSpec.embedded(3).validate(2)


def test_equal_records_hash_equal():
    assert SubgroupSpec.embedded(2) == SubgroupSpec("embedded", 2, 2)
    assert hash(SubgroupSpec.embedded(2)) == hash(("embedded", 2, 2))
    g = elem(3, "(1 5 3 7)(2 6 4 8)")
    assert factorize(g, 1) == factorize(g, 1)
    assert hash(factorize(g, 1)) == hash(factorize(g, 1))
    assert len({factorize(g, 1), factorize(g, 1), factorize(g, 2)}) == 2
    # an element hashes as its rank, also past the hash width (level 6)
    wide = TreeAutomorphism.from_word([1] * 63)
    assert wide.rank > sys.maxsize
    for h in (*full_group(2), wide):
        assert hash(h) == hash(h.rank)
    # a rebuilt element, not the pooled one, still finds its key
    index = {h: i for i, h in enumerate(full_group(3))}
    reset_caches()
    rebuilt = TreeAutomorphism.from_word(g.word)
    assert rebuilt is not g
    assert index[rebuilt] == index[g]


def test_subgroup_spec_methods_can_be_patched_on_the_class(monkeypatch):
    calls = []
    original = SubgroupSpec.elements

    def recording(self, ambient):
        calls.append((self, ambient))
        return original(self, ambient)

    monkeypatch.setattr(SubgroupSpec, "elements", recording)
    assert len(SubgroupSpec.hat_chain(1, 1).elements(2)) == 2
    assert calls == [(SubgroupSpec.hat_chain(1, 1), 2)]


# --- tower factorization ------------------------------------------------------------

def recompose(f):
    """base * chain * beta_product(indices), by definition."""
    return f.base * f.chain * beta_product(f.base.level, f.indices)


def test_factorize_identity():
    f = factorize(identity(3), 1)
    assert f.base == identity(3)
    assert f.chain == identity(3)
    assert f.indices == ()


def test_factorize_root_swap():
    f = factorize(beta(2, 2), 1)
    assert f.base == identity(2)
    assert f.chain.cycle_string() == "e"
    assert f.indices == (2,)


def test_factorize_rejects_bad_base():
    with pytest.raises(ValueError):
        factorize(beta(2, 2), 3)


def test_factorize_level_three_exhaustive():
    counts = {}
    seen = set()
    for g in full_group(3):
        f = factorize(g, 1)
        assert recompose(f) == g
        assert f.base in set(SubgroupSpec.embedded(1).elements(3))
        assert f.chain in set(SubgroupSpec.hat_chain(1, 2).elements(3))
        counts[f.indices] = counts.get(f.indices, 0) + 1
        seen.add((f.base, f.chain, f.indices))
    assert counts == {(): 32, (2,): 32, (3,): 32, (2, 3): 32}
    assert len(seen) == 128  # the splitting is unique


@pytest.mark.parametrize("n,l", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
def test_factorize_recompose_roundtrip(n, l):
    for g in full_group(n + l + 1):
        assert recompose(factorize(g, n)) == g


@pytest.mark.parametrize("level", range(4))
def test_factorize_names_the_transversal_coset(level):
    # (chain, I) is a (b, I) key of the transversal, and g = base * its rep
    for base in range(level + 1):
        reps = {(b, indices): rep for b, indices, rep in coset_rep_pairs(base, level)}
        embedded = set(SubgroupSpec.embedded(base).elements(level))
        for g in full_group(level):
            f = factorize(g, base)
            rep = reps[f.chain, f.indices]
            assert f.base in embedded
            assert g.perm == rep.translate(treegroup.table(f.base.perm))


def test_empty_hat_chain_is_the_trivial_group():
    for ambient in range(MAX_ENUM_LEVEL + 1):
        for b in range(ambient + 1):
            chain = SubgroupSpec.hat_chain(b, b - 1)
            assert chain.elements(ambient) == (identity(ambient),)
            assert chain.generators(ambient) == ()
    for b in range(4):
        with pytest.raises(ValueError, match="chain indices must increase"):
            SubgroupSpec.hat_chain(b, b - 2)


# --- group axioms ----------------------------------------------------------------

def test_associativity_exhaustive_level_two():
    group = full_group(2)
    for a, b, c in product(group, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_inverses_exhaustive_level_three():
    e = identity(3)
    for g in full_group(3):
        assert g * g.inverse() == e
        assert g.inverse() * g == e


def test_axioms_random_spot_checks_levels_three_four():
    rng = random.Random(7)
    for n in (3, 4):
        group = full_group(n)
        e = identity(n)
        for _ in range(300):
            a, b, c = (group[rng.randrange(len(group))] for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == e


def test_embed_to_and_power():
    g = beta(2, 1)
    assert embed_to(g, 4).cycle_string() == "(1 2)"
    assert g * g == identity(2)
    w = beta(2, 1) * beta(2, 2)
    assert w * w * w * w == identity(2)
    with pytest.raises(ValueError):
        embed_to(beta(3, 1), 2)
