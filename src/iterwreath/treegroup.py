"""Exact arithmetic in the tower of iterated wreath products of S2.

The level-n group is the automorphism group of the complete binary tree with
2**n leaves; its order is 2**(2**n - 1).  An element is stored as `perm`, its
leaf permutation as 0-based bytes (so levels stop at MAX_BYTE_LEVEL = 8), and
`rank`, the int "1" + swap word in binary, which orders by level, then by
word.  The *swap word* has one bit per internal node, breadth-first from the
root, bit 1 meaning the node's two subtrees are exchanged; it is read off
`perm` (a node's bit is a bit of its first leaf's image), and `from_word` is
the one way back: leaf x goes to x XOR the swap bits of its ancestors.
`full_group` alone skips the read: it builds each element from two halves
of the level below and puts its rank together from theirs.

`perm` is the only permutation form: `images` is its 1-based view,
`cycle_string` reads the cycles off it, and `from_permutation` takes 1-based
images and keeps exactly the maps that preserve the leaf blocks.

Values are immutable and interned in one pool keyed by `perm`, so equality is
cheap, an element's hash is its rank, and a product is one `bytes.translate`:
`table(g.perm)` is the 256-byte table through which `h.perm` becomes the
`perm` of g * h.  Loops over many products stay on `perm` bytes and intern
only their results: `from_perms(level, perms)` returns the element of each,
in `rank` order.  All functions here are pure; `reset_caches` empties the
pool and every `element_cache`, such as `full_group`.  `SubgroupSpec` names
the embedded copies, of which the level-n one is the whole level-n group,
and the shifted chains hat_chain(lo, hi).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import product as _cartesian
from operator import attrgetter

# Exhaustive enumeration stops at level 4 (32768 elements); level 5 already
# has 2**31 elements.
MAX_ENUM_LEVEL = 4
# Leaf labels are stored one per byte, so elements exist up to level 8.
MAX_BYTE_LEVEL = 8


class LevelMismatch(ValueError):
    """Combined two elements living at different tree heights."""


class LevelTooLarge(ValueError):
    """An exhaustive enumeration would exceed the desk-scale guard."""


class UsageError(ValueError):
    """A command argument lies outside what the command accepts."""


class NotATreeAutomorphism(ValueError):
    """A permutation does not preserve the binary block structure."""


def group_order(level: int) -> int:
    """Order of the level-n group: 2**(2**n - 1)."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    return 1 << ((1 << level) - 1)


# --- canonical, interned elements ----------------------------------------

# One pool keyed by `perm`; its length fixes the level.
_pool: dict = {}

# Translate tables: _ROTATE[d] adds d to every byte, mod 256, so _ROTATE[-d]
# subtracts it.  They move leaf blocks between the halves of a tree.
_BYTES_TWICE = bytes(range(256)) * 2
_ROTATE = [_BYTES_TWICE[d:d + 256] for d in range(256)]
# _BIT[j] sends a byte to ASCII "1" if its bit j is set, else to "0".
_BIT = [bytes(48 + (v >> j & 1) for v in range(256)) for j in range(8)]


def _check_level(level):
    if level > MAX_BYTE_LEVEL:
        raise LevelTooLarge(f"levels stop at {MAX_BYTE_LEVEL}, got {level}")


def _swap_word(level, perm):
    """The ASCII 0/1 swap word: a depth-j node's bit is bit level-1-j of the
    image of its first leaf, and those leaves are every 2**(level-j)-th."""
    return b"".join(perm[::1 << (level - j)].translate(_BIT[level - 1 - j])
                    for j in range(level))


def _leaf_perm(level, word):
    """Leaf x goes to x XOR the swap bits of its ancestors (word of 0/1 ints);
    a depth-j node's bit is bit level-1-j, handed down to both children."""
    masks = [0]
    for j in range(level):
        bit, block = 1 << (level - 1 - j), word[(1 << j) - 1:(2 << j) - 1]
        masks = [m | s * bit for m, s in zip(masks, block) for _ in (0, 1)]
    return bytes(map(int.__xor__, range(1 << level), masks))


class TreeAutomorphism:
    """Canonical tree automorphism: its leaf permutation, ranked by swap word."""

    __slots__ = ("level", "perm", "rank")

    def __init__(self, *args, **kwargs):
        raise TypeError("use TreeAutomorphism.from_word / identity / beta")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, TreeAutomorphism)
                                 and self.rank == other.rank)

    def __hash__(self) -> int:
        """The rank: hash(g) == hash(g.rank), as a rank is below 2**61 - 1 up
        to level 5, and from level 6 too wide, so CPython hashes it as an int."""
        return self.rank

    def __lt__(self, other: "TreeAutomorphism") -> bool:
        try:  # a non-element operand: Python's TypeError names both types
            return self.rank < other.rank
        except AttributeError:
            return NotImplemented

    # construction

    @classmethod
    def from_word(cls, word) -> "TreeAutomorphism":
        word = tuple(int(b) for b in word)
        level = (len(word) + 1).bit_length() - 1
        if len(word) != (1 << level) - 1 or not all(b in (0, 1) for b in word):
            raise ValueError(f"bad swap word {word!r}")
        _check_level(level)
        return _from_perm(level, _leaf_perm(level, word))

    @classmethod
    def identity(cls, level: int) -> "TreeAutomorphism":
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        _check_level(level)
        return _from_perm(level, _ROTATE[0][:1 << level])

    @classmethod
    def beta(cls, level: int, index: int) -> "TreeAutomorphism":
        """Generator swapping the leftmost node at depth level-index.

        Its permutation is the product of (j, 2**(index-1)+j) over
        j = 1..2**(index-1); index = level gives the root swap.
        """
        if not 1 <= index <= level:
            raise ValueError(f"generator index {index} out of range 1..{level}")
        _check_level(level)
        ident, half = _ROTATE[0][:1 << level], 1 << (index - 1)
        return _from_perm(level, ident[half:2 * half] + ident[:half] + ident[2 * half:])

    @classmethod
    def from_permutation(cls, level: int, images) -> "TreeAutomorphism":
        """Unique preimage of a block-structure-preserving map of the labels
        1..2**level, given by its images; any other map is rejected."""
        _check_level(level)
        images = tuple(images)
        if len(images) != 1 << level:
            raise ValueError(f"degree {len(images)} != 2**{level}")
        if not all(1 <= v <= len(images) for v in images):
            raise NotATreeAutomorphism(
                f"leaf images leave the labels 1..{len(images)}")
        # the swap word read off any map rebuilds a tree automorphism, which
        # is the map itself exactly when the map preserves the leaf blocks
        perm = bytes(v - 1 for v in images)
        word = _swap_word(level, perm).translate(_ROTATE[-48])
        if _leaf_perm(level, word) != perm:
            raise NotATreeAutomorphism(
                f"leaf images leave their block in a level-{level} subtree")
        return _from_perm(level, perm)

    # group operations

    def __mul__(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        # "self after other" on leaf labels; only a non-element operand raises
        # AttributeError, and a block that ends in the return costs one NOP
        try:
            if self.level != other.level:
                raise LevelMismatch(f"levels {self.level} and {other.level}")
            perm = other.perm.translate(table(self.perm))
            return _pool.get(perm) or _from_perm(self.level, perm)
        except AttributeError:
            return NotImplemented

    def inverse(self) -> "TreeAutomorphism":
        n = 1 << self.level  # maketrans sends perm[i] to i, the inverse
        return _from_perm(self.level, bytes.maketrans(self.perm, _ROTATE[0][:n])[:n])

    # views

    @property
    def word(self) -> tuple:
        """The swap word: one bit per internal node, breadth-first."""
        return tuple(map(int, self.word_string()))

    @property
    def images(self) -> tuple:
        """The leaf permutation in one-line form on the labels 1..2**level."""
        return tuple(v + 1 for v in self.perm)

    @property
    def is_identity(self) -> bool:
        return not self.rank & (self.rank - 1)  # "1" and then only zeros

    def word_string(self) -> str:
        return bin(self.rank)[3:]  # drop "0b1"

    def cycle_string(self) -> str:
        """Nontrivial cycles on the labels 1..2**level, each from its smallest
        label, in label order, like "(1 3 2 4)(5 6)"; the identity is "e"."""
        perm, seen, out = self.perm, set(), []
        for start in range(len(perm)):
            if start in seen or perm[start] == start:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(str(x + 1))
                x = perm[x]
            out.append("(" + " ".join(cycle) + ")")
        return "".join(out) or "e"

    def __repr__(self) -> str:
        return f"TreeAutomorphism({self.level}, {self.word_string()!r})"

    def __str__(self) -> str:
        return self.cycle_string()


def table(perm: bytes) -> bytes:
    """Translate table of a `perm`: p.translate(table(g.perm)) is g after p."""
    return perm.ljust(256, b"\0")


_rank = attrgetter("rank")


def from_perms(level: int, perms) -> tuple:
    """The level-`level` element of each `perm` (repeats kept), in rank order."""
    return tuple(sorted([_pool.get(p) or _from_perm(level, p) for p in perms],
                        key=_rank))


def _from_perm(level, perm):
    """The pooled element of a `perm` the program built itself."""
    g = _pool.get(perm)
    if g is None:
        g = _pool[perm] = object.__new__(TreeAutomorphism)
        g.level, g.perm = level, perm
        g.rank = int(b"1" + _swap_word(level, perm), 2)
    return g


def identity(level: int) -> TreeAutomorphism:
    return TreeAutomorphism.identity(level)


def beta(level: int, index: int) -> TreeAutomorphism:
    return TreeAutomorphism.beta(level, index)


def beta_product(level: int, indices) -> TreeAutomorphism:
    """Product of generators over a strictly increasing index list.

    The listed order is the application order read right to left: the
    highest index acts first.  Empty list gives the identity.
    """
    indices = tuple(indices)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly increasing: {indices}")
    return math.prod((beta(level, i) for i in indices), start=identity(level))


def perm_embed(g: TreeAutomorphism) -> TreeAutomorphism:
    """Inclusion into the next level fixing the new labels 2**n+1..2**(n+1)."""
    return embed_to(g, g.level + 1)


def hat_embed(g: TreeAutomorphism) -> TreeAutomorphism:
    """Copy of g acting on the shifted labels 2**n+k instead of k."""
    _check_level(g.level + 1)
    h = len(g.perm)
    return _from_perm(g.level + 1, _ROTATE[0][:h] + g.perm.translate(_ROTATE[h]))


def embed_to(g: TreeAutomorphism, level: int) -> TreeAutomorphism:
    """Label-preserving inclusion into the given level, fixing every new label."""
    if level < g.level:
        raise ValueError(f"cannot embed level {g.level} down to {level}")
    _check_level(level)
    return _from_perm(level, g.perm + _ROTATE[0][len(g.perm):1 << level])


def components(g: TreeAutomorphism):
    """Root swap bit and the two subtree automorphisms (left, right)."""
    if g.level == 0:
        raise ValueError("level-0 element has no components")
    h = 1 << (g.level - 1)
    s = g.perm[0] >> (g.level - 1)  # the root swap sends leaf 1 across
    return (s, _from_perm(g.level - 1, g.perm[:h].translate(_ROTATE[-s * h])),
            _from_perm(g.level - 1, g.perm[h:].translate(_ROTATE[(s - 1) * h])))


_element_caches = []  # every cache that holds pool elements


def element_cache(fn):
    """Unbounded lru_cache of fn that reset_caches empties with the pool."""
    cached = lru_cache(maxsize=None)(fn)
    _element_caches.append(cached)
    return cached


@element_cache
def full_group(level: int):
    """All elements at a level, in lexicographic swap-word order.

    Each is a root swap bit s over two level-(level-1) halves L and R, moved
    onto their blocks.  Its swap word is s, then at each depth d >= 1 the
    depth-(d-1) bits of L and then those of R, so its rank is put together
    from the halves' ranks; no swap word is read off the leaf images.
    """
    if level > MAX_ENUM_LEVEL:
        raise LevelTooLarge(
            f"full enumeration is capped at level {MAX_ENUM_LEVEL}; "
            f"level {level} has 2**(2**{level} - 1) elements")
    if level == 0:
        return (identity(0),)
    h, top = 1 << (level - 1), (1 << level) - 1
    halves = full_group(level - 1)
    low = [g.perm for g in halves]
    high = [p.translate(_ROTATE[h]) for p in low]
    # a half's word spread over its parent's word below the root bit: its
    # depth-d block fills the left (L) or right (R) half of the depth-(d+1) one
    blocks = [(slice((1 << d) - 1, (2 << d) - 1), "0" * (1 << d))
              for d in range(level - 1)]
    words = [g.word_string() for g in halves]
    spread_left = [int("0" + "".join(w[c] + z for c, z in blocks), 2) for w in words]
    spread_right = [int("0" + "".join(z + w[c] for c, z in blocks), 2) for w in words]
    # every word occurs once, so an element's word is its place in the group
    group, pool, new = [None] * (1 << top), _pool, object.__new__
    for s, (lefts, rights) in enumerate(((low, high), (high, low))):
        for a, x in zip(lefts, spread_left):
            x |= s << (top - 1)
            for b, y in zip(rights, spread_right):
                g = pool.get(perm := a + b)
                if g is None:
                    g = pool[perm] = new(TreeAutomorphism)
                    g.level, g.perm, g.rank = level, perm, (1 << top) | x | y
                group[x | y] = g
    return tuple(group)


def reset_caches() -> None:
    """Forget every interned element and every cache that holds one."""
    _pool.clear()
    for cache in _element_caches:
        cache.cache_clear()


# --- named standard subgroups ---------------------------------------------

class SubgroupSpec(namedtuple("SubgroupSpec", "kind lo hi")):
    """A named standard subgroup of the level-`ambient` group.

    kind "embedded": the label-preserving copy of the level-lo group, so
    embedded(n) at level n is the whole group and embedded(0) the trivial
    group; "hat_chain": the commuting product of the shifted copies of levels
    lo..hi, the level-m one acting on labels 2**m+1..2**(m+1), so
    hat_chain(m, m) is the single shifted copy and hat_chain(m, m-1) the
    empty chain, the trivial group.
    """

    __slots__ = ()

    @classmethod
    def embedded(cls, m: int) -> "SubgroupSpec":
        return cls("embedded", m, m)

    @classmethod
    def hat_chain(cls, lo: int, hi: int) -> "SubgroupSpec":
        if lo > hi + 1:
            raise ValueError(f"chain indices must increase: {lo}..{hi}")
        return cls("hat_chain", lo, hi)

    def validate(self, ambient: int) -> None:
        if self.lo < 0:
            raise ValueError(f"negative subgroup level in {self}")
        needed = self.lo if self.kind == "embedded" else self.hi + 1
        if needed > ambient:
            raise ValueError(f"{self} does not fit in level {ambient}")

    @element_cache  # every orbit walk asks for its acting group's generators
    def generators(self, ambient: int):
        self.validate(ambient)
        if self.kind == "embedded":
            return tuple(embed_to(beta(self.lo, i), ambient)
                         for i in range(1, self.lo + 1))
        return tuple(embed_to(hat_embed(beta(m, i)), ambient)
                     for m in range(self.lo, self.hi + 1)
                     for i in range(1, m + 1))

    @element_cache  # coset systems and the Mackey layer share these tuples
    def elements(self, ambient: int):
        """All members at the ambient level, in canonical word order."""
        self.validate(ambient)
        if ambient > MAX_ENUM_LEVEL:
            raise LevelTooLarge(
                f"subgroup enumeration is capped at ambient level "
                f"{MAX_ENUM_LEVEL}, got {ambient}")
        if self.kind == "embedded":  # embedding keeps rank order
            return tuple(embed_to(g, ambient) for g in full_group(self.lo))
        ident = _ROTATE[0][:1 << ambient]  # members fix the labels no factor moves
        blocks = [[g.perm.translate(_ROTATE[1 << m]) for g in full_group(m)]
                  for m in range(self.lo, self.hi + 1)]
        return from_perms(ambient, (ident[:1 << self.lo] + b"".join(parts)
                                    + ident[1 << (self.hi + 1):]
                                    for parts in _cartesian(*blocks)))


# --- decomposition along the tower ----------------------------------------

class Factorization(namedtuple("Factorization", "base chain indices")):
    """Unique splitting g = base * chain * beta_product(indices).

    For g at level a split above level b (see factorize), all parts are at
    level a: `base` in the embedded level-b subgroup, `chain` in
    hat_chain(b, a-1), and `indices` a strictly increasing subset of
    {b+1, ..., a}; (chain, indices) is the coset's `coset_rep_pairs` key.
    """

    __slots__ = ()


def factorize(g: TreeAutomorphism, base_level: int) -> Factorization:
    """Split g along the tower above `base_level`.

    Peels one level at a time: an element either avoids the current root swap
    (left subtree carries the lower part, right subtree the shifted factor)
    or contains it, in which case the roles flip and the swap index joins I.
    The shifted factors, moved onto their label blocks, make the chain.
    """
    if not 0 <= base_level <= g.level:
        raise ValueError(f"base level {base_level} out of range 0..{g.level}")
    ambient, cur = g.level, g
    blocks, indices = [], []
    for m in range(ambient, base_level, -1):
        s, left, right = components(cur)
        cur, hat = (right, left) if s else (left, right)
        if s:
            indices.append(m)
        blocks.append(hat.perm.translate(_ROTATE[1 << (m - 1)]))
    blocks.append(_ROTATE[0][:1 << base_level])  # the labels the chain fixes
    chain = _from_perm(ambient, b"".join(reversed(blocks)))
    return Factorization(embed_to(cur, ambient), chain, tuple(reversed(indices)))
