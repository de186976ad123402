"""Cycle notation for test inputs, like "(1 3)(2 4)" on the labels 1..2**level."""

from iterwreath.treegroup import TreeAutomorphism


def images(degree, text):
    """One-line images of a cycle string; "e" is the identity."""
    out = list(range(1, degree + 1))
    text = text.strip()
    if text != "e":
        for chunk in text[1:-1].split(")("):
            cycle = [int(part) for part in chunk.split()]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                out[a - 1] = b
    return tuple(out)


def elem(level, text):
    """The tree automorphism with this cycle string."""
    return TreeAutomorphism.from_permutation(level, images(1 << level, text))
