"""Double-coset data for restriction-after-induction between adjacent levels.

For the embedded level-n subgroup inside level n+1, each two-sided coset
contributes one summand: the intersection with its own conjugate decides
whether the summand is a regular bimodule (an identity-functor copy) or the
full induce-from-trivial piece.  Everything is checked at the level of
element sets and dimensions, which is what the finite computation can see.
"""

from __future__ import annotations

from collections import namedtuple

from .structure import VerificationError, double_cosets
from .treegroup import SubgroupSpec, TreeAutomorphism, group_order, table


class MackeySummand(namedtuple("MackeySummand",
                               "coset_rep intersection kind bimodule_dimension")):
    """One double-coset summand; `kind` is "Id" or "Ind0Res0"."""

    __slots__ = ()


def conjugate_intersection(n: int, g: TreeAutomorphism):
    """The subgroup of embedded level-n elements that also lie in gA_ng^-1."""
    if g.level != n + 1:
        raise ValueError(f"element level {g.level}, expected {n + 1}")
    base = SubgroupSpec.embedded(n).elements(n + 1)
    g_table, ginv = table(g.perm), g.inverse().perm
    conjugated = {ginv.translate(table(x.perm)).translate(g_table) for x in base}
    return tuple(x for x in base if x.perm in conjugated)


def mackey_decomposition(n: int):
    """One summand per two-sided coset of `double_cosets(n)`.

    A shifted-copy coset must give a regular summand (intersection the whole
    embedded subgroup), the root-swap coset one with trivial intersection,
    and each bimodule dimension |A_n|^2 / |intersection| its coset's size;
    the mackey report counts the census.
    """
    system = double_cosets(n)
    order = group_order(n)
    base = set(SubgroupSpec.embedded(n).elements(n + 1))
    hat = set(SubgroupSpec.hat_chain(n, n).elements(n + 1))

    summands = []
    for rep, coset in zip(system.stated_representatives, system.cosets):
        inter = conjugate_intersection(n, rep)
        kind = "Id" if rep in hat else "Ind0Res0"
        expected = base if kind == "Id" else {x for x in base if x.is_identity}
        if set(inter) != expected:
            raise VerificationError(
                f"intersection at {rep.cycle_string()} is not the "
                f"{'full subgroup' if kind == 'Id' else 'trivial group'}")
        dim = order * order // len(inter)
        if dim != len(coset):
            raise VerificationError(
                f"dimension {dim} != coset size {len(coset)} at "
                f"{rep.cycle_string()}")
        summands.append(MackeySummand(rep, inter, kind, dim))
    return tuple(summands)
