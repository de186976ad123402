"""The bimodule action of a level-n element on one tensor, used by the tests.

The end-basis orbits are walked on integer tensors through renormalisation
tables; this acts on one TensorBasisElement at a time instead, so the tests
can compare the two.
"""

from iterwreath import TensorBasisElement, TreeAutomorphism, embed_to
from iterwreath.endo import _tensor_index


def conj_action_tensor(h: TreeAutomorphism, t: TensorBasisElement) -> TensorBasisElement:
    """Left action of a level-n element on the tensor basis.

    Conjugates the tensor inside the bimodule and renormalizes.  Restricted
    to the embedded level-(n-l) subgroup this is plain conjugation of both
    factors, which is the action the endomorphism basis needs; over the whole
    level-n group it is still a left action (the naive two-sided conjugation
    formula is not).
    """
    n, m = t.coset_b.level, t.left.level
    if h.level != n:
        raise ValueError(f"acting element level {h.level}, expected {n}")
    index = _tensor_index(m, n, t.base_level)
    rep, crossed = index.split(t.coset_rep() * h.inverse())
    return index.tensor(index.encode(embed_to(h, m) * t.left * crossed, rep))
