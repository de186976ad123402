from types import SimpleNamespace

import pytest

from iterwreath import (
    LevelTooLarge,
    SubgroupSpec,
    VerificationError,
    beta,
    conjugate_intersection,
    double_cosets,
    group_order,
    identity,
    mackey_decomposition,
    perm_embed,
)
from iterwreath import mackey


@pytest.mark.parametrize("n", [1, 2, 3])
def test_intersection_at_identity_is_whole_subgroup(n):
    inter = conjugate_intersection(n, identity(n + 1))
    assert inter == SubgroupSpec.embedded(n).elements(n + 1)


@pytest.mark.parametrize("n", [1, 2])
def test_intersection_at_every_shifted_element_is_whole_subgroup(n):
    base = SubgroupSpec.embedded(n).elements(n + 1)
    for b in SubgroupSpec.hat_chain(n, n).elements(n + 1):
        assert conjugate_intersection(n, b) == base


@pytest.mark.parametrize("n", [1, 2, 3])
def test_intersection_at_root_swap_is_trivial(n):
    inter = conjugate_intersection(n, beta(n + 1, n + 1))
    assert inter == (identity(n + 1),)


def test_intersection_rejects_wrong_level():
    with pytest.raises(ValueError):
        conjugate_intersection(2, identity(2))


def test_intersection_is_a_subgroup():
    for g in [perm_embed(beta(2, 1)) * beta(3, 3), beta(3, 2)]:
        inter = set(conjugate_intersection(2, g))
        assert identity(3) in inter
        for a in inter:
            assert a.inverse() in inter
            for b in inter:
                assert a * b in inter


def test_decomposition_level_one_frozen():
    summands = mackey_decomposition(1)
    assert [(s.kind, s.bimodule_dimension) for s in summands] == [
        ("Id", 2), ("Id", 2), ("Ind0Res0", 4)]
    assert sum(s.bimodule_dimension for s in summands) == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decomposition_census_and_dimension_audit(n):
    summands = mackey_decomposition(n)
    order = group_order(n)
    assert len(summands) == order + 1
    assert sum(1 for s in summands if s.kind == "Id") == order
    trivial = [s for s in summands if s.kind == "Ind0Res0"]
    assert len(trivial) == 1
    assert trivial[0].bimodule_dimension == order * order
    assert len(trivial[0].intersection) == 1
    total = sum(s.bimodule_dimension for s in summands)
    assert total == order * order + order ** 2 == group_order(n + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_id_summands_come_from_regular_cosets(n):
    # each shifted-copy representative gives a coset of size |A_n| whose
    # intersection is everything, hence a regular bimodule
    order = group_order(n)
    for s in mackey_decomposition(n):
        if s.kind == "Id":
            assert len(s.intersection) == order
            assert s.bimodule_dimension == order


def test_decomposition_trivial_base():
    summands = mackey_decomposition(0)
    assert [(s.kind, s.bimodule_dimension) for s in summands] == [
        ("Id", 1), ("Ind0Res0", 1)]


def test_decomposition_guard():
    with pytest.raises(LevelTooLarge):
        mackey_decomposition(4)
    with pytest.raises(LevelTooLarge):
        conjugate_intersection(4, identity(5))


def test_wrong_intersection_is_caught(monkeypatch):
    monkeypatch.setattr(mackey, "conjugate_intersection",
                        lambda n, g: (identity(n + 1),))
    with pytest.raises(VerificationError, match="is not the full subgroup"):
        mackey_decomposition(1)


def test_coset_cut_short_fails_the_dimension_check(monkeypatch):
    system = double_cosets(1)
    cosets = system.cosets[:-1] + (system.cosets[-1][:-1],)
    short = SimpleNamespace(cosets=cosets,
                            stated_representatives=system.stated_representatives)
    monkeypatch.setattr(mackey, "double_cosets", lambda n: short)
    with pytest.raises(VerificationError, match="!= coset size"):
        mackey_decomposition(1)
