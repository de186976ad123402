"""Acceptance battery: every claim at its exact tolerance, one line each.

All checks are exact (integer and rational arithmetic); there are no
numerical tolerances to calibrate.  Each test prints one PASS/FAIL line so
the suite doubles as a human-readable scorecard; `iterwreath verify-all`
exposes the same battery on the command line.
"""

import json
import time
from pathlib import Path


from iterwreath.algebra import AlgebraElement, centralizes, orbit, orbit_sum
from iterwreath.cli import main
from iterwreath.endo import (
    end_ind_res_basis,
    opposite_check,
    power_table,
    tensor_basis,
)
from iterwreath.mackey import mackey_decomposition
from iterwreath.structure import (
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
    HomSpaceEmpty,
    SubgroupSpec,
    TreeAutomorphism,
    beta,
    embed_to,
    full_group,
    group_order,
    identity,
    reset_caches,
)


def report(number, ok, detail, capsys):
    line = f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_group_sizes(capsys):
    reset_caches()
    started = time.perf_counter()
    small_sizes = [len(full_group(n)) for n in (1, 2, 3)]
    small_elapsed = time.perf_counter() - started
    sizes = small_sizes + [len(full_group(4))]
    chain = all(group_order(n) == 2 * group_order(n - 1) ** 2
                for n in range(1, 5))
    ok = sizes == [2, 8, 128, 32768] and chain and small_elapsed < 1.0
    report(1, ok, f"orders {sizes} by enumeration, doubling-square chain, "
                  f"n<=3 in {small_elapsed * 1000:.0f} ms", capsys)


def test_criterion_02_presentation(capsys):
    started = time.perf_counter()
    reports = {n: check_presentation(n) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - started
    checked = sum(len(r.instances) for r in reports.values())
    skipped = sum(len(r.untestable) for r in reports.values())
    ok = all(r.all_pass for r in reports.values()) and elapsed < 1.0
    report(2, ok, f"{checked} relation instances hold for n<=4 "
                  f"({skipped} out-of-range instances reported untestable)",
           capsys)


def test_criterion_03_center(capsys):
    ok = all(center(n) == center_closed_form(n) for n in (1, 2, 3))
    report(3, ok, "brute-force centers equal {id, sibling-swap product} "
                  "for n<=3", capsys)


def test_criterion_04_centralizer(capsys):
    ok = True
    for n in (1, 2, 3):
        computed = group_centralizer(n, 1)
        hat = SubgroupSpec.hat_chain(n, n).elements(n + 1)
        product = tuple(sorted(embed_to(z, n + 1) * b
                               for z in center_closed_form(n) for b in hat))
        ok = ok and computed == product and len(computed) == 2 * group_order(n)
    report(4, ok, "centralizer of level n inside n+1 equals "
                  "center * shifted copy, size 2|A_n|, n<=3", capsys)


def test_criterion_05_class_counts(capsys):
    counts = [conjugacy_classes(n).count for n in (1, 2, 3)]
    recursion = [class_count(n) for n in (1, 2, 3)]
    ok = counts == [2, 5, 20] == recursion
    started = time.perf_counter()
    big = conjugacy_classes(4).count
    elapsed = time.perf_counter() - started
    ok = ok and big == 230 == class_count(4) and elapsed < 600.0
    report(5, ok, f"class counts {counts} + [{big}] match the recursion "
                  f"(level 4 in {elapsed:.1f} s)", capsys)


def test_criterion_06_right_cosets(capsys):
    params = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]
    ok = True
    counts = []
    for n, l in params:
        system = right_coset_reps(n, l)  # partition re-checked internally
        counts.append(system.count)
        ok = ok and system.count == group_order(n + l + 1) // group_order(n)
    report(6, ok, f"right-coset transversals partition the ambient groups, "
                  f"counts {counts}", capsys)


def test_criterion_07_double_cosets(capsys):
    ok = True
    for n in (1, 2, 3):
        system = double_cosets(n)
        order = group_order(n)
        ok = (ok and system.count == order + 1
              and sorted(system.sizes) == sorted([order] * order + [order ** 2]))
    report(7, ok, "double cosets: |A_n| cosets of size |A_n| plus one of "
                  "size |A_n|^2, reps complete, n<=3", capsys)


def test_criterion_08_orbit_counts(capsys):
    six = orbit_decomposition(1, 1).count
    fourty_eight = orbit_decomposition(2, 1).count
    ok = six == 6 and fourty_eight == 48
    deep = orbit_decomposition(1, 2).count
    corrected = predicted_orbit_count(1, 2)
    literal = predicted_orbit_count_literal(1, 2)
    ok = ok and deep == corrected  # the literal reading disagreeing is expected
    report(8, ok, f"adjacent orbit counts {six}, {fourty_eight} with bijective "
                  f"labels; depth-2 count {deep} = corrected {corrected}, "
                  f"literal reading gives {literal}", capsys)


def test_criterion_09_centralizer_bases(capsys):
    ok = True
    dims = []
    for n, k in [(1, 1), (2, 1), (1, 2)]:
        basis = centralizer_algebra_basis(n, k)
        dims.append(len(basis))
        sub = SubgroupSpec.embedded(n)
        ok = ok and all(centralizes(v, sub) for v in basis)
        ok = ok and len(basis) == orbit_decomposition(n, k).count
    closure_basis = centralizer_algebra_basis(1, 1)
    index = orbit_index(v.terms for v in closure_basis)
    ok = ok and all(
        expand_in_orbit_basis((a * b).terms, index, len(closure_basis))
        is not None for a in closure_basis for b in closure_basis)
    report(9, ok, f"orbit-sum bases commute with embedded generators, "
                  f"dims {dims}, closed under product at (1,1)", capsys)


def test_criterion_10_mackey(capsys):
    ok = True
    for n in (1, 2, 3):
        summands = mackey_decomposition(n)  # the census is counted here
        order = group_order(n)
        ids = sum(1 for s in summands if s.kind == "Id")
        total = sum(s.bimodule_dimension for s in summands)
        ok = ok and ids == order and total == 2 * order ** 2 == group_order(n + 1)
    report(10, ok, "summand census |A_n| x Id + 1 x Ind0Res0 with dimension "
                   "audit |A_n|^2 + |A_n|^2 = |A_{n+1}|, n<=3", capsys)


def test_criterion_11_power_identity(capsys):
    powers = power_table(1, 7)
    o = powers[0]
    odd_ok = all(powers[k - 1] == o.scaled(1 << (k - 1)) for k in (3, 5, 7))
    z = TreeAutomorphism.from_word((0, 1, 1))
    square = (AlgebraElement.of(identity(2)).scaled(2)
              + AlgebraElement.of(z).scaled(2))
    square_ok = powers[1] == square
    report(11, odd_ok and square_ok,
           "odd powers collapse to 2^(k-1) * orbit sum for k in {3,5,7}; "
           "square recorded as 2e + 2(1 2)(3 4)", capsys)


def test_criterion_12_orbit_stability(capsys):
    ok = True
    for n in (1, 2, 3):
        root = beta(n + 1, n + 1)
        same = (orbit(root, SubgroupSpec.embedded(n)).elements
                == orbit(root, SubgroupSpec.embedded(n + 1)).elements)
        central = centralizes(orbit_sum(root, SubgroupSpec.embedded(n)),
                              SubgroupSpec.embedded(n + 1))
        ok = ok and same and central
    report(12, ok, "root-swap orbit is the same under both conjugation "
                   "actions and its sum is central one level up, n<=3", capsys)


def test_criterion_13_end_bases(capsys):
    ok = True
    dims = []
    for n, k in [(1, 1), (2, 1), (1, 2)]:
        eb = end_ind_res_basis(n, k, 0)
        ref = centralizer_algebra_basis(n, k)
        dims.append(eb.dimension)
        ok = ok and eb.dimension == len(ref) and tuple(eb.vectors) == tuple(ref)
    for n, k, l in [(1, 1, 1), (2, 1, 1)]:
        expected = (group_order(n + k - l) * group_order(n)) // group_order(n - l)
        ok = ok and len(tensor_basis(n, k, l)) == expected
    try:
        tensor_basis(1, 1, 2)
        rejected = False
    except HomSpaceEmpty:
        rejected = True
    ok = ok and rejected
    report(13, ok, f"endomorphism dims {dims} match the centralizer bases; "
                   f"tensor sizes check out; over-restriction rejected", capsys)


def test_criterion_14_opposite_algebra(capsys):
    rep = opposite_check(1, 1)
    ok = rep.dimension == 6 and rep.closure_ok and rep.transpose_ok
    trivial = opposite_check(1, 0)
    ok = ok and trivial.left_constants == trivial.right_constants
    report(14, ok, "left/right composition tables are transposed on the "
                   "shared 6-dim basis; the 2-dim center is symmetric", capsys)


def test_criterion_15_determinism_and_runtime(capsys):
    outputs = []
    started = time.perf_counter()
    for _ in range(2):
        code = main(["verify-all", "--format", "json"])
        captured = capsys.readouterr()
        outputs.append(captured.out)
        assert code == 0
    elapsed = time.perf_counter() - started
    golden = (Path(__file__).resolve().parent / "golden"
              / "verify-all.json").read_bytes()
    identical = (outputs[0].encode("utf-8") == golden
                 and outputs[0] == outputs[1])
    blob = json.loads(outputs[0])
    all_pass = blob["verdict"] == "PASS"
    ok = identical and all_pass and elapsed / 2 < 60.0
    report(15, ok, f"verify-all JSON byte-identical to its golden fixture "
                   f"in two runs, "
                   f"all {len(blob['payload']['checks'])} checks PASS, "
                   f"{elapsed / 2:.1f} s per run", capsys)
