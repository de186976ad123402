import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

import iterwreath
from iterwreath import (algebra, battery, cli, endo, mackey, structure,
                        treegroup)
from iterwreath.algebra import AlgebraElement
from iterwreath.cli import _COMMANDS, _flags, _positionals, build_parser, main
from iterwreath.treegroup import (SubgroupSpec, beta, beta_product,
                                  group_order, identity, reset_caches)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_center_json_report(capsys):
    code, out = run_cli(capsys, "center", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "PASS"
    assert blob["subcommand"] == "center"
    assert [e["cycles"] for e in blob["payload"]["computed"]] == [
        "e", "(1 2)(3 4)"]
    assert [e["word"] for e in blob["payload"]["computed"]] == ["000", "011"]


# One `structure` function's replacement, as source, so that a fresh process
# can rebind it too: the closed-form center with its last element moved one
# rank on, a center that raises, and leaf-first generator symbols.
MUTANTS = {
    "center_closed_form": "lambda n, f=structure.center_closed_form: f(n)[:-1] + "
                          "(structure.TreeAutomorphism.from_word("
                          "bin(f(n)[-1].rank + 1)[3:]),)",
    "center": "lambda n: 1 // 0",
    "beta": "lambda level, i, f=structure.beta: f(level, level + 1 - i)",
}


def mutate(monkeypatch, name):
    monkeypatch.setattr(structure, name,
                        eval(MUTANTS[name], {"structure": structure}))


def assert_fails(capsys, argv, first_line):
    """`argv` renders FAIL in JSON and in text, exits 1; the JSON payload."""
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[0] == first_line
    return blob["payload"]


def test_center_fails_on_a_shifted_closed_form(monkeypatch, capsys):
    mutate(monkeypatch, "center_closed_form")
    payload = assert_fails(capsys, ["center", "2"], "FAIL center n=2")
    assert payload["match"] is False
    assert [e["word"] for e in payload["expected"]] == ["000", "100"]


def test_classes_fail_on_a_class_count_off_by_one(monkeypatch, capsys):
    counts = [structure.class_count(n) for n in range(3)]
    monkeypatch.setattr(structure, "class_count", lambda n: counts[n] + 1)
    payload = assert_fails(capsys, ["classes", "2"], "FAIL classes n=2")
    assert payload["predicted"] == payload["count"] + 1 == 6


def test_double_cosets_fail_on_a_wrong_coset_size(monkeypatch, capsys):
    # one element of the big coset moved into the first one: still a
    # partition of A_2, so only the size comparison can see it
    original = structure.double_cosets

    def moved(n):
        system = original(n)
        cosets = [[g.perm for g in coset] for coset in system.cosets]
        cosets[0].append(max(cosets, key=len).pop())
        reps = [r.perm for r in system.stated_representatives]
        return structure.CosetSystem(lambda: zip(cosets, reps),
                                     system.ambient_level, "double cosets")

    monkeypatch.setattr(structure, "double_cosets", moved)
    payload = assert_fails(capsys, ["double-cosets", "1"], "FAIL double-cosets n=1")
    assert sorted(payload["sizes"]) == [2, 3, 3]
    assert payload["count"] == payload["expected_count"] == 3


def test_orbits_fail_on_a_prediction_off_by_one(monkeypatch, capsys):
    original = structure.predicted_orbit_count
    monkeypatch.setattr(structure, "predicted_orbit_count",
                        lambda n, k: original(n, k) + 1)
    payload = assert_fails(capsys, ["orbits", "1", "1"], "FAIL orbits n=1 k=1")
    assert payload["predicted_corrected"] == payload["count"] + 1 == 7
    assert payload["matches_corrected"] is False


def test_a_label_defect_fails_the_orbits_report_alone(monkeypatch, capsys):
    # every class label built on the identity: labels repeat, while the bare
    # orbit partition that the orbit-sum bases read does not move, and the
    # classes keep their representatives and sizes
    original = structure.conjugacy_classes

    def on_identity(n):
        classes = original(n)
        return classes._replace(orbits=tuple(
            o._replace(elements=(identity(n),) * o.size) for o in classes.orbits))

    monkeypatch.setattr(structure, "conjugacy_classes", on_identity)
    code, out = run_cli(capsys, "orbits", "1", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["payload"]["error"] == "orbit e labeled twice"
    for argv in (["centralizer-basis", "1", "2"], ["end-basis", "1", "2", "0"],
                 ["opposite-check", "1", "2"]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == 1
    checks = json.loads(out)["payload"]["checks"]
    assert [c["check"] for c in checks if not c["passed"]] == ["orbit-counts"]


def test_centralizer_basis_fails_on_a_vector_that_does_not_centralize(
        monkeypatch, capsys):
    # the root swap alone: conjugating it by (1 2) moves it
    original = structure.centralizer_algebra_basis

    def replaced(n, k):
        basis = original(n, k)
        return (*basis[:-1], AlgebraElement.of(beta(n + k, n + k)))

    monkeypatch.setattr(structure, "centralizer_algebra_basis", replaced)
    payload = assert_fails(capsys, ["centralizer-basis", "1", "2"],
                           "FAIL centralizer-basis n=1 k=2")
    assert payload["all_centralize"] is False
    assert payload["closure_checked"] is None


def test_presentation_fails_on_a_relation_that_fails(monkeypatch, capsys):
    original = structure.check_presentation

    def broken(n):
        report = original(n)
        first, *rest = report.instances
        return report._replace(instances=(first._replace(holds=False), *rest))

    monkeypatch.setattr(structure, "check_presentation", broken)
    payload = assert_fails(capsys, ["presentation", "2"], "FAIL presentation n=2")
    assert payload["failures"] == [[1, [1]]]


def test_presentation_fails_with_leaf_first_symbols(monkeypatch, capsys):
    # check_presentation reads structure's beta, so the swap reaches it:
    # with symbol 1 the deepest swap, family 3 fails from level 3 on
    mutate(monkeypatch, "beta")
    payload = assert_fails(capsys, ["presentation", "3"], "FAIL presentation n=3")
    assert payload["failures"] == [[3, [1, 2, 1]]]


def test_opposite_check_fails_on_a_perturbed_right_table(monkeypatch, capsys):
    # endo's binding is the right table's alone: the left one goes through
    # structure.algebra_constants
    original = endo.structure_constants

    def perturbed(supports, times):
        rows = [list(row) for row in original(supports, times)]
        rows[0][0] = {o: c + 1 for o, c in rows[0][0].items()}
        return rows

    monkeypatch.setattr(endo, "structure_constants", perturbed)
    payload = assert_fails(capsys, ["opposite-check", "1", "1"],
                           "FAIL opposite-check n=1 k=1")
    assert payload["closure_ok"] is True
    assert payload["transpose_ok"] is False
    left, right = payload["left_constants"], payload["right_constants"]
    assert left[0][0] != right[0][0]  # a diagonal cell is its own transpose


def test_json_output_is_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out = run_cli(capsys, "orbits", "2", "1", "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]


def test_double_cosets_payload(capsys):
    code, out = run_cli(capsys, "double-cosets", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "PASS"
    assert sorted(blob["payload"]["sizes"]) == [2, 2, 4]
    reps = {e["cycles"] for e in blob["payload"]["stated_representatives"]}
    assert reps == {"e", "(3 4)", "(1 3)(2 4)"}


def test_class_count_info(capsys):
    code, out = run_cli(capsys, "class-count", "4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "INFO"
    assert blob["payload"]["value"] == 230


def test_class_count_cap_sits_below_the_int_to_string_limit(capsys):
    # c_15 has 4227 digits; c_16 has more than the 4300 digits that Python
    # (3.10.7+, 3.11) converts to a string, and the grid never reaches either
    value = str(structure.class_count(15))
    for fmt in ("json", "text", "csv"):
        code, out = run_cli(capsys, "class-count", "15", "--format", fmt)
        assert code == 0
        assert value in out
        assert main(["class-count", "16", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "guard: class-count capped at n = 15\n"


def test_orbits_csv_has_one_row_per_orbit(capsys):
    code, out = run_cli(capsys, "orbits", "1", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["representative", "size"]
    assert len(lines) == 1 + 6


def test_orbits_reports_both_count_readings(capsys):
    code, out = run_cli(capsys, "orbits", "1", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    payload = blob["payload"]
    assert payload["count"] == 80
    assert payload["predicted_corrected"] == 80
    assert payload["predicted_literal"] == 48
    assert payload["matches_corrected"] is True
    assert payload["matches_literal"] is False


def test_power_table_text_shows_collapse(capsys):
    code, out = run_cli(capsys, "power-table", "1", "3", "--format", "text")
    assert code == 0
    assert "4/1 * o" in out


def test_power_table_verdict_reads_the_odd_powers(monkeypatch, capsys):
    original = endo.power_table

    def broken(n, max_k):
        powers = list(original(n, max_k))
        powers[4] = powers[4].scaled(3)  # k = 5 no longer collapses
        return tuple(powers)

    monkeypatch.setattr(endo, "power_table", broken)
    code, out = run_cli(capsys, "power-table", "1", "5", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert [p["collapses_to_multiple"] for p in blob["payload"]["powers"]] == [
        True, False, True, False, False]


def test_power_table_fails_on_its_verdict_when_products_are_wrong(monkeypatch, capsys):
    # every algebra product comes out three times too large, so no odd
    # power from the cube on collapses; the report, not an error, says FAIL
    original = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__",
                        lambda x, y: original(x, y).scaled(3))
    code, out = run_cli(capsys, "power-table", "1", "5", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert "error" not in blob["payload"]
    assert [p["collapses_to_multiple"] for p in blob["payload"]["powers"]] == [
        True, False, False, False, False]


@pytest.mark.parametrize("max_k, verdict", [(1, "INFO"), (2, "INFO"), (3, "PASS")])
def test_power_table_claims_nothing_below_the_cube(capsys, max_k, verdict):
    code, out = run_cli(capsys, "power-table", "1", str(max_k), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == verdict


def info_payload(capsys, *argv):
    """`argv` renders INFO in JSON and exits 0; the JSON payload."""
    code, out = run_cli(capsys, *argv, "--format", "json")
    blob = json.loads(out)
    assert (code, blob["verdict"]) == (0, "INFO")
    return blob["payload"]


def test_presentation_at_level_zero_checks_no_relation(capsys):
    payload = info_payload(capsys, "presentation", "0")
    assert payload["instances_checked"] == 0
    assert payload["failures"] == payload["untestable"] == []


@pytest.mark.parametrize("m", [1, 2, 3])
def test_d_gens_over_level_zero_has_no_swap_to_commute_with(capsys, m):
    payload = info_payload(capsys, "d-gens", "0", str(m))
    assert payload["swap_generators"] == m * (m - 1) // 2  # shifts 1..m-1
    assert payload["orbit_sums"] == 2 ** m - 1
    assert not any(g["label"].endswith("^(0)") for g in payload["generators"])
    assert payload["orbit_sum_commutes_with_shifted_gens"] is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_centralizer_basis_over_level_zero_checks_no_commutation(capsys, k):
    # embedded(0) has no generator: the basis is every element of A_k
    payload = info_payload(capsys, "centralizer-basis", "0", str(k))
    assert payload["dimension"] == group_order(k)
    assert payload["all_centralize"] is None
    assert payload["closure_checked"] is None


def test_presentation_pass(capsys):
    code, out = run_cli(capsys, "presentation", "4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "PASS"
    assert blob["payload"]["failures"] == []
    assert len(blob["payload"]["untestable"]) == 10


def test_mackey_report_schema(capsys):
    code, out = run_cli(capsys, "mackey", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    summands = blob["payload"]["summands"]
    assert len(summands) == 9
    assert {s["type"] for s in summands} == {"Id", "Ind0Res0"}
    assert all({"rep", "intersection_order", "type", "dimension"} <= set(s)
               for s in summands)


def test_mackey_census_is_decided_by_the_report(monkeypatch, capsys):
    # the identity's shifted-copy coset dropped: one regular summand short
    original = mackey.double_cosets

    def short(n):
        system = original(n)
        assert system.stated_representatives[0].is_identity
        return SimpleNamespace(
            cosets=system.cosets[1:],
            stated_representatives=system.stated_representatives[1:])

    monkeypatch.setattr(mackey, "double_cosets", short)
    code, out = run_cli(capsys, "mackey", "2", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert "error" not in blob["payload"]
    assert blob["payload"]["id_multiplicity"] == group_order(2) - 1


def counted_from_perms(monkeypatch):
    """The levels of every `from_perms` call the coset layer makes."""
    calls, original = [], structure.from_perms

    def counted(level, perms):
        calls.append(level)
        return original(level, perms)

    monkeypatch.setattr(structure, "from_perms", counted)
    return calls


def test_unlisted_right_cosets_are_checked_but_never_ordered(monkeypatch):
    calls = counted_from_perms(monkeypatch)
    for n, l in [(1, 2), (2, 1)]:
        assert cli.run("right-cosets", {"n": n, "l": l}).verdict == "PASS"
    assert calls == []


def test_unlisted_right_cosets_make_no_element_for_a_representative():
    # of the 16384 representatives b * beta_product(I) at (1, 2), only the
    # chain elements b (I empty) and the generator products (b = e), from
    # which the transversal is built, are ever interned
    reset_caches()
    assert cli.run("right-cosets", {"n": 1, "l": 2}).verdict == "PASS"
    made = set(treegroup._pool)
    subsets = [I for size in range(4) for I in combinations((2, 3, 4), size)]
    reps = {(b, I): (b * beta_product(4, I)).perm
            for b in SubgroupSpec.hat_chain(1, 3).elements(4) for I in subsets}
    assert len(reps) == 16384
    assert {key for key, perm in reps.items() if perm in made} == {
        (b, I) for b, I in reps if not I or b.is_identity}


def test_battery_orders_only_the_listed_right_cosets(monkeypatch):
    # a system is ordered by its listing alone, which the battery never runs
    calls = counted_from_perms(monkeypatch)
    ok, _ = battery._check_right_cosets(cli.run, False, random.Random(0))
    assert ok
    assert calls == []


def test_verify_all_runs_no_listing(monkeypatch):
    listed = []

    def recorded(command, handler):
        def wrapped(**params):
            ok, payload, listing = handler(**params)
            return ok, payload, lambda: listed.append(command) or listing()
        return wrapped

    for command, (handler, *rest) in list(_COMMANDS.items()):
        monkeypatch.setitem(_COMMANDS, command, (recorded(command, handler), *rest))
    report = cli.run("verify-all", {"seed": 1, "allow_large": True})
    assert report.payload["failed"] == 0
    assert listed == []
    cli.render(report, "text")  # the report's own listing runs when rendered
    assert listed == ["verify-all"]


def test_verification_error_report_keeps_its_parameters(monkeypatch, capsys):
    original = structure.coset_rep_pairs
    monkeypatch.setattr(structure, "coset_rep_pairs",
                        lambda base, ambient: original(base, ambient)[1:])
    code, out = run_cli(capsys, "right-cosets", "1", "1", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["parameters"] == {"n": 1, "l": 1}
    assert "right cosets: cosets cover" in blob["payload"]["error"]
    code, out = run_cli(capsys, "right-cosets", "1", "1")
    assert code == 1
    assert out.splitlines()[0] == "FAIL right-cosets n=1 l=1"


@pytest.mark.parametrize("argv, arguments", [
    ("right-cosets 1 2", [("n", 1), ("l", 2)]),
    # flags in table order, not in the order typed
    ("verify-all --allow-large --seed 7", [("seed", 7), ("allow_large", True)])])
def test_one_argument_dict_from_dispatch_to_report(monkeypatch, argv, arguments):
    command = argv.split()[0]
    if command == "verify-all":  # the argument record, not the battery
        monkeypatch.setitem(_COMMANDS, command, (
            lambda seed, allow_large: (True, {}, lambda: ({}, [])),
            *_COMMANDS[command][1:]))
    passed, real_run = [], cli.run

    def recorded(command, arguments):
        passed.append(arguments)
        return real_run(command, arguments)

    monkeypatch.setattr(cli, "run", recorded)
    verdict_line = " ".join(f"{name}={value}" for name, value in arguments)
    report = cli.dispatch(build_parser().parse_args(argv.split()))
    assert report.parameters is passed[-1]
    assert list(report.parameters.items()) == arguments
    assert cli.render(report, "text").startswith(f"PASS {command} {verdict_line}\n")

    def failing(**arguments):
        raise structure.VerificationError("mutant")

    monkeypatch.setitem(_COMMANDS, command, (failing, *_COMMANDS[command][1:]))
    report = cli.dispatch(build_parser().parse_args(argv.split()))
    assert report.verdict == "FAIL"
    assert report.parameters is passed[-1]
    assert list(report.parameters.items()) == arguments
    assert cli.render(report, "text").startswith(f"FAIL {command} {verdict_line}\n")


def test_enumerate_chain_reads_the_enumerated_levels(monkeypatch, capsys):
    # one level-2 element short: level 3 is no longer twice its square
    original = cli.full_group

    def short(level):
        group = original(level)
        return group[:-1] if level == 2 else group

    monkeypatch.setattr(cli, "full_group", short)
    code, out = run_cli(capsys, "enumerate", "3", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["payload"]["size"] == blob["payload"]["expected_size"]
    assert blob["payload"]["doubling_square_chain"] is False


def test_enumerate_counts_a_repeated_element_once(monkeypatch, capsys):
    # one level-2 element listed in place of another: still 8 entries, but
    # only 7 distinct elements, so neither the order nor the chain holds
    original = cli.full_group

    def repeated(level):
        group = original(level)
        return group[:-1] + group[:1] if level == 2 else group

    monkeypatch.setattr(cli, "full_group", repeated)
    code, out = run_cli(capsys, "enumerate", "2", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["payload"]["size"] == 7
    assert blob["payload"]["doubling_square_chain"] is False


# the verify-all check that reads each command's report
SWEPT_BY = {"enumerate": battery._check_group_sizes,
            "presentation": battery._check_presentation,
            "center": battery._check_centers,
            "classes": battery._check_class_counts,
            "right-cosets": battery._check_right_cosets,
            "centralizer-basis": battery._check_centralizer_basis,
            "mackey": battery._check_mackey,
            "power-table": battery._check_power_identity,
            "tensor-basis": battery._check_end_bases,
            "opposite-check": battery._check_opposite,
            "d-gens": battery._check_d_generators}


@pytest.mark.parametrize("command", SWEPT_BY)
def test_battery_check_fails_when_the_command_it_reads_fails(
        monkeypatch, command):
    handler = _COMMANDS[command][0]

    def failing(**params):
        _, payload, rows = handler(**params)
        return False, payload, rows

    monkeypatch.setitem(_COMMANDS, command, (failing, *_COMMANDS[command][1:]))
    ok, _ = SWEPT_BY[command](cli.run, False, random.Random(0))
    assert ok is False


def test_centralizer_check_fails_on_a_centralizer_short_of_one_element(
        monkeypatch):
    original = structure.group_centralizer
    monkeypatch.setattr(structure, "group_centralizer",
                        lambda n, k: original(n, k)[:-1])
    ok, detail = battery._check_centralizers(cli.run, False, random.Random(0))
    assert ok is False
    assert detail["n=1"] == {"size": 3, "matches_product_set": False}


def test_orbit_stability_check_fails_when_the_larger_orbit_grows(monkeypatch):
    # the orbit under embedded(n + 1) gains the identity, which no
    # conjugate of the root swap is
    original = algebra.orbit

    def grown(g, acting):
        found = original(g, acting)
        if acting == SubgroupSpec.embedded(g.level):
            return found._replace(elements=(identity(g.level), *found.elements))
        return found

    monkeypatch.setattr(algebra, "orbit", grown)
    ok, detail = battery._check_orbit_stability(cli.run, False, random.Random(0))
    assert ok is False
    assert detail["n=1"] == {"orbits_equal": False, "sum_central": True}


def test_axioms_spot_check_fails_on_a_wrong_identity(monkeypatch):
    monkeypatch.setattr(treegroup, "identity", lambda n: beta(n, 1))
    ok, detail = battery._check_axioms_spot(cli.run, False, random.Random(0))
    assert ok is False
    assert detail["n=3"] == {"triples": 200, "ok": False}


def test_end_bases_check_fails_when_over_restriction_is_not_refused(
        monkeypatch):
    # a tensor-basis that reports an empty hom space as a PASS
    handler = _COMMANDS["tensor-basis"][0]

    def accepting(n, k, l):
        try:
            return handler(n=n, k=k, l=l)
        except treegroup.HomSpaceEmpty:
            return True, {"size": 0}, lambda: ({}, [])

    monkeypatch.setitem(_COMMANDS, "tensor-basis",
                        (accepting, *_COMMANDS["tensor-basis"][1:]))
    ok, detail = battery._check_end_bases(cli.run, False, random.Random(0))
    assert ok is False
    assert detail["over_restriction_rejected"] is False
    assert detail["tensor_sizes_ok"] is True


def test_verify_all_exits_1_when_one_swept_command_fails(monkeypatch, capsys):
    handler = _COMMANDS["double-cosets"][0]

    def failing(**params):
        _, payload, rows = handler(**params)
        return False, payload, rows

    monkeypatch.setitem(_COMMANDS, "double-cosets",
                        (failing, *_COMMANDS["double-cosets"][1:]))
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == 1
    payload = json.loads(out)["payload"]
    assert payload["failed"] == 1
    assert [c["check"] for c in payload["checks"] if not c["passed"]] == [
        "double-cosets"]


def test_verify_all_reports_a_verification_error_and_runs_on(monkeypatch, capsys):
    def raising(**params):
        raise structure.VerificationError("double cosets: not a partition")

    monkeypatch.setitem(_COMMANDS, "double-cosets",
                        (raising, *_COMMANDS["double-cosets"][1:]))
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == 1
    checks = json.loads(out)["payload"]["checks"]
    assert [c["check"] for c in checks] == [name for name, _ in battery._CHECKS]
    assert [c for c in checks if not c["passed"]] == [
        {"check": "double-cosets", "passed": False,
         "detail": {"error": "double cosets: not a partition"}}]


# One input just past each cap that the enumeration under the command
# enforces (full_group, SubgroupSpec.elements, algebra.orbit), and past
# the ranges that power-table and d-gens check themselves.
PAST_CAP = ["classes 5", "center 5", "center 9", "orbits 4 1", "orbits 0 5",
            "centralizer-basis 3 2", "right-cosets 3 1", "double-cosets 4",
            "mackey 4", "d-gens 1 5", "d-gens 0 9", "power-table 4 2",
            "power-table 9 2", "power-table 0 2", "presentation 5",
            "tensor-basis 5 0 0", "end-basis 5 0 0", "opposite-check 4 0"]
# One input at level 100 for each subcommand that takes positionals: each
# guard runs before any arithmetic on the value typed (group_order(100)
# would raise OverflowError).  Levels 30 to 60 would instead build an int of
# gigabytes if a guard went, so none is tried.
FAR_PAST_CAP = ["enumerate 100", "center 100", "classes 100", "class-count 100",
                "right-cosets 100 0", "double-cosets 100", "orbits 100 0",
                "centralizer-basis 100 0", "presentation 100", "mackey 100",
                "tensor-basis 100 0 0", "end-basis 100 0 0", "d-gens 1 100",
                "power-table 100 2", "opposite-check 100 0"]
# the guard names the value typed, not a level some inner layer reached
TYPED = {"d-gens 1 5": "got (1, 5)", "d-gens 0 9": "got (0, 9)",
         "power-table 4 2": "got 4", "power-table 9 2": "got 9",
         "d-gens 1 100": "got (1, 100)", "power-table 100 2": "got 100",
         "center 9": "level 9 has", "center 100": "level 100 has"}


def test_guard_exit_codes(capsys):
    assert main(["enumerate", "5"]) == 2
    assert main(["tensor-basis", "1", "1", "2"]) == 2
    assert main(["power-table", "1", "99"]) == 2
    capsys.readouterr()
    assert [argv.split()[0] for argv in FAR_PAST_CAP] == [
        command for command in _COMMANDS if _positionals(command)]
    for argv in map(str.split, PAST_CAP + FAR_PAST_CAP):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("guard: "), argv
        assert len(captured.err.splitlines()) == 1, argv
        assert TYPED.get(" ".join(argv), "") in captured.err, argv


@pytest.mark.parametrize("command", ["tensor-basis", "end-basis"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_tensor_bases_past_the_size_cap_are_refused(monkeypatch, capsys,
                                                    command, k):
    # (4, k, k) has 2**(26+k) tensors: refused before any index is built
    def built(*levels):
        raise AssertionError(f"tensor index {levels} built")

    monkeypatch.setattr(endo, "_tensor_index", built)
    assert main([command, "4", str(k), str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["tensor-basis", "1", "1", "1"],
                                  ["end-basis", "2", "2", "1"]])
def test_short_transversal_fails_the_tensor_index(monkeypatch, capsys, argv):
    # the index's size check is the one place the tensor count is decided
    original = endo.coset_rep_pairs
    monkeypatch.setattr(endo, "coset_rep_pairs",
                        lambda base, ambient: original(base, ambient)[1:])
    reset_caches()  # the index may be cached
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["payload"]["error"].startswith("tensor basis size")


def test_tensor_basis_past_the_listing_cap_builds_no_tensor(monkeypatch, capsys):
    def built(index, t):
        raise AssertionError(f"tensor {t} built")

    monkeypatch.setattr(endo._TensorIndex, "tensor", built)
    code, out = run_cli(capsys, "tensor-basis", "4", "1", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["size"] == payload["expected_size"] == 1 << 23


NEGATIVE_ARGUMENTS = [(command, name) for command in _COMMANDS
                      for name in _positionals(command)]


@pytest.mark.parametrize(
    "command, name", NEGATIVE_ARGUMENTS,
    ids=[f"{command}-{name}" for command, name in NEGATIVE_ARGUMENTS])
def test_negative_argument_is_a_guard_error(capsys, command, name):
    argv = [command] + ["-1" if arg == name else "1"
                        for arg in _positionals(command)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and f"argument {name} " in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_program_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(**params):
        raise ValueError("internal fault")

    monkeypatch.setitem(_COMMANDS, "center", (broken, *_COMMANDS["center"][1:]))
    assert main(["center", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValueError: internal fault\n"


@pytest.mark.parametrize("error", [treegroup.LevelTooLarge,
                                   treegroup.UsageError,
                                   treegroup.HomSpaceEmpty])
def test_guard_error_inside_verify_all_is_a_program_fault(capsys, monkeypatch,
                                                          error):
    # verify-all has no argument that a guard could reject, so a guard error
    # that escapes one of its checks is a fault in the program
    def broken(n, k):
        raise error("raised inside a check")

    monkeypatch.setattr(structure, "group_centralizer", broken)
    assert main(["verify-all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: RuntimeError: {error.__name__}: raised inside a check\n")


@pytest.mark.parametrize("out", [False, True])
def test_fault_in_a_listing_is_a_program_fault(capsys, monkeypatch, tmp_path,
                                               out):
    handler = _COMMANDS["classes"][0]

    def broken_listing(**params):
        ok, payload, _ = handler(**params)
        return ok, payload, lambda: 1 // 0

    monkeypatch.setitem(_COMMANDS, "classes",
                        (broken_listing, *_COMMANDS["classes"][1:]))
    target = tmp_path / "report.txt"
    argv = ["classes", "2", *(["--out", str(target)] if out else [])]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ZeroDivisionError: integer division or modulo by zero\n"
    assert not target.exists()


def test_elapsed_time_covers_the_listing(capsys, monkeypatch):
    handler = _COMMANDS["classes"][0]

    def slow_listing(**params):
        ok, payload, listing = handler(**params)
        return ok, payload, lambda: time.sleep(0.05) or listing()

    monkeypatch.setitem(_COMMANDS, "classes",
                        (slow_listing, *_COMMANDS["classes"][1:]))
    assert main(["classes", "2"]) == 0
    err = capsys.readouterr().err
    assert ELAPSED.fullmatch(err.strip())
    assert float(err.split("=")[1]) >= 50


@pytest.mark.parametrize("command", _COMMANDS)
def test_handler_takes_the_command_arguments_by_name(command):
    # the command table is the only place that names a command's arguments
    handler, arguments = _COMMANDS[command][:2]
    names = [a.removeprefix("--").replace("-", "_") for a in arguments.split()]
    assert list(inspect.signature(handler).parameters) == names


def test_level_four_classes_need_no_flag(capsys):
    for argv, key in [(["classes", "4"], "count"),
                      (["orbits", "4", "0"], "count"),
                      (["centralizer-basis", "4", "0"], "dimension")]:
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert json.loads(out)["payload"][key] == 230, argv
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--allow-large"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: iterwreath")
        assert "--allow-large" in captured.err
        assert len(captured.err.splitlines()) == 1


FLAG_VALUES = {"allow_large": (["--allow-large"], True), "seed": (["--seed", "7"], 7)}


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_subcommand_takes_format_and_out_and_keeps_its_flags(command):
    parser, positionals = build_parser(), ["1"] * len(_positionals(command))
    argv = [command, *positionals, "--format", "csv", "--out", "report.csv"]
    for flag in _flags(command):
        argv += FLAG_VALUES[flag][0]
    args = vars(parser.parse_args(argv))
    assert args == {"command": command, "format": "csv", "out": "report.csv",
                    **dict.fromkeys(_positionals(command), 1),
                    **{flag: FLAG_VALUES[flag][1] for flag in _flags(command)}}
    args = parser.parse_args([command, *positionals])
    assert (args.format, args.out) == ("text", None)
    subparser = parser._subparsers._group_actions[0].choices[command]
    assert {o for a in subparser._actions for o in a.option_strings} == {
        "-h", "--help", "--format", "--out",
        *(f"--{flag.replace('_', '-')}" for flag in _flags(command))}


def test_end_basis_without_restriction_at_level_four_needs_no_flag(capsys):
    # its reference centralizer basis scans the 32768 tensors the index holds
    code, out = run_cli(capsys, "end-basis", "4", "0", "0", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "PASS"
    assert blob["payload"]["dimension"] == 230
    assert blob["payload"]["matches_centralizer_basis"] is True


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "center", "1", "--format", "json",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    blob = json.loads(target.read_text())
    assert blob["verdict"] == "PASS"


def test_out_flag_unwritable_path_is_a_guard_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    assert main(["center", "1", "--format", "json", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard: cannot write ")
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


# Every subcommand but verify-all, with each positional drawn from these
# values: 252 argument lists.  The value 2 would multiply the run time by 8.
GRID_VALUES = ("-1", "0", "1", "9")
GRID_COMMANDS = [command for command in _COMMANDS if command != "verify-all"]


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_small_argument_grid_reports_or_guards(capsys, command):
    for values in product(GRID_VALUES, repeat=len(_positionals(command))):
        argv = [command, *values, "--format", "json"]
        runs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2), (argv, captured.err)
            assert "Traceback" not in captured.err, argv
            if code == 0:
                blob = json.loads(captured.out)
                assert blob["subcommand"] == command
                assert {"parameters", "payload", "verdict"} <= set(blob), argv
            else:
                assert captured.out == "", argv
                assert captured.err.startswith("guard: "), argv
                assert len(captured.err.splitlines()) == 1, argv
            runs.append((code, captured.out))
        assert runs[0] == runs[1], argv


def test_end_basis_reports_dimension(capsys):
    code, out = run_cli(capsys, "end-basis", "2", "1", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["payload"]["dimension"] == 20
    assert blob["payload"]["acting_level"] == 1


def test_end_basis_index_change_fails_the_verdict(monkeypatch, capsys):
    # move one (rep, generator) entry to a representative with other swap
    # indices; the embedded group never does that, so the claim must fail
    original = endo._generator_table

    def corrupted(index, gens):
        table = original(index, gens)
        indices = index.reps[0][1]
        target = next(r for r, (_, other, _) in enumerate(index.reps)
                      if other != indices)
        table[0][0] = (target, table[0][0][1])
        return table

    monkeypatch.setattr(endo, "_generator_table", corrupted)
    code, out = run_cli(capsys, "end-basis", "2", "1", "1", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["payload"]["index_change_count"] > 0


def test_end_basis_closure_failure_fails_the_verdict(monkeypatch, capsys):
    # two adjacent orbits merged: their sum is no longer closed under
    # composition, and only the closure claim can see it
    original = endo.end_ind_res_basis

    def merged(n, k, l):
        basis = original(n, k, l)
        vectors = [basis.vectors[0] + basis.vectors[1], *basis.vectors[2:]]
        return basis._replace(vectors=vectors, dimension=len(vectors))

    monkeypatch.setattr(endo, "end_ind_res_basis", merged)
    code, out = run_cli(capsys, "end-basis", "2", "1", "1", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["payload"]["products_within_span"] is False
    assert blob["payload"]["index_change_count"] == 0
    closed, witness = endo.end_basis_closure(merged(2, 1, 1))
    assert not closed
    assert blob["payload"]["first_product_outside_span"] == list(witness)


def test_d_gens_commutation_failure_fails_the_verdict(monkeypatch, capsys):
    # the root swap alone in place of its orbit sum does not commute with
    # the shifted generator (3 4)
    original = endo.d_generator_table

    def replaced(n, m):
        swaps, sums = original(n, m)
        return swaps, tuple((key, AlgebraElement.of(beta(m, m)))
                            if key == (n + 1,) else (key, elt)
                            for key, elt in sums)

    monkeypatch.setattr(endo, "d_generator_table", replaced)
    code, out = run_cli(capsys, "d-gens", "1", "2", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "FAIL"
    assert blob["payload"]["orbit_sum_commutes_with_shifted_gens"] is False


def test_verify_all_seed_changes_nothing_but_the_seed():
    # only the group-axiom spot check draws from the seed
    def payload(seed):
        report = cli.run("verify-all", {"seed": seed, "allow_large": False})
        assert report.parameters == {"seed": seed, "allow_large": False}
        return {**report.payload, "seed": None}

    reference = payload(1)
    assert reference["failed"] == 0
    for seed in (0, -1, 2 ** 70):
        assert payload(seed) == reference, seed


def test_seed_that_is_not_an_integer_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--seed", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: iterwreath verify-all: ")
    assert "--seed" in captured.err and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def fresh_entry(argv, mutant=None, options=()):
    """(exit code, stdout bytes, stderr lines) of a fresh process that runs
    `cli.entry()`: through `-m` as it is, or after rebinding one mutant; the
    interpreter takes `options`."""
    # the child finds the package where this process found it
    package_root = str(Path(iterwreath.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("PYTHONUNBUFFERED", None)  # so an unflushed report would be lost
    if mutant is None:
        start = ["-m", "iterwreath.cli"]
    else:
        start = ["-c", "from iterwreath import cli, structure\n"
                       f"structure.{mutant} = {MUTANTS[mutant]}\ncli.entry()"]
    proc = subprocess.run([sys.executable, *options, *start, *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr.decode().splitlines()


ELAPSED = re.compile(r"# elapsed_ms=\d+\.\d")


def test_console_script_entry_point(tmp_path, capsys):
    argv = ["enumerate", "1", "--format", "json"]
    code, out, err = fresh_entry(argv)
    assert code == main(argv) == 0
    assert out == capsys.readouterr().out.encode()
    assert [ELAPSED.fullmatch(line) is not None for line in err] == [True]
    blob = json.loads(out)
    assert blob["payload"]["size"] == 2
    assert [e["cycles"] for e in blob["payload"]["elements"]] == ["e", "(1 2)"]
    # a report past the write buffer still reaches its file whole
    argv = ["enumerate", "3", "--format", "json"]
    target = tmp_path / "report.json"
    code, out, err = fresh_entry([*argv, "--out", str(target)])
    assert code == main(argv) == 0
    assert out == b""
    assert target.read_bytes() == capsys.readouterr().out.encode()
    assert len(target.read_bytes()) > 8192
    assert [ELAPSED.fullmatch(line) is not None for line in err] == [True]


@pytest.mark.parametrize("argv, mutant, exit_code", [
    ("center 2", "center_closed_form", 1),
    ("power-table 9 2", None, 2),
    ("center 2", "center", 3)])
def test_entry_exit_code_and_output_match_main(monkeypatch, capsys, argv,
                                                mutant, exit_code):
    argv = [*argv.split(), "--format", "json"]
    code, out, err = fresh_entry(argv, mutant)
    if mutant is not None:
        mutate(monkeypatch, mutant)
    assert code == main(argv) == exit_code
    captured = capsys.readouterr()
    assert out == captured.out.encode()
    assert len(err) == 1
    if exit_code == 1:
        assert ELAPSED.fullmatch(err[0])
    else:  # one guard: or error: line, and no report
        assert err == captured.err.splitlines()
        assert err[0].startswith(("guard: ", "error: ")[exit_code - 2])
        assert out == b""


def test_battery_imports_nothing_from_the_cli():
    # `python -m iterwreath.cli verify-all` runs the CLI as __main__, so a
    # battery import of iterwreath.cli would compile a second copy of it
    package_root = str(Path(iterwreath.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import iterwreath.battery; print(*sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "iterwreath.battery" in loaded
    assert "iterwreath.cli" not in loaded


def test_cold_start_imports_stay_small():
    # a fresh process without site: only the package's own imports count
    package_root = str(Path(iterwreath.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import iterwreath.cli; "
            "iterwreath.cli.build_parser(); print(*sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "iterwreath.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "csv",
                         "iterwreath.battery"}


def test_importing_one_layer_loads_no_other_layer():
    # the element layer imports no other layer, and the package re-exports none
    package_root = str(Path(iterwreath.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import iterwreath.treegroup; print(*sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name for name in proc.stdout.split()
              if name.startswith("iterwreath.")}
    assert loaded == {"iterwreath.treegroup"}


def test_the_package_binds_no_public_name():
    # each name is imported from the module that defines it
    package_root = str(Path(iterwreath.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import iterwreath; "
            "print(*[name for name in vars(iterwreath) "
            "if not name.startswith('_')])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_one_shot_command_with_int_coefficients_loads_no_fractions():
    code, out, err = fresh_entry(["end-basis", "2", "2", "2", "--format", "json"],
                                 options=["-X", "importtime"])
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    imported = {line.rsplit("|", 1)[1].strip() for line in err
                if line.startswith("import time:")}
    assert "iterwreath.algebra" in imported
    assert not imported & {"fractions", "decimal"}


def test_fractions_are_imported_with_the_first_fraction():
    package_root = str(Path(iterwreath.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from iterwreath.algebra import orbit_sum\n"
            "from iterwreath.treegroup import SubgroupSpec, beta\n"
            "x = orbit_sum(beta(2, 1), SubgroupSpec.embedded(2))\n"
            "y = (x * x).scaled(3) - x\n"
            "print(*sorted({type(c).__name__ for c in y.terms.values()}),"
            " 'fractions' in sys.modules)\n"
            "y = y.scaled(0.5)\n"
            "print(*sorted({type(c).__name__ for c in y.terms.values()}),"
            " 'fractions' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["int False", "Fraction int True"]


@pytest.mark.parametrize("argv", [["enumerate", "1"], ["verify-all"],
                                  ["end-basis", "--help"]])
def test_a_command_line_registers_only_its_subcommand(argv):
    (choices,) = (a.choices for a in build_parser(argv)._subparsers._group_actions)
    assert list(choices) == argv[:1]


@pytest.mark.parametrize("argv", [None, [], ["--help"], ["no-such-command"],
                                  ["-h", "enumerate"]])
def test_help_a_typo_or_no_command_registers_every_subcommand(argv):
    (choices,) = (a.choices for a in build_parser(argv)._subparsers._group_actions)
    assert list(choices) == list(_COMMANDS)
