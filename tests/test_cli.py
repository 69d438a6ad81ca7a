import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from algebragen import algebra, cli
from algebragen.instances import grid_of, load_instance
from algebragen.matrix import DEFAULT_RESIDUAL_RTOL

TRIANGULAR = str(Path(__file__).resolve().parent.parent / "instances" / "triangular_pair.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_modp_dim_certifies(capsys):
    code, out, _ = run(capsys, "modp-dim", TRIANGULAR, "--seed", "1")
    assert code == cli.EXIT_OK
    assert json.loads(out)["dimension"] == 5


def test_modp_dim_zero_trials_is_a_usage_error(capsys):
    code, _, err = run(capsys, "modp-dim", TRIANGULAR, "--trials", "0")
    assert code == cli.EXIT_PARSE
    assert "--trials" in err


def test_modp_dim_composite_prime_is_a_usage_error(capsys):
    code, _, err = run(capsys, "modp-dim", TRIANGULAR, "--prime", "4")
    assert code == cli.EXIT_PARSE
    assert "--prime" in err


def test_bad_arguments_return_the_parse_code(capsys):
    assert run(capsys, "modp-dim")[0] == cli.EXIT_PARSE
    assert run(capsys, "no-such-command")[0] == cli.EXIT_PARSE


INSTANCES = Path(__file__).resolve().parent.parent / "instances"
MEMBER = str(INSTANCES / "candidate_member.json")
NONMEMBER = str(INSTANCES / "candidate_nonmember.json")


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_member_and_nonmember_exit_codes(capsys):
    code, out, _ = run(capsys, "member", TRIANGULAR, MEMBER)
    assert code == cli.EXIT_OK and json.loads(out)["member"]
    code, out, _ = run(capsys, "member", TRIANGULAR, NONMEMBER)
    assert code == cli.EXIT_NONMEMBER and not json.loads(out)["member"]


def test_memory_error_exits_with_the_numeric_code(capsys, monkeypatch):
    # uncaught, a MemoryError makes Python exit 1, the non-member code
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "span_matrix", exhausted)
    monkeypatch.setattr(cli, "membership", exhausted)
    for argv in (("dim", TRIANGULAR), ("member", TRIANGULAR, MEMBER)):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_NUMERIC
        assert err.startswith("error:")
    # every class of the exit table is caught and exits with its own code,
    # the subclasses ParseError and PrimeRangeError before ValueError
    for cls, want in cli._ERROR_EXITS:
        def raise_it(*args, **kwargs):
            raise cls("raised")

        monkeypatch.setattr(cli, "span_matrix", raise_it)
        code, _, err = run(capsys, "dim", TRIANGULAR)
        assert (code, err) == (want, "error: raised\n")


def test_failed_certificate_check_exits_with_the_numeric_code(capsys, monkeypatch):
    # a certificate that misses its own re-verification is a numeric failure,
    # not the non-member code 1 an uncaught error would give
    from algebragen import wordspan

    def wrong(a, b, kind):
        # the first word, the identity, alone
        return np.array([[1]] + [[0]] * (a.shape[1] - 1), dtype=object)

    monkeypatch.setattr(wordspan, "_solve", wrong)
    code, _, err = run(capsys, "member", TRIANGULAR, MEMBER, "--certificate")
    assert code == cli.EXIT_NUMERIC
    assert err == "error: certificate failed exact re-verification\n"


def test_prime_ceiling_beyond_primality_range_exits_5(capsys, monkeypatch):
    from algebragen import modp

    monkeypatch.setattr(modp, "DETERMINISTIC_LIMIT", modp.MIN_CEILING - 1)
    assert run(capsys, "modp-dim", TRIANGULAR, "--seed", "1")[0] == cli.EXIT_RANGE


def test_bench_disagreement_on_exact_data_exits_6(capsys, monkeypatch):
    from algebragen import wordspan

    real = wordspan.dimension
    monkeypatch.setattr(wordspan, "dimension", lambda gs: real(gs) + 1)
    code, out, err = run(capsys, "bench", TRIANGULAR, "--seed", "1")
    assert code == cli.EXIT_DISAGREE
    assert "disagreed" in err
    assert not any(row["agrees"] for row in json.loads(out)["rows"])


def test_bench_disagreement_on_float_data_exits_6(capsys, monkeypatch):
    from algebragen import wordspan

    real = wordspan.dimension
    monkeypatch.setattr(wordspan, "dimension", lambda gs: real(gs) + 1)
    code, out, err = run(capsys, "bench", "--random", "3", "2", "1", "--seed", "1")
    assert code == cli.EXIT_DISAGREE
    assert "disagreed" in err
    assert not any(row["agrees"] for row in json.loads(out)["rows"])


def test_bench_names_the_span_matrix_variant(capsys):
    code, out, _ = run(capsys, "bench", "--random", "3", "2", "1", "--seed", "0")
    assert code == cli.EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["method"] for r in rows] == ["power:9", "wordspan"]  # default_power_exponent(3)
    assert all(r["agrees"] for r in rows)
    code, out, _ = run(capsys, "bench", TRIANGULAR, "--seed", "0")
    assert code == cli.EXIT_OK
    assert [r["method"] for r in json.loads(out)["rows"]] == ["resolvent", "wordspan"]


def test_modp_dim_refuses_nonunital_instances(capsys, tmp_path):
    doc = {"n": 2, "unital": False, "generators": [[["0", "1"], ["0", "0"]]]}
    path = write_instance(tmp_path, doc)
    code, out, _ = run(capsys, "dim", path)
    assert code == cli.EXIT_OK and json.loads(out)["dimension"] == 1
    code, _, err = run(capsys, "modp-dim", path, "--seed", "1")
    assert code == cli.EXIT_PARSE
    assert "non-unital" in err


@pytest.mark.parametrize(
    "command",
    [
        ["dim", "{a}"],
        ["member", "{a}", "{a}"],
        ["basis", "{a}"],
        ["intersect", "{a}", "{a}"],
        ["bench", "{a}"],
        ["modp-dim", "{a}", "--seed", "1"],
    ],
)
def test_gfp_instances_are_usage_errors(capsys, tmp_path, command):
    doc = {"n": 2, "field": "gfp:7", "generators": [[["1", "2"], ["3", "4"]]]}
    path = write_instance(tmp_path, doc)
    code, _, err = run(capsys, *[arg.format(a=path) for arg in command])
    assert code == cli.EXIT_PARSE
    assert "unknown field" in err


@pytest.mark.parametrize("generators", [[5], [[1, 2]]], ids=["scalar", "flat-row"])
@pytest.mark.parametrize(
    "command",
    [
        ["dim", "{a}"],
        ["member", "{a}", TRIANGULAR],
        ["member", TRIANGULAR, "{a}"],
        ["intersect", "{a}", TRIANGULAR],
        ["modp-dim", "{a}", "--seed", "1"],
        ["bench", "{a}", "--seed", "1"],
    ],
)
def test_malformed_grid_without_field_is_a_usage_error(capsys, tmp_path, generators, command):
    # the grid shapes are checked before the field is guessed from the entries
    path = write_instance(tmp_path, {"n": 2, "generators": generators})
    code, out, err = run(capsys, *[arg.format(a=path) for arg in command])
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "not an 2x2 grid" in err


@pytest.mark.parametrize("content", [b'\xff\xfe{"n":1}', b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("command", [["dim", "{a}"], ["member", "{a}", TRIANGULAR], ["member", TRIANGULAR, "{a}"],
                                     ["modp-dim", "{a}", "--seed", "1"]],
                         ids=["dim", "member-generators", "member-candidate", "modp-dim"])
def test_unreadable_json_is_a_usage_error(capsys, tmp_path, content, command):
    # not the numeric-failure code, nor 1, which member reports for a non-member
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *[arg.format(a=path) for arg in command])
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "is not valid JSON" in err


@pytest.mark.parametrize("entry", ["1" * 5000, "1/" + "3" * 5000], ids=["numerator", "denominator"])
@pytest.mark.parametrize("command", [["dim", "{a}"], ["member", "{a}", TRIANGULAR], ["member", TRIANGULAR, "{a}"],
                                     ["modp-dim", "{a}", "--seed", "1"]],
                         ids=["dim", "member-generators", "member-candidate", "modp-dim"])
def test_entry_past_the_digit_limit_is_a_usage_error(capsys, tmp_path, entry, command):
    # Python refuses int <-> str conversions of more than 4,300 digits; the
    # entry is malformed input, not a numeric failure (exit 4)
    path = write_instance(tmp_path, {"n": 1, "field": "rational", "generators": [[[entry]]]})
    code, out, err = run(capsys, *[arg.format(a=path) for arg in command])
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "more digits" in err


@pytest.mark.parametrize("field", [None, "f64"], ids=["rational", "f64"])
def test_basis_and_intersect_print_the_library_matrices(capsys, field):
    # no benchmark op runs these two commands; their grids are those of the library call
    other = str(Path(TRIANGULAR).with_name("candidate_member.json"))
    a, b = load_instance(TRIANGULAR, field=field), load_instance(other, field=field)
    flags = [] if field is None else ["--field", field]
    for argv, want in (
        (["basis", TRIANGULAR], algebra.basis(a.gs)),
        (["intersect", TRIANGULAR, other], algebra.intersect(a.gs, b.gs)),
    ):
        code, out, _ = run(capsys, *argv, *flags)
        report = json.loads(out)
        assert code == cli.EXIT_OK
        assert report["basis"] == [grid_of(m) for m in want.mats]
        assert report["dimension"] == len(report["basis"]) == want.dim


@pytest.mark.parametrize("target", ["missing/bench.csv", "."], ids=["missing-directory", "directory"])
def test_bench_csv_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, target):
    code, out, err = run(capsys, "bench", TRIANGULAR, "--seed", "1", "--csv", str(tmp_path / target))
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["modp-dim", TRIANGULAR], ["bench", "--random", "2", "1", "1"]])
def test_negative_seed_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--seed", "-1")
    assert code == cli.EXIT_PARSE
    assert out == "" and "--seed" in err


def test_nonunital_dim_and_basis(capsys):
    code, out, _ = run(capsys, "dim", TRIANGULAR, "--nonunital")
    report = json.loads(out)
    assert code == cli.EXIT_OK
    assert (report["dimension"], report["variant"], report["unital"]) == (4, "resolvent_nonunital", False)
    code, out, _ = run(capsys, "basis", TRIANGULAR, "--nonunital")
    report = json.loads(out)
    assert code == cli.EXIT_OK
    assert (report["dimension"], report["source"], len(report["basis"])) == (4, "resolvent_nonunital", 4)


def test_calls_in_one_process_build_the_parser_once(capsys, monkeypatch):
    # argv is parsed per call, into a fresh namespace; the argparse tree of
    # the subcommands is built by the first call of the process at most
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, "dim", TRIANGULAR, "--nonunital")
    assert code == cli.EXIT_OK and json.loads(out)["unital"] is False
    assert built.count("algebragen") <= 1
    built.clear()
    # a command is looked up when it runs: the parser holds no reference
    ran = []
    cmd_dim = cli.cmd_dim
    monkeypatch.setattr(cli, "cmd_dim", lambda args: ran.append(args.instance) or cmd_dim(args))
    code, out, _ = run(capsys, "dim", TRIANGULAR)
    assert code == cli.EXIT_OK and json.loads(out)["unital"] is True
    assert ran == [TRIANGULAR]
    assert run(capsys, "dim")[0] == cli.EXIT_PARSE
    assert built == []


def test_nonunital_member_needs_the_identity(capsys):
    code, out, _ = run(capsys, "member", TRIANGULAR, MEMBER, "--nonunital")
    report = json.loads(out)
    assert code == cli.EXIT_NONMEMBER
    # without the identity the algebra misses vec(MEMBER)[4] = MEMBER[1, 1] = 1
    assert (report["member"], report["residual"], report["unital"]) == (False, "1", False)
    assert report["witness_index"] == 4


@pytest.mark.parametrize(
    "command",
    [["dim", TRIANGULAR], ["member", TRIANGULAR, MEMBER], ["basis", TRIANGULAR], ["intersect", TRIANGULAR, TRIANGULAR]],
)
def test_tol_is_a_usage_error(capsys, command):
    code, _, err = run(capsys, *command, "--tol", "1e-6")
    assert code == cli.EXIT_PARSE
    assert "--tol" in err


@pytest.mark.parametrize("field, want", [("rational", None), ("f64", DEFAULT_RESIDUAL_RTOL), ("c64", DEFAULT_RESIDUAL_RTOL)])
def test_member_reports_the_applied_tolerance(capsys, tmp_path, field, want):
    gens = write_instance(tmp_path, {"n": 2, "generators": [[["1", "1"], ["0", "1"]]]}, "gens.json")
    cand = write_instance(tmp_path, {"n": 2, "generators": [[["2", "3"], ["0", "2"]]]}, "cand.json")
    code, out, _ = run(capsys, "member", gens, cand, "--field", field)
    assert code == cli.EXIT_OK
    assert json.loads(out)["tolerance"] == want


ENVELOPE = {"command", "argv", "seconds"}
INSTANCE = ENVELOPE | {"instance", "n", "d", "field", "unital"}
SPAN = {"variant", "scale", "rank_tolerance", "cut_values", "conditioning_flag", "primes"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["dim", TRIANGULAR], INSTANCE | SPAN | {"dimension"}),
        (["member", TRIANGULAR, MEMBER, "--certificate"],
         INSTANCE | SPAN | {"candidate", "member", "residual", "witness_index", "tolerance", "certificate"}),
        (["basis", TRIANGULAR], INSTANCE | {"dimension", "source", "basis"}),
        (["intersect", TRIANGULAR, MEMBER], INSTANCE | {"instance_b", "dimension", "source", "basis"}),
        (["modp-dim", TRIANGULAR, "--seed", "1"], INSTANCE | {"dimension", "seed", "trials", "prime_plan"}),
        (["bench", TRIANGULAR, "--seed", "1"], ENVELOPE | {"seed", "csv", "rows"}),
    ],
    ids=["dim", "member", "basis", "intersect", "modp-dim", "bench"],
)
def test_each_command_prints_its_keys(capsys, argv, keys):
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == cli.EXIT_OK
    assert set(doc) == keys
    assert doc["command"] == argv[0] and doc["argv"] == argv
    assert isinstance(doc["seconds"], float) and doc["seconds"] >= 0


@pytest.mark.parametrize("flags", [[], ["--certificate"]], ids=["verdict", "certificate"])
def test_member_past_the_norm_range_is_a_non_member(capsys, tmp_path, flags):
    # |vec z| squares 1e200 to inf, and inf <= 1e-8 * inf read as a member
    gens = write_instance(tmp_path, {"n": 2, "field": "f64", "generators": [[["1", "1"], ["0", "1"]]]}, "gens.json")
    cand = write_instance(tmp_path, {"n": 2, "field": "f64", "generators": [[["0", "0"], ["1e200", "0"]]]}, "cand.json")
    code, out, _ = run(capsys, "member", gens, cand, *flags)
    doc = json.loads(out)
    assert code == cli.EXIT_NONMEMBER
    assert (doc["member"], doc["residual"], doc["certificate"]) == (False, "1e+200", None)


@pytest.mark.parametrize("field", ["f64", "c64"])
def test_dim_past_the_squared_norm_range(capsys, tmp_path, field):
    # the squared norms of 1e200 overflow; I and a nilpotent span 2
    gens = [[["1e200", "1e200"], ["0", "1e200"]]]
    path = write_instance(tmp_path, {"n": 2, "field": "f64", "generators": gens})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "dim", path, "--field", field)
    assert code == cli.EXIT_OK and json.loads(out)["dimension"] == 2


def test_bench_agrees_on_a_pair_scaled_past_the_norm_range(capsys, tmp_path):
    rng = np.random.default_rng(0)
    pair = [(rng.standard_normal((3, 3)) * 1e60).astype(str).tolist() for _ in range(2)]
    path = write_instance(tmp_path, {"n": 3, "field": "f64", "generators": pair})
    code, out, _ = run(capsys, "bench", path, "--seed", "0")
    assert code == cli.EXIT_OK
    assert [r["dim"] for r in json.loads(out)["rows"]] == [9, 9]


def test_bench_csv_carries_the_label(capsys, tmp_path):
    out_csv = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--random", "3", "2", "2", "--seed", "0", "--csv", str(out_csv))
    assert code == cli.EXIT_OK
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["label", "n", "d", "method", "dim", "seconds", "agrees"]
    expected = json.loads(out)["rows"]
    assert [r["label"] for r in rows] == [r["label"] for r in expected]
    assert [(r["method"], int(r["dim"])) for r in rows] == [(r["method"], r["dim"]) for r in expected]


@pytest.mark.parametrize("numbers", [["0", "2", "1"], ["3", "-1", "1"], ["3", "2", "0"]])
def test_bench_random_needs_valid_numbers(capsys, numbers):
    code, _, err = run(capsys, "bench", "--random", *numbers, "--seed", "0")
    assert code == cli.EXIT_PARSE
    assert "--random" in err


def test_bench_refuses_an_instance_with_random(capsys):
    code, out, err = run(capsys, "bench", TRIANGULAR, "--random", "2", "1", "1", "--seed", "0")
    assert code == cli.EXIT_PARSE and out == ""
    assert "--random" in err


def test_dim_power_exponent(capsys, tmp_path):
    # the scalar kind picks the form and dim reports the exponent it used;
    # no option chooses another
    tri = [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]]
    path = write_instance(tmp_path, {"n": 3, "field": "f64", "generators": tri})
    code, out, _ = run(capsys, "dim", path)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["variant"] == "power:9" and doc["dimension"] == 5  # default_power_exponent(3)
    code, out, _ = run(capsys, "dim", TRIANGULAR)
    assert code == cli.EXIT_OK and json.loads(out)["variant"] == "resolvent"
    for option in ("--power", "--no-rescale"):
        assert run(capsys, "dim", TRIANGULAR, option)[0] == cli.EXIT_PARSE


def test_exit_table_matches_the_constants():
    # the docstring's exit table is the contract; a retired code keeps its
    # line and is never given a new meaning
    table = dict(
        (int(m[1]), m[2]) for m in re.finditer(r"^ {4}(\d)  (.+)$", cli.__doc__, re.MULTILINE)
    )
    assert sorted(table) == list(range(7))
    retired = {code for code, text in table.items() if text == "(retired)"}
    assert retired == {3}  # the norm-bound exit of the removed --no-rescale
    constants = {name: code for name, code in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(constants.values()) == sorted(set(table) - retired)
    assert {code for _, code in cli._ERROR_EXITS} <= set(constants.values())


def test_module_entry_point():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "algebragen", *argv], capture_output=True, text=True, env=env)

    done = module("dim", TRIANGULAR)
    assert done.returncode == cli.EXIT_OK
    assert json.loads(done.stdout)["dimension"] == 5
    assert module("member", TRIANGULAR, NONMEMBER).returncode == cli.EXIT_NONMEMBER


def test_modp_dim_forced_prime_does_not_replace_a_trial(capsys, tmp_path):
    doc = {"n": 2, "field": "rational", "generators": [[["1", "0"], ["0", "6"]], [["0", "0"], ["0", "0"]]]}
    path = write_instance(tmp_path, doc)
    code, out, _ = run(capsys, "modp-dim", path, "--prime", "5", "--trials", "1", "--seed", "1")
    doc = json.loads(out)
    assert code == cli.EXIT_OK and doc["dimension"] == 2
    assert [p["p"] for p in doc["prime_plan"]["primes"]][0] == 5 and len(doc["prime_plan"]["primes"]) == 2


def test_dim_names_the_primes(capsys, tmp_path):
    from algebragen import resolvent

    code, out, _ = run(capsys, "dim", TRIANGULAR)
    doc = json.loads(out)
    assert code == cli.EXIT_OK and doc["dimension"] == 5
    assert doc["primes"] == list(resolvent.LIFT_PRIMES[:1]) and "fallback" not in doc
    # diag(1, 1 + the product of LIFT_PRIMES) is I modulo each of them: the
    # next prime below them serves
    big = str(1 + math.prod(resolvent.LIFT_PRIMES))
    path = write_instance(tmp_path, {"n": 2, "field": "rational", "generators": [[["1", "0"], ["0", big]]]})
    code, out, _ = run(capsys, "dim", path)
    doc = json.loads(out)
    assert code == cli.EXIT_OK and doc["dimension"] == 2
    assert doc["primes"] == [3_037_000_399] and "fallback" not in doc


def test_dim_on_floats_has_no_primes(capsys, tmp_path):
    path = write_instance(tmp_path, {"n": 2, "field": "f64", "generators": [[["1", "2"], ["0", "1"]]]})
    code, out, _ = run(capsys, "dim", path)
    doc = json.loads(out)
    assert code == cli.EXIT_OK and doc["dimension"] == 2
    assert doc["primes"] is None and "fallback" not in doc


@pytest.mark.parametrize("field", ["f64", "c64"])
def test_float_fields_read_rational_entries(capsys, field):
    # the shipped instance holds a/b entries; the float fields round them
    code, out, err = run(capsys, "dim", "--field", field, TRIANGULAR)
    assert code == cli.EXIT_OK, err
    doc = json.loads(out)
    assert doc["field"] == field and doc["dimension"] == 5


def test_dim_prints_the_values_at_the_cut(capsys, tmp_path):
    code, out, _ = run(capsys, "dim", "--field", "f64", TRIANGULAR)
    doc = json.loads(out)
    assert code == cli.EXIT_OK and doc["dimension"] == 5
    kept, dropped = doc["cut_values"]
    assert kept > doc["rank_tolerance"] >= dropped
    code, out, _ = run(capsys, "dim", TRIANGULAR)
    assert json.loads(out)["cut_values"] is None
    # full rank leaves no value below the cut, rank 0 none above it
    full = [[["1", "2"], ["0", "1"]], [["0", "0"], ["1", "0"]]]
    path = write_instance(tmp_path, {"n": 2, "field": "f64", "generators": full})
    doc = json.loads(run(capsys, "dim", path)[1])
    assert doc["dimension"] == 4 and doc["cut_values"][0] > 0 and doc["cut_values"][1] is None
    path = write_instance(tmp_path, {"n": 2, "field": "f64", "generators": [[["0", "0"], ["0", "0"]]]})
    doc = json.loads(run(capsys, "dim", "--nonunital", path)[1])
    assert doc["dimension"] == 0 and doc["cut_values"][0] is None


@pytest.mark.parametrize("field", ["f64", "rational"])
def test_member_carries_the_span_matrix_report(capsys, monkeypatch, field):
    # the verdict reads the report whose provenance it prints: one span
    # matrix for the member command, as for dim
    calls = []
    built = cli.span_matrix

    def counted(gs):
        calls.append(gs)
        return built(gs)

    monkeypatch.setattr(cli, "span_matrix", counted)
    monkeypatch.setattr(algebra, "span_matrix", counted)
    code, out, _ = run(capsys, "member", "--field", field, TRIANGULAR, MEMBER)
    assert code == cli.EXIT_OK and len(calls) == 1
    member, dim = json.loads(out), json.loads(run(capsys, "dim", "--field", field, TRIANGULAR)[1])
    for key in ("variant", "scale", "rank_tolerance", "cut_values", "conditioning_flag", "primes"):
        assert member[key] == dim[key]
