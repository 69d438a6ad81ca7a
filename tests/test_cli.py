import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algebragen import cli

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


def test_norm_bound_without_rescaling_exits_3(capsys, tmp_path):
    path = write_instance(tmp_path, {"n": 2, "generators": [[["1", "2"], ["3", "4"]]]})
    assert run(capsys, "dim", path, "--no-rescale")[0] == cli.EXIT_NORM_BOUND
    assert run(capsys, "dim", path)[0] == cli.EXIT_OK


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
    [["dim", "{a}"], ["member", "{a}", "{a}"], ["basis", "{a}"], ["intersect", "{a}", "{a}"], ["bench", "{a}"]],
)
def test_gfp_instances_are_usage_errors(capsys, tmp_path, command):
    doc = {"n": 2, "field": "gfp:7", "generators": [[["1", "2"], ["3", "4"]]]}
    path = write_instance(tmp_path, doc)
    code, _, err = run(capsys, *[arg.format(a=path) for arg in command])
    assert code == cli.EXIT_PARSE
    assert "modp-dim" in err


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


def test_dim_power_exponent(capsys):
    code, out, _ = run(capsys, "dim", TRIANGULAR, "--power")
    assert code == cli.EXIT_OK and json.loads(out)["variant"] == "power:9"  # default_power_exponent(3)
    code, out, _ = run(capsys, "dim", TRIANGULAR, "--power", "4")
    assert code == cli.EXIT_OK and json.loads(out)["variant"] == "power:4"
    for k in ("0", "-3"):
        code, _, err = run(capsys, "dim", TRIANGULAR, "--power", k)
        assert code == cli.EXIT_PARSE and "--power" in err
    assert run(capsys, "dim", TRIANGULAR, "--power", "--nonunital")[0] == cli.EXIT_PARSE


def test_module_entry_point():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "algebragen", *argv], capture_output=True, text=True, env=env)

    done = module("dim", TRIANGULAR)
    assert done.returncode == cli.EXIT_OK
    assert json.loads(done.stdout)["dimension"] == 5
    assert module("member", TRIANGULAR, NONMEMBER).returncode == cli.EXIT_NONMEMBER
