import json
from pathlib import Path

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
