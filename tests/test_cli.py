"""Command-line interface: subcommands, exit codes, output determinism."""

import json

import pytest

from phyloinv.cli import (EXIT_CAP_EXCEEDED, EXIT_INPUT_ERROR,
                          EXIT_INTERNAL_ERROR, EXIT_OK, EXIT_VERIFY_FAILED,
                          main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_json(capsys):
    code, out, err = run(capsys, "generate", "--group", "Z3",
                         "--tree", "(1,2,3);")
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(out)
    assert doc["group"] == "Z3"
    assert doc["codim"] == 2
    assert len(doc["invariants"]) == 2


def test_generate_kimura_count(capsys):
    code, out, _ = run(capsys, "generate", "--group", "Z2xZ2",
                       "--tree", "(1,2,3);")
    assert code == EXIT_OK
    assert len(json.loads(out)["invariants"]) == 6


def test_generate_algebra_text(capsys):
    code, out, _ = run(capsys, "generate", "--group", "Z3",
                       "--tree", "(1,2,3);", "--output", "algebra-text")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("x[" in line and " - " in line for line in lines)


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Z3",
                       "--tree", "((1,2),(3,4));")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["expected_codim"] == 16


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Z2",
                       "--tree", "((1,2),(3,4));", "--output", "algebra-text")
    assert code == EXIT_OK
    assert out.startswith("pass")


def test_lattice_info(capsys):
    code, out, _ = run(capsys, "lattice-info", "--group", "Z3",
                       "--tree", "(1,2,3);")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["vertex_diff_dim"] == 6
    assert doc["index_in_degree_zero"] == 3


def test_tree_from_file(tmp_path, capsys):
    p = tmp_path / "tree.nwk"
    p.write_text("((1,2),(3,4));\n", encoding="utf-8")
    code, out, _ = run(capsys, "generate", "--group", "Z2",
                       "--tree", f"@{p}")
    assert code == EXIT_OK
    assert len(json.loads(out)["invariants"]) == 2


def test_missing_tree_file(capsys):
    code, _, err = run(capsys, "generate", "--group", "Z2",
                       "--tree", "@/no/such/file")
    assert code == EXIT_INPUT_ERROR
    assert "error" in err


@pytest.mark.parametrize("group,tree", [
    ("Z1", "(1,2,3);"),
    ("bogus", "(1,2,3);"),
    ("Z2", "(1,2);"),
    ("Z2", "(1,2,,3);"),
    ("Z2", "(1,2,5);"),
])
def test_input_errors(capsys, group, tree):
    code, _, err = run(capsys, "generate", "--group", group, "--tree", tree)
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:")


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "generate", "--group", "Z3",
                       "--tree", "((((1,2),3),4),(5,6));", "--flow-cap", "10")
    assert code == EXIT_CAP_EXCEEDED
    assert "cap" in err


def test_deep_tree_hits_cap(capsys):
    # a 1200-leaf caterpillar nests 1199 levels deep
    text = "(1,2)"
    for leaf in range(3, 1201):
        text = f"({text},{leaf})"
    code, out, err = run(capsys, "lattice-info", "--group", "Z2",
                         "--tree", text + ";")
    assert code == EXIT_CAP_EXCEEDED
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceed the cap 1000000 (group order 2, 1200 leaves)" in err


def test_huge_flow_count_is_written_as_a_power(capsys):
    # 2^14999 has 4,516 digits, past Python's int-to-string limit
    leaves = ",".join(map(str, range(1, 15001)))
    code, out, err = run(capsys, "lattice-info", "--group", "Z2",
                         "--tree", f"({leaves});")
    assert code == EXIT_CAP_EXCEEDED
    assert out == ""
    assert err == ("error: 2^14999 flows exceed the cap 1000000 "
                   "(group order 2, 15000 leaves)\n")


def test_internal_error_exit_code(capsys, monkeypatch):
    import phyloinv.tripod as tripod_mod

    real = tripod_mod.tripod_invariants
    monkeypatch.setattr(tripod_mod, "tripod_invariants",
                        lambda group, mode: real(group, mode)[1:])
    code, out, err = run(capsys, "generate", "--group", "Z3",
                         "--tree", "((1,2),(3,4));")
    assert code == EXIT_INTERNAL_ERROR
    assert out == ""
    assert err == "internal error: tripod set: 1 binomials, codim 2\n"


def _raise_binomial_error(*args):
    from phyloinv.errors import BinomialError
    raise BinomialError("projections differ")


@pytest.mark.parametrize("module,name,fake,message", [
    ("pipeline", "binomial_from_multisets", _raise_binomial_error,
     "BinomialError: projections differ"),
    ("tripod", "admissibility_failure", lambda entries, spec: "forced",
     "AdmissibilityError: not admissible: forced"),
])
def test_internal_value_error_exit_code(capsys, monkeypatch, module, name,
                                        fake, message):
    # a ValueError subclass raised inside the construction is a bug, not
    # bad input
    import importlib
    monkeypatch.setattr(importlib.import_module(f"phyloinv.{module}"), name, fake)
    code, out, err = run(capsys, "generate", "--group", "Z3",
                         "--tree", "((1,2),(3,4));")
    assert code == EXIT_INTERNAL_ERROR
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    import phyloinv.cli as cli_mod

    real = cli_mod.verify_complete_intersection

    def crippled(s, flow_cap):
        r = real(s, flow_cap=flow_cap)
        r.count_ok = False
        return r

    monkeypatch.setattr(cli_mod, "verify_complete_intersection", crippled)
    code, out, _ = run(capsys, "verify", "--group", "Z2",
                       "--tree", "((1,2),(3,4));")
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out)["pass"] is False


def test_output_is_byte_deterministic(capsys):
    argv = ["generate", "--group", "Z2xZ2", "--tree", "((1,2),(3,4));",
            "--seed", "11"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_seed_flag_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Z2",
                       "--tree", "(((1,2),3),(4,5));", "--seed", "3")
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_mode_factored(capsys):
    code, out, _ = run(capsys, "generate", "--group", "Z6",
                       "--tree", "(1,2,3);", "--mode", "factored")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["invariants"]) == 20
    assert max(inv["degree"] for inv in doc["invariants"]) == 3
