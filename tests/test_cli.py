"""Command-line interface: subcommands, exit codes, output determinism."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import phyloinv
from phyloinv.cli import (EXIT_CAP_EXCEEDED, EXIT_INPUT_ERROR,
                          EXIT_INTERNAL_ERROR, EXIT_OK, EXIT_VERIFY_FAILED,
                          main)
from test_pins import CLI_PINS, GENERATE_CLI_PINS

# the benchmark's caterpillar-join instance: a 4,814,350-byte generate JSON
CATERPILLAR = ("generate", "--group", "Z3", "--tree",
               "((((((1,2),3),4),5),6),7,8);")
CATERPILLAR_PIN = next(pin for group, _, _, output, pin in GENERATE_CLI_PINS
                       if group == "Z3" and output == "json")
CATERPILLAR_BYTES = 4_814_350


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


TREE_FILE_REFUSED = f"error: --tree file holds more than {1 << 20} characters\n"


def test_endless_tree_file_is_refused_at_once(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "lattice-info", "--group", "Z2",
                         "--tree", "@/dev/zero")
    assert time.monotonic() - start < 1
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", TREE_FILE_REFUSED)


def test_tree_file_one_character_over_the_limit_is_refused(tmp_path, capsys):
    # a valid tree padded to the limit still runs; one more blank is refused
    tree = "((1,2),(3,4));"
    p = tmp_path / "tree.nwk"
    p.write_text(tree + " " * ((1 << 20) - len(tree)), encoding="utf-8")
    code, out, _ = run(capsys, "generate", "--group", "Z2", "--tree", f"@{p}")
    assert code == EXIT_OK
    assert len(json.loads(out)["invariants"]) == 2
    p.write_text(tree + " " * ((1 << 20) + 1 - len(tree)), encoding="utf-8")
    code, out, err = run(capsys, "generate", "--group", "Z2", "--tree", f"@{p}")
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", TREE_FILE_REFUSED)


@pytest.mark.parametrize("group,tree", [
    ("Z1", "(1,2,3);"),
    ("bogus", "(1,2,3);"),
    ("Z2", "(1,2);"),
    ("Z2", "(1,2,,3);"),
    ("Z2", "(1,2,5);"),
    ("Z\u0663", "(1,2,3);"),  # Arabic-Indic digits, which int() reads
    ("Z3", "(\u0661,2,3);"),
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


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("sub", ["lattice-info", "generate", "verify"])
def test_flow_cap_below_one_is_bad_input(capsys, sub, cap):
    # a cap below 1 is a typo, not an instance over the cap
    code, out, err = run(capsys, sub, "--group", "Z3", "--tree", "(1,2,3);",
                         "--flow-cap", cap)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"error: --flow-cap must be at least 1, got {cap}\n"


NOT_AN_INTEGER = "is not an integer (expected ASCII digits after an optional '-')"


@pytest.mark.parametrize("option, value, message", [
    ("--flow-cap", "١٠", NOT_AN_INTEGER),  # Arabic-Indic 10
    ("--flow-cap", " 1_0 ", NOT_AN_INTEGER),  # int() reads 10
    ("--flow-cap", "1_0", NOT_AN_INTEGER),
    ("--flow-cap", "+10", NOT_AN_INTEGER),
    ("--flow-cap", "", NOT_AN_INTEGER),
    ("--flow-cap", "9" * 5000, "has 5000 digits: too large"),
    ("--seed", "٣", NOT_AN_INTEGER),
    ("--seed", " 3", NOT_AN_INTEGER),
    ("--seed", "-" + "9" * 5000, "has 5000 digits: too large"),
], ids=["arabic-indic", "padded-underscore", "underscore", "plus", "empty",
        "cap-5000-digits", "seed-arabic-indic", "seed-padded",
        "seed-5000-digits"])
def test_integer_options_read_ascii_digits_only(capsys, option, value, message):
    code, out, err = run(capsys, "generate", "--group", "Z3", "--tree",
                         "(1,2,3);", f"{option}={value}")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"error: {option} {message}\n"


@pytest.mark.parametrize("option, value", [
    ("--flow-cap", "0010"), ("--flow-cap", "0" * 5000 + "8"),
    ("--seed", "-3"), ("--seed", "0")],
    ids=["cap-zero-padded", "cap-5000-zeros", "seed-negative", "seed-zero"])
def test_integer_options_take_ascii_integers(capsys, option, value):
    code, out, _ = run(capsys, "verify", "--group", "Z2", "--tree",
                       "((1,2),(3,4));", option, value)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


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


def test_label_range_error_is_one_short_line(capsys):
    # a 3000-leaf claw labelled 2..3001: the message must not list the labels
    leaves = ",".join(map(str, range(2, 3002)))
    code, out, err = run(capsys, "lattice-info", "--group", "Z2",
                         "--tree", f"({leaves});")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == ("error: leaf labels must be exactly 1..3000; smallest "
                   "missing label 1; 1 label above the range, the smallest "
                   "3001\n")


@pytest.mark.parametrize("group,message", [
    ("Z" + "7" * 5000, "group spec factor 1 has 5000 digits: too large"),
    ("Z2x" + "Z2y" * 7000, "malformed group spec: factor 2 is not Z<n> "
                           "(expected Z<n> factors joined by 'x')"),
], ids=["too-many-digits", "malformed"])
def test_group_spec_error_is_one_short_line(capsys, group, message):
    code, out, err = run(capsys, "lattice-info", "--group", group,
                         "--tree", "(1,2,3);")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


def test_huge_flow_count_is_written_as_a_power(capsys):
    # 2^14999 has 4,516 digits, past Python's int-to-string limit
    leaves = ",".join(map(str, range(1, 15001)))
    code, out, err = run(capsys, "lattice-info", "--group", "Z2",
                         "--tree", f"({leaves});")
    assert code == EXIT_CAP_EXCEEDED
    assert out == ""
    assert err == ("error: 2^14999 flows exceed the cap 1000000 "
                   "(group order 2, 15000 leaves)\n")


@pytest.mark.parametrize("group,tree,message", [
    # the order (10^4000 - 1)^2 has 8,000 digits, past the int-to-string limit
    ("Z" + "9" * 4000 + "xZ" + "9" * 4000, "(1,2,3);",
     "g^2 flows exceed the cap 1000000 (group order g of 8000 digits, 3 leaves)"),
    # g^2999 in full has about 12 million digits: refused at the first factor
    ("Z" + "9" * 4000, "(" + ",".join(map(str, range(1, 3001))) + ");",
     "g^2999 flows exceed the cap 1000000 "
     "(group order g of 4000 digits, 3000 leaves)"),
], ids=["8000-digit-order", "3000-leaf-claw"])
def test_long_group_order_over_the_cap_is_one_short_line(capsys, group, tree,
                                                         message):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "lattice-info", "--group", group, "--tree", tree)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_CAP_EXCEEDED
    assert out == ""
    assert err == f"error: {message}\n"


def test_work_bound_refuses_large_cyclic_tripod(capsys):
    # Z1000 on the tripod has exactly 10^6 flows, within the default cap,
    # but codim 997,002 binomials of degree up to 1000
    t0 = time.perf_counter()
    code, out, err = run(capsys, "generate", "--group", "Z1000",
                         "--tree", "(1,2,3);")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_CAP_EXCEEDED
    assert out == ""
    assert err == ("error: codim 997002 x degree bound 1000 exceeds "
                   "4 x the flow cap 1000000\n")


def test_work_bound_scales_with_the_flow_cap(capsys):
    # Z30 tripod: codim 812 x degree bound 30 = 24,360 = 4 x 6,090
    args = ("generate", "--group", "Z30", "--tree", "(1,2,3);", "--flow-cap")
    code, _, err = run(capsys, *args, "6089")
    assert code == EXIT_CAP_EXCEEDED
    assert "exceeds 4 x the flow cap 6089" in err
    code, _, err = run(capsys, *args, "6090", "--output", "algebra-text")
    assert code == EXIT_OK and err == ""


def test_internal_error_exit_code(capsys, monkeypatch):
    import phyloinv.pipeline as pipeline_mod

    real = pipeline_mod.tripod_invariants
    monkeypatch.setattr(pipeline_mod, "tripod_invariants",
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
    ("tripod", "binomial_from_multisets", _raise_binomial_error,
     "BinomialError: projections differ"),
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


def test_internal_tree_error_exit_code(capsys, monkeypatch):
    # the input tree is valid, so a tree error inside the construction is
    # a bug, not bad input
    import phyloinv.pipeline as pipeline_mod

    real = pipeline_mod.join_sets
    monkeypatch.setattr(pipeline_mod, "join_sets",
                        lambda ctx, group, s1, s2: real(ctx, group, s2, s1))
    code, out, err = run(capsys, "generate", "--group", "Z2",
                         "--tree", "((1,2),(3,4,5));")
    assert code == EXIT_INTERNAL_ERROR
    assert out == ""
    assert err == ("internal error: InvalidTreeError: part sets do not match "
                   "the join context trees\n")


def _raising(exc):
    def fake(*args, **kwargs):
        raise exc
    return fake


@pytest.mark.parametrize("sub,name,output", [
    ("generate", "generate", "json"),
    ("verify", "verify_complete_intersection", "json"),
    ("generate", "algebra_text", "algebra-text"),
])
@pytest.mark.parametrize("exc,code,message", [
    (MemoryError(), EXIT_CAP_EXCEEDED, "error: {sub} ran out of memory\n"),
    (RuntimeError("boom"), EXIT_INTERNAL_ERROR,
     "internal error: RuntimeError: boom\n"),
], ids=["memory", "unexpected"])
def test_unexpected_exception_is_one_line(capsys, monkeypatch, sub, name,
                                          output, exc, code, message):
    # no traceback, and never exit 1, which says the set failed to verify
    import phyloinv.cli as cli_mod

    monkeypatch.setattr(cli_mod, name, _raising(exc))
    got, out, err = run(capsys, sub, "--group", "Z2", "--tree",
                        "((1,2),(3,4));", "--output", output)
    assert got == code
    assert out == ""
    assert err == message.format(sub=sub)


def test_keyboard_interrupt_is_not_caught(capsys, monkeypatch):
    import phyloinv.cli as cli_mod

    monkeypatch.setattr(cli_mod, "generate", _raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["generate", "--group", "Z2", "--tree", "((1,2),(3,4));"])


class HashSink:
    """A stdout that keeps only the sha256 and the size of what it is sent."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode("utf-8")
        self.hash.update(data)
        self.size += len(data)
        return len(text)

    def flush(self):
        pass


def test_json_writer_holds_no_copy_of_the_document(monkeypatch):
    # the JSON is written as it is encoded: past the set itself, the peak
    # stays far below the document (1.2 MB here; building the whole string
    # first, as json.dumps does, takes 27 MB)
    import phyloinv.cli as cli_mod

    sink = HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    real = cli_mod.generate
    built = []  # traced bytes once the set is built

    def traced(*args):
        s = real(*args)
        tracemalloc.reset_peak()
        built.append(tracemalloc.get_traced_memory()[0])
        return s

    monkeypatch.setattr(cli_mod, "generate", traced)
    tracemalloc.start()
    try:
        code = main(list(CATERPILLAR))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert (sink.size, sink.hash.hexdigest()) == (CATERPILLAR_BYTES,
                                                  CATERPILLAR_PIN)
    assert peak - built[0] < CATERPILLAR_BYTES // 2


class FailingSink:
    """A stdout that keeps its first write and raises ``exc`` on the next."""

    def __init__(self, exc):
        self.exc = exc
        self.text = None

    def write(self, text):
        if self.text is not None:
            raise self.exc
        self.text = text
        return len(text)


@pytest.mark.parametrize("exc,code,message", [
    (MemoryError(), EXIT_CAP_EXCEEDED, "error: generate ran out of memory\n"),
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), EXIT_INPUT_ERROR,
     f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"),
], ids=["memory", "disk-full"])
def test_failure_mid_write_leaves_a_truncated_document(capsys, monkeypatch,
                                                       exc, code, message):
    # stdout is written as it is encoded, so a failure leaves part of the
    # document behind it; the exit code says it is not the whole
    _, document, _ = run(capsys, *CATERPILLAR)
    assert hashlib.sha256(document.encode()).hexdigest() == CATERPILLAR_PIN
    sink = FailingSink(exc)
    monkeypatch.setattr(sys, "stdout", sink)
    got = main(list(CATERPILLAR))
    assert got == code
    assert capsys.readouterr().err == message
    assert sink.text and document.startswith(sink.text)
    assert len(sink.text) < len(document)


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


def test_module_entry_point_without_asserts():
    # ``python -O`` strips asserts, so the certificate must not rest on them;
    # ``python -m phyloinv`` runs the CLI from a source checkout
    src = str(Path(phyloinv.__file__).resolve().parents[1])
    newick = "((1,2),(3,4),(5,6));"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "phyloinv", "verify", "--group", "Z2xZ2",
         "--tree", newick],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    pins = {pin[:4]: pin[4] for pin in CLI_PINS}
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        pins[("verify", "Z2xZ2", newick, "json")]


SRC = str(Path(phyloinv.__file__).resolve().parents[1])
TRIPOD = ("generate", "--group", "Z2", "--tree", "(1,2,3);")


@pytest.mark.parametrize("argv", [TRIPOD, CATERPILLAR], ids=["tripod", "caterpillar"])
@pytest.mark.parametrize("keep", [0, 10], ids=["true", "head-c10"])
@pytest.mark.parametrize("joined", [False, True], ids=["stderr", "joined"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_0_or_2(argv, keep, joined, unbuffered):
    # the reader takes ``keep`` bytes and closes the pipe, as `| head -c 10`
    # or `| true` would; the exit-time flush must not turn that into exit
    # 120 or an error line escaping main into exit 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "phyloinv", *argv], env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT if joined
                          else subprocess.PIPE) as proc:
        proc.stdout.read(keep)
        proc.stdout.close()
        err = "" if joined else proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code in (EXIT_OK, EXIT_INPUT_ERROR)
    if not joined:
        assert err == ("" if code == EXIT_OK else
                       f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


@pytest.mark.parametrize("subcommand", ["generate", "verify"])
@pytest.mark.parametrize("group", ["Z2", "Q2"])
@pytest.mark.parametrize("fds", [(1,), (1, 2)], ids=["stdout", "stdout-stderr"])
def test_stream_closed_at_start_exits_2(subcommand, group, fds):
    # descriptors closed before the interpreter starts (`>&-`, `2>&-`) make
    # sys.stdout or sys.stderr None: a bad descriptor (exit 2), not a bug
    # (exit 4) or an escaping exception (exit 1); Q2 is bad input and
    # exits 2 with the stdout left unwritten
    def close():
        for fd in fds:
            os.close(fd)

    proc = subprocess.run(
        [sys.executable, "-m", "phyloinv", subcommand, "--group", group,
         "--tree", "(1,2,3);"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC}, preexec_fn=close, timeout=120)
    assert proc.returncode == EXIT_INPUT_ERROR
    if 2 in fds:
        assert proc.stderr == b""
    elif group == "Z2":
        assert proc.stderr.decode() == \
            f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
    else:
        assert proc.stderr.decode().startswith("error: malformed group spec")
        assert proc.stderr.count(b"\n") == 1


def test_address_space_limit_exits_3_with_one_line():
    # the child caps its own address space; only it is limited
    resource = pytest.importorskip("resource")
    cap = 25 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    def child(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True,
                              env={**os.environ, "PYTHONPATH": SRC},
                              preexec_fn=limit, timeout=120)

    if child("-c", "import phyloinv.cli").returncode != 0:
        pytest.skip("the interpreter cannot start under a 25 MiB cap")
    proc = child("-m", "phyloinv", "generate", "--group", "Z3", "--tree",
                 "((((((((1,2),3),4),5),6),7),8),9,10);",
                 "--output", "algebra-text")
    assert proc.returncode == EXIT_CAP_EXCEEDED
    assert proc.stderr == b"error: generate ran out of memory\n"
    assert proc.stdout == b""
