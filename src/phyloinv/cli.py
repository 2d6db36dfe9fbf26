"""Command-line entry point: generate, verify, lattice-info."""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from itertools import islice
from json import JSONEncoder

from .errors import FlowCapExceeded, InternalError
from .flows import DEFAULT_FLOW_CAP
from .groups import parse_group_spec
from .oracle import lattice_report, verify_complete_intersection
from .pipeline import GenerateOptions, algebra_text, generate
from .trees import canonical_rooting, parse_newick

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3
EXIT_INTERNAL_ERROR = 4

_WRITE_BATCH = 8192  # encoder chunks joined into one write
_TREE_FILE_LIMIT = 1 << 20  # characters a --tree @FILE may hold

# ASCII digits only: int() would also take any script's digits, "_" and
# surrounding blanks
_INTEGER_RE = re.compile(r"-?[0-9]+")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phyloinv",
        description="Binomial phylogenetic invariants of group-based models "
                    "on trees, with exact lattice certification.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", required=True, metavar="SPEC",
                        help="abelian group as cyclic factors, e.g. Z3 or Z2xZ4")
    common.add_argument("--tree", required=True, metavar="NEWICK",
                        help="leaf-labelled tree in Newick (labels 1..n), "
                             "or @FILE to read it from a file")
    common.add_argument("--flow-cap", default=str(DEFAULT_FLOW_CAP),
                        metavar="N", help="refuse instances with more than N "
                        "flows (default %(default)s)")
    common.add_argument("--output", choices=("json", "algebra-text"),
                        default="json")
    construct = argparse.ArgumentParser(add_help=False)
    construct.add_argument("--mode", choices=("direct-cyclic", "factored"),
                           default="direct-cyclic",
                           help="tripod basis recipe (default %(default)s)")
    construct.add_argument("--seed", default=None, metavar="N",
                           help="randomize the decomposition edge choices")

    sub.add_parser("generate", parents=[common, construct],
                   help="construct the invariant set")
    sub.add_parser("verify", parents=[common, construct],
                   help="construct the set, then certify it against the "
                        "independent lattice oracle")
    sub.add_parser("lattice-info", parents=[common],
                   help="rank and index diagnostics for the vertex-point "
                        "lattice of (tree, group)")
    return p


def _integer(option: str, text: str) -> int:
    """The value of an integer option: an optional minus sign and ASCII
    digits, nothing else.  A value too long to convert is named by its
    digit count, leading zeros not counted."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise ValueError(f"{option} is not an integer (expected ASCII digits "
                         f"after an optional '-')")
    digits = text.lstrip("-").lstrip("0")
    try:
        value = int(digits or "0")
    except ValueError:  # past Python's int-to-string digit limit
        raise ValueError(f"{option} has {len(digits)} digits: too large") from None
    return -value if text.startswith("-") else value


def _read_tree_arg(text: str) -> str:
    """The Newick text of ``--tree``: the value itself, or, after an "@",
    the file it names, read up to one character past the limit, so that
    an endless file (``@/dev/zero``) is refused like a long one."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            newick = fh.read(_TREE_FILE_LIMIT + 1)
        if len(newick) > _TREE_FILE_LIMIT:
            raise ValueError(f"--tree file holds more than {_TREE_FILE_LIMIT} "
                             f"characters")
        return newick
    return text


def _write(result, text, fmt: str) -> None:
    """Write ``text(result)`` to stdout, or ``result.to_json()`` as JSON
    with indent 2 and a final newline, written as it is encoded, and flush
    it.  A stdout that fails is silenced before the error goes on; one
    closed before the process started (``sys.stdout`` is None) fails as
    a bad descriptor."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        if fmt != "json":
            sys.stdout.write(text(result))
        else:
            chunks = JSONEncoder(indent=2).iterencode(result.to_json())
            while batch := list(islice(chunks, _WRITE_BATCH)):
                sys.stdout.write("".join(batch))
            sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError:
        _silence(sys.stdout)
        raise


def _error(line: str) -> None:
    """Write one error line to stderr; a stderr that fails or is closed
    (``sys.stderr`` is None) loses it."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except OSError:
        _silence(sys.stderr)


def _silence(stream) -> None:
    """Point a broken stream's descriptor at ``os.devnull``, so that the
    flush at interpreter exit neither raises nor prints (the recipe in the
    Python docs' note on SIGPIPE).  A stream without a descriptor is left
    as it is."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _verify_text(report) -> str:
    lines = ["pass" if report.passed else "FAIL"]
    for name in ("count_ok", "kernel_membership_ok", "spans_ok", "degree_bound_ok"):
        lines.append(f"  {name}: {getattr(report, name)}")
    lines.append(f"  expected_codim: {report.expected_codim}")
    lines.append(f"  actual_count: {report.actual_count}")
    lines.append(f"  kernel_rank: {report.kernel_rank}")
    for msg in report.failures:
        lines.append(f"  failure: {msg}")
    return "\n".join(lines) + "\n"


def _lattice_text(info) -> str:
    lines = [f"{k}: {v}" for k, v in info.to_json().items()]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        flow_cap = _integer("--flow-cap", args.flow_cap)
        if flow_cap < 1:
            raise ValueError(f"--flow-cap must be at least 1, got {flow_cap}")
        seed = getattr(args, "seed", None)
        if seed is not None:
            seed = _integer("--seed", seed)
        group = parse_group_spec(args.group)
        tree = parse_newick(_read_tree_arg(args.tree))

        if args.subcommand == "lattice-info":
            info = lattice_report(canonical_rooting(tree), group,
                                  flow_cap=flow_cap)
            _write(info, _lattice_text, args.output)
            return EXIT_OK

        options = GenerateOptions(mode=args.mode, flow_cap=flow_cap, seed=seed)
        invset = generate(tree, group, options)

        if args.subcommand == "generate":
            _write(invset, algebra_text, args.output)
            return EXIT_OK

        report = verify_complete_intersection(invset, flow_cap=flow_cap)
        _write(report, _verify_text, args.output)
        return EXIT_OK if report.passed else EXIT_VERIFY_FAILED

    except FlowCapExceeded as exc:
        code, line = EXIT_CAP_EXCEEDED, f"error: {exc}"
    except InternalError as exc:
        code, line = EXIT_INTERNAL_ERROR, f"internal error: {exc}"
    except (OSError, ValueError) as exc:
        code, line = EXIT_INPUT_ERROR, f"error: {exc}"
    except MemoryError:
        code, line = EXIT_CAP_EXCEEDED, f"error: {args.subcommand} ran out of memory"
    except Exception as exc:  # a bug: one line, not a traceback
        code = EXIT_INTERNAL_ERROR
        line = f"internal error: {type(exc).__name__}: {exc}"
    # written once the try has ended, when a MemoryError's traceback and
    # the memory it holds are freed
    _error(line)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
