"""Command line front end.

Exit codes are uniform across subcommands: 0 for success or an affirmative
verdict, 1 for usage, parse, or validation problems and for files that
cannot be read or written, 2 for a negative verdict (not AND-OR, unsound),
3 when a check hit its exploration bounds before reaching a verdict.  Error
lines about an input file start with its path.  `validate`, `classify` and
`soundness` check every file they are given, and when several files
disagree the worst code wins, in the order 1, then 2, then 3, then 0.

All analysis output goes to stdout and is byte-stable for fixed inputs and
flags; warnings and errors go to stderr, except that `validate` lists
loader warnings on stdout, in its report.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, TypeVar

from .classes import classify
from .fileio import (
    NetParseError,
    ParsedNet,
    export_dot,
    export_forest_dot,
    parse_forest,
    parse_net,
    serialize_forest,
    serialize_net,
    sniff_format,
)
from .generate import GenerationRecipe, generate_andor_net
from .nets import Net, place_completion, transition_completion, validate
# Every command that reduces a net has validated it on loading, so the CLI
# calls the reducer past `reduce_net`'s own validation; the name is kept, so
# that a wrapper around `cli.reduce_net` still sees every reduction.
from .reduction import _reduce_valid as reduce_net
from .soundness import (
    MAX_STATES,
    MAX_TOKENS,
    SoundnessVerdict,
    check_k_sound,
    check_star_sound_bounded,
    check_substitution_sound_bounded,
    summarize_star,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3
_T = TypeVar("_T")  # what `_read` parses a file into


class CliError(Exception):
    """A user-facing failure that maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise CliError(f"{self.format_usage()}{self.prog}: error: {message}")


def _positive_int(text: str) -> int:
    """An option value that must be a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _read(path: str, parse: Callable[[str], _T]) -> _T:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: error: cannot read: {exc}") from exc
    try:
        return parse(text)
    except NetParseError as exc:
        raise CliError(f"{path}: error: {exc}") from exc


def _parse_any_net(text: str) -> ParsedNet:
    return parse_net(text, sniff_format(text))


def _load_checked(path: str) -> Net:
    """Parse and validate, echoing loader warnings to stderr."""
    parsed = _read(path, _parse_any_net)
    for warning in parsed.warnings:
        print(f"{path}: warning: {warning}", file=sys.stderr)
    report = validate(parsed.net, parsed.duplicate_arcs)
    if not report.ok:
        raise CliError("\n".join(f"{path}: error: {line}" for line in report.lines()))
    return parsed.net


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _validate_file(path: str, args: argparse.Namespace) -> tuple[int, list[str]]:
    parsed = _read(path, _parse_any_net)
    report = validate(parsed.net, parsed.duplicate_arcs)
    out = [f"{path}: warning: {warning}" for warning in parsed.warnings]
    out += [f"{path}: {line}" for line in report.lines()]
    return (EXIT_OK if report.ok else EXIT_ERROR), out


def _classify_file(path: str, args: argparse.Namespace) -> tuple[int, list[str]]:
    return EXIT_OK, [f"{path}: {classify(_load_checked(path)).describe()}"]


def _cmd_reduce(args: argparse.Namespace) -> int:
    net = _load_checked(args.file)
    result = reduce_net(net, seed=args.seed)
    if args.tree is not None:
        Path(args.tree).write_text(serialize_forest(result.forest), encoding="utf-8")
    _write_or_print(serialize_net(result.net), args.output)
    return EXIT_OK


def _cmd_verify_andor(args: argparse.Namespace) -> int:
    net = _load_checked(args.file)
    if len(reduce_net(net).net) == 1:
        print("AND-OR: yes")
        return EXIT_OK
    print("AND-OR: no")
    return EXIT_NEGATIVE


def _verdict_exit(status: str) -> int:
    return {"sound": EXIT_OK, "unsound": EXIT_NEGATIVE, "inconclusive": EXIT_INCONCLUSIVE}[status]


def _soundness_check(net: Net, args: argparse.Namespace) -> tuple[int, list[str]]:
    """Run the selected soundness check; lines are unprefixed."""
    if args.sub:
        k = args.k if args.k is not None else args.max_k
        verdict = check_substitution_sound_bounded(net, k, args.max_states, args.max_tokens)
        return _verdict_exit(verdict.status), [f"substitution {verdict.describe()}"]
    if args.k is not None:
        verdict = check_k_sound(net, args.k, args.max_states, args.max_tokens)
        return _verdict_exit(verdict.status), [verdict.describe()]
    verdicts = check_star_sound_bounded(net, args.max_k, args.max_states, args.max_tokens)
    lines = [summarize_star(verdicts)] + [f"  {v.describe()}" for v in verdicts]
    worst = EXIT_OK
    for v in verdicts:
        code = _verdict_exit(v.status)
        worst = _combine(worst, code)
    return worst, lines


def _combine(a: int, b: int) -> int:
    order = (EXIT_ERROR, EXIT_NEGATIVE, EXIT_INCONCLUSIVE, EXIT_OK)
    return min(a, b, key=order.index)


def _soundness_file(path: str, args: argparse.Namespace) -> tuple[int, list[str]]:
    net = _load_checked(path)
    code, lines = _soundness_check(net, args)
    out = [f"{path}: {line}" if not line.startswith(" ") else f"{path}:{line}" for line in lines]
    if args.compare_reduced:
        reduced = reduce_net(net).net
        reduced_code, reduced_lines = _soundness_check(reduced, args)
        agree = "agree" if reduced_code == code else "differ"
        out.append(f"{path}: experimental: reduced form ({len(reduced)} nodes) {reduced_lines[0]}")
        out.append(f"{path}: experimental: verdicts {agree}")
    return code, out


def _file_result(path: str, args: argparse.Namespace) -> tuple[int, list[str], list[str]]:
    """`args.each` on one file as (exit code, stdout lines, stderr lines)."""
    try:
        code, out = args.each(path, args)
    except CliError as exc:
        return EXIT_ERROR, [], str(exc).splitlines()
    return code, out, []


def _run_files(args: argparse.Namespace) -> int:
    """Check every file, print its lines in file order, and return the worst code."""
    if args.jobs > 1 and len(args.files) > 1:
        # The pool starts all its workers at once, so ask for no more than there are files.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(args.files))) as pool:
            results = list(pool.map(_file_result, args.files, itertools.repeat(args)))
    else:
        results = map(_file_result, args.files, itertools.repeat(args))
    worst = EXIT_OK
    for code, out, err in results:
        for line in out:
            print(line)
        for line in err:
            print(line, file=sys.stderr)
        worst = _combine(worst, code)
    return worst


def _cmd_generate(args: argparse.Namespace) -> int:
    recipe = GenerationRecipe(
        seed=args.seed,
        substitution_steps=args.steps,
        root_io_type=args.io_type,
    )
    generated = generate_andor_net(recipe)
    _write_or_print(serialize_net(generated.net), args.output)
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    if args.tree:
        sys.stdout.write(export_forest_dot(_read(args.file, parse_forest)))
    else:
        sys.stdout.write(export_dot(_load_checked(args.file)))
    return EXIT_OK


def _cmd_complete(args: argparse.Namespace) -> int:
    net = _load_checked(args.file)
    try:
        completed = place_completion(net) if args.place else transition_completion(net)
    except ValueError as exc:
        raise CliError(f"{args.file}: error: {exc}") from exc
    _write_or_print(serialize_net(completed), args.output)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wfnet",
        description="Workflow net analysis: validation, classification, "
        "reduction, AND-OR verification, and bounded soundness checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", help="check the workflow net conditions")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=_run_files, each=_validate_file, jobs=1)

    p = sub.add_parser("classify", help="report structural class flags")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=_run_files, each=_classify_file, jobs=1)

    p = sub.add_parser("reduce", help="contract nested subnets to normal form")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--seed", type=int, default=None, help="shuffle the contraction order")
    p.add_argument("--tree", metavar="FILE", help="write the refinement tree here")
    p.add_argument("-o", "--output", metavar="FILE", help="write the reduced net here")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify-andor", help="decide membership in the AND-OR class")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(handler=_cmd_verify_andor)

    p = sub.add_parser("soundness", help="bounded soundness verdicts via state exploration")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--k", type=int, default=None, help="check a single token count")
    p.add_argument("--max-k", type=int, default=3, help="check k = 1..MAX_K (default 3)")
    p.add_argument("--sub", action="store_true", help="check the substitution variant")
    p.add_argument("--max-states", type=int, default=MAX_STATES)
    p.add_argument("--max-tokens", type=int, default=MAX_TOKENS)
    p.add_argument("--jobs", type=_positive_int, default=1, help="check files in parallel")
    p.add_argument(
        "--compare-reduced",
        action="store_true",
        help="experimental: also check the reduced net and report whether verdicts agree",
    )
    p.set_defaults(handler=_run_files, each=_soundness_file)

    p = sub.add_parser("generate", help="grow a random net by repeated substitution")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=10, help="substitution steps (default 10)")
    p.add_argument("--io-type", choices=("place", "transition"), default="place")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("dot", help="render a net (or a refinement tree) as Graphviz input")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--tree", action="store_true", help="treat FILE as a refinement tree")
    p.set_defaults(handler=_cmd_dot)

    p = sub.add_parser("complete", help="close a net with fresh interface nodes")
    p.add_argument("file", metavar="FILE")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--place", action="store_true", help="add a source and a sink place")
    kind.add_argument("--transition", action="store_true", help="add a start and an end transition")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(handler=_cmd_complete)

    return parser


# Built once: `main` runs many times in one process when driven as a library.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    try:
        return args.handler(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        # Parse failures, invalid nets, out-of-range options, unwritable files.
        print(f"wfnet: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
