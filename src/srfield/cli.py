"""Command-line front-end.

Subcommands:
    run <file> [--seed N] [--json|--text]   full pipeline on a problem file
    corpus <name|all> [--update]            built-in examples vs golden reports
    el <file> [--seed N]                    Euler-Lagrange derivation only
    analyze <file> [--seed N]               analysis stages only

Exit codes: 0 success, 1 golden mismatch, 2 parse error (including a number
literal longer than 600 digits and a malformed coordinate name in a point
line), 3 precondition or usage error (including an unreadable file, a power
whose exponent exceeds 32 in absolute value once nested powers fold, an
expanded product with more than 10,000 terms, and a constant with more than
600 digits, folded by the parser or computed, or one beyond the float range
met by a numeric check), 4 internal consistency error or any other
unexpected exception, reported on one `internal error:` line.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import (
    CORPUS_NAMES,
    corpus_check,
    run_corpus,
    write_golden,
)
from .errors import (
    EngineError,
    EvalDomainError,
    InternalConsistencyError,
    ParseError,
    PreconditionError,
    UsageError,
)
from .problem import load_problem
from .report import report_json, report_text, run_problem

EXIT_OK = 0
EXIT_GOLDEN = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="srfield",
                                 description="field-theory assembly and analysis engine")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full pipeline on a problem file")
    run_p.add_argument("file")
    run_p.add_argument("--seed", type=int, default=0)
    fmt = run_p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--text", action="store_true")

    corpus_p = sub.add_parser("corpus", help="run built-in examples against goldens")
    corpus_p.add_argument("name", choices=CORPUS_NAMES + ("all",))
    corpus_p.add_argument("--update", action="store_true",
                          help="rewrite the stored golden reports")

    el_p = sub.add_parser("el", help="derive the Euler-Lagrange system only")
    el_p.add_argument("file")
    el_p.add_argument("--seed", type=int, default=0)

    an_p = sub.add_parser("analyze", help="run the analysis stages only")
    an_p.add_argument("file")
    an_p.add_argument("--seed", type=int, default=0)
    return ap


def _cmd_run(args) -> int:
    problem = load_problem(args.file)
    report = run_problem(problem, seed=args.seed)
    if args.text:
        sys.stdout.write(report_text(report))
    else:
        sys.stdout.write(report_json(report))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    names = CORPUS_NAMES if args.name == "all" else (args.name,)
    status = EXIT_OK
    for name in names:
        if args.update:
            write_golden(name, run_corpus(name))
            sys.stdout.write("%s: golden updated\n" % name)
            continue
        _, diffs = corpus_check(name)
        if diffs:
            status = EXIT_GOLDEN
            sys.stdout.write("%s: MISMATCH (%d differences)\n" % (name, len(diffs)))
            for d in diffs:
                sys.stdout.write("  %s\n" % d)
        else:
            sys.stdout.write("%s: ok\n" % name)
    return status


def _cmd_stage(args, stages) -> int:
    problem = load_problem(args.file)
    report = run_problem(problem, seed=args.seed, stages=stages)
    sys.stdout.write(report_json(report))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        if args.command == "el":
            return _cmd_stage(args, {"el"})
        if args.command == "analyze":
            return _cmd_stage(args, {"analysis"})
        raise UsageError("unknown command %r" % args.command)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except (UsageError, PreconditionError, EvalDomainError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PRECONDITION
    except InternalConsistencyError as exc:
        sys.stderr.write("internal consistency error: %s\n" % exc)
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PRECONDITION
    except EngineError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PRECONDITION
    except Exception as exc:
        # a bug, or a resource limit such as RecursionError or MemoryError;
        # exit 1 is reserved for golden mismatches
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(exc).__name__, str(exc).replace("\n", " ")))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
