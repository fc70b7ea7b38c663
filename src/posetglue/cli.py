"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 input error (usage errors
included), 3 internal invariant violation. A command fails only by raising,
and `main` maps the exception to its exit code and one stderr line (none
when stderr is closed) through `FAILURES`. `-` reads stdin / writes stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import documents, gluing, morphism
from .chains import split_for_cover
from .errors import BrokenEmbedding, InputError, InternalInvariantError, VerificationFailure
from .gext import WrapOptions, decompose_to_point, elevate, replay, retract
from .generate import random_poset
from .morphism import PosetMap

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# `split` prints t_map over the chain sum, one entry per node of every
# maximal chain; above this many chains it refuses instead of listing them.
SPLIT_MAX_CHAINS = 4096


def _read(path: str) -> str:
    """The document's bytes from path, or stdin for `-`, decoded as UTF-8
    here for both, so the locale's stdin error handler plays no part."""
    if path == "-":
        if sys.stdin is None:
            raise InputError("stdin is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise InputError(
            f"{source} is not valid UTF-8: {exc.reason} at byte {exc.start}"
        ) from exc


def _write(text: str, name: str = "stdout") -> None:
    """Write text to stdout, or to the standard stream `name`, and flush it.
    A closed stream is an input error. So is text that the stream cannot
    encode, such as a node id holding a lone surrogate from a JSON escape;
    the encoder raises before any of the text is written. A stream whose
    write fails (a broken pipe, a full device) is dropped, so the flush at
    exit does not fail again on the text it still holds."""
    stream = getattr(sys, name)
    if stream is None:
        raise InputError(f"{name} is closed")
    try:
        stream.write(text)
        stream.flush()
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise InputError(f"cannot write {bad!r} as {exc.encoding}: {exc.reason}") from exc
    except OSError:
        setattr(sys, name, None)
        raise


def _load_poset(path: str):
    return documents.parse_poset(_read(path))


def cmd_info(args) -> None:
    P = _load_poset(args.poset)
    lines = [
        f"nodes: {len(P.nodes)}",
        f"covers: {len(P.covers)}",
        f"dim: {P.dim() if P.nodes else 'undefined'}",
        f"min: {' '.join(sorted(P.min_nodes())) if P.nodes else ''}".rstrip(),
        f"max: {' '.join(sorted(P.max_nodes())) if P.nodes else ''}".rstrip(),
        f"maximal chains: {P.maximal_chain_count() if P.nodes else 0}",
    ]
    _write("\n".join(lines) + "\n")


def cmd_verify_embedding(args) -> None:
    X = _load_poset(args.source)
    Y = _load_poset(args.target)
    assignment = documents.parse_map(_read(args.map))
    f = PosetMap(X, Y, assignment)
    for rung, scan, witness in (
        ("poset map", morphism.poset_map_violation, "cover"),
        ("embedding", morphism._reflection_violation, "pair"),
        ("saturated embedding", morphism._cover_violation, "cover"),
    ):
        pair = scan(f)
        if pair is not None:
            # the report goes to stdout; the one stderr line repeats its verdict
            verdict = f"{rung}: no (violating {witness} {pair})"
            _write(verdict + "\n")
            raise BrokenEmbedding(verdict, pair=pair)
        _write(f"{rung}: yes\n")
    _write(f"isomorphism: {'yes' if f.is_surjective() else 'no'}\n")


def cmd_glue(args) -> None:
    X = _load_poset(args.poset)
    collection = [part.split(",") for part in args.along]
    witness = gluing.glue_along_collection(X, collection)
    obj = {
        "version": documents.FORMAT_VERSION,
        "target": documents.poset_to_obj(witness.target),
        "map": dict(sorted(witness.map.assignment.items())),
        "collection": sorted(sorted(C) for C in witness.collection),
        "height_zero": gluing.is_height_zero_gluing(witness),
    }
    _write(json.dumps(obj, indent=2) + "\n")


def cmd_split(args) -> None:
    X = _load_poset(args.poset)
    if X.nodes and (count := X.maximal_chain_count()) > SPLIT_MAX_CHAINS:
        raise InputError(
            f"split prints a t_map over all {count} maximal chains; the limit is {SPLIT_MAX_CHAINS}"
        )
    result = split_for_cover(X, args.min, args.cover)
    obj = {
        "version": documents.FORMAT_VERSION,
        "f": documents.poset_to_obj(result.F),
        "t_map": dict(sorted(result.t_F.assignment.items())),
        "f_map": dict(sorted(result.f_F.assignment.items())),
    }
    _write(json.dumps(obj, indent=2) + "\n")


def cmd_elevate(args) -> None:
    X = _load_poset(args.poset)
    witness = elevate(X, args.at, args.count)
    _write(_elevation_obj(witness, "z"))


def cmd_retract(args) -> None:
    Z = _load_poset(args.poset)
    witness = retract(Z, args.at)
    _write(_elevation_obj(witness, "x"))


def _elevation_obj(witness, result_key: str) -> str:
    result = witness.Z if result_key == "z" else witness.X
    obj = {
        "version": documents.FORMAT_VERSION,
        result_key: documents.poset_to_obj(result),
        "pivot": witness.z,
        "r_map": dict(sorted(witness.r.assignment.items())),
        "e_map": dict(sorted(witness.e.assignment.items())),
    }
    return json.dumps(obj, indent=2) + "\n"


def _wrap_count(token: str) -> int:
    try:
        value = int(token.split("=", 1)[1])
    except ValueError:
        value = -1
    if value < 0:
        raise InputError(f"wrap option {token!r} needs a non-negative integer")
    return value


def _parse_wrap(text: str) -> WrapOptions:
    """Wrap options from the --wrap list; `single-max` is accepted and
    changes nothing, since the fresh top is always added."""
    single_min = False
    min_height = 0
    min_dim = 0
    if text:
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token == "single-max":
                continue
            if token == "single-min":
                single_min = True
            elif token.startswith("min-height="):
                min_height = _wrap_count(token)
            elif token.startswith("min-dim="):
                min_dim = _wrap_count(token)
            else:
                raise InputError(f"unknown wrap option {token!r}")
    return WrapOptions(single_min, min_height, min_dim)


def cmd_decompose(args) -> None:
    X = _load_poset(args.poset)
    script = decompose_to_point(X, _parse_wrap(args.wrap))
    _write(documents.emit_script(script))


def cmd_replay(args) -> None:
    script = documents.parse_script(_read(args.script))
    _, report = replay(script)
    _write(str(report) + "\n")


def cmd_render(args) -> None:
    P = _load_poset(args.poset)
    highlight = args.highlight.split(",") if args.highlight else []
    _write(documents.emit_dot(P, highlight))


def cmd_random(args) -> None:
    P = random_poset(args.seed, args.nodes, args.p)
    _write(documents.emit_poset(P))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, so they keep
    the one-line contract instead of printing a usage line and exiting, and
    whose help goes through `_write`, so a stdout that cannot take it is an
    input error too. Subcommand parsers are made with the same class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        _write(self.format_help())


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetglue",
        description="Finite poset algebra: gluings, splits, and replayable growth scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="node count, dim, min/max, chain count")
    p.add_argument("poset")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify-embedding", help="run the map verifier hierarchy")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.set_defaults(func=cmd_verify_embedding)

    p = sub.add_parser("glue", help="glue along one or more node sets")
    p.add_argument("poset")
    p.add_argument("--along", action="append", required=True, metavar="IDS", help="comma-separated node ids; repeatable")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("split", help="split a minimal node under a chosen cover")
    p.add_argument("poset")
    p.add_argument("--min", required=True, metavar="ID")
    p.add_argument("--cover", required=True, metavar="ID")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("elevate", help="grow fresh minima under a minimal node")
    p.add_argument("poset")
    p.add_argument("--at", required=True, metavar="ID")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_elevate)

    p = sub.add_parser("retract", help="collapse the down-set of a height-one node")
    p.add_argument("poset")
    p.add_argument("--at", required=True, metavar="ID")
    p.set_defaults(func=cmd_retract)

    p = sub.add_parser("decompose", help="emit a growth script reaching the poset from a point")
    p.add_argument("poset")
    p.add_argument(
        "--wrap",
        default="",
        metavar="OPTS",
        help="single-min,min-height=N,min-dim=N (a fresh top is always added; single-max is a no-op)",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("replay", help="re-execute and certify a growth script")
    p.add_argument("script")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("render", help="emit Graphviz text")
    p.add_argument("poset")
    p.add_argument("--highlight", default="", metavar="IDS")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("random", help="emit a seeded random poset document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_random)

    return parser


# Each failure's exit code and the format of its one stderr line, by the
# first family the exception belongs to; an OSError (a missing file, an
# unwritable stdout) is an input error, and anything else is a bug, whose
# repr keeps it on one line.
FAILURES = (
    (VerificationFailure, EXIT_VERIFICATION, "verification failed: {}"),
    ((InputError, OSError), EXIT_INPUT, "input error: {}"),
    (InternalInvariantError, EXIT_INTERNAL, "internal invariant violated: {}"),
    (Exception, EXIT_INTERNAL, "internal error: {!r}"),
)


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except Exception as exc:
        code, line = next((c, f.format(exc)) for kind, c, f in FAILURES if isinstance(exc, kind))
    # a closed stderr takes no line; the exit code still names the family
    with contextlib.suppress(InputError, OSError):
        _write(line + "\n", "stderr")
    return code


if __name__ == "__main__":
    sys.exit(main())
