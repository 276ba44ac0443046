"""Command-line front end.

Subcommands take a profile document (a file path, or ``-`` for stdin) and
print either short human-readable lines or, with ``--json``, a single JSON
object with the fixed keys ``command``, ``verdict``, ``witnesses``,
``grounds``, ``postulates``, ``stats``.

Exit codes: 0 for a computed answer (whatever it is), 2 for bad input
(malformed document, unknown option, unreadable file), 3 when a size cap or
timeout stopped the computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import dsl, midground
from .domain import Profile, Statement, Triviality
from .errors import (
    CapacityError,
    ConcordError,
    DomainMismatchError,
    IndeterminateError,
    ParseError,
    TrivialStakeholderError,
)
from .reasoner import (
    DEFAULT_LIMITS,
    Limits,
    Reasoner,
    classify,
    entails,
)

__all__ = ["main"]

_CONFIG_KEYS = ("max_vars_hier", "max_language", "timeout_ms")
_LANGUAGES = ("full", "binary", "candidates")


class _InputError(ConcordError):
    """Bad command-line input that is not a document parse error."""


# ---------------------------------------------------------------------------
# plumbing


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path!r}: {exc}") from exc


def _load_limits(args: argparse.Namespace) -> Limits:
    values: dict[str, int] = {}
    config = getattr(args, "config", None)
    if config is not None:
        for lineno, raw in enumerate(_read_source(config).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise _InputError(f"{config}:{lineno}: expected key=value")
            if key not in _CONFIG_KEYS:
                raise _InputError(f"{config}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = int(value.strip())
            except ValueError:
                raise _InputError(
                    f"{config}:{lineno}: value for {key} must be an integer"
                ) from None
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return Limits(**values) if values else DEFAULT_LIMITS


def _load_profile(args: argparse.Namespace) -> tuple[dsl.Document, Profile]:
    doc = dsl.parse(_read_source(args.file))
    return doc, dsl.to_profile(doc)


def _statement_arg(args: argparse.Namespace, doc: dsl.Document) -> Statement:
    node = dsl.parse_statement(args.stmt, doc.variables)
    block = dsl.StakeholderBlock("_", (node,))
    probe = dsl.Document(doc.variables, doc.combiner, doc.model_class, (block,))
    return dsl.to_profile(probe).stakeholders[0].statements[0]


def _payload(command: str, verdict: str, **extra) -> dict:
    out = {
        "command": command,
        "verdict": verdict,
        "witnesses": [],
        "grounds": [],
        "postulates": None,
        "stats": {},
    }
    out.update(extra)
    return out


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> int:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _verdict_word(consistent: bool) -> str:
    return "consistent" if consistent else "inconsistent"


def _emit_grounds(
    args: argparse.Namespace,
    command: str,
    grounds: Sequence[Sequence[Statement]],
    stats: dict,
    postulates: dict | None = None,
) -> int:
    """Report middle grounds, with each ground's postulate verdicts if given."""
    rendered = [[str(s) for s in ground] for ground in grounds]
    verdict = "exists" if rendered else "none"
    lines = [verdict, "grounds: %d" % len(rendered)]
    for i, ground in enumerate(rendered):
        lines.append("ground %d (%d statements):" % (i, len(ground)))
        lines.extend("  " + s for s in ground)
        if postulates is not None:
            checks = postulates["ground-%d" % i]
            lines.append(
                "  postulates: " + " ".join(
                    "%s=%s" % (k, v) for k, v in sorted(checks.items())
                )
            )
    payload = _payload(
        command, verdict, grounds=rendered, postulates=postulates, stats=stats
    )
    return _emit(args, lines, payload)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    doc, profile = _load_profile(args)
    sp = profile.space
    r = Reasoner(sp, profile.combiner, profile.model_class, _load_limits(args))
    per = {
        sh.name: _verdict_word(r.is_consistent(sh.statements).consistent)
        for sh in profile.stakeholders
    }
    union = r.is_consistent(profile.union_statements())
    lines = ["stakeholder %s: %s" % (name, word) for name, word in per.items()]
    lines.append("union: " + _verdict_word(union.consistent))
    witnesses = []
    if union.consistent and union.witness is not None:
        witnesses = [union.witness.render(sp)]
        lines.append("witness: " + witnesses[0])
    payload = _payload(
        "check",
        _verdict_word(union.consistent),
        witnesses=witnesses,
        stats={"stakeholders": per, "statements": len(profile.union_statements())},
    )
    return _emit(args, lines, payload)


def _cmd_entails(args: argparse.Namespace) -> int:
    doc, profile = _load_profile(args)
    limits = _load_limits(args)
    s = _statement_arg(args, doc)
    holds = entails(
        profile.union_statements(), s, profile.space, profile.combiner,
        profile.model_class, limits,
    )
    verdict = "entailed" if holds else "not-entailed"
    return _emit(args, [verdict], _payload("entails", verdict))


def _cmd_classify(args: argparse.Namespace) -> int:
    doc, profile = _load_profile(args)
    limits = _load_limits(args)
    s = _statement_arg(args, doc)
    kind = classify(s, profile.space, profile.combiner, profile.model_class, limits)
    return _emit(args, [kind.value], _payload("classify", kind.value))


def _cmd_mg_exists(args: argparse.Namespace) -> int:
    doc, profile = _load_profile(args)
    limits = _load_limits(args)
    if profile.model_class == "lex":
        res = midground.exists_mg_lex(profile, limits)
    else:
        res = midground.exists_mg_hier(profile, limits)
    verdict = "exists" if res.exists else "none"
    witnesses = [str(res.witness)] if res.witness is not None else []
    stats = dict(res.stats)
    stats["via_union"] = res.via_union
    lines = [verdict]
    if res.via_union:
        lines.append("via consistent union")
    if witnesses:
        lines.append("witness: " + witnesses[0])
    return _emit(
        args, lines,
        _payload("mg-exists", verdict, witnesses=witnesses, stats=stats),
    )


def _cmd_mg_construct(args: argparse.Namespace) -> int:
    doc, profile = _load_profile(args)
    limits = _load_limits(args)
    # One reasoner for the request: the grounds' postulate checks reuse the
    # rows the construction compiled.
    r = Reasoner(profile.space, profile.combiner, profile.model_class, limits)
    res = midground._construct_mgs(profile, args.language, r)
    postulates = None
    if args.verify:
        postulates = {}
        for i, ground in enumerate(res.grounds):
            report = midground._check_postulates(ground, profile, True, r)
            postulates["ground-%d" % i] = {p: getattr(report, p).verdict for p in report._fields}
    stats = dict(res.stats, exhaustive=res.exhaustive)
    return _emit_grounds(args, "mg-construct", res.grounds, stats, postulates)


def _cmd_gadget(args: argparse.Namespace) -> int:
    from . import gadgets

    if args.gadget == "subset-sum":
        try:
            values = tuple(int(x) for x in args.set.split(",") if x.strip())
        except ValueError:
            raise _InputError(f"--set wants comma-separated integers, got {args.set!r}") from None
        profile = gadgets.subset_sum_gadget(values, args.target)
    elif args.gadget == "nonuniqueness":
        profile = gadgets.nonuniqueness_fixture()[0]
    elif args.gadget == "nonexistence":
        profile = gadgets.nonexistence_fixture()[0]
    else:
        profile = gadgets.moral_machine_fixture()[0]
    sys.stdout.write(dsl.render_profile(profile))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    doc, profile = _load_profile(args)
    limits = _load_limits(args)
    sp, c, mc = profile.space, profile.combiner, profile.model_class
    if args.subop == "consistent":
        ok = oracle.brute_consistent(profile.union_statements(), sp, c, mc)
        verdict = _verdict_word(ok)
        return _emit(args, [verdict], _payload("oracle-consistent", verdict))
    if args.subop == "entails":
        s = _statement_arg(args, doc)
        holds = oracle.brute_entails(profile.union_statements(), s, sp, c, mc)
        verdict = "entailed" if holds else "not-entailed"
        return _emit(args, [verdict], _payload("oracle-entails", verdict))
    language, exhaustive, _ = midground._resolve_language(
        profile, args.language, Reasoner(sp, c, mc, limits)
    )
    res = oracle.brute_mgs(profile, language)
    stats = dict(res.stats, exhaustive=exhaustive)
    return _emit_grounds(args, "oracle-mgs", res.grounds, stats)


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(sub: argparse.ArgumentParser, with_file: bool = True) -> None:
    if with_file:
        sub.add_argument("file", help="profile document, or - for stdin")
    sub.add_argument("--json", action="store_true", help="emit one JSON object")
    sub.add_argument("--config", metavar="FILE", help="key=value limits file")
    sub.add_argument("--max-vars-hier", type=int, dest="max_vars_hier", metavar="N")
    sub.add_argument("--max-language", type=int, dest="max_language", metavar="N")
    sub.add_argument("--timeout-ms", type=int, dest="timeout_ms", metavar="MS")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    parsing leaves no state in it, and building it costs as much as a small
    request."""
    parser = argparse.ArgumentParser(
        prog="concord",
        description="Reason about multi-stakeholder comparative preferences.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="consistency of each stakeholder and the union")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("entails", help="does the union entail a statement")
    _add_common(p)
    p.add_argument("--stmt", required=True, metavar="STMT")
    p.set_defaults(func=_cmd_entails)

    p = subs.add_parser("classify", help="tautology / contradiction / non-trivial")
    _add_common(p)
    p.add_argument("--stmt", required=True, metavar="STMT")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("mg-exists", help="does a middle ground exist")
    _add_common(p)
    p.set_defaults(func=_cmd_mg_exists)

    p = subs.add_parser("mg-construct", help="construct all middle grounds")
    _add_common(p)
    p.add_argument("--language", choices=_LANGUAGES)
    p.add_argument("--verify", action="store_true", help="check postulates per ground")
    p.set_defaults(func=_cmd_mg_construct)

    p = subs.add_parser("gadget", help="emit a built-in profile document")
    gadget_subs = p.add_subparsers(dest="gadget", required=True)
    g = gadget_subs.add_parser("subset-sum", help="reduction from a subset-sum instance")
    g.add_argument("--set", required=True, metavar="A,B,...")
    g.add_argument("--target", required=True, type=int, metavar="T")
    for name in ("nonuniqueness", "nonexistence", "moral-machine"):
        gadget_subs.add_parser(name)
    p.set_defaults(func=_cmd_gadget)

    p = subs.add_parser("oracle", help="brute-force reference answers")
    oracle_subs = p.add_subparsers(dest="subop", required=True)
    o = oracle_subs.add_parser("consistent")
    _add_common(o)
    o.set_defaults(func=_cmd_oracle)
    o = oracle_subs.add_parser("entails")
    _add_common(o)
    o.add_argument("--stmt", required=True, metavar="STMT")
    o.set_defaults(func=_cmd_oracle)
    o = oracle_subs.add_parser("mgs")
    _add_common(o)
    o.add_argument("--language", choices=_LANGUAGES)
    o.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code if code == 0 else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone (``| head``). Output follows a computed answer,
        # so the code is 0; the flush at exit goes to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, DomainMismatchError, TrivialStakeholderError, _InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (CapacityError, IndeterminateError) as exc:
        print("stopped: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
