"""The compiled space outlives a request, and only its answers.

A hierarchical ``Reasoner`` reads its levels, packed lanes and row language
from the ``reasoner.CompiledSpace`` kept for the process, keyed by the
space's domains and the combiner; one space is kept at a time. These tests
check that requests over one space share a compile, that another space
replaces it, that a warm answer is the cold one, byte for byte, that caps
and the deadline bind on a warm space as on a cold one, and that
lexicographic requests neither build nor evict it.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import concord
from concord import cli, dsl, reasoner
from concord.domain import Combiner, Profile, Stakeholder, VariableSpace
from concord.errors import DomainMismatchError, IndeterminateError
from concord.midground import construct_mgs, exists_mg_hier, exists_mg_lex, hier_candidates
from concord.reasoner import CompiledSpace, Reasoner, is_consistent_lex
from conftest import DATA_DIR, stmt

SP2 = VariableSpace.binary(("x", "y"))

DOC = """\
vars {a}:0..1, {b}:0..1
combiner tie
models hierarchical

stakeholder {p} {{
  (1,0) > (0,1); (1,1) >= (0,0)
}}

stakeholder {q} {{
  (0,1) > (1,0)
}}
"""


@pytest.fixture
def cold(monkeypatch):
    """An empty memo for the test, and a log of the spaces compiled and the
    row languages built; the memo is put back afterwards."""
    monkeypatch.setattr(reasoner, "_compiled", None)
    made, built = [], []
    init, build = CompiledSpace.__init__, CompiledSpace._build_language

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    def counting_build(self, *args):
        built.append(self)
        build(self, *args)

    monkeypatch.setattr(CompiledSpace, "__init__", counting_init)
    monkeypatch.setattr(CompiledSpace, "_build_language", counting_build)
    return made, built


def _cli(argv: list[str], text: str | None = None) -> tuple[int, str, str]:
    """``concord <argv>`` in this process, with ``text`` on stdin if given."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if text is not None:
        sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_names_do_not_split_a_compile(cold, monkeypatch):
    """Two documents that differ only in variable and stakeholder names
    share one compile: the second packs no alternative and builds no
    language, and answers as the first, names aside."""
    made, built = cold
    packs = []
    packed = CompiledSpace.packed

    def counting(self, alt):
        if alt.values not in self.lanes:
            packs.append(alt)
        return packed(self, alt)

    monkeypatch.setattr(CompiledSpace, "packed", counting)
    first = dsl.parse_profile(DOC.format(a="x", b="y", p="p1", q="p2"))
    second = dsl.parse_profile(DOC.format(a="u", b="v", p="alice", q="bob"))
    assert first.space != second.space and first.combiner == second.combiner
    answer = construct_mgs(first)
    assert len(made) == len(built) == 1 and packs
    packs.clear()
    assert construct_mgs(second) == answer
    assert exists_mg_hier(second) == exists_mg_hier(first)
    assert len(made) == len(built) == 1 and packs == []


def test_another_space_rebuilds_and_one_is_kept(cold):
    """A different combiner or different domains compile anew, and the memo
    then holds the new space alone: going back compiles the old one again."""
    made, built = cold
    ternary = VariableSpace(("x", "y"), ((0, 1, 2),) * 2)
    keys = [(SP2, Combiner("max")), (SP2, Combiner("min")), (ternary, Combiner("min")),
            (SP2, Combiner("max"))]
    for count, (space, c) in enumerate(keys, 1):
        hier_candidates(space, c)
        hier_candidates(space, c)
        assert len(made) == len(built) == count
        kept = reasoner._compiled
        assert kept is made[-1]
        assert (kept.space.domains, kept.c) == (space.domains, c)


def _cases():
    """Each document under ``tests/data`` with each subcommand over it, its
    ``--stmt`` the document's first statement. On the trolley profile the
    oracle's universe takes seconds and the ``candidates`` construction
    repeats the full one, so those two are left to the other documents."""
    for path in sorted(DATA_DIR.glob("*.pref")):
        s = re.search(r"\([-\d,]+\) >=? \([-\d,]+\)", path.read_text()).group(0)
        commands = [
            ["check"], ["entails", "--stmt", s], ["classify", "--stmt", s], ["mg-exists"],
            ["mg-construct", "--verify"], ["mg-construct", "--language", "candidates"],
            ["oracle", "consistent"], ["oracle", "mgs", "--language", "binary"],
        ]
        if path.name == "moral_machine.pref":
            commands = commands[:5] + commands[6:7]
        for command in commands:
            yield path, command


def _argv(command: list[str], path: Path) -> list[str]:
    """The command with the document path after the subcommand (and the
    oracle's operation), and ``--json``."""
    head = 2 if command[0] == "oracle" else 1
    return command[:head] + [str(path)] + command[head:] + ["--json"]


def test_warm_answers_equal_cold_processes():
    """Every subcommand over every document answers in a process that has
    answered other documents (and this one) before exactly as a fresh
    process does, ``stats`` included."""
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    cases = list(_cases())
    cold = {}
    for path, command in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "concord"] + _argv(command, path),
            capture_output=True, text=True, env=env, timeout=120,
        )
        cold[path, tuple(command)] = proc.returncode, proc.stdout
    for path, command in cases:
        first = _cli(_argv(command, path))[:2]
        kept = reasoner._compiled
        again = _cli(_argv(command, path))[:2]
        assert first == again == cold[path, tuple(command)], (path.name, command)
        assert reasoner._compiled is kept


@pytest.mark.parametrize("name,commands", [
    # the oracle reads no deadline after the language: only the check
    # before a warm language is returned stops it
    ("nonexistence.pref",
     (["mg-exists"], ["mg-construct"], ["oracle", "mgs", "--language", "candidates"])),
    ("nonuniqueness.pref", (["mg-exists"], ["mg-construct", "--verify"], ["check"])),
])
def test_budgets_bind_on_a_warm_space(name, commands):
    """Right after the same space was answered in this process, a zero
    timeout still stops each request, and so does a language cap."""
    path = str(DATA_DIR / name)
    for command in commands:
        assert _cli(command + [path, "--json"])[0] == 0
        kept = reasoner._compiled
        code, out, err = _cli(command + [path, "--timeout-ms", "0", "--json"])
        assert (code, out) == (3, "") and "timed out" in err, command
        assert reasoner._compiled is kept
    code, out, err = _cli(["mg-construct", path, "--max-language", "5", "--json"])
    assert (code, out) == (3, "") and "cap is 5" in err


def test_interrupted_build_leaves_no_language(cold, monkeypatch):
    """A deadline that fires halfway through the row language leaves the
    space without a language; the next request builds it whole and answers
    as a cold one."""
    profile = dsl.parse_profile((DATA_DIR / "nonuniqueness.pref").read_text())
    want = exists_mg_hier(profile), construct_mgs(profile)
    monkeypatch.setattr(reasoner, "_compiled", None)
    reads = []
    check = Reasoner.check_deadline

    def expiring(self):
        reads.append(self)
        if len(reads) == 5:
            raise IndeterminateError("request timed out")
        check(self)

    monkeypatch.setattr(Reasoner, "check_deadline", expiring)
    with pytest.raises(IndeterminateError):
        exists_mg_hier(profile)
    kept = reasoner._compiled
    assert kept.language is None and kept.alternatives is None
    assert (exists_mg_hier(profile), construct_mgs(profile)) == want
    assert reasoner._compiled is kept and kept.language is not None


LEX_DOC = """\
vars x:0..1, y:0..1, z:0..1
combiner sum
models lexicographic

stakeholder a {
  (1,0,0) > (0,1,0)
}

stakeholder b {
  (0,1,0) > (1,0,0)
}
"""


def test_lexicographic_requests_leave_the_memo_alone(cold):
    """Lexicographic existence, consistency and ``check`` neither compile a
    space nor evict the one kept."""
    made, built = cold
    hier_candidates(SP2, Combiner("max"))
    kept = reasoner._compiled
    profile = dsl.parse_profile(LEX_DOC)
    assert exists_mg_lex(profile).exists
    union = profile.union_statements()
    assert not is_consistent_lex(union, profile.space, profile.combiner).consistent
    code, out, _ = _cli(["check", "-", "--json"], LEX_DOC)
    assert code == 0 and json.loads(out)["verdict"] == "inconsistent"
    assert _cli(["mg-exists", "-", "--json"], LEX_DOC)[0] == 0
    assert reasoner._compiled is kept and len(made) == len(built) == 1


def test_a_statement_outside_the_domains_is_refused_on_a_warm_space(cold):
    """Packing on a warm space refuses a side beyond the lanes, and keeps
    nothing for it."""
    c = Combiner("max")
    profile = Profile(SP2, c, "hier", (
        Stakeholder("a", (stmt((1, 0), (0, 1)),)),
        Stakeholder("b", (stmt((0, 1), (1, 0)),)),
    ))
    construct_mgs(profile)
    kept = reasoner._compiled
    lanes = dict(kept.lanes)
    r = Reasoner(SP2, c)
    with pytest.raises(DomainMismatchError):
        r.row(stmt((9, 0), (0, 1)))
    assert kept.lanes == lanes
