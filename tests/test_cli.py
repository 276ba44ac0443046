"""Command-line surface: subcommands, JSON schema, exit codes, goldens."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import concord
from concord import dsl
from concord.cli import _build_parser, main
from concord.gadgets import nonexistence_fixture, nonuniqueness_fixture

JSON_KEYS = {"command", "verdict", "witnesses", "grounds", "postulates", "stats"}

NE_TEXT = dsl.render_profile(nonexistence_fixture()[0])

LEX_TEXT = """\
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


HIER_TEXT = """\
vars x:0..1, y:0..1
combiner max
models hierarchical

stakeholder a {
  (1,0) > (0,1)
}

stakeholder b {
  (0,1) > (1,0)
}
"""


@pytest.fixture
def ne_file(tmp_path):
    p = tmp_path / "ne.pref"
    p.write_text(NE_TEXT)
    return str(p)


@pytest.fixture
def lex_file(tmp_path):
    p = tmp_path / "lex.pref"
    p.write_text(LEX_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert set(payload) == JSON_KEYS
    return code, payload, err


# ---------------------------------------------------------------------------
# check


def test_check_human(ne_file, capsys):
    code, out, _ = run(capsys, "check", ne_file)
    assert code == 0
    assert "stakeholder p1: consistent" in out
    assert "union: inconsistent" in out


def test_check_json(ne_file, capsys):
    code, payload, _ = run_json(capsys, "check", ne_file)
    assert code == 0
    assert payload["verdict"] == "inconsistent"
    assert payload["stats"]["stakeholders"] == {
        "p1": "consistent", "p2": "consistent",
    }


def test_check_consistent_reports_witness(tmp_path, capsys):
    p = tmp_path / "one.pref"
    p.write_text(
        "vars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n"
        "stakeholder p {(1,0) > (0,1)}\n"
    )
    code, payload, _ = run_json(capsys, "check", str(p))
    assert code == 0
    assert payload["verdict"] == "consistent"
    assert payload["witnesses"] == ["({x})"]


def test_check_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(NE_TEXT))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "union: inconsistent" in out


# ---------------------------------------------------------------------------
# entails / classify


def test_entails(ne_file, capsys):
    code, out, _ = run(capsys, "entails", ne_file, "--stmt", "(1,1) > (0,0)")
    assert code == 0
    assert out.strip() == "entailed"  # inconsistent union entails anything


def test_classify(ne_file, capsys):
    code, payload, _ = run_json(
        capsys, "classify", ne_file, "--stmt", "(1,1) >= (0,0)"
    )
    assert code == 0
    assert payload["verdict"] == "tautology"


def test_bad_statement_is_input_error(ne_file, capsys):
    code, out, err = run(capsys, "entails", ne_file, "--stmt", "(1,1) >")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_statement_arity_checked(ne_file, capsys):
    code, _, err = run(capsys, "entails", ne_file, "--stmt", "(1,1,0) > (0,0,0)")
    assert code == 2
    assert "bad-tuple-arity" in err


# ---------------------------------------------------------------------------
# middle grounds


def test_mg_exists_nonexistence(ne_file, capsys):
    code, payload, _ = run_json(capsys, "mg-exists", ne_file)
    assert code == 0
    assert payload["verdict"] == "none"
    assert payload["stats"]["candidates"] == 12
    assert payload["stats"]["pool"] == 0


def test_mg_exists_lex(lex_file, capsys):
    code, payload, _ = run_json(capsys, "mg-exists", lex_file)
    assert code == 0
    assert payload["verdict"] == "exists"
    assert len(payload["witnesses"]) == 1


def test_mg_construct_lex_with_verify(lex_file, capsys):
    code, payload, _ = run_json(
        capsys, "mg-construct", lex_file, "--language", "binary", "--verify"
    )
    assert code == 0
    assert payload["verdict"] == "exists"
    assert len(payload["grounds"]) == 1
    checks = payload["postulates"]["ground-0"]
    assert checks["p1"] == checks["p2"] == checks["p3"] == checks["p4"] == "pass"
    assert checks["p5"] in ("pass", "not-checked")


def test_mg_construct_none(ne_file, capsys):
    code, payload, _ = run_json(capsys, "mg-construct", ne_file)
    assert code == 0
    assert payload["verdict"] == "none"
    assert payload["grounds"] == []


# Its pool is 5,149 statements in 1,087 classes, all jointly consistent, so
# a path of the middle-ground sweep can take a step per class.
DEEP_SEARCH_TEXT = """\
vars w:0..2, x:0..2, y:0..2, z:0..2
combiner max
models hierarchical
stakeholder p0 { (1,1,1,1) >= (1,2,2,2); (2,1,2,2) > (0,2,2,0); (2,1,1,0) >= (0,0,2,1) }
stakeholder p1 { (2,0,2,1) >= (2,0,1,0); (1,1,0,0) > (0,1,0,1) }
stakeholder p2 { (0,1,1,2) > (0,0,0,0); (0,0,1,2) >= (0,1,2,1) }
"""


def test_mg_construct_searches_a_thousand_classes_deep(tmp_path):
    """A middle-ground search whose paths could run deeper than Python's
    recursion limit still answers; ``nodes`` counts the states it swept."""
    path = tmp_path / "deep.pref"
    path.write_text(DEEP_SEARCH_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "concord", "mg-construct", str(path), "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "exists"
    assert [len(g) for g in payload["grounds"]] == [5149]
    assert (payload["stats"]["classes"], payload["stats"]["nodes"]) == (1087, 2480)


# The smallest of the planted random lexicographic profiles on which the
# branch and bound that searched subsets of classes never finished.
LEX_HANG_TEXT = """\
vars a:0..1, b:0..1, c:0..1, d:0..1
combiner product
models lexicographic
stakeholder p0 { (0,1,0,1) > (0,0,1,1); (1,0,0,1) >= (0,1,0,0); (0,1,1,1) >= (0,1,1,0) }
stakeholder p1 { (0,0,1,0) >= (1,0,0,1) }
"""


def test_mg_construct_lexicographic_document_that_hung(tmp_path, capsys):
    """162 statements, a pool of 37 in 32 classes: one ground of 32. The
    request takes about 10 ms; its timeout is far above that, so a hang
    fails fast."""
    path = tmp_path / "lex_hang.pref"
    path.write_text(LEX_HANG_TEXT)
    code, payload, err = run_json(
        capsys, "mg-construct", str(path), "--verify", "--timeout-ms", "2000"
    )
    assert code == 0, err
    assert [len(g) for g in payload["grounds"]] == [32]
    assert set(payload["postulates"]["ground-0"].values()) == {"pass"}


def test_mg_construct_nonuniqueness_binary_language(data_dir, capsys):
    """Four grounds of 35 over the binary language, each passing P1-P5;
    the subset search never finished here."""
    code, payload, err = run_json(
        capsys, "mg-construct", str(data_dir / "nonuniqueness.pref"),
        "--language", "binary", "--verify", "--timeout-ms", "2000",
    )
    assert code == 0, err
    assert [len(g) for g in payload["grounds"]] == [35] * 4
    for checks in payload["postulates"].values():
        assert set(checks.values()) == {"pass"}


def test_grounds_print_as_their_statements(data_dir, capsys):
    """Grounds render each distinct alternative once per call, and still
    print every statement as its ``str``, in text and in JSON."""
    from concord.midground import construct_mgs

    path = str(data_dir / "nonuniqueness.pref")
    grounds = construct_mgs(dsl.parse_profile(Path(path).read_text())).grounds
    want = [[str(s) for s in ground] for ground in grounds]
    sides = {side for ground in grounds for s in ground for side in (s.left, s.right)}
    assert len(sides) < sum(map(len, want))
    code, payload, _ = run_json(capsys, "mg-construct", path)
    assert code == 0 and payload["grounds"] == want
    code, out, _ = run(capsys, "mg-construct", path)
    assert code == 0 and [
        line[2:] for line in out.splitlines() if line.startswith("  ")
    ] == [s for ground in want for s in ground]


# ---------------------------------------------------------------------------
# gadget / oracle


@pytest.mark.parametrize(
    "args", [("nonuniqueness",), ("nonexistence",), ("moral-machine",),
             ("subset-sum", "--set", "2,4", "--target", "5")]
)
def test_gadget_emits_parseable_documents(args, capsys):
    code, out, _ = run(capsys, "gadget", *args)
    assert code == 0
    dsl.parse(out)


def test_gadget_round_trip_profile(capsys):
    code, out, _ = run(capsys, "gadget", "nonuniqueness")
    assert code == 0
    assert dsl.parse_profile(out) == nonuniqueness_fixture()[0]


def test_gadget_bad_set(capsys):
    code, _, err = run(capsys, "gadget", "subset-sum", "--set", "2,x", "--target", "5")
    assert code == 2
    assert "error" in err


def test_oracle_consistent(ne_file, capsys):
    code, out, _ = run(capsys, "oracle", "consistent", ne_file)
    assert code == 0
    assert out.strip() == "inconsistent"


def test_oracle_entails(ne_file, capsys):
    code, out, _ = run(
        capsys, "oracle", "entails", ne_file, "--stmt", "(1,0) >= (1,1)"
    )
    assert code == 0
    assert out.strip() == "entailed"


def test_oracle_mgs_agrees_with_construct(lex_file, capsys):
    code, brute, _ = run_json(capsys, "oracle", "mgs", lex_file)
    assert code == 0
    code, built, _ = run_json(capsys, "mg-construct", lex_file)
    assert code == 0
    assert sorted(map(sorted, brute["grounds"])) == sorted(
        map(sorted, built["grounds"])
    )


# ---------------------------------------------------------------------------
# errors and limits


def test_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/x.pref")
    assert code == 2
    assert out == ""


def test_parse_error_reported_with_position(tmp_path, capsys):
    p = tmp_path / "bad.pref"
    p.write_text("vars x:0..1\ncombiner wat\nmodels hierarchical\nstakeholder p {(0)>(1)}")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "2:10" in err
    assert "bad-combiner" in err


def test_capacity_exit_code(ne_file, capsys):
    code, _, err = run(capsys, "check", ne_file, "--max-vars-hier", "1")
    assert code == 3
    assert "stopped" in err


def test_lexicographic_timeout_exit_code(lex_file, capsys):
    code, out, err = run(capsys, "check", lex_file, "--timeout-ms", "0")
    assert code == 3
    assert "timed out" in err and out == ""


@pytest.mark.parametrize(
    "header,message",
    [
        ("vars x:0..1000000000, y:0..100\ncombiner sum\nmodels lexicographic",
         "domains declare 1000000102 values"),
        ("vars x:0..599, y:0..100\ncombiner tie\nmodels hierarchical",
         "tie combiner over 600 values"),
        # overlapping ranges count once: 0..256 is 257 values
        ("vars x:0..200, y:100..256\ncombiner tie\nmodels hierarchical",
         "tie combiner over 257 values"),
    ],
    ids=["huge-range", "tie-600", "tie-257-overlapping"],
)
def test_oversized_domains_refused_up_front(tmp_path, capsys, header, message):
    p = tmp_path / "big.pref"
    p.write_text(header + "\n\nstakeholder a {\n  (1,100) > (0,100)\n}\n")
    t0 = time.perf_counter()
    code, _, err = run(capsys, "check", str(p))
    assert code == 3
    assert message in err
    assert time.perf_counter() - t0 < 1.0


def test_domains_at_the_caps_are_accepted(tmp_path, capsys):
    p = tmp_path / "edge.pref"
    p.write_text("vars x:0..200, y:100..255\ncombiner tie\nmodels hierarchical\n"
                 "\nstakeholder a {\n  (1,100) > (0,100)\n}\n")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0, out
    assert dsl.MAX_TIE_VALUES == 256


@pytest.mark.parametrize(
    "argv",
    [
        ["mg-construct", "wide_deep.pref", "--verify", "--timeout-ms", "200"],
        ["mg-construct", "moral_machine.pref", "--timeout-ms", "100"],
    ],
    ids=["wide-deep-verify", "moral-machine"],
)
def test_timeout_binds_the_whole_request(argv, data_dir, tmp_path):
    """The deadline is armed once per request, so a command made of many
    short greedy calls stops with exit 3. ``wide_deep.pref`` is the deep
    document over domains 0..3: a language of 131,072 statements, whose
    construction and audit take about 2.5 s with no deadline."""
    (tmp_path / "wide_deep.pref").write_text(DEEP_SEARCH_TEXT.replace("0..2", "0..3"))
    argv = [str(tmp_path / a) if a == "wide_deep.pref" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "concord", *argv],
        cwd=data_dir, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "timed out" in proc.stderr
    assert time.monotonic() - t0 < 10


def test_closed_pipe_ends_quietly(data_dir):
    """A reader that stops after the first line (``| head -1``) leaves no
    traceback and no error exit. The text output is about 500 KB, far more
    than a pipe holds, so the writer meets the closed pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "concord", "mg-construct", "moral_machine.pref"],
        cwd=data_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"exists\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize(
    "argv",
    [["mg-exists"], ["mg-construct", "--language", "candidates"]],
    ids=["mg-exists", "mg-construct-candidates"],
)
def test_large_hierarchical_language_refused_up_front(tmp_path, capsys, argv):
    """10^8 alternatives: the candidate language is refused from the domain
    sizes, before any alternative is built."""
    p = tmp_path / "wide.pref"
    p.write_text("vars a:0..99, b:0..99, c:0..99, d:0..99\ncombiner max\n"
                 "models hierarchical\n\n"
                 "stakeholder x {\n  (1,0,0,0) > (0,1,0,0)\n}\n\n"
                 "stakeholder y {\n  (0,1,0,0) > (1,0,0,0)\n}\n")
    t0 = time.perf_counter()
    code, _, err = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 3
    assert "full language" in err
    assert time.perf_counter() - t0 < 1.0


def test_binary_language_cap_exit_code(lex_file, capsys):
    # lex construction scans the binary language: 2 * 3**3 = 54 statements
    code, _, err = run(capsys, "mg-construct", lex_file, "--max-language", "53")
    assert code == 3
    assert "binary language has 54 statements" in err
    code, _, _ = run(capsys, "mg-construct", lex_file, "--max-language", "54")
    assert code == 0


def test_config_file(ne_file, tmp_path, capsys):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("max_vars_hier = 1\n")
    code, _, _ = run(capsys, "check", ne_file, "--config", str(cfg))
    assert code == 3
    # flag overrides the file
    code, _, _ = run(
        capsys, "check", ne_file, "--config", str(cfg), "--max-vars-hier", "14"
    )
    assert code == 0


def test_config_unknown_key(ne_file, tmp_path, capsys):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run(capsys, "check", ne_file, "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_unknown_command_is_input_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_parser_reused_across_calls(ne_file, capsys):
    # The parser is built once per process; calls through it must not see
    # each other, so each answers exactly as it does in a fresh process.
    calls = (
        ["--help"],
        ["mg-exists", ne_file, "--bogus"],
        ["mg-exists", ne_file, "--json"],
    )
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    together = [run(capsys, *argv)[:2] for argv in calls]
    assert together == alone
    assert [code for code, _ in together] == [0, 2, 0]
    assert json.loads(together[2][1])["verdict"] == "none"


_F = str(Path(__file__).parent / "data" / "nonexistence.pref")
_S = "(0,1) >= (1,1)"
_ARGVS = [
    [], ["-h"], ["--help"], ["--json"], ["--json", "check", _F], ["frobnicate", _F],
    ["--"], ["--", "check", _F], ["Check", _F], ["check=" + _F],
]
for _cmd in ("check", "mg-exists", "oracle consistent"):
    _head = _cmd.split()
    _ARGVS += [
        _head + [_F], _head + [_F, "--json"], _head + ["--json", _F], _head + ["-h"],
        _head, _head + [_F, "extra"], _head + [_F, "--bogus"], _head + [_F, "-x"],
        _head + [_F, "--timeout-ms", "7"], _head + [_F, "--timeout-ms=abc"],
        _head + [_F, "--max-vars-hier"], _head + [_F, "--max-lang", "9", "--js"],
        _head + ["-", "--config"], _head + ["--", _F], _head + [_F, "--", "x"],
        _head + ["/no/such/file.pref"], _head + [_F, "-h", "--bogus"],
    ]
for _cmd in ("entails", "classify", "oracle entails"):
    _head = _cmd.split()
    _ARGVS += [
        _head + [_F, "--stmt", _S], _head + ["--stmt=" + _S, _F, "--json"], _head + [_F],
        _head + [_F, "--stmt"], _head + [_F, "--stmt", _S, "extra"], _head + ["-h"],
        _head + [_F, "--stmt", "(0,1)"], _head + [_F, "--stmt", _S, "--stmt", "(1,1) > (0,0)"],
    ]
for _cmd in ("mg-construct", "oracle mgs"):
    _head = _cmd.split()
    _ARGVS += [
        _head + [_F, "--language", "binary"], _head + [_F, "--language", "nope"],
        _head + [_F, "--language"], _head + [_F, "--lang", "full", "--json"],
        _head + [_F, "extra", "--language", "full"], _head + ["-h"],
    ]
_ARGVS += [
    ["mg-construct", _F, "--verify", "--json"], ["mg-construct", _F, "--ver"],
    ["gadget"], ["gadget", "-h"], ["gadget", "nope"], ["gadget", "moral-machine"],
    ["gadget", "moral-machine", "extra"], ["gadget", "nonexistence", "--json"],
    ["gadget", "subset-sum", "--set", "1,2", "--target", "3"],
    ["gadget", "subset-sum", "--set", "1,x", "--target", "3"],
    ["gadget", "subset-sum", "--set", "1,2"], ["gadget", "subset-sum", "-h"],
    ["gadget", "subset-sum", "--set", "1", "--target", "x"],
    ["gadget", "nonuniqueness", "-h", "extra"], ["gadget", _F],
    ["oracle"], ["oracle", "-h"], ["oracle", "nope", _F], ["oracle", _F],
    ["oracle", "consistent"], ["oracle", "mgs", _F, "--verify"],
]


def _outcome(capsys, parse, argv):
    """What ``parse(argv)`` returns, or its exit code, and what it printed."""
    try:
        got = vars(parse(argv))
    except SystemExit as exc:
        got = exc.code
    return (got,) + capsys.readouterr()


@pytest.mark.parametrize(
    "argv", _ARGVS, ids=lambda argv: " ".join(argv).replace(_F, "FILE") or "none"
)
def test_argv_dispatch_matches_the_top_level_parser(argv, capsys, monkeypatch):
    """A known subcommand's parser reads its arguments directly; the result,
    the output and the exit match those of the top-level parser, which stays
    the reference, and so do ``main``'s exit code, stdout and stderr."""
    from concord import cli

    ref = _build_parser().parse_args
    assert _outcome(capsys, cli._parse_argv, argv) == _outcome(capsys, ref, argv)
    fast = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_argv", ref)
    assert fast == run(capsys, *argv)


def test_json_deterministic(ne_file, capsys):
    _, first, _ = run(capsys, "mg-exists", ne_file, "--json")
    _, second, _ = run(capsys, "mg-exists", ne_file, "--json")
    assert first == second


# ---------------------------------------------------------------------------
# goldens


@pytest.mark.parametrize(
    "name,gadget_args",
    [
        ("moral_machine", ("moral-machine",)),
        ("nonuniqueness", ("nonuniqueness",)),
        ("nonexistence", ("nonexistence",)),
        ("subset_sum", ("subset-sum", "--set", "3,5,7", "--target", "8")),
    ],
)
def test_golden_documents(name, gadget_args, data_dir, capsys):
    code, out, _ = run(capsys, "gadget", *gadget_args)
    assert code == 0
    assert out == (data_dir / ("%s.pref" % name)).read_text()


@pytest.mark.parametrize(
    "name", ["moral_machine", "nonuniqueness", "nonexistence", "subset_sum"]
)
def test_golden_check_json(name, data_dir, capsys):
    code, out, _ = run(
        capsys, "check", str(data_dir / ("%s.pref" % name)), "--json"
    )
    assert code == 0
    assert out == (data_dir / ("%s.check.json" % name)).read_text()


# ---------------------------------------------------------------------------
# dependencies

_WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import concord
from concord.cli import main
for path in sys.argv[1:]:
    for argv in (["mg-exists", path], ["mg-construct", path, "--verify"]):
        code = main(argv + ["--json"])
        assert code == 0, (argv, code)
"""


def test_runs_without_numpy(tmp_path):
    """Importing concord and answering lexicographic and hierarchical
    requests never imports numpy."""
    paths = []
    for name, text in (("lex.pref", LEX_TEXT), ("hier.pref", HIER_TEXT)):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *paths],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [o["command"] for o in outs] == ["mg-exists", "mg-construct"] * 2
    assert [o["verdict"] for o in outs] == ["exists"] * 4


def test_cli_imports_the_oracle_only_for_its_subcommand():
    """Every ``concord`` process imports ``cli``; the brute-force oracle is
    imported by the ``oracle`` subcommand alone."""
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    code = "import sys, concord.cli; print('concord.oracle' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_out_the_dataclass_machinery():
    """``import concord`` and ``import concord.cli`` load neither
    ``dataclasses`` nor ``inspect``: every ``concord`` process pays for what
    these imports load."""
    env = dict(os.environ, PYTHONPATH=str(Path(concord.__file__).parents[1]))
    code = (
        "import sys, concord, concord.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
