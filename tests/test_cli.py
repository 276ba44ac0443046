"""Command-line surface: subcommands, JSON schema, exit codes, goldens."""

import io
import json
import os
import subprocess
import sys
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
