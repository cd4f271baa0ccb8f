import json
import random

import pytest

from conftest import path_quiver_text
from stringbricks import cli, sturmian
from stringbricks.cli import main
from stringbricks.algebra import format_presentation
from stringbricks.presets import GAMMA_TEXT, lambda_n_text
from stringbricks.strings import Context
from stringbricks.sturmian import BRIDGE_CAP, PREFIX_CAP


@pytest.fixture()
def lambda3_file(tmp_path):
    f = tmp_path / "lambda3.alg"
    f.write_text(lambda_n_text(3))
    return str(f)


@pytest.fixture()
def gamma_file(tmp_path):
    f = tmp_path / "gamma.alg"
    f.write_text(GAMMA_TEXT)
    return str(f)


def run_json(capsys, argv):
    code = main(argv + ["--json"] if "--json" not in argv else argv)
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "stringbricks/1"
    assert doc["exit_code"] == code
    return code, doc


def test_validate(lambda3_file, gamma_file, capsys):
    code, doc = run_json(capsys, ["validate", lambda3_file])
    assert code == 0 and doc["is_string_algebra"] and doc["is_gentle"]
    code, doc = run_json(capsys, ["validate", gamma_file])
    assert code == 0 and doc["is_string_algebra"] and not doc["is_gentle"]


def test_validate_long_path(tmp_path, capsys):
    f = tmp_path / "path.alg"
    f.write_text(path_quiver_text(1500))
    code, doc = run_json(capsys, ["validate", str(f)])
    assert code == 0 and doc["admissibility_bound"] == 1500


def test_validate_counterexample(tmp_path, capsys):
    f = tmp_path / "loop.alg"
    f.write_text("vertex v\narrow a v v\n")
    code, doc = run_json(capsys, ["validate", str(f)])
    assert code == 1
    assert any(v["condition"] == "III" for v in doc["violations"])


def test_signs(lambda3_file, capsys):
    code, doc = run_json(capsys, ["signs", lambda3_file])
    assert code == 0
    assert doc["signs"]["a1"] == [1, 1]


def test_signs_rejected(tmp_path, capsys):
    text = lambda_n_text(3) + "".join(
        f"sign {a} +1 +1\n" for a in ("a1", "b1", "a2", "b2"))
    f = tmp_path / "bad.alg"
    f.write_text(text)
    code, doc = run_json(capsys, ["signs", str(f)])
    assert code == 1 and "(a)" in doc["error"]


def test_build_mia(gamma_file, tmp_path, capsys):
    dot = tmp_path / "gamma.dot"
    code, doc = run_json(capsys, ["build-mia", gamma_file, "--dot", str(dot)])
    assert code == 0 and doc["states"] == 28 and doc["transitions"] == 32
    assert dot.read_text().startswith("digraph")
    code, doc = run_json(capsys, ["build-mia", gamma_file, "--parity"])
    assert code == 0 and doc["states"] == 28
    assert " 1 " in doc["mia"]  # binary letters in the emitted format


def test_strings_and_bands(lambda3_file, capsys):
    code, doc = run_json(capsys, ["strings", lambda3_file, "--max-len", "1"])
    assert code == 0 and doc["count"] == 14
    code, doc = run_json(capsys, ["bands", lambda3_file, "--max-len", "2"])
    assert code == 0 and doc["bands"] == ["a1' b1", "a2' b2"]


def test_check_string_brick_all(lambda3_file, capsys):
    code, doc = run_json(capsys, ["check-string-brick", lambda3_file, "b1 a1'",
                                  "--method", "all"])
    assert code == 0
    assert [r["method"] for r in doc["reports"]] == ["direct", "automaton", "endo"]
    assert all(r["verdict"] for r in doc["reports"])


def test_check_string_brick_false(lambda3_file, capsys):
    code, doc = run_json(capsys, ["check-string-brick", lambda3_file,
                                  "b1 a1' a2' b2"])
    assert code == 1 and doc["verdict"] is False


def test_check_string_brick_bad_literal(lambda3_file, capsys):
    code, doc = run_json(capsys, ["check-string-brick", lambda3_file, "b2 a1"])
    assert code == 2 and "relation" in doc["error"]


def test_check_band_brick(lambda3_file, capsys):
    code, doc = run_json(capsys, ["check-band-brick", lambda3_file, "a2' b2",
                                  "--l", "1"])
    assert code == 0
    code, doc = run_json(capsys, ["check-band-brick", lambda3_file, "a2' b2",
                                  "--l", "2"])
    assert code == 1
    assert any(r["reason"] == "l must be 1" for r in doc["reports"])


@pytest.mark.parametrize("method", ["direct", "automaton", "endo", "all"])
def test_check_band_brick_lambda_zero_is_input_error(method, lambda3_file, capsys):
    """lambda is read in F_32003, where endo solves: a multiple of 32003 is
    zero there, and every route refuses it."""
    for lam in ("0", "32003", "-32003"):
        argv = ["check-band-brick", lambda3_file, "a2' b2", "--l", "1",
                "--lambda", lam, "--method", method]
        assert main(argv) == 2
        assert capsys.readouterr().out == "error: lambda must be nonzero\n"
        code, doc = run_json(capsys, argv)
        assert code == 2 and doc["error"] == "lambda must be nonzero"
        assert "reports" not in doc and "verdict" not in doc


@pytest.mark.parametrize("method", ["endo", "all"])
def test_check_band_brick_lambda_zero_is_refused_before_the_cap(method, lambda3_file,
                                                                capsys):
    """Endo's cap would trip at l = 500; lambda is refused first, as the
    other routes refuse it."""
    for lam in ("0", "32003"):
        argv = ["check-band-brick", lambda3_file, "a2' b2", "--l", "500",
                "--lambda", lam, "--method", method]
        code, doc = run_json(capsys, argv)
        assert code == 2 and doc["error"] == "lambda must be nonzero"


def test_check_band_brick_not_a_band(lambda3_file, capsys):
    code, doc = run_json(capsys, ["check-band-brick", lambda3_file, "b1 a1'",
                                  "--l", "1"])
    assert code == 2 and "not a band" in doc["error"]


def test_enumerate_bricks(lambda3_file, capsys):
    code, doc = run_json(capsys, ["enumerate-bricks", lambda3_file,
                                  "--max-len", "2"])
    assert code == 0
    assert "b1 a1'" in doc["string_bricks"]
    assert "a2' b2" in doc["band_bricks"]


@pytest.mark.parametrize("command", ["strings", "bands", "enumerate-bricks"])
def test_negative_max_len_is_input_error(command, lambda3_file, capsys):
    code, doc = run_json(capsys, [command, lambda3_file, "--max-len", "-1"])
    assert code == 2 and "max_len" in doc["error"]
    assert "strings" not in doc and "string_bricks" not in doc


@pytest.mark.parametrize("command, literal", [
    ("check-string-brick", "b1 a1' a2' b2"),
    ("check-band-brick", "a1' a2' b2 a2' b2 b1 a1' b1"),
])
def test_json_witness_fields_are_strings(command, literal, lambda3_file, capsys):
    argv = [command, lambda3_file, literal, "--method", "all"]
    if command == "check-band-brick":
        argv += ["--l", "1"]
    code, doc = run_json(capsys, argv)
    assert code == 1
    witnesses = [r["witness"] for r in doc["reports"] if r["witness"] is not None]
    assert len(witnesses) == 2  # direct and automaton
    for w in witnesses:
        assert isinstance(w["content"], str)
        assert w["image_host"] in ("x", "x-inverse")
        for side in ("factor", "image"):
            assert isinstance(w[side]["start"], int) and isinstance(w[side]["end"], int)
            for edge in ("before", "after"):
                assert w[side][edge] is None or isinstance(w[side][edge], str)


def test_sturmian_check(capsys):
    code, doc = run_json(capsys, ["sturmian", "--directive", "1,(1)",
                                  "--prefix", "200", "--check"])
    assert code == 0 and doc["violation"] is None


def test_sturmian_bridge(capsys):
    code, doc = run_json(capsys, ["sturmian", "--directive", "1,(1)",
                                  "--prefix", "120", "--check", "--bridge"])
    assert code == 0
    assert doc["bridge_report"]["witness"] is None
    assert doc["bridge_consistent"] is True


def test_sturmian_bridge_past_its_cap_exits_3(capsys):
    code, doc = run_json(capsys, ["sturmian", "--directive", "1,(1)", "--prefix",
                                  str(BRIDGE_CAP + 1), "--check", "--bridge"])
    assert code == 3 and f"cap {BRIDGE_CAP} " in doc["error"]
    assert doc["violation"] is None


@pytest.mark.parametrize("prefix", [120, BRIDGE_CAP + 1])
@pytest.mark.parametrize("as_json", [False, True])
def test_sturmian_check_and_bridge_test_balance_once(prefix, as_json,
                                                     monkeypatch, capsys):
    # the CLI reports the bridge's own window check; a window the bridge
    # refuses at its cap is checked once by the CLI, before the cap error
    calls = []
    balanced = sturmian._balanced
    monkeypatch.setattr(sturmian, "_balanced",
                        lambda u: calls.append(len(u)) or balanced(u))
    argv = ["sturmian", "--directive", "1,(1)", "--prefix", str(prefix),
            "--check", "--bridge"] + ["--json"] * as_json
    code = main(argv)
    assert calls == [prefix]
    assert code == (0 if prefix <= BRIDGE_CAP else 3)
    if not as_json:
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "sturmian window check: ok"
        assert lines[-1].startswith("bridge cross-check" if code == 0
                                    else "cap exceeded")


def test_sturmian_prefix_past_its_cap_exits_3(capsys):
    code, doc = run_json(capsys, ["sturmian", "--directive", "1,(1)", "--prefix",
                                  str(PREFIX_CAP + 1)])
    assert code == 3 and doc["error"].endswith(f"cap {PREFIX_CAP}")
    code, doc = run_json(capsys, ["sturmian", "--directive", "1,(1)", "--prefix", "0"])
    assert code == 2


def test_sturmian_bad_directive(capsys):
    code, doc = run_json(capsys, ["sturmian", "--directive", "1,(", "--prefix", "10"])
    assert code == 2


def test_recover_roundtrip_cli(lambda3_file, gamma_file, tmp_path, capsys):
    code, doc = run_json(capsys, ["build-mia", lambda3_file, "--parity"])
    miafile = tmp_path / "l3.mia"
    miafile.write_text(doc["mia"])
    code, doc = run_json(capsys, ["recover", str(miafile)])
    assert code == 0 and doc["vertices"] == 3 and doc["arrows"] == 4
    code, doc = run_json(capsys, ["roundtrip", gamma_file])
    assert code == 0 and doc["isomorphic"]
    assert doc["vertex_map"]


def test_recover_rejects_duplicate_state(lambda3_file, tmp_path, capsys):
    code, doc = run_json(capsys, ["build-mia", lambda3_file, "--parity"])
    line = next(x for x in doc["mia"].splitlines() if " initial " in x)
    miafile = tmp_path / "dup.mia"
    miafile.write_text(doc["mia"] + line + "\n")
    code, doc = run_json(capsys, ["recover", str(miafile)])
    assert code == 2 and "duplicate state" in doc["error"]
    assert main(["recover", str(miafile)]) == 2


def test_unknown_file(capsys):
    code, doc = run_json(capsys, ["validate", "/nonexistent.alg"])
    assert code == 2


def test_directory_as_file_is_input_error(tmp_path, capsys):
    argv = ["check-string-brick", str(tmp_path), "b1 a1'"]
    code, doc = run_json(capsys, argv)
    assert code == 2 and doc["error"]
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("error:")


@pytest.mark.parametrize("raising", ["write", "flush"])
def test_closed_stdout_is_input_error(lambda3_file, monkeypatch, raising):
    # an unbuffered stdout fails on write, a buffered one on flush
    class ClosedPipe:
        failures = 0

        def write(self, text):
            if raising == "write":
                self.fail()

        def flush(self):
            if raising == "flush":
                self.fail()

        def fail(self):
            ClosedPipe.failures += 1
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    for argv in (["strings", lambda3_file, "--max-len", "6", "--json"],
                 ["check-string-brick", lambda3_file, "b1 a1'"]):
        ClosedPipe.failures = 0
        assert main(argv) == 2
        assert ClosedPipe.failures == 1  # the report is not emitted again


@pytest.mark.parametrize("raising", ["write", "flush"])
def test_closed_stdout_on_help_is_input_error(monkeypatch, raising):
    # argparse prints --help itself, outside the report's emit
    class ClosedPipe:
        def write(self, text):
            if raising == "write":
                raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            if raising == "flush":
                raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    for argv in (["--help"], ["check-string-brick", "--help"]):
        assert main(argv) == 2


def test_human_output(lambda3_file, capsys):
    code = main(["check-string-brick", lambda3_file, "b1 a1'", "--method", "direct"])
    out = capsys.readouterr().out
    assert code == 0 and "direct: brick" in out


def test_cap_exit_code(lambda3_file, capsys, monkeypatch):
    import stringbricks.cli as climod
    from stringbricks.strings import CapExceeded

    def boom(self, max_len, cap=0):
        raise CapExceeded("too many")

    monkeypatch.setattr(climod.Context, "enumerate_strings", boom)
    code = main(["strings", lambda3_file, "--max-len", "9"])
    assert code == 3


def test_internal_error_is_not_a_verdict(lambda3_file, capsys, monkeypatch):
    import stringbricks.cli as climod

    def boom(ctx, x):
        raise RuntimeError("basepoint-shift spot-check failed")

    monkeypatch.setattr(climod, "string_brick_automaton", boom)
    argv = ["check-string-brick", lambda3_file, "b1 a1'"]
    assert main(argv) == climod.INTERNAL_ERROR == 4
    out = capsys.readouterr().out
    assert out.startswith("internal error: RuntimeError: basepoint-shift")
    assert "brick" not in out
    code, doc = run_json(capsys, argv)
    assert code == 4 and doc["error_kind"] == "internal"
    assert "spot-check" in doc["error"] and "verdict" not in doc


@pytest.mark.parametrize("argv,expect_code", [
    (["validate", "{l3}"], 0),
    (["signs", "{l3}"], 0),
    (["strings", "{l3}", "--max-len", "2"], 0),
    (["bands", "{l3}", "--max-len", "2"], 0),
    (["check-string-brick", "{l3}", "b1 a1'"], 0),
    (["check-string-brick", "{l3}", "b1 a1' a2' b2"], 1),
    (["check-band-brick", "{l3}", "a2' b2", "--l", "1"], 0),
    (["check-band-brick", "{l3}", "a2' b2", "--l", "2"], 1),
    (["roundtrip", "{gamma}"], 0),
])
def test_structured_and_human_verdicts_agree(argv, expect_code, lambda3_file,
                                             gamma_file, capsys):
    argv = [a.format(l3=lambda3_file, gamma=gamma_file) for a in argv]
    human_code = main(argv)
    capsys.readouterr()
    json_code, doc = run_json(capsys, argv + ["--json"])
    assert human_code == json_code == expect_code


def text_verdicts(text: str) -> list[bool]:
    """Each report line's verdict, in order."""
    out = []
    for line in text.splitlines():
        method, sep, rest = line.partition(": ")
        if sep and method in ("direct", "automaton", "endo"):
            out.append(rest.startswith("brick "))
            assert out[-1] or rest.startswith("not a brick "), line
    return out


def text_matches_json(capsys, argv) -> list[bool]:
    """Text mode and --json give the same exit code and the same three
    verdicts on a check-*-brick --method all call; returns the verdicts."""
    text_code = main(argv)
    verdicts = text_verdicts(capsys.readouterr().out)
    json_code, doc = run_json(capsys, argv)
    assert text_code == json_code, argv
    assert verdicts == [r["verdict"] for r in doc["reports"]], argv
    assert len(verdicts) == 3 and doc["verdict"] == verdicts[0], argv
    return verdicts


def test_text_and_json_agree_on_every_small_case(lambda3_file, gamma_file, capsys):
    """Text mode and --json give the same exit code and the same verdicts on
    every string of <= 4 syllables and every band of <= 4 at l = 1, 2."""
    cases, seen = 0, set()
    for path in (lambda3_file, gamma_file):
        ctx = cli._load_context(path)
        argvs = [["check-string-brick", path, Context.format_literal(x), "--method", "all"]
                 for x in ctx.enumerate_strings(4)]
        argvs += [["check-band-brick", path, Context.format_literal(b.string),
                   "--l", str(l), "--method", "all"]
                  for b in ctx.enumerate_bands(4) for l in (1, 2)]
        for argv in argvs:
            seen.update(text_matches_json(capsys, argv))
            cases += 1
    assert cases > 100 and seen == {True, False}


def test_text_and_json_agree_on_sampled_corpus_cases(corpus, tmp_path, capsys):
    """The same agreement on a seeded sample of the acceptance corpus's
    strings of 5-8 syllables, past the small cases above, and on each of
    its bands of <= 8 syllables at l = 1 or 2."""
    rng = random.Random(21)
    strings, argvs = [], []
    for i, ctx in enumerate(corpus):
        path = tmp_path / f"corpus{i}.alg"
        path.write_text(format_presentation(ctx.presentation))
        strings += [(path, x) for x in ctx.enumerate_strings(8) if len(x) > 4]
        argvs += [["check-band-brick", str(path), Context.format_literal(b.string),
                   "--l", str(rng.randint(1, 2)), "--method", "all"]
                  for b in ctx.enumerate_bands(8)]
    argvs += [["check-string-brick", str(path), Context.format_literal(x), "--method", "all"]
              for path, x in rng.sample(strings, 80)]
    seen = set()
    for argv in argvs:
        seen.update(text_matches_json(capsys, argv))
    assert len(argvs) > 90 and seen == {True, False}


def test_signs_declared(gamma_file, capsys):
    code, doc = run_json(capsys, ["signs", gamma_file])
    assert code == 0
    assert doc["signs"]["a3"] == [-1, 1]
    assert doc["signs"]["c3"] == [-1, -1]


def test_shift_spot_check_exits_internal(lambda3_file, capsys, request):
    argv = ["check-string-brick", lambda3_file, "b1 a1'", "--method", "automaton"]
    assert main(argv) == 0
    capsys.readouterr()
    request.getfixturevalue("tampered_gap_zero_classes")
    assert main(argv) == 4
    assert capsys.readouterr().out.startswith("internal error: RuntimeError")
    code, doc = run_json(capsys, argv)
    assert code == 4 and doc["error_kind"] == "internal"
    assert "basepoint shift" in doc["error"] and "verdict" not in doc


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_shared_parser_answers_like_a_fresh_one(lambda3_file, tmp_path, capsys,
                                                monkeypatch):
    # a mixed run of calls, each answered once by the shared tree and once by
    # a tree built for that call alone: no state may leak between calls
    main(["build-mia", lambda3_file, "--parity", "--json"])
    miafile = tmp_path / "lambda3.mia"
    miafile.write_text(json.loads(capsys.readouterr().out)["mia"])
    calls = [
        ["validate", lambda3_file],
        ["signs", lambda3_file, "--json"],
        ["build-mia", lambda3_file],
        ["strings", lambda3_file, "--max-len", "3", "--json"],
        ["--help"],
        ["bands", lambda3_file, "--max-len", "4"],
        ["check-string-brick", lambda3_file, "b1 a1'", "--json"],
        ["check-string-brick", "--help"],
        ["check-band-brick", lambda3_file, "a2' b2", "--l", "2", "--lambda", "3"],
        ["strings", lambda3_file],
        ["enumerate-bricks", lambda3_file, "--max-len", "3", "--json"],
        ["no-such-command", lambda3_file],
        ["sturmian", "--directive", "1,(1)", "--prefix", "40", "--check", "--bridge"],
        ["recover", str(miafile), "--json"],
        ["roundtrip", lambda3_file],
        ["validate", lambda3_file, "--json"],
    ]

    def answers():
        out = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as stop:
                code = ("exit", stop.code)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    shared = answers()
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    fresh = answers()
    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes[4] == codes[7] == ("exit", 0)
    assert codes[9] == codes[11] == ("exit", 2)
    assert codes[-1] == 0
