import errno
import json
import os
import re
import subprocess
import sys
import time
from array import array

import pytest

from hochcat import category, catformat, comparison, fixtures, hochschild, nerve
from hochcat import cli as cli_module
from hochcat.cli import Command, _cap_arg, build_parser, main, parse_args
from hochcat.hochschild import DEFAULT_BASIS_CAP
from hochcat.fields import FieldSpec

from .catalog import QQ, S3, child_env
from .test_comparison import count_map_builds
from .test_hochschild import C2_PLUS_C3_TEXT, count_builds



def cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


# --- argument parsing -----------------------------------------------------------

def test_parse_compare_command():
    cmd = parse_args(["compare", "ex6", "--field", "gf:2", "--max-degree", "2"])
    assert cmd == Command(verb="compare", input="ex6", field=FieldSpec(2), max_degree=2)
    assert cmd.cap == 2_000_000


@pytest.mark.parametrize("verb", ["validate", "props", "fad", "cohomology", "compare",
                                  "derivations"])
def test_an_option_not_given_keeps_the_default_of_command(monkeypatch, verb):
    # the defaults are Command's, whether the verb takes the option or not
    monkeypatch.delenv("HOCHCAT_CAP", raising=False)
    assert parse_args([verb, "ex6"]) == Command(verb=verb, input="ex6")
    assert Command(verb=verb, input="ex6") == Command(
        verb=verb, input="ex6", field=FieldSpec(None), max_degree=3, output="text",
        cap=DEFAULT_BASIS_CAP, theory="both")


def test_parse_cohomology_with_rationals():
    cmd = parse_args(["cohomology", "path.cat", "--field", "q", "--theory", "relative"])
    assert cmd.field == FieldSpec(None)
    assert cmd.theory == "relative"
    assert cmd.max_degree == 3


def test_parse_rejects_non_prime_field():
    with pytest.raises(SystemExit) as exc:
        parse_args(["compare", "ex6", "--field", "gf:4"])
    assert exc.value.code == 2


def test_parse_rejects_bad_degree():
    with pytest.raises(SystemExit) as exc:
        parse_args(["compare", "ex6", "--max-degree", "-1"])
    assert exc.value.code == 2


def test_parse_rejects_unknown_verb():
    with pytest.raises(SystemExit) as exc:
        parse_args(["frobnicate", "ex6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "c2", "--field", "gf:2"],
    ["props", "c2", "--field", "gf:2"],
    ["fad", "c2", "--field", "gf:2"],
    ["derivations", "c2", "--max-degree", "2"],
])
def test_options_a_verb_would_drop_are_usage_errors(capsys, argv):
    # no verb parses an option it never reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("HOCHCAT_CAP", "12345")
    assert parse_args(["props", "ex6"]).cap == 12345


@pytest.mark.parametrize("env, argv", [
    ("abc", []),
    ("-1", []),
    (None, ["--cap", "-1"]),
])
def test_bad_cap_is_a_usage_error(monkeypatch, capsys, env, argv):
    if env is None:
        monkeypatch.delenv("HOCHCAT_CAP", raising=False)
    else:
        monkeypatch.setenv("HOCHCAT_CAP", env)
    with pytest.raises(SystemExit) as exc:
        main(["props", "c2", *argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cap_help_names_a_default_the_option_parses():
    sub = next(a for a in build_parser()._actions if a.dest == "verb")
    cap = next(a for a in sub.choices["compare"]._actions if a.dest == "cap")
    default = re.search(r"default (\S+),", cap.help).group(1)
    assert _cap_arg(default) == DEFAULT_BASIS_CAP


# --- verbs ------------------------------------------------------------------------

def test_compare_c2_text(capsys):
    # every row of the text table is the JSON's degree: m, the three dims,
    # the three checks and iso
    argv = ("compare", "c2", "--field", "gf:2", "--max-degree", "3")
    code, out = cli(*argv, capsys=capsys)
    assert code == 0
    assert "verdict: isomorphism" in out
    json_code, json_out = cli(*argv, "--output", "json", capsys=capsys)
    assert json_code == code
    degrees = json.loads(json_out)["degrees"]
    lines = out.splitlines()
    header = lines.index(" m | dim HH | dim rel | dim H(F^ad) | T-chain | X-chain | section | iso")
    rows = [[cell.strip() for cell in line.split("|")]
            for line in lines[header + 1:header + 1 + len(degrees)]]
    assert lines[header + 1 + len(degrees)] == "verdict: isomorphism"
    ok, yes = {True: "ok", False: "FAIL"}, {True: "yes", False: "no"}
    assert rows == [[str(d["m"]), str(d["dim_hh"]), str(d["dim_rel"]),
                     str(d["dim_simplicial_fad"]), ok[d["t_chain_ok"]], ok[d["x_chain_ok"]],
                     ok[d["section_ok"]], yes[d["iso"]]] for d in degrees]
    assert [d["m"] for d in degrees] == [0, 1, 2, 3]


def test_compare_builds_each_table_once(monkeypatch, capsys):
    # table -> the degrees compare --max-degree 2 needs (T's reads one
    # higher for the chain identities); each must be built once, on one
    # category, and the matrices as integer ones (over Q), which serve the
    # field of the run as they serve every other.  The checks
    # read T as an index array, so T is never built as a matrix, and X only
    # one degree up, for x_chain's product with δ (ex6 has two objects, so
    # the x_chain lemma does not apply).  The certified report reads the
    # relative dimensions off the nerve, so no relative (or normalized)
    # differential is built.  δ is built on two categories: on F^ad for the
    # chain identities, and on the full subcategory on the first of F^ad's
    # two equal components, the one class that is ranked.
    memos = {
        "hochschild": hochschild._full_differential,
        "sliced": hochschild._sliced_differential,
        "nerve": nerve._coboundary,
        "reads": comparison._read,
    }
    builds = {name: count_builds(monkeypatch, fn) for name, fn in memos.items()}
    builds.update({name: count_map_builds(monkeypatch, name)
                   for name in ("t_map_matrix", "x_map_matrix")})
    wanted = {"hochschild": {0, 1, 2}, "sliced": set(), "nerve": {0, 1, 2},
              "reads": {0, 1, 2, 3}, "t_map_matrix": set(), "x_map_matrix": {1, 2, 3}}
    categories = {"nerve": 2}
    code, out = cli("compare", "ex6", "--field", "gf:2", "--max-degree", "2",
                    "--output", "json", capsys=capsys)
    assert code == 0 and json.loads(out)["verdict"] == "isomorphism"
    for name, degrees in wanted.items():
        calls = builds[name]
        assert {args[-1] for _cat, args in calls} == degrees, name
        if not degrees:
            continue
        on = {cat for cat, _args in calls}
        assert len(on) == categories.get(name, 1), name
        assert all({args[-1] for c, args in calls if c == cat} == degrees for cat in on), name
        assert {args[:-1] for _cat, args in calls} in ({()}, {(QQ,)}), name
        assert set(calls.values()) == {1}, (name, calls)


def test_compare_c2_json_dims(capsys):
    code, out = cli("compare", "c2", "--field", "gf:2", "--max-degree", "3",
                    "--output", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["category", "field", "predicates", "degrees", "verdict"]
    assert [d["dim_hh"] for d in payload["degrees"]] == [2, 2, 2, 2]
    assert [d["dim_rel"] for d in payload["degrees"]] == [2, 2, 2, 2]
    assert [d["dim_simplicial_fad"] for d in payload["degrees"]] == [2, 2, 2, 2]
    assert all(d["iso"] and d["t_chain_ok"] and d["x_chain_ok"] and d["section_ok"]
               for d in payload["degrees"])
    assert payload["verdict"] == "isomorphism"
    row_keys = list(payload["degrees"][0].keys())
    assert row_keys == ["m", "dim_hh", "dim_rel", "dim_simplicial_fad",
                        "t_chain_ok", "x_chain_ok", "section_ok", "iso"]


def test_props_ex6_all_pass(capsys):
    code, out = cli("props", "ex6", capsys=capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
    assert len(lines) == 6
    assert all("PASS" in l for l in lines)


def test_props_witness_rendering(tmp_path, capsys):
    f = tmp_path / "z.cat"
    f.write_text(
        "object x\nmorphism id : x -> x identity\nmorphism z : x -> x\n"
        "compose z z = z\n", encoding="utf-8"
    )
    code, out = cli("props", str(f), capsys=capsys)
    assert code == 0
    assert "left-cancellative      FAIL" in out
    assert "witness" in out


def test_fad_c2_roundtrips_through_the_text_format(capsys):
    from hochcat import parse_category

    code, out = cli("fad", "c2", capsys=capsys)
    assert code == 0
    fad = parse_category(out)
    assert fad.n_objects == 2 and fad.n_morphisms == 4


@pytest.mark.parametrize("name", ["c2", "ex6", "empty"])
def test_fad_text_is_the_text_form_byte_for_byte(tmp_path, capsys, name):
    # text mode writes the one copy of the text form, which the JSON holds
    if name == "empty":
        f = tmp_path / "empty.cat"
        f.write_text("# no objects, no morphisms\n", encoding="utf-8")
        arg, cat = str(f), catformat.load_category(str(f))
    else:
        arg, cat = name, fixtures.builtin(name)
    text_form = catformat.category_to_text(category.adjoint_category(cat))
    code, out = cli("fad", arg, capsys=capsys)
    assert code == 0 and out == text_form
    code, out = cli("fad", arg, "--output", "json", capsys=capsys)
    assert code == 0 and json.loads(out)["fad"]["text"] == text_form
    report = cli_module.run(parse_args(["fad", arg]))
    assert report.text is report.payload["fad"]["text"]


def test_fad_reports_an_invalid_file_on_one_line(tmp_path, capsys):
    f = tmp_path / "broken.cat"
    f.write_text("object x\nmorphism f : x -> x\n", encoding="utf-8")  # no identity
    code, out = cli("fad", str(f), capsys=capsys)
    assert code == 1
    assert out.startswith("INVALID: ") and out.endswith("\n") and out.count("\n") == 1


def test_cohomology_both_theories(capsys):
    code, out = cli("cohomology", "a2", "--field", "q", "--output", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["theories"]["full"] == [1, 0, 0, 0]
    assert payload["theories"]["relative"] == [1, 0, 0, 0]
    assert payload["notices"] == []


def test_cohomology_both_eliminates_a_one_object_category_once(monkeypatch, tmp_path, capsys):
    # one object: the relative complex is the full one, so --theory both
    # copies the full dimensions, which are ranked on the normalized complex
    # with no full differential built; C2 + C3 still eliminates its relative
    # complex, and builds its full differentials only to check d∘d and the
    # homotopy identity, never ranking them
    full = count_builds(monkeypatch, hochschild._full_differential)
    routes = []
    relative_dims = cli_module.relative_cohomology_dims

    def counted(cat, *args):
        routes.append(cat.n_objects)
        return relative_dims(cat, *args)

    monkeypatch.setattr(cli_module, "relative_cohomology_dims", counted)
    argv = ["--field", "gf:2", "--max-degree", "2", "--output", "json"]
    _, both = cli("cohomology", "cn:4", *argv, capsys=capsys)
    assert routes == [] and not full
    _, relative = cli("cohomology", "cn:4", *argv, "--theory", "relative", capsys=capsys)
    assert routes == [1]
    theories = json.loads(both)["theories"]
    assert theories["full"] == theories["relative"] == json.loads(relative)["theories"]["relative"]
    path = tmp_path / "c2_plus_c3.cat"
    path.write_text(C2_PLUS_C3_TEXT)
    _, out = cli("cohomology", str(path), *argv, capsys=capsys)
    assert routes == [1, 2] and {args for _cat, args in full} == {(0,), (1,), (2,)}
    assert json.loads(out)["theories"]["relative"] == json.loads(out)["theories"]["full"]


def test_cohomology_falls_back_to_relative_over_cap(capsys):
    # the full degree-4 basis of chain:4 has 10^5 elements, far over the cap,
    # while the relative complex of a poset stays small
    code, out = cli("cohomology", "chain:4", "--field", "gf:2",
                    "--max-degree", "3", "--cap", "3000", "--output", "json",
                    capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert "full" not in payload["theories"]
    assert payload["theories"]["relative"] == [1, 0, 0, 0]
    assert payload["notices"]


def test_validate_broken_file(tmp_path, capsys):
    f = tmp_path / "broken.cat"
    f.write_text(
        "object x1\nobject x2\n"
        "morphism id1 : x1 -> x1 identity\nmorphism id2 : x2 -> x2 identity\n"
        "morphism a : x1 -> x1\nmorphism g : x1 -> x2\n"
        "compose a a = id1\n",   # g∘a missing
        encoding="utf-8",
    )
    code, out = cli("validate", str(f), "--output", "json", capsys=capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["errors"][0]["kind"] == "MissingComposite"
    assert payload["errors"][0]["g"] == "g"
    assert payload["errors"][0]["f"] == "a"


def test_validate_builtin_ok(capsys):
    code, out = cli("validate", "ex6", "--output", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["category"] == {"name": "ex6", "objects": 2, "morphisms": 6}


def test_unknown_input_is_usage_error(capsys):
    code = main(["props", "no-such-fixture"])
    assert code == 2


@pytest.mark.parametrize("name, reason", [
    ("cn:0", "fixture size must be a positive integer in 'cn:0'"),
    ("chain:0", "fixture size must be a positive integer in 'chain:0'"),
    ("chain:x", "fixture size must be a positive integer in 'chain:x'"),
    ("no-such-fixture", "'no-such-fixture' is neither a file nor a builtin fixture"),
])
def test_a_bad_fixture_name_is_refused_with_its_reason(capsys, name, reason):
    # a sized family keeps builtin's reason; a name no fixture matches gets
    # the generic message
    assert main(["cohomology", name]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_full_theory_over_cap_is_a_refusal(capsys):
    code = main(["cohomology", "chain:4", "--theory", "full",
                 "--max-degree", "3", "--cap", "3000"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["c2", "--max-degree", "25", "--cap", "131072"], "degree 17 needs 262144"),
    (["c2", "--max-degree", "25", "--cap", "131072", "--theory", "full"],
     "degree 17 needs 262144"),
    (["ex6", "--max-degree", "100000000", "--cap", "1000", "--theory", "full"],
     "degree 3 needs 1296"),
    (["ex6", "--max-degree", "100000000", "--cap", "1000", "--theory", "relative"],
     "degree 6 needs 1024"),
    (["ex6", "--max-degree", "100000000", "--cap", "1000"], "degree 6 needs 1024"),
])
def test_cap_refuses_before_any_work(capsys, argv, message):
    # every degree is checked, by running products, before the first differential
    start = time.perf_counter()
    code = main(["cohomology", *argv])
    elapsed = time.perf_counter() - start
    assert code == 2
    cap = argv[argv.index("--cap") + 1]
    assert capsys.readouterr().err == f"error: {message} basis elements, cap is {cap}\n"
    assert elapsed < 1.0


def test_cohomology_both_falls_back_exactly_past_the_full_cap(capsys):
    # chain:3 has 6 arrows, so the full degree-3 basis that --max-degree 2
    # reads has 6^4 = 1296 elements: a cap of 1296 admits both theories, and
    # 1295 leaves --theory both the relative one, with the notice, and
    # refuses --theory full
    argv = ["cohomology", "chain:3", "--field", "gf:2", "--max-degree", "2", "--output", "json"]
    code, out = cli(*argv, "--cap", "1296", capsys=capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["theories"] == {"full": [1, 0, 0], "relative": [1, 0, 0]}
    assert payload["notices"] == []
    code, out = cli(*argv, "--cap", "1295", capsys=capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["theories"] == {"relative": [1, 0, 0]}
    assert payload["notices"] == [
        "full complex exceeds cap (1295); reporting the relative complex only"]
    assert main([*argv, "--theory", "full", "--cap", "1295"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "kind": "DimensionCapExceeded",
        "message": "degree 3 needs 1296 basis elements, cap is 1295",
        "degree": 3, "required": 1296, "cap": 1295}


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "cn:100000", "--cap", "10"], "degree 1 needs 10000000000"),
    (["validate", "chain:5000", "--cap", "10"], "degree 1 needs 156312506250000"),
])
def test_sized_fixtures_are_refused_before_their_table_exists(monkeypatch, capsys, argv, message):
    # the composition table has k^2 cells for cn:k and (k(k+1)/2)^2 for chain:k
    built = []
    for name in ("cyclic_group_table", "chain_poset_matrix",
                 "group_from_table", "poset_from_relation"):
        monkeypatch.setattr(fixtures, name, lambda *a, name=name, **kw: built.append(name))
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == f"error: {message} basis elements, cap is 10\n"
    assert elapsed < 1.0
    assert built == []


def test_file_inputs_are_refused_before_validation(monkeypatch, tmp_path, capsys):
    # ex6 has 6 morphisms, so a 36-cell composition table
    f = tmp_path / "ex6.cat"
    f.write_text(catformat.category_to_text(fixtures.builtin("ex6")), encoding="utf-8")

    def refuse(raw):
        raise AssertionError("validate_category called")

    monkeypatch.setattr(catformat, "validate_category", refuse)
    for verb in ("validate", "fad"):
        assert main([verb, str(f), "--cap", "35"]) == 2
        assert capsys.readouterr().err == "error: degree 1 needs 36 basis elements, cap is 35\n"
    monkeypatch.undo()
    assert main(["validate", str(f), "--cap", "36"]) == 0


def test_non_validate_verbs_report_invalid_files(tmp_path, capsys):
    f = tmp_path / "broken.cat"
    f.write_text("object x\nmorphism f : x -> x\n", encoding="utf-8")  # no identity
    code, out = cli("props", str(f), "--output", "json", capsys=capsys)
    assert code == 1
    assert json.loads(out)["errors"][0]["kind"] == "MissingIdentity"


@pytest.mark.parametrize("verb", ["cohomology", "compare"])
def test_category_without_morphisms_has_zero_cohomology(tmp_path, capsys, verb):
    # kC = 0: every cochain space is zero, so every dimension is 0
    f = tmp_path / "empty.cat"
    f.write_text("# no objects, no morphisms\n", encoding="utf-8")
    code = main([verb, str(f), "--field", "gf:2", "--max-degree", "2"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    rows = [line.split("|") for line in captured.out.splitlines()
            if line.strip()[:1].isdigit()]
    assert len(rows) == 3
    assert all(cell.strip() == "0" for row in rows for cell in row[1:4])
    code = main([verb, str(f), "--field", "q", "--max-degree", "2", "--output", "json"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    payload = json.loads(captured.out)
    if verb == "cohomology":
        assert payload["theories"] == {"full": [0, 0, 0], "relative": [0, 0, 0]}
    else:
        assert payload["verdict"] == "isomorphism"
        assert [(d["dim_hh"], d["dim_rel"], d["dim_simplicial_fad"])
                for d in payload["degrees"]] == [(0, 0, 0)] * 3


@pytest.mark.parametrize("verb", ["validate", "cohomology"])
def test_file_that_is_not_utf8_is_invalid(tmp_path, capsys, verb):
    f = tmp_path / "bad.cat"
    f.write_bytes(b"object x\n# caf\xe9\n")
    code = main([verb, str(f), "--output", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    assert payload["errors"] == [{
        "kind": "CategoryFormatError",
        "message": "line 2: not UTF-8 text (byte 0xe9)",
        "line": 2,
    }]


def test_derivations_exit_code_3_without_hypotheses(tmp_path):
    f = tmp_path / "collapse.cat"
    f.write_text(
        "object x\nobject y\n"
        "morphism idx : x -> x identity\nmorphism a : x -> x\n"
        "morphism idy : y -> y identity\n"
        "morphism g : x -> y\nmorphism h : x -> y\n"
        "compose a a = a\ncompose g a = h\ncompose h a = h\n",
        encoding="utf-8",
    )
    assert main(["derivations", str(f)]) == 3
    assert main(["compare", str(f)]) == 3


# --- refusals: one output per exit code ---------------------------------------------

Z_MONOID = ("object x\nmorphism id : x -> x identity\nmorphism z : x -> x\n"
            "compose z z = z\n")


def refused(capsys, *argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_missing_hypothesis_is_refused_with_exit_3(tmp_path, capsys):
    # {e, z} with z∘z = z is neither left nor right cancellative
    f = tmp_path / "z.cat"
    f.write_text(Z_MONOID, encoding="utf-8")
    message = "category does not satisfy: left_cancellative, right_cancellative"
    line = json.dumps({"kind": "HypothesisViolated", "message": message,
                       "predicates": ["left_cancellative", "right_cancellative"]})
    assert refused(capsys, "compare", str(f), "--output", "json") == (3, "", line + "\n")
    assert refused(capsys, "compare", str(f)) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("verb", ["validate", "compare"])
def test_an_invalid_file_is_a_report_on_stdout_with_exit_1(tmp_path, capsys, verb):
    f = tmp_path / "broken.cat"
    f.write_text("object x\nmorphism f : x -> x\n", encoding="utf-8")  # no identity
    message = "object 'x' has no identity morphism"
    report = {"ok": False,
              "errors": [{"kind": "MissingIdentity", "message": message, "object": "x"}]}
    assert refused(capsys, verb, str(f), "--output", "json") == (
        1, json.dumps(report, indent=2) + "\n", "")
    code, out, err = refused(capsys, verb, str(f))
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == f"INVALID: {message}"
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s", out.splitlines()[1])


def exit_2_refusal(case, directory) -> tuple:
    """``(argv, kind, message, details)`` of a ``cohomology`` refused with exit 2."""
    return {
        "cap": (["ex6", "--cap", "3"], "DimensionCapExceeded",
                "degree 1 needs 12 basis elements, cap is 3",
                {"degree": 1, "required": 12, "cap": 3}),
        "size": (["cn:0"], "UnknownFixture",
                 "fixture size must be a positive integer in 'cn:0'", {}),
        "directory": ([directory], "IsADirectoryError",
                      f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {directory!r}", {}),
    }[case]


@pytest.mark.parametrize("case", ["cap", "size", "directory"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_a_refused_input_is_one_stderr_line_with_exit_2(tmp_path, capsys, case, output):
    # under JSON the line is the error's payload, as for exit 3
    argv, kind, message, details = exit_2_refusal(case, str(tmp_path))
    line = (json.dumps({"kind": kind, "message": message, **details}) if output == "json"
            else f"error: {message}")
    assert refused(capsys, "cohomology", *argv, "--output", output) == (2, "", line + "\n")


@pytest.mark.parametrize("option, value, message", [
    ("--max-degree", "x", "bad degree 'x'"),
    ("--max-degree", "-1", "degree must be nonnegative"),
    ("--cap", "x", "bad cap 'x'"),
    ("--cap", "-1", "cap must be nonnegative"),
])
def test_an_option_that_is_no_nonnegative_integer_is_a_usage_error(capsys, option, value,
                                                                   message):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "ex6", option, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


@pytest.mark.parametrize("verb", ["compare", "derivations"])
@pytest.mark.parametrize("field", ["gf:2", "q"])
@pytest.mark.parametrize("name", ["cn:4", "s3"])
def test_a_catalog_group_lists_no_chain(monkeypatch, tmp_path, capsys, verb, field, name):
    # the nerve of F^ad is addressed by prefix offsets (the package lists no
    # tuple chain) and T is an index array: neither verb builds T or X as a
    # matrix (Theorem B restricts them from T's reads)
    if name == "s3":
        name = tmp_path / "s3.cat"
        name.write_text(catformat.category_to_text(S3), encoding="utf-8")
    maps = [count_map_builds(monkeypatch, fn) for fn in ("t_map_matrix", "x_map_matrix")]
    code, _out = cli(verb, str(name), "--field", field, "--output", "json", capsys=capsys)
    assert code == 0
    assert not any(maps)


def test_compare_refuses_before_building_fad(monkeypatch, tmp_path, capsys):
    # {e, z} with z∘z = z is not left cancellative
    f = tmp_path / "z.cat"
    f.write_text(
        "object x\nmorphism id : x -> x identity\nmorphism z : x -> x\n"
        "compose z z = z\n", encoding="utf-8"
    )
    builds = count_builds(monkeypatch, category.adjoint_category)
    assert main(["compare", str(f)]) == 3
    assert "left_cancellative" in capsys.readouterr().err
    assert not builds


def test_derivations_reuse_the_full_differential_of_one_object(monkeypatch, capsys):
    # cn:3 has one object, so its relative d_m is the memoized full d_m,
    # the integer matrix itself
    cat = fixtures.builtin("cn:3")
    for m in range(3):
        assert hochschild.relative_differential_matrix(cat, m) is \
            hochschild.hochschild_differential_matrix(cat, m)
    argv = ["derivations", "cn:3", "--field", "q", "--output", "json"]
    code, shared = cli(*argv, capsys=capsys)
    assert code == 0
    monkeypatch.setattr(hochschild, "relative_is_full", lambda cat: False)
    assert cli(*argv, capsys=capsys) == (code, shared)


def test_compare_surjection_tier(tmp_path, capsys):
    f = tmp_path / "parallel.cat"
    f.write_text(
        "object x\nobject y\n"
        "morphism idx : x -> x identity\nmorphism idy : y -> y identity\n"
        "morphism u : x -> y\nmorphism v : x -> y\n",
        encoding="utf-8",
    )
    code, out = cli("compare", str(f), "--max-degree", "1", "--output", "json",
                    capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "surjection"
    assert payload["predicates"]["rr_transitive"]["holds"] is False
    assert payload["degrees"][1]["iso"] is False


def misread(degree, column):
    """``comparison._read`` with row 0 of T^degree reading ``column(read)``."""
    honest = comparison._read

    def misread(cat, m):
        read = honest(cat, m)
        if m == degree:
            read = array("l", read)
            read[0] = column(read)
        return read
    return misread


@pytest.mark.parametrize("cell", [(0, 0), (0, 4)])
def test_compare_reports_a_broken_chain_identity_as_failed(monkeypatch, capsys, cell):
    # moving the read of row 0 of T^0 onto or off column cell[1] breaks its
    # chain identity; off column 0 it lands on row 1's column, so section
    # fails as well, which must still end in a report
    _row, c = cell
    monkeypatch.setattr(comparison, "_read", misread(0, lambda read: c if read[0] != c else c + 1))
    code, out = cli("compare", "ex6", "--field", "gf:2", "--max-degree", "2",
                    "--output", "json", capsys=capsys)
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == ["category", "field", "predicates", "degrees", "verdict"]
    assert payload["verdict"] == "failed"
    first = payload["degrees"][0]
    assert list(first) == ["m", "dim_hh", "dim_rel", "dim_simplicial_fad",
                           "t_chain_ok", "x_chain_ok", "section_ok", "iso"]
    assert first["t_chain_ok"] is False and first["iso"] is False
    assert all(d["t_chain_ok"] and d["iso"] for d in payload["degrees"][1:])


def test_compare_a_group_with_a_misread_chain_prints_the_basis_route(monkeypatch, capsys):
    # one chain of T^1 reads the wrong column, so the checks fail and the
    # group ranks its nerve too: the JSON is the one the basis route, which
    # counts on cocycle bases, prints when no category is taken for one object
    monkeypatch.setattr(comparison, "_read", misread(1, lambda read: (read[0] + 1) % 4))
    argv = ("compare", "c2", "--field", "gf:2", "--max-degree", "2", "--output", "json")
    code, out = cli(*argv, capsys=capsys)
    assert code == 1 and json.loads(out)["verdict"] == "failed"
    monkeypatch.setattr(comparison, "relative_is_full", lambda cat: False)
    assert cli(*argv, capsys=capsys) == (code, out)


def test_derivations_c2(capsys):
    code, out = cli("derivations", "c2", "--field", "gf:2", "--output", "json",
                    capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_graded_derivations"] == 2
    assert payload["dim_characters"] == 2
    assert payload["bijection"] is True
    assert payload["matrix"]["rows"] == 2 and payload["matrix"]["cols"] == 2


def test_derivations_honours_the_cap(monkeypatch, capsys):
    # the F^ad 2-chains and the relative sizes are counted, never enumerated
    builds = [count_builds(monkeypatch, fn)
              for fn in (hochschild._slice, nerve._layer)]
    start = time.perf_counter()
    # cn:4 has a 16-cell composition table, so a cap of 16 admits the fixture
    code = main(["derivations", "cn:4", "--cap", "16"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == "error: degree 2 needs 64 basis elements, cap is 16\n"
    assert elapsed < 1.0
    assert not any(builds)
    # under the default cap the chains are addressed; with one object the
    # relative basis is the full one and is never listed
    assert main(["derivations", "cn:4"]) == 0
    assert builds[1] and not builds[0]
    # the counters are live: with two objects both lists are built
    assert main(["derivations", "ex6"]) == 0
    assert all(builds)


def test_json_has_no_timing_key(capsys):
    _code, out = cli("compare", "triv", "--output", "json", capsys=capsys)
    assert "elapsed" not in out
    _code, out = cli("compare", "triv", capsys=capsys)
    assert "elapsed" in out


def test_json_deterministic_in_process(capsys):
    args = ["compare", "ex6", "--field", "gf:2", "--max-degree", "2", "--output", "json"]
    code1, out1 = cli(*args, capsys=capsys)
    code2, out2 = cli(*args, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "hochcat", "props", "c2"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "rr-transitive" in proc.stdout
