import os
import subprocess
import sys
from pathlib import Path

import pytest

import crkit.documents
import crkit.hypersurface
import crkit.rank
import crkit.reflection
from crkit import corpus
from crkit.cli import _build_arg_parser, main
from crkit.documents import parse_document, write_document
from crkit.errors import GeometryError, PrerequisiteError
from crkit.hypersurface import from_defining
from crkit.parser import parse_expr
from crkit.series import TruncatedSeries

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_sphere(capsys):
    code, out, err = run(capsys, "analyze", CORPUS / "sphere.crkit")
    assert code == 0
    assert "n: 2; order: 8" in out
    assert "reality: ok" in out
    assert "normal: yes" in out
    assert "minimal: yes (rank 2, certified)" in out
    assert "degeneracy: 0 (rank 2 at cutoff 7, certified, stabilized)" in out
    assert "holomorphically nondegenerate: yes" in out
    assert "phi-family witnesses: (0) (1)" in out


def test_analyze_quadric(capsys):
    code, out, _ = run(capsys, "analyze", CORPUS / "degenerate_quadric.crkit")
    assert code == 0
    assert "minimal: yes (rank 3, certified)" in out
    assert "degeneracy: 1 (rank 2 at cutoff 7, certified, stabilized)" in out
    assert "holomorphically nondegenerate: no" in out
    assert "phi-family witnesses: (0,0) (1,1)" in out


def test_analyze_levi_flat(capsys):
    code, out, _ = run(capsys, "analyze", CORPUS / "levi_flat.crkit")
    assert code == 0
    assert "minimal: no" in out


def test_analyze_non_normal_reports_germ_invariants(capsys):
    code, out, _ = run(capsys, "analyze", CORPUS / "perturbed_sphere.crkit")
    assert code == 0
    assert "normal: no" in out
    # invariants match the sphere it straightens to
    assert "minimal: yes (rank 2, certified)" in out
    assert "degeneracy: 0" in out


def test_analyze_respects_order_flag(capsys):
    code, out, _ = run(capsys, "analyze", "--order", "4", CORPUS / "sphere.crkit")
    assert code == 0
    assert "n: 2; order: 4" in out


def test_analyze_order_above_document_is_input_error(capsys):
    code, _, err = run(
        capsys, "analyze", "--order", "12", CORPUS / "sphere.crkit"
    )
    assert code == 2
    assert "order" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.crkit")
    assert code == 2
    assert err


def test_analyze_garbage_document(tmp_path, capsys):
    bad = tmp_path / "bad.crkit"
    bad.write_text("not a document\n", encoding="ascii")
    code, _, err = run(capsys, "analyze", bad)
    assert code == 2


def test_analyze_non_real_document_is_a_failed_check(tmp_path, capsys):
    # the document parses; the geometric check on its series fails
    text = (CORPUS / "sphere.crkit").read_text(encoding="ascii")
    bad = tmp_path / "non_real.crkit"
    bad.write_text(text.replace("term 1 0 1 0 -1/1 0/1", "term 1 0 1 0 0/1 -1/1"),
                   encoding="ascii")
    code, out, err = run(capsys, "analyze", bad)
    assert code == 1
    assert out == ""
    assert err.startswith("check failed: defining series is not real")


def test_analyze_uncertified_rank_fails_only_when_strict(monkeypatch, capsys):
    # with no minor budget every rank stays probable
    monkeypatch.setitem(crkit.rank.matrix_generic_rank.__kwdefaults__, "minor_budget", 0)
    code, out, err = run(capsys, "analyze", CORPUS / "sphere.crkit")
    assert code == 1
    assert "minimal: no (rank 0, probable)" in out
    assert "rank status: probable only (minor budget exhausted)" in out
    assert "failure: rank not certified" in err
    code, out, err = run(capsys, "analyze", "--no-strict", CORPUS / "sphere.crkit")
    assert code == 0
    assert "rank status: probable only (minor budget exhausted)" in out
    assert err == ""


# ---------------------------------------------------------------------------
# normalize


def test_normalize_writes_sphere_document(tmp_path, capsys):
    out_path = tmp_path / "normalized.crkit"
    code, out, _ = run(
        capsys,
        "normalize",
        CORPUS / "perturbed_sphere.crkit",
        "-o",
        out_path,
    )
    assert code == 0
    golden = (CORPUS / "sphere.crkit").read_bytes()
    produced = out_path.read_bytes()
    assert produced == golden
    assert "z2 -> z2 + z1^2" in out


def test_normalize_doc_format_prints_document(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--format",
        "doc",
        CORPUS / "perturbed_sphere.crkit",
    )
    assert code == 0
    assert out.encode("ascii") == (CORPUS / "sphere.crkit").read_bytes()


def test_normalize_already_normal_is_identity(tmp_path, capsys):
    out_path = tmp_path / "same.crkit"
    code, out, _ = run(
        capsys, "normalize", CORPUS / "sphere.crkit", "-o", out_path
    )
    assert code == 0
    assert out_path.read_bytes() == (CORPUS / "sphere.crkit").read_bytes()


def test_normalize_prints_the_change_of_an_n3_germ(tmp_path, capsys):
    # a straight axis with p = z3 + z1^2 + 2 z1 z2 - (2/3) z1^2 z3 + ...,
    # whose inverse is the change
    germ = tmp_path / "g.crkit"
    rho = parse_expr(
        "-(i/2)*(z3 + z1^2 + 2*z1*z2 - w3 - w1^2 - 2*w1*w2) - z1*w1 - z2*w2"
        " + (i/3)*(z3*z1^2 - w3*w1^2)",
        "z:3,w:3",
        6,
    )
    write_document(germ, from_defining(rho, 3))
    code, out, _ = run(capsys, "normalize", germ, "-o", tmp_path / "n.crkit")
    assert code == 0
    lines = out.splitlines()
    for line in ("  z1 -> z1", "  z2 -> z2", "  z3 -> z3 + 2*z1*z2 + z1^2 - 2/3*z1^2*z3"):
        assert line in lines


def test_normalize_refuses_overwrite_without_force(tmp_path, capsys):
    out_path = tmp_path / "exists.crkit"
    out_path.write_text("occupied\n", encoding="ascii")
    code, _, err = run(
        capsys, "normalize", CORPUS / "perturbed_sphere.crkit", "-o", out_path
    )
    assert code == 2
    assert "exists" in err
    assert out_path.read_text(encoding="ascii") == "occupied\n"
    code, _, _ = run(
        capsys,
        "normalize",
        "--force",
        CORPUS / "perturbed_sphere.crkit",
        "-o",
        out_path,
    )
    assert code == 0
    assert out_path.read_bytes() == (CORPUS / "sphere.crkit").read_bytes()


@pytest.mark.parametrize("error, code, prefix", [
    (PrerequisiteError("normalize first"), 2, "error: "),
    (GeometryError("not real"), 1, "check failed: "),
])
def test_a_package_error_from_a_command_sets_the_exit_code(monkeypatch, capsys, error, code, prefix):
    # a CrkitError that no command turns into a verdict is an error, and a
    # GeometryError, itself a CrkitError, is a failed check
    def failing(path, order, cutoff, strict, fmt):
        raise error

    monkeypatch.setattr("crkit.cli.cmd_analyze", failing)
    got, out, err = run(capsys, "analyze", CORPUS / "sphere.crkit")
    assert (got, out, err) == (code, "", f"{prefix}{error}\n")


def test_normalize_failed_replace_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "existing.crkit"
    out_path.write_text("occupied\n", encoding="ascii")

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, err = run(
        capsys, "normalize", "--force", CORPUS / "perturbed_sphere.crkit", "-o", out_path
    )
    assert code == 2
    assert "No space left on device" in err
    assert out_path.read_text(encoding="ascii") == "occupied\n"
    assert [p.name for p in tmp_path.iterdir()] == ["existing.crkit"]


def test_normalize_writes_through_a_symlink(tmp_path, capsys):
    out_path = tmp_path / "real.crkit"
    out_path.write_text("occupied\n", encoding="ascii")
    link = tmp_path / "link.crkit"
    link.symlink_to(out_path)
    code, _, _ = run(
        capsys, "normalize", "--force", CORPUS / "perturbed_sphere.crkit", "-o", link
    )
    assert code == 0
    assert link.is_symlink()
    assert out_path.read_bytes() == (CORPUS / "sphere.crkit").read_bytes()


# ---------------------------------------------------------------------------
# check-map


def test_check_map_dilation_passes(capsys):
    code, out, _ = run(
        capsys,
        "check-map",
        "-s",
        CORPUS / "sphere.crkit",
        "-t",
        CORPUS / "sphere.crkit",
        "-f",
        CORPUS / "sphere_dilation.crkit",
    )
    assert code == 0
    assert "mapping identity: pass" in out
    assert "order checked: 8" in out
    assert "biholomorphism: yes" in out
    assert "segre reflection identity: pass" in out


def test_check_map_builds_each_segre_map_once(monkeypatch, capsys):
    # the identity's minimality prerequisite builds v1 and v2, and v3 is
    # one more step from that v2
    built = []
    original = crkit.hypersurface._next_segre

    def counting(surface, v):
        result = original(surface, v)
        built.append(result.source_nvars)
        return result

    for module in (crkit.hypersurface, crkit.reflection):
        monkeypatch.setattr(module, "_next_segre", counting)
    sphere = CORPUS / "sphere.crkit"
    code, out, _ = run(
        capsys, "check-map", "-s", sphere, "-t", sphere, "-f", CORPUS / "sphere_dilation.crkit"
    )
    assert code == 0
    assert "segre reflection identity: pass" in out
    assert built == [1, 2, 3]


def test_check_map_corrupted_fails_with_monomial(capsys):
    code, out, _ = run(
        capsys,
        "check-map",
        "-s",
        CORPUS / "sphere.crkit",
        "-t",
        CORPUS / "sphere.crkit",
        "-f",
        CORPUS / "sphere_corrupted.crkit",
    )
    assert code == 1
    assert "mapping identity: FAIL" in out
    assert "least offending monomial: z1*w1 (degree 2, coefficient 1)" in out


def test_check_map_shear_passes(capsys):
    code, out, _ = run(
        capsys,
        "check-map",
        "-s",
        CORPUS / "degenerate_quadric.crkit",
        "-t",
        CORPUS / "degenerate_quadric.crkit",
        "-f",
        CORPUS / "exp_shear.crkit",
    )
    assert code == 0
    assert "mapping identity: pass" in out


def test_check_map_doc_format(capsys):
    code, out, _ = run(
        capsys,
        "check-map",
        "--format",
        "doc",
        "-s",
        CORPUS / "sphere.crkit",
        "-t",
        CORPUS / "sphere.crkit",
        "-f",
        CORPUS / "sphere_dilation.crkit",
    )
    assert code == 0
    assert out.startswith("crkit-series/1\nkind map-report\n")
    assert out.endswith("end\n")


def test_check_map_order_flag(capsys):
    code, out, _ = run(
        capsys,
        "check-map",
        "--order",
        "4",
        "-s",
        CORPUS / "sphere.crkit",
        "-t",
        CORPUS / "sphere.crkit",
        "-f",
        CORPUS / "sphere_dilation.crkit",
    )
    assert code == 0
    assert "order checked: 4" in out


# ---------------------------------------------------------------------------
# reflect


def reflect_into(capsys, tmp_path, map_name, *extra):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys,
        "reflect",
        "-s",
        CORPUS / "degenerate_quadric.crkit",
        "-t",
        CORPUS / "degenerate_quadric.crkit",
        "-f",
        CORPUS / map_name,
        "-o",
        out_dir,
        *extra,
    )
    return code, out, err, out_dir


def test_reflect_writes_artifacts(tmp_path, capsys):
    code, out, _, out_dir = reflect_into(capsys, tmp_path, "exp_shear.crkit")
    assert code == 0
    for name in ("report.crkit", "g.crkit", "gf.crkit", "generators.crkit"):
        assert (out_dir / name).exists(), name
    assert "partial convergence witnesses: (1,1) (0,0)" in out
    assert "transcendence bound: 1" in out
    assert "r0 = 7.937005259841e-01" in out
    assert "family is polynomial" in out


def test_reflect_artifacts_identical_across_shears(tmp_path, capsys):
    code, _, _, first = reflect_into(capsys, tmp_path / "a", "exp_shear.crkit")
    assert code == 0
    code, _, _, second = reflect_into(
        capsys, tmp_path / "b", "exp_shear_double.crkit"
    )
    assert code == 0
    for name in ("report.crkit", "g.crkit", "gf.crkit", "generators.crkit"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_reflect_artifacts_parse_back(tmp_path, capsys):
    code, _, _, out_dir = reflect_into(capsys, tmp_path, "exp_shear.crkit")
    assert code == 0
    g = parse_document((out_dir / "g.crkit").read_text(encoding="ascii"))
    gf = parse_document((out_dir / "gf.crkit").read_text(encoding="ascii"))
    gens = parse_document(
        (out_dir / "generators.crkit").read_text(encoding="ascii")
    )
    assert len(g.components) == 2
    assert len(gf.components) == 2
    assert len(gens.components) == 2


@pytest.mark.parametrize("existing", [False, True])
def test_reflect_writes_its_artifacts_as_one_set(tmp_path, capsys, monkeypatch, existing):
    # the third artifact fails while it is staged, as on a full disk
    names = ["report.crkit", "g.crkit", "gf.crkit", "generators.crkit"]
    old = {}
    if existing:
        (tmp_path / "out").mkdir()
        for name in names:
            old[name] = f"from an older run: {name}\n".encode()
            (tmp_path / "out" / name).write_bytes(old[name])
    staged = []

    def failing_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if "w" in mode:
            staged.append(file)
            if len(staged) == 3:
                handle.close()
                raise OSError(28, "No space left on device")
        return handle

    monkeypatch.setattr(crkit.documents, "open", failing_open, raising=False)
    extra = ("--force",) if existing else ()
    code, out, err, out_dir = reflect_into(capsys, tmp_path, "exp_shear.crkit", *extra)
    assert (code, out, err) == (2, "", "error: [Errno 28] No space left on device\n")
    assert len(staged) == 3
    # no artifact replaced and no temporary file left
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == old


def test_reflect_refuses_failing_map(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "reflect",
        "-s",
        CORPUS / "sphere.crkit",
        "-t",
        CORPUS / "sphere.crkit",
        "-f",
        CORPUS / "sphere_corrupted.crkit",
        "-o",
        out_dir,
    )
    assert code == 1
    assert "refus" in err.lower()
    assert not out_dir.exists()


def test_reflect_cutoff_above_order_is_input_error(tmp_path, capsys):
    code, _, err, _ = reflect_into(
        capsys, tmp_path, "exp_shear.crkit", "--cutoff", "9"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# refusals: a prerequisite the source lacks, inputs that do not fit


def test_check_map_skips_the_identity_on_a_levi_flat_source(capsys):
    argv = ["check-map", "-s", CORPUS / "levi_flat.crkit", "-t", CORPUS / "levi_flat.crkit",
            "-f", CORPUS / "sphere_dilation.crkit"]
    code, out, _ = run(capsys, *argv, "--format", "doc")
    assert code == 0
    assert "identity skipped" in out.splitlines()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (
        "segre reflection identity: skipped (source must be minimal with a "
        "certified rank at this order)"
    ) in out.splitlines()


def test_reflect_refuses_a_source_that_is_not_minimal(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "reflect", "-s", CORPUS / "levi_flat.crkit", "-t", CORPUS / "levi_flat.crkit",
        "-f", CORPUS / "sphere_dilation.crkit", "-o", out_dir,
    )
    assert (code, out) == (1, "")
    assert err.startswith("refusing to reflect: source must be minimal ")
    assert not out_dir.exists()


@pytest.mark.parametrize("source, target, mapname, message", [
    ("sphere", "sphere", "exp_shear", "map must send 2 variables to 2, got 3 -> 3"),
    ("sphere", "degenerate_quadric", "sphere_dilation", "source and target must share the dimension"),
    ("sphere", "sphere", "sphere", "{map}: expected a map document"),
])
def test_check_map_refuses_inputs_that_do_not_fit(capsys, source, target, mapname, message):
    path = CORPUS / f"{mapname}.crkit"
    code, out, err = run(
        capsys, "check-map", "-s", CORPUS / f"{source}.crkit", "-t", CORPUS / f"{target}.crkit",
        "-f", path,
    )
    assert (code, out, err) == (2, "", f"error: {message.format(map=path)}\n")


def test_analyze_refuses_a_map_document(capsys):
    path = CORPUS / "sphere_dilation.crkit"
    code, out, err = run(capsys, "analyze", path)
    assert (code, out, err) == (2, "", f"error: {path}: expected a hypersurface document\n")


def test_analyze_refuses_a_document_without_a_kind_line(tmp_path, capsys):
    path = tmp_path / "no_kind.crkit"
    path.write_text("crkit-series/1\nvars x:1\nend\n", encoding="ascii")
    code, out, err = run(capsys, "analyze", path)
    message = f"error: {path}: line 2: expected 'kind' line, found 'vars x:1'\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("command, name", [
    ("analyze", "sphere.crkit"),
    ("check-map", "sphere_dilation.crkit"),
])
def test_a_document_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command, name):
    # the corpus document with a 0xff byte in its kind line
    data = (CORPUS / name).read_bytes().replace(b"kind ", b"kind \xff", 1)
    path = tmp_path / name
    path.write_bytes(data)
    surface = CORPUS / "sphere.crkit"
    argv = [command, path] if command == "analyze" else [command, "-s", surface, "-t", surface, "-f", path]
    code, out, err = run(capsys, *argv)
    offset = data.index(b"\xff")
    message = f"error: {path}: not UTF-8: byte 0xff at offset {offset} does not decode\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("command", ["check-map", "reflect"])
def test_a_map_written_at_order_one_is_an_input_error(tmp_path, capsys, command):
    # the sphere document is fine; the map only guarantees order 1
    path = tmp_path / "dilation_1.crkit"
    write_document(path, corpus.sphere_dilation(8).truncate(1), (("z", 2),))
    surface = CORPUS / "sphere.crkit"
    argv = [command, "-s", surface, "-t", surface, "-f", path]
    if command == "reflect":
        argv += ["-o", tmp_path / "out"]
    code, out, err = run(capsys, *argv)
    message = "error: inputs only guarantee order 1; the order must be at least 2\n"
    assert (code, out, err) == (2, "", message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "normalize"])
def test_a_hypersurface_written_at_order_one_is_an_input_error(tmp_path, capsys, command):
    # the sphere's document cut to its terms of degree 1
    path = tmp_path / "sphere1.crkit"
    text = (CORPUS / "sphere.crkit").read_text(encoding="ascii")
    lines = text.splitlines(keepends=True)
    path.write_text("".join([*lines[:4], "order 1\n", "terms 2\n", *lines[6:8], *lines[-2:]]))
    out_path = tmp_path / "normal.crkit"
    argv = [command, path] + (["-o", out_path] if command == "normalize" else [])
    code, out, err = run(capsys, *argv)
    message = f"error: {path}: line 5: defining series needs order >= 2, got 1\n"
    assert (code, out, err) == (2, "", message)
    assert not out_path.exists()


def test_cutoff_above_the_document_order_is_input_error(tmp_path, capsys):
    path = tmp_path / "sphere6.crkit"
    write_document(str(path), corpus.sphere(6))
    code, out, err = run(capsys, "analyze", path, "--cutoff", "7")
    assert (code, out, err) == (2, "", "error: --cutoff 7 exceeds the effective order 6\n")


@pytest.mark.parametrize("command", ["normalize", "analyze"])
def test_a_germ_one_normalize_step_cannot_straighten_is_refused(tmp_path, capsys, command):
    # pins the one-step limit of normalize: a germ whose normal form needs a
    # second step is refused, and no document is written
    path = tmp_path / "two_steps.crkit"
    rho = parse_expr("-(i/2)*(z2-w2) - z1*w1 + z2^2 + w2^2", "z:2,w:2", 6)
    write_document(str(path), from_defining(rho, 2))
    out_path = tmp_path / "normal.crkit"
    argv = [command, path] + (["-o", out_path] if command == "normalize" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "check failed: the graph substitution did not yield normal coordinates "
        "for this input; its normal form needs more than one step\n"
    )
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# config validation and hygiene


def test_unknown_subcommand_is_input_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_order_floor(capsys):
    code, _, err = run(
        capsys, "analyze", "--order", "1", CORPUS / "sphere.crkit"
    )
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--order", "12"], "inputs only guarantee order 8, --order 12 asks for more"),
    (["--cutoff", "9"], "cutoff must be between 1 and the order"),
    (["--order", "4", "--cutoff", "5"], "cutoff must be between 1 and the order"),
])
def test_order_and_cutoff_errors_are_exact(capsys, flags, message):
    code, out, err = run(capsys, "analyze", CORPUS / "sphere.crkit", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_inputs_never_mutated(tmp_path, capsys):
    source = (CORPUS / "perturbed_sphere.crkit").read_bytes()
    copy = tmp_path / "input.crkit"
    copy.write_bytes(source)
    run(capsys, "normalize", copy, "-o", tmp_path / "out.crkit")
    assert copy.read_bytes() == source


def test_analyze_doc_format_round_trips(capsys):
    code, out, _ = run(
        capsys, "analyze", "--format", "doc", CORPUS / "sphere.crkit"
    )
    assert code == 0
    assert out.startswith("crkit-series/1\n")
    assert out.endswith("end\n")


# ---------------------------------------------------------------------------
# one parser per process
#
# main builds its parser once and reuses it, so calls in one process must
# print exactly what each prints alone in a fresh interpreter. Help and
# usage text wrap at the terminal width, so both sides run at COLUMNS=80
# from the repository root, where the relative paths below resolve.


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)


def in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on a bad flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def fresh_process(argv):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "crkit.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_shot_process_matches_in_process_main(at_root, capsys):
    doc = ["analyze", "corpus/sphere.crkit", "--format", "doc"]
    bad_order = ["analyze", "corpus/sphere.crkit", "--order", "-1"]
    result = in_process(capsys, doc)
    assert result[0] == 0 and result[1].startswith(b"crkit-series/1\n")
    assert fresh_process(doc) == result
    result = in_process(capsys, bad_order)
    assert result == (2, b"", b"error: order must be at least 2\n")
    assert fresh_process(bad_order) == result


def test_main_keeps_no_parse_state_between_calls(at_root, tmp_path, capsys):
    out = str(tmp_path / "normal.crkit")
    calls = [
        ["analyze", "--format", "doc", "--order", "4", "corpus/sphere.crkit"],
        ["analyze", "corpus/sphere.crkit"],
        ["normalize", "corpus/perturbed_sphere.crkit", "-o", out, "--force"],
        ["normalize", "corpus/perturbed_sphere.crkit"],
        ["analyze", "--no-strict", "corpus/levi_flat.crkit"],
        ["analyze", "corpus/levi_flat.crkit"],
        ["analyze", "--bogus", "corpus/sphere.crkit"],
        ["analyze", "--format", "xml", "corpus/sphere.crkit"],
        ["check-map", "-s", "corpus/sphere.crkit", "-t", "corpus/sphere.crkit",
         "-f", "corpus/sphere_dilation.crkit"],
    ]
    results = [in_process(capsys, argv) for argv in calls]
    codes = [code for code, _, _ in results]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0]
    # an unknown flag is refused under the command's own usage
    assert results[6][2].startswith(b"usage: crkit analyze [-h] ")
    assert results[6][2].endswith(b"crkit: error: unrecognized arguments: --bogus\n")
    assert results[7][2].startswith(b"usage: crkit analyze [-h] ")
    for argv, result in zip(calls, results):
        assert fresh_process(argv) == result, argv


def test_parser_defaults_return_after_flags():
    parser = _build_arg_parser()
    assert parser is _build_arg_parser()
    default = vars(parser.parse_args(["normalize", "h.crkit"]))
    parser.parse_args(["normalize", "h.crkit", "-o", "x", "--force", "--order", "4",
                       "--format", "doc"])
    assert vars(parser.parse_args(["normalize", "h.crkit"])) == default
    assert default == {
        "command": "normalize", "hypersurface": "h.crkit", "out": None, "force": False,
        "order": None, "fmt": "text",
    }


# ---------------------------------------------------------------------------
# each command takes only the flags it reads
#
# --strict/--no-strict belongs to analyze, --cutoff to analyze and reflect.
# Anywhere else it is an unknown flag, refused by argparse like any other.

SPHERE_SELF_MAP = ["-s", "corpus/sphere.crkit", "-t", "corpus/sphere.crkit",
                   "-f", "corpus/sphere_dilation.crkit"]


@pytest.mark.parametrize("argv, unknown", [
    (["normalize", "corpus/perturbed_sphere.crkit", "--no-strict"], "--no-strict"),
    (["normalize", "corpus/perturbed_sphere.crkit", "--cutoff", "2"], "--cutoff 2"),
    (["check-map", *SPHERE_SELF_MAP, "--cutoff", "2"], "--cutoff 2"),
    (["check-map", *SPHERE_SELF_MAP, "--no-strict"], "--no-strict"),
    (["reflect", *SPHERE_SELF_MAP, "-o", "never-written", "--no-strict"], "--no-strict"),
])
def test_a_flag_the_command_does_not_read_is_refused(at_root, capsys, argv, unknown):
    result = in_process(capsys, argv)
    code, out, err = result
    assert (code, out) == (2, b"")
    # the usage printed is the command's own, which lists the flags it takes
    assert err.startswith(f"usage: crkit {argv[0]} [-h] ".encode())
    assert err.endswith(f"crkit: error: unrecognized arguments: {unknown}\n".encode())
    assert fresh_process(argv) == result
    assert not (ROOT / "never-written").exists()


# Pinned from the last version whose commands all took both flags: the
# flags that stay print the same bytes and write the same files.

GOLDEN_CLI = ROOT / "tests" / "golden" / "cli"
QUADRIC_SELF_MAP = ["-s", "corpus/degenerate_quadric.crkit", "-t", "corpus/degenerate_quadric.crkit",
                    "-f", "corpus/exp_shear.crkit"]


@pytest.mark.parametrize("name, argv", [
    ("analyze_no_strict_cutoff_3", ["analyze", "corpus/levi_flat.crkit", "--no-strict", "--cutoff", "3"]),
    ("analyze_no_strict_cutoff_3_doc",
     ["analyze", "corpus/levi_flat.crkit", "--no-strict", "--cutoff", "3", "--format", "doc"]),
    ("reflect_cutoff_3_doc", ["reflect", *QUADRIC_SELF_MAP, "--cutoff", "3", "--format", "doc"]),
])
def test_kept_flags_print_the_pinned_bytes(at_root, tmp_path, capsys, name, argv):
    golden = GOLDEN_CLI / name
    outdir = tmp_path / "out"
    if argv[0] == "reflect":
        argv = [*argv, "-o", str(outdir)]
    assert in_process(capsys, argv) == (0, (golden / "stdout.txt").read_bytes(), b"")
    written = {path.name: path.read_bytes() for path in outdir.glob("*")}
    assert written == {
        path.name: path.read_bytes() for path in golden.iterdir() if path.name != "stdout.txt"
    }


# ---------------------------------------------------------------------------
# one germ per document
#
# When -t names the same path as -s, the hypersurface is parsed once and is
# both source and target. A byte-identical copy under another name takes
# the two-document path; both must print and write the same bytes, bar the
# target's name on the text report.


SELF_MAP_CASES = [
    ("check-map", "sphere", "sphere_dilation"),
    ("check-map", "sphere", "sphere_corrupted"),
    ("check-map", "degenerate_quadric", "exp_shear"),
    ("reflect", "sphere", "sphere_rotation"),
    ("reflect", "degenerate_quadric", "exp_shear_double"),
]


def self_map_run(capsys, workdir, command, surface, mapname, copy_target, flags):
    source = target = CORPUS / f"{surface}.crkit"
    workdir.mkdir()
    if copy_target:
        target = workdir / "copy.crkit"
        target.write_bytes(source.read_bytes())
    argv = [command, "-s", source, "-t", target, "-f", CORPUS / f"{mapname}.crkit", *flags]
    if command == "reflect":
        argv += ["-o", workdir / "out"]
    code, out, err = run(capsys, *argv)
    out = out.replace(str(target), str(source)).replace(str(workdir), "WORK")
    written = sorted((workdir / "out").iterdir()) if command == "reflect" else []
    return code, out, err, {path.name: path.read_bytes() for path in written}


@pytest.mark.parametrize("flags", [
    ["--format", "text"], ["--format", "doc"], ["--format", "doc", "--order", "6"],
])
@pytest.mark.parametrize("command, surface, mapname", SELF_MAP_CASES)
def test_self_map_on_one_path_matches_a_copied_target(tmp_path, capsys, command, surface, mapname, flags):
    same = self_map_run(capsys, tmp_path / "same", command, surface, mapname, False, flags)
    copied = self_map_run(capsys, tmp_path / "copied", command, surface, mapname, True, flags)
    assert same == copied
    assert same[0] == (1 if mapname == "sphere_corrupted" else 0)
    assert len(same[3]) == (4 if command == "reflect" else 0)


# ---------------------------------------------------------------------------
# the commands read series only through the integer form


HYPERSURFACES = [
    "sphere.crkit", "levi_flat.crkit", "degenerate_quadric.crkit", "perturbed_sphere.crkit",
]
MAP_CASES = [
    ("sphere.crkit", "sphere.crkit", "sphere_dilation.crkit"),
    ("sphere.crkit", "sphere.crkit", "sphere_rotation.crkit"),
    ("sphere.crkit", "sphere.crkit", "sphere_corrupted.crkit"),
    ("degenerate_quadric.crkit", "degenerate_quadric.crkit", "exp_shear.crkit"),
    ("degenerate_quadric.crkit", "degenerate_quadric.crkit", "exp_shear_double.crkit"),
]


def test_commands_never_decode_the_terms_view(monkeypatch, tmp_path, capsys):
    reads = []
    decode = TruncatedSeries._terms.fget

    def counting(series):
        reads.append(series)
        return decode(series)

    monkeypatch.setattr(TruncatedSeries, "_terms", property(counting))
    codes = []
    for fmt in ("text", "doc"):
        for name in HYPERSURFACES:
            out = tmp_path / f"{fmt}-{name}"
            codes.append(run(capsys, "analyze", CORPUS / name, "--no-strict", "--format", fmt)[0])
            codes.append(run(capsys, "normalize", CORPUS / name, "-o", out, "--format", fmt)[0])
        for index, (source, target, fmap) in enumerate(MAP_CASES):
            triple = ["-s", CORPUS / source, "-t", CORPUS / target, "-f", CORPUS / fmap]
            codes.append(run(capsys, "check-map", *triple, "--format", fmt)[0])
            outdir = tmp_path / f"{fmt}-reflect-{index}"
            codes.append(run(capsys, "reflect", *triple, "-o", outdir, "--force", "--format", fmt)[0])
    assert set(codes) <= {0, 1}
    assert codes.count(0) > len(codes) // 2
    assert reads == []
    # the counter sees a read when one happens
    TruncatedSeries.constant(1, 1, 1).sorted_terms()
    assert len(reads) == 1
