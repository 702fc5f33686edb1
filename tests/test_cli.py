import json
from dataclasses import replace
from importlib import resources

import pytest

from irlab import cli, params
from irlab.cli import (EXIT_BUDGET, EXIT_CROSSCHECK, EXIT_GOLDEN, EXIT_INPUT, EXIT_NOT_SOP,
                       EXIT_OK, corpus_index, load_corpus_spec, load_ring_spec, main)
from irlab.errors import SearchExhausted
from irlab.groebner import Ideal

PLANE_LINE = {
    "label": "plane and line",
    "characteristic": 32003,
    "variables": ["x", "y", "z"],
    "ideal": ["x*y", "x*z"],
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(PLANE_LINE))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze --------------------------------------------------------------------

def test_analyze_plane_line(spec_file, capsys):
    code, out, _ = run(capsys, "analyze", spec_file)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dim"] == 2
    assert report["depth"] == 1
    assert report["socle_dims"] == [0, 1, 1]
    assert report["flags"]["seq_cm"] is True
    assert report["flags"]["unmixed"] is False
    steps = report["filtration"]["steps"]
    assert steps[-1]["ideal"] == ["x"]
    assert report["char"] == 32003
    assert report["version"] == "0.1.0"
    ann = report["diagnostics"]["cohomology_annihilators"]
    assert ann["a_ideals"] == [["1"], ["z", "y"]]
    assert ann["a_product"] == ["z", "y"]
    assert ann["n0"] is None


def plane_line_with_power(tmp_path, power):
    """S/(xy, xz, x^power): Ann H^0 = (z, y, x^(power-1)), so n0 = power - 1."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(dict(PLANE_LINE, ideal=["x*y", "x*z", f"x^{power}"])))
    return str(path)


@pytest.mark.parametrize("power", [66, 600])
def test_analyze_reads_n0_past_any_cap(power, tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", plane_line_with_power(tmp_path, power))
    assert code == EXIT_OK
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["cohomology_annihilators"]["n0"] == power - 1
    assert diagnostics["upper_bound_gcm"] == power


def test_stable_threshold_reads_n0_past_any_cap(tmp_path, capsys):
    code, out, _ = run(capsys, "stable", plane_line_with_power(tmp_path, 66))
    assert code == EXIT_OK
    note = json.loads(out)["cross_checks"]["gcm_binomial"]["note"]
    assert note == "deep threshold 2*n0 = 130"


def test_analyze_two_planes_corpus(capsys, tmp_path):
    data = json.loads((resources.files("irlab") / "corpus" / "two_planes_3d.json").read_text())
    path = tmp_path / "tp.json"
    path.write_text(json.dumps({
        "label": data["label"],
        "characteristic": data["characteristic"],
        "variables": data["variables"],
        "ideal": data["ideal"],
    }))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dim"] == 3 and report["depth"] == 2
    assert report["socle_dims"] == [0, 0, 1, 2]
    assert report["flags"]["unmixed"] is True


def test_analyze_unit_ideal_rejected(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({**PLANE_LINE, "ideal": ["1"]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT
    assert "unit ideal" in err


def test_analyze_bad_polynomial(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**PLANE_LINE, "ideal": ["x*w"]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT
    assert "position" in err


def test_analyze_unmixed_component_disagreeing_with_the_filtration_exits_3(
        spec_file, capsys, monkeypatch):
    # the filtration's top step of plane_and_line is (x), not the ideal itself
    monkeypatch.setattr(cli, "unmixed_component", lambda ideal, seed, report: ideal)
    code, out, err = run(capsys, "analyze", spec_file)
    assert code == EXIT_CROSSCHECK and out == ""
    assert err.startswith("internal cross-check failure: the unmixed component")
    assert err.count("\n") == 1


@pytest.mark.parametrize("extra,argv", [
    ([], ("--params", "y,\u00b2")),
    (["1" * 5000 + "*x*y"], ()),
    (["x^" + "1" * 5000], ()),
], ids=["superscript-param", "long-coefficient", "long-exponent"])
def test_unreadable_literal_is_one_input_error(extra, argv, tmp_path, capsys):
    # each ended in a ValueError traceback: int() refused the superscript two
    # and any literal past the interpreter's 4,300-digit conversion limit
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(PLANE_LINE | {"ideal": PLANE_LINE["ideal"] + extra}))
    code, out, err = run(capsys, "ir", str(path), *argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_analyze_corrupt_json(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT


def test_analyze_text_mode(spec_file, capsys):
    code, out, _ = run(capsys, "analyze", spec_file, "--text")
    assert code == EXIT_OK
    assert "socle_dims" in out and "{" not in out.splitlines()[0]


def test_reports_byte_identical(spec_file, capsys):
    _, first, _ = run(capsys, "analyze", spec_file, "--seed", "7")
    _, second, _ = run(capsys, "analyze", spec_file, "--seed", "7")
    assert first == second


# -- ir ----------------------------------------------------------------------------

def test_ir_with_params(spec_file, capsys):
    code, out, _ = run(capsys, "ir", spec_file, "--params", "y-x,z")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["diagnostics"]["ir"]["value"] == 1
    assert report["diagnostics"]["ir"]["agree"] is True


def test_ir_on_a_long_artinian_quotient(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"variables": ["t"], "ideal": []}))
    code, out, _ = run(capsys, "ir", str(path), "--params", "t^700")
    assert code == EXIT_OK
    ir = json.loads(out)["diagnostics"]["ir"]
    assert (ir["value"], ir["length"], ir["agree"]) == (1, 700, True)


def test_ir_with_params_builds_the_quotient_once(spec_file, capsys, monkeypatch):
    # the sop check and both ir routes share one I + (elements)
    calls = []
    add = Ideal.__add__

    def counted(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(Ideal, "__add__", counted)
    code, out, _ = run(capsys, "ir", spec_file, "--params", "y-x,z")
    assert code == EXIT_OK
    assert json.loads(out)["diagnostics"]["ir"]["value"] == 1
    assert len(calls) == 1


@pytest.mark.parametrize("params", ["y-1,z", "y-x^2,z", "y-x,z+x^3"])
def test_ir_rejects_inhomogeneous_params_up_front(params, spec_file, capsys, monkeypatch):
    # y-1 is a unit at the origin yet passed the global sop check; these ran
    # the sop check and the kernel route before failing in the socle count
    import irlab.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the sop check ran on inhomogeneous parameters")

    monkeypatch.setattr(cli_mod, "is_system_of_parameters", refuse)
    code, out, err = run(capsys, "ir", spec_file, "--params", params)
    bad = [s for s in params.split(",") if s not in ("z", "y-x")][0]
    assert code == EXIT_INPUT and out == ""
    assert err == f"input error: parameter {bad!r} is not homogeneous\n"


def test_ir_rejects_non_sop(spec_file, capsys):
    code, _, err = run(capsys, "ir", spec_file, "--params", "y,z")
    assert code == EXIT_NOT_SOP
    assert "not a system of parameters" in err


def test_ir_constructs_certified_system(spec_file, capsys):
    code, out, _ = run(capsys, "ir", spec_file, "--seed", "4")
    assert code == EXIT_OK
    report = json.loads(out)
    ir = report["diagnostics"]["ir"]
    assert ir["value"] == 2
    assert ir["certificate"]["method"] == "ann-product-cube"


def test_ir_routes_disagreeing_exit_3(spec_file, capsys, monkeypatch):
    spans = params._socle_by_degreewise_spans

    def one_more(gens, ring_):
        socle, length = spans(gens, ring_)
        return socle + 1, length

    monkeypatch.setattr(params, "_socle_by_degreewise_spans", one_more)
    code, out, err = run(capsys, "ir", spec_file)
    assert code == EXIT_CROSSCHECK and out == ""
    assert err.startswith("internal cross-check failure: socle via spans")
    assert err.count("\n") == 1


def test_exhausted_search_exits_2_naming_the_stage(spec_file, capsys, monkeypatch):
    def exhausted(ideal, constraint, min_degree, rng):
        raise SearchExhausted("no parameter element found in the constraint ideal "
                              "(degrees tried: [1, 2])", [1, 2])

    monkeypatch.setattr(params, "find_parameter_element", exhausted)
    code, out, err = run(capsys, "ir", spec_file)
    assert code == EXIT_BUDGET and out == ""
    assert err == ("budget exhausted: stage 2: no parameter element found in the "
                   "constraint ideal (degrees tried: [1, 2])\n")


# -- stable / limit -------------------------------------------------------------------

def test_stable_command(spec_file, capsys):
    code, out, _ = run(capsys, "stable", spec_file, "--trials", "3")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["stable_value"] == 2
    assert report["diagnostics"]["stability"]["all_agree"] is True
    assert report["cross_checks"]["socle_sum"]["matches"] is True


def test_internal_invariant_exits_3(spec_file, capsys, monkeypatch):
    # Skew every quotient's socle vector above H^0 so the filtration formula
    # of formula_seq disagrees with the socle sum it must collapse to.
    import irlab.stable as stable_mod
    real = stable_mod.socle_dimensions

    def skewed(M):
        s = real(M)
        if M.cyclic_ideal is not None and M.cyclic_ideal.gens == (M.ring.parse("x"),):
            return (s[0],) + tuple(v + 1 for v in s[1:])
        return s

    monkeypatch.setattr(stable_mod, "socle_dimensions", skewed)
    code, _, err = run(capsys, "stable", spec_file, "--trials", "1")
    assert code == EXIT_CROSSCHECK
    assert err.startswith("internal cross-check failure: filtration formula")
    assert err.count("\n") == 1


def test_disagreeing_rerun_prints_the_report_then_exits_3(spec_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "stability_suite", lambda ideal, trials, seed: [2, 3])
    code, out, err = run(capsys, "stable", spec_file)
    assert code == EXIT_CROSSCHECK
    stability = json.loads(out)["diagnostics"]["stability"]
    assert stability == {"trials": [2, 3], "all_agree": False}
    assert err == ("cross-check failure: an applicable formula or a rerun disagrees "
                   "with the stable value\n")


def test_out_of_memory_exits_2(spec_file, capsys, monkeypatch):
    # numpy's allocation failure is a MemoryError too; either way the run
    # fails closed with one line, not a traceback.
    import irlab.cli as cli_mod

    def exhausted(M):
        raise MemoryError("Unable to allocate 3.27 GiB")

    monkeypatch.setattr(cli_mod, "socle_dimensions", exhausted)
    code, out, err = run(capsys, "analyze", spec_file)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("budget exhausted:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("ideal", [["x^2147483648*y", "x*z"],
                                   ["x^2147483646*z + z^2147483647", "z^2"]])
def test_exponent_past_packed_field_exits_2(tmp_path, capsys, ideal):
    # The first needs 2^31 in an exponent field of the input, the second in
    # an S-polynomial: both stop with one line, never a carry into the next field.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(PLANE_LINE | {"ideal": ideal}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("budget exhausted: ") and "32-bit" in err
    assert err.count("\n") == 1


def test_limit_command(spec_file, capsys):
    code, out, _ = run(capsys, "limit", spec_file, "--nmax", "2", "--samples", "6")
    assert code == EXIT_OK
    report = json.loads(out)
    levels = report["alpha_profile"]["levels"]
    assert len(levels) == 2
    assert levels[1]["min_ir"] == 2
    assert report["alpha_profile"]["estimate_kind"] == "empirical upper-bound estimate"


# -- corpus and golden runner ------------------------------------------------------------

def test_corpus_index_is_complete():
    index = corpus_index()
    assert len(index["golden"]) == 3
    assert len(index["cm_controls"]) == 4
    assert len(index["random_squarefree"]) == 20


def test_corpus_specs_all_load():
    index = corpus_index()
    for group in ("golden", "cm_controls", "random_squarefree"):
        for name in index[group]:
            spec = load_corpus_spec(name)
            assert spec.ideal.ring.p == 32003
            assert not spec.ideal.is_unit()


def test_reproduce_filter(capsys):
    code, out, _ = run(capsys, "reproduce-examples", "--filter", "Northcott")
    assert code == EXIT_OK
    assert "pass" in out and "Northcott" in out


def test_failed_golden_assertion_exits_5(capsys, monkeypatch):
    real = cli.stable_value
    monkeypatch.setattr(cli, "stable_value",
                        lambda ideal, **kw: replace(real(ideal, **kw), value=3))
    code, out, err = run(capsys, "reproduce-examples", "--filter", "Northcott")
    assert code == EXIT_GOLDEN
    assert "FAIL" in out and "N 3, top socle 2" in out
    assert err == "first failing assertion: cm_three_lines Northcott control\n"


def test_reproduce_unknown_filter(capsys):
    code, _, err = run(capsys, "reproduce-examples", "--filter", "no-such-assertion")
    assert code == EXIT_INPUT


def test_inhomogeneous_s2_summand_is_input_error(tmp_path, capsys):
    data = json.loads((resources.files("irlab") / "corpus" / "two_planes_3d.json").read_text())
    data["s2_ification"]["summands"] = [["a", "b - 1"], ["c", "d"]]
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "stable", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: S2 summand generator 'b - 1' is not homogeneous\n"


def test_ring_spec_needs_fields():
    from irlab.errors import PreconditionError
    with pytest.raises(PreconditionError):
        load_ring_spec({"variables": ["x"]})
    with pytest.raises(PreconditionError):
        load_ring_spec({"variables": ["x", "x"], "ideal": []})
    with pytest.raises(PreconditionError):
        load_ring_spec({"variables": ["x"], "ideal": [], "characteristic": 10})
    with pytest.raises(PreconditionError):
        load_ring_spec({"variables": ["x", "y"], "ideal": ["x + x*y"]})


@pytest.mark.parametrize("char", [4294967311, 18446744073709551629, "abc", 32003.7, True])
def test_characteristic_outside_range_is_input_error(char, tmp_path, capsys):
    # 4294967311 gave silently wrong Betti numbers (int64 overflow); the 2^64
    # one hung the loader in trial division; 32003.7 was truncated to 32003
    # and true read as 1.  All now stop at load, exit 1.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(PLANE_LINE | {"characteristic": char}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    json.dumps([PLANE_LINE]),
    json.dumps("x*y"),
    json.dumps(PLANE_LINE | {"ideal": [5]}),
    json.dumps(PLANE_LINE | {"ideal": "x*y"}),
    json.dumps(PLANE_LINE | {"variables": "xyz"}),
    json.dumps(PLANE_LINE | {"variables": ["x", 2, "z"]}),
    json.dumps(PLANE_LINE | {"s2_ification": {"summands": [["x"], 5]}}),
    json.dumps(PLANE_LINE | {"s2_ification": {"summands": "x"}}),
    json.dumps(PLANE_LINE | {"s2_ification": "summands"}),
    json.dumps(PLANE_LINE | {"s2_ification": []}),
    json.dumps(PLANE_LINE | {"s2_ification": 0}),
    json.dumps(PLANE_LINE | {"s2_ification": False}),
    json.dumps(PLANE_LINE | {"s2_ification": ""}),
    json.dumps(PLANE_LINE | {"s2_ification": {}}),
    json.dumps(PLANE_LINE | {"s2_ification": None}),
    json.dumps(PLANE_LINE | {"s2_ification": {"summands": []}}),
    json.dumps(PLANE_LINE | {"label": ["x", 5]}),
    json.dumps(PLANE_LINE | {"label": None}),
], ids=["array", "string", "ideal-int", "ideal-str", "variables-str", "variables-int",
        "summand-int", "summands-str", "s2-str", "s2-empty-list", "s2-zero", "s2-false",
        "s2-empty-str", "s2-empty-object", "s2-null", "summands-empty", "label-list",
        "label-null"])
def test_malformed_spec_shape_is_input_error(text, tmp_path, capsys):
    # an array file died with AttributeError, ideal [5] and summands
    # [["x"], 5] with TypeError, variables "xyz" read as x, y, z, and ideal
    # "x*y" as the generators "x", "*", "y"; a falsy s2_ification read as
    # none, no summands died with IndexError in the dimension-3 formula, and
    # a non-string label became the report's input; all now stop at load, exit 1
    path = tmp_path / "shape.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["", "2", "z w", "x*y"],
                         ids=["empty", "digit", "space", "product"])
def test_unreadable_variable_name_is_input_error(name, tmp_path, capsys):
    # the empty name certified -13155*x + 5584*y - 1414, a homogeneous element
    # printed as if it had a constant term, which ir --params could not read back
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"variables": ["x", "y", name], "ideal": ["x*y"]}))
    code, out, err = run(capsys, "ir", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error: variable name") and err.count("\n") == 1


def test_underscore_digit_variable_name_loads():
    spec = load_ring_spec({"variables": ["x_1", "y"], "ideal": ["x_1*y"]})
    assert spec.ideal.ring.variables == ("x_1", "y")


def test_spec_file_not_utf8_is_input_error(tmp_path, capsys):
    # died with UnicodeDecodeError
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(PLANE_LINE | {"label": "caf\u00e9"},
                                ensure_ascii=False).encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"input error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["", "missing.json"], ids=["directory", "missing"])
def test_unopenable_spec_path_is_input_error(name, tmp_path, capsys):
    # a directory died with IsADirectoryError
    path = str(tmp_path / name)
    code, out, err = run(capsys, "analyze", path)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error: ") and path in err and err.count("\n") == 1


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-3"])
def test_malformed_budget_is_input_error(spec_file, capsys, monkeypatch, raw):
    # "abc" and "1.5" used to fall back to the default budget, "0" and "-3"
    # to clamp to 1; each now stops the command at its first Groebner run.
    monkeypatch.setenv("IRLAB_BUDGET", raw)
    code, out, err = run(capsys, "analyze", spec_file)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: IRLAB_BUDGET") and err.count("\n") == 1


def test_largest_supported_characteristic_loads():
    assert load_ring_spec(PLANE_LINE | {"characteristic": 2**31 - 1}).ideal.ring.p == 2**31 - 1


# -- usage and count options ------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["ir"], ["stable", "{spec}", "--seed", "abc"],
    ["limit", "{spec}", "--nmax", "2.5"], ["analyze", "{spec}", "--no-such-flag"],
], ids=["no-command", "unknown-command", "no-file", "seed-str", "nmax-float", "unknown-flag"])
def test_usage_errors_exit_1(argv, spec_file, capsys):
    # argparse exits 2, which documents a resource or search budget
    with pytest.raises(SystemExit) as exc:
        main([a.format(spec=spec_file) for a in argv])
    assert exc.value.code == EXIT_INPUT
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["stable", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert "usage: " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["stable", "--trials", "0"], ["stable", "--trials", "-2"], ["limit", "--nmax", "0"],
    ["limit", "--samples", "-3"], ["ir", "--min-degree", "0"],
], ids=["trials-0", "trials-neg", "nmax-0", "samples-neg", "min-degree-0"])
def test_count_option_below_its_floor_is_input_error(argv, spec_file, capsys):
    # --trials 0 exited 3 as if a rerun disagreed, --samples -3 reported 0
    # samples, and --min-degree 0 reached the certificate though the search
    # starts at degree 1
    code, out, err = run(capsys, argv[0], spec_file, *argv[1:])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"input error: {argv[1]} must be at least") and err.count("\n") == 1


def test_count_options_at_their_floor_run(spec_file, capsys):
    code, out, _ = run(capsys, "limit", spec_file, "--nmax", "1", "--samples", "0")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "stable", spec_file, "--trials", "1")
    assert code == EXIT_OK and json.loads(out)["diagnostics"]["stability"]["trials"] == [2]
    code, out, _ = run(capsys, "ir", spec_file, "--min-degree", "1")
    assert code == EXIT_OK and json.loads(out)["diagnostics"]["ir"]["certificate"]["min_degree"] == 1


def test_ring_spec_parses_once(capsys, monkeypatch):
    # each generator is parsed once, at load; the unit check's basis is kept
    import irlab.ring as ring_mod
    calls = []
    parse = ring_mod.parse_polynomial

    def counted(text, R):
        calls.append(text)
        return parse(text, R)

    monkeypatch.setattr(ring_mod, "parse_polynomial", counted)
    spec = load_ring_spec(PLANE_LINE | {"s2_ification": {"summands": [["x"], ["y", "z"]]}})
    assert calls == ["x*y", "x*z", "x", "y", "z"]
    assert spec.ideal._gb is not None
    assert [[str(g) for g in J.gens] for J in spec.s2] == [["x"], ["y", "z"]]
    assert all(J.ring is spec.ideal.ring for J in spec.s2)
    assert len(calls) == 5
