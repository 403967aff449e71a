"""Scenario parsing, subcommand behavior, exit codes, output determinism."""

import json
import os
import subprocess
import sys

import pytest

import qcx
from qcx.cli import main, make_parser

BASE = {
    "version": 1,
    "function": {"kind": "polynomial", "coefficients": [[0.25, 0.0]]},
    "companion": {"kind": "identity"},
    "criterion": "nw",
    "params": {"k": 0.5, "k_prime": 0.34},
    "grid": {"radial": 24, "angular": 48},
    "annulus": {"radial": 12, "angular": 24, "inner": 1.001, "outer": 3.0},
    "times": {"t_max": 2.0, "count": 11},
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_importing_the_cli_starts_no_worker_pool():
    # evaluation is serial: no import of the command line pulls in a pool
    src = os.path.dirname(os.path.dirname(qcx.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qcx.cli; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_the_setup_probe_builds_a_scenario(tmp_path):
    # perfbench/setup_probe.py reads load_scenario, make_parser and
    # Scenario.pieces; the benchmark times it as setup_s
    probe = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "setup_probe.py")
    proc = subprocess.run([sys.executable, probe, write_scenario(tmp_path, BASE)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- parsing ------------------------------------------------------------------


def test_unknown_top_level_field_rejected(tmp_path, capsys):
    doc = dict(BASE)
    doc["surprise"] = 1
    code, out, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert "surprise" in err


def test_unknown_nested_field_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["grid"]["shape"] = "hex"
    code, out, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2


def test_version_required(tmp_path, capsys):
    doc = dict(BASE)
    doc["version"] = 2
    code, _, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert "version" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(["check", "--scenario", "/nonexistent/s.json"], capsys)
    assert code == 2


def test_defaults_echoed(tmp_path, capsys):
    doc = {"version": 1, "criterion": "gen_becker",
           "params": {"k": 0.1, "k_prime": 0.1}}
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[1]) == {
        "version": 1,
        "function": {"kind": "identity"},
        "companion": None,
        "criterion": "gen_becker",
        "params": {"k": 0.1, "k_prime": 0.1},
        "grid": {"radial": 64, "angular": 128, "eps": 1e-3},
        "annulus": {"radial": 64, "angular": 128, "inner": 1.001, "outer": 3.0},
        "times": {"t_max": 2.0, "count": 21},
        "fd_step": 1e-5,
        "output": {"prefix": "qcx"},
    }


def _with(doc, field, value):
    doc = json.loads(json.dumps(doc))
    if "." in field:
        section, key = field.split(".")
        doc.setdefault(section, {})[key] = value
    else:
        doc[field] = value
    return doc


@pytest.mark.parametrize("field, value", [
    ("grid.eps", 0),
    ("annulus.radial", 1),
    ("times.count", 1),
    ("grid.radial", "x"),
    pytest.param("grid.eps", 10 ** 400, id="grid.eps-10**400"),
    ("fd_step", -1e-5),
    ("annulus.inner", 0.9),
    ("times.t_max", 0),
])
def test_bad_numeric_field_is_an_input_error(tmp_path, capsys, field, value):
    # each was an uncaught exception (exit 1, the code of a numerical fail)
    # or was accepted: a negative fd_step turned the stencil's guard band off
    sc = write_scenario(tmp_path, _with(BASE, field, value))
    for command in ("check", "beltrami"):
        code, out, err = run([command, "--scenario", sc], capsys)
        assert code == 2
        assert err.startswith(f"error: {field.split('.')[0]}")
        assert out == ""


_SECTOR = {"kind": "sector", "w0": [-2.0, 0.0], "lambda0": 1.8, "a": 0.3}
_CATALOG = {"kind": "catalog", "extension_dilatation": 0.1, "base": {"kind": "identity"}}


@pytest.mark.parametrize("command, field, patch", [
    ("check", "params.k", {"params": {"k": "abc"}}),
    ("check", "params.c", {"params": {"c": [1, "a"]}}),
    ("check", "params.c", {"params": {"c": True}}),
    ("check", "function.lam", {"function": {"kind": "spiral", "lam": "x"}}),
    ("check", "function.radius",
     {"function": {"kind": "scaled", "radius": "2", "base": {"kind": "koebe"}}}),
    ("check", "function.coefficients",
     {"function": {"kind": "polynomial", "coefficients": [[0.25, None]]}}),
    ("check", "companion.lambda0", {"companion": {**_SECTOR, "lambda0": "1.8"}}),
    ("check", "companion.normalized", {"companion": {**_SECTOR, "normalized": "false"}}),
    ("check", "companion.extension_dilatation",
     {"companion": {**_CATALOG, "extension_dilatation": "0.1"}}),
    ("check", "companion.fixes_infinity", {"companion": {**_CATALOG, "fixes_infinity": 0}}),
    ("compose", "params.k1", {"params": {"k1": "x", "k2": 0.5}}),
    ("fit-sector", "params.R", {"params": {"w0": [-2.0, 0.0], "R": "1"}}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_scenario_value_is_an_input_error(tmp_path, capsys, command, field, patch):
    # each crashed with a traceback and exit 1, the code of a numerical fail,
    # or was read as something else: bool("false") is True
    doc = {**BASE, **patch}
    code, _, err = run([command, "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith(f"error: {field}: expected ")


@pytest.mark.parametrize("patch, message", [
    ({"function": 5}, "function must be a JSON object"),
    ({"params": {"p": 3}}, "params.p must be a JSON object"),
    ({"params": 5}, "params must be a JSON object"),
    ({"params": []}, "params must be a JSON object"),
    ({"companion": [1]}, "companion must be a JSON object"),
    ({"function": {"kind": "koebe", "lam": "x"}}, "unknown field(s) ['lam'] in function"),
    ({"function": {"kind": "scaled", "base": {"kind": "cayley", "radius": 3}}},
     "unknown field(s) ['radius'] in function.base"),
    ({"companion": {"kind": "identity", "a": 0.5, "pole": 2}},
     "unknown field(s) ['a', 'pole'] in companion"),
    ({"companion": {"kind": "sector", "w0": [-2, 0], "gamma": 1}},
     "unknown field(s) ['gamma'] in companion"),
    ({"companion": {"kind": "moebius", "pole": [3, 0], "gamma": [0.2, 0], "delta": "x"}},
     "companion.delta: expected "),
    ({"companion": {"kind": "moebius", "pole": [3, 0], "gamma": [0.2, 0]}},
     "companion.pole excludes companion.gamma"),
    ({"companion": {"kind": [1]}}, "companion: unknown companion kind [1]"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_a_spec_holds_only_the_fields_its_kind_reads(tmp_path, capsys, patch, message):
    # each was a traceback (exit 1, the code of a numerical fail), or ran
    # with the fields its kind does not read left unparsed
    code, _, err = run(["check", "--scenario", write_scenario(tmp_path, {**BASE, **patch})],
                       capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("patch, message", [
    ({"function": {"kind": "spiral", "lam": 2.0}},
     "function: spiral parameter must lie in (-pi/2, pi/2)"),
    ({"function": {"kind": "scaled", "base": {"kind": "koebe"}, "radius": -1}},
     "function: scale factor must be positive"),
    ({"companion": {"kind": "moebius", "delta": 0}},
     "companion: degenerate Moebius map (alpha*delta - beta*gamma = 0)"),
    ({"companion": {"kind": "catalog", "extension_dilatation": 1.5,
                    "base": {"kind": "identity"}}},
     "companion: extension dilatation must lie in [0, 1)"),
    ({"params": {"k": 0.5, "p": {"kind": "spiral", "lam": 2.0}}},
     "params.p: spiral parameter must lie in (-pi/2, pi/2)"),
], ids=["spiral", "scaled", "moebius", "catalog", "params.p"])
def test_a_value_the_builder_rejects_is_an_input_error(tmp_path, capsys, patch, message):
    # each printed a traceback and exited 1, the code of a numerical fail
    code, out, err = run(["check", "--scenario", write_scenario(tmp_path, {**BASE, **patch})],
                         capsys)
    assert (code, err) == (2, f"error: {message}\n")
    assert "report" not in out


def test_a_moebius_companion_takes_its_pole_or_its_coefficients(tmp_path, capsys):
    for companion in ({"kind": "moebius", "pole": [3, 0]},
                      {"kind": "moebius", "gamma": [0.2, 0]}):
        doc = {**BASE, "criterion": "gen_becker", "companion": companion,
               "params": {"k": 0.5, "k_prime": 0.5}}
        code, _, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
        assert code in (0, 1) and err == ""


def test_grid_override_below_two_radii_is_an_input_error(tmp_path, capsys):
    code, out, err = run(["check", "--scenario", write_scenario(tmp_path, BASE),
                          "--grid-radial", "1"], capsys)
    assert code == 2
    assert err.startswith("error: grid")
    assert out == ""


def test_consecutive_calls_share_the_parser_but_no_state(tmp_path, capsys):
    assert make_parser() is make_parser()
    sc = write_scenario(tmp_path, BASE)
    with_svg, without = tmp_path / "with_svg", tmp_path / "without"
    assert run(["beltrami", "--scenario", sc, "--out", str(with_svg), "--svg"], capsys)[0] == 0
    assert run(["beltrami", "--scenario", sc, "--out", str(without)], capsys)[0] == 0
    assert (with_svg / "qcx_beltrami.svg").exists()
    assert not (without / "qcx_beltrami.svg").exists()

    radial = []
    for flags in (["--grid-radial", "8"], []):
        code, out, _ = run(["check", "--scenario", sc, *flags], capsys)
        assert code == 0
        radial.append(json.loads(out.splitlines()[1])["grid"]["radial"])
    assert radial == [8, BASE["grid"]["radial"]]


# -- check ---------------------------------------------------------------------


def test_check_pass_and_fail_exit_codes(tmp_path, capsys):
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, BASE)], capsys)
    assert code == 0
    assert "passed=true" in out

    doc = json.loads(json.dumps(BASE))
    doc["function"] = {"kind": "koebe"}
    doc["criterion"] = "gen_becker"
    doc["params"] = {"k": 0.9, "k_prime": 0.9}
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 1
    assert "passed=false" in out


def test_check_precondition_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["criterion"] = "sector_nw"
    doc["function"] = {"kind": "identity"}
    doc["params"] = {"k": 0.5, "w0": [1.0, 0.0], "lambda0": 0.75, "a": 0.5}
    code, _, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert "sector" in err


def _refused_by_every_command(tmp_path, capsys, doc) -> str:
    """The one error line check, extend and beltrami print for doc, each
    exiting 2 before any report."""
    path = write_scenario(tmp_path, doc)
    errors = set()
    for command in ("check", "extend", "beltrami"):
        code, out, err = run([command, "--scenario", path], capsys)
        assert code == 2, command
        assert "report" not in out, command
        errors.add(err)
    assert len(errors) == 1, errors
    return errors.pop()


@pytest.mark.parametrize("criterion, params", [
    ("bazilevic", {"s": [1.0, 0.5]}),
    ("bazilevic_udisk", {"s": [1.0, 0.5], "k": 0.6, "k_prime": 0.6})])
def test_bazilevic_companion_must_fix_the_origin(tmp_path, capsys, criterion, params):
    # Q(f(w))/w has a pole at 0 unless Q(0) = 0: named before any scan, not
    # a branch-tracking failure after walking into the pole; extend and
    # beltrami printed "bazilevic chain needs Q(0) = 0"
    doc = json.loads(json.dumps(BASE))
    doc["criterion"] = criterion
    doc["companion"] = {"kind": "moebius", "beta": [0.1, 0.0]}
    doc["params"] = params
    assert _refused_by_every_command(tmp_path, capsys, doc) == \
        "error: bazilevic needs Q(0) = 0\n"


@pytest.mark.parametrize("criterion, params", [
    ("phi_like", {}), ("phi_like_udisk", {"k": 0.5, "k_prime": 0.5})])
def test_phi_like_companion_must_fix_the_origin(tmp_path, capsys, criterion, params):
    # Phi = Q/Q' vanishes at 0 only where Q does: the scan reported the
    # origin limit f'(0)/Phi'(0) = -1 as the value at 0j, and exit 1;
    # extend and beltrami printed "phi_like chain needs Q(0) = 0"
    doc = json.loads(json.dumps(BASE))
    doc["criterion"] = criterion
    doc["function"] = {"kind": "polynomial", "coefficients": [[0.2, 0.0]]}
    doc["companion"] = {"kind": "moebius", "pole": [-3.0, 0.0]}
    doc["params"] = params
    assert _refused_by_every_command(tmp_path, capsys, doc) == \
        "error: phi_like needs Phi(0) = 0 (Q(0) = 0 for a companion)\n"


def test_check_csv_written(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, _, _ = run(["check", "--scenario", write_scenario(tmp_path, BASE),
                      "--out", out_dir], capsys)
    assert code == 0
    csv_path = os.path.join(out_dir, "qcx_check.csv")
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    assert lines[0] == b"re_z,im_z,re_value,im_value"
    assert b"\r" not in data


def test_grid_override_flags(tmp_path, capsys):
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, BASE),
                        "--grid-radial", "8", "--grid-angular", "16"], capsys)
    assert code == 0
    resolved = json.loads(out.splitlines()[1])
    assert resolved["grid"]["radial"] == 8
    # 8 * 16 base points + 81 refinement samples
    assert "samples=209" in out


# -- extend / beltrami ------------------------------------------------------------


def test_extend_reports_continuity(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, out, _ = run(["extend", "--scenario", write_scenario(tmp_path, BASE),
                        "--out", out_dir], capsys)
    assert code == 0
    assert "continuity_pass=true" in out
    assert "chain_ok=true" in out
    assert os.path.exists(os.path.join(out_dir, "qcx_extension.csv"))


def test_beltrami_summary_and_svg(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, out, _ = run(["beltrami", "--scenario", write_scenario(tmp_path, BASE),
                        "--out", out_dir, "--svg"], capsys)
    assert code == 0
    assert "sup_abs_mu=" in out
    assert "step_stable=true" in out
    svg_path = os.path.join(out_dir, "qcx_beltrami.svg")
    with open(svg_path) as fh:
        svg = fh.read()
    assert svg.startswith("<svg")
    assert "</svg>" in svg
    assert "0" in svg  # legend endpoints present
    assert "http" not in svg.replace("http://www.w3.org", "")  # no external assets


def test_beltrami_fail_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["params"] = {"k": 0.5, "k_prime": 0.05}  # bound far below the true 1/3
    code, out, _ = run(["beltrami", "--scenario", write_scenario(tmp_path, doc)],
                       capsys)
    assert code == 1
    assert "passed=false" in out


def test_unknown_criterion_rejected_by_every_command(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["criterion"] = "phi_like_typo"
    path = write_scenario(tmp_path, doc)
    for command in ("check", "extend", "beltrami"):
        code, _, err = run([command, "--scenario", path], capsys)
        assert code == 2, command
        assert err.startswith("error: unknown criterion 'phi_like_typo'; valid ids: "), command


def test_a_non_finite_stencil_sample_is_an_input_error(tmp_path, capsys):
    # the extension overflows on the annulus's outer ring, which lies at
    # `outer` exactly: a traceback and exit 1 before
    doc = {"version": 1, "function": {"kind": "polynomial", "coefficients": [0.25]},
           "criterion": "bazilevic", "params": {"s": [0.1, 0]},
           "annulus": {"radial": 4, "angular": 8, "inner": 1.5, "outer": 1e40}}
    code, out, err = run(["beltrami", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert (code, err) == (2, "error: non-finite sample in Wirtinger stencil at "
                              "(1e+40+0j)\n")
    assert "report" not in out


@pytest.mark.parametrize("inner", [1.00002, 1.00003])
def test_an_annulus_in_the_guard_band_is_an_input_error(tmp_path, capsys, inner):
    # fd_step = 1e-5 puts 1 + 3h at 1.00003: the stencil names the grid point
    # for both radii, where at 1.00003 the command line's own check passed
    # and the stencil's plain ValueError gave a traceback and exit 1
    doc = _with(BASE, "annulus.inner", inner)
    code, out, err = run(["beltrami", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert (code, err) == (2, f"error: grid point ({inner}+0j) lies inside the guard "
                              "band |z| in [1-3h, 1+3h]\n")
    assert "report" not in out


# -- compose / fit-sector -----------------------------------------------------------


def test_compose(tmp_path, capsys):
    doc = {"version": 1, "criterion": "nw", "params": {"k1": 0.5, "k2": 0.5}}
    code, out, _ = run(["compose", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 0
    assert "composed=0.8" in out


def test_compose_requires_both_bounds(tmp_path, capsys):
    doc = {"version": 1, "params": {"k1": 0.5}}
    code, _, err = run(["compose", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2


def test_fit_sector(tmp_path, capsys):
    doc = {"version": 1, "function": {"kind": "identity"},
           "params": {"w0": [-2.0, 0.0], "R": 1.0}}
    code, out, _ = run(["fit-sector", "--scenario", write_scenario(tmp_path, doc)],
                       capsys)
    assert code == 0
    assert "contained=true" in out
    assert "rotation_convention" in out
    a_line = [l for l in out.splitlines() if l.startswith("a=")][0]
    assert abs(float(a_line[2:]) - 1 / 3) < 1e-12


def test_fit_sector_vertex_inside(tmp_path, capsys):
    doc = {"version": 1, "function": {"kind": "identity"},
           "params": {"w0": [0.5, 0.0], "R": 1.0}}
    code, out, _ = run(["fit-sector", "--scenario", write_scenario(tmp_path, doc)],
                       capsys)
    assert code == 2


# -- determinism ---------------------------------------------------------------------


def test_repeated_runs_byte_identical(tmp_path, capsys):
    sc = write_scenario(tmp_path, BASE)
    blobs = []
    for d in ("a", "b"):
        out_dir = str(tmp_path / d)
        code, _, _ = run(["beltrami", "--scenario", sc, "--out", out_dir, "--svg"],
                         capsys)
        assert code == 0
        with open(os.path.join(out_dir, "qcx_beltrami.csv"), "rb") as fh:
            csv = fh.read()
        with open(os.path.join(out_dir, "qcx_beltrami.svg"), "rb") as fh:
            svg = fh.read()
        blobs.append((csv, svg))
    assert blobs[0] == blobs[1]


# -- remaining scenario surfaces -------------------------------------------------


def test_scaled_function_kind(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["function"] = {"kind": "scaled", "radius": 8.0, "base": {"kind": "koebe"}}
    doc["criterion"] = "gen_becker"
    doc["params"] = {"k": 0.6, "k_prime": 0.6}
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 0
    assert "passed=true" in out


def test_spiral_function_kind(tmp_path, capsys):
    # a twisted map is spiral-like, not starlike: against the plain
    # companion (Phi = w) the positivity condition must fail
    doc = json.loads(json.dumps(BASE))
    doc["function"] = {"kind": "spiral", "lam": 1.2}
    doc["criterion"] = "phi_like"
    doc["params"] = {}
    doc["companion"] = {"kind": "identity"}
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 1
    assert "passed=false" in out


def test_catalog_companion_requires_dilatation(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["companion"] = {"kind": "catalog"}
    code, _, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert "extension_dilatation" in err


def test_catalog_companion_runs(tmp_path, capsys):
    # a polynomial companion base with a declared extension bound
    doc = json.loads(json.dumps(BASE))
    doc["companion"] = {"kind": "catalog", "extension_dilatation": 0.1,
                        "base": {"kind": "polynomial",
                                 "coefficients": [[0.05, 0.0]]}}
    doc["criterion"] = "gen_becker"
    doc["params"] = {"k": 0.5, "k_prime": 0.4}
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 0
    assert "concluded_dilatation=" in out


def test_bazilevic_scenario(tmp_path, capsys):
    doc = {
        "version": 1,
        "function": {"kind": "koebe"},
        "companion": {"kind": "identity"},
        "criterion": "bazilevic",
        "params": {"s": [1.0, 0.0], "p": {"kind": "koebe"}},
        "grid": {"radial": 16, "angular": 32},
    }
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 0
    assert "passed=true" in out


def test_bazilevic_extension_with_a_koebe_comparison_map(tmp_path, capsys):
    # the chain evaluates p on |z| = 1 as well as f: both commands exited 2
    # with "|z| = 1 outside analyticity radius 1"
    doc = {
        "version": 1,
        "function": {"kind": "polynomial", "coefficients": [0.25]},
        "criterion": "bazilevic_udisk",
        "params": {"s": [1.0, 0.0], "k": 0.5, "p": {"kind": "koebe"}},
        "grid": {"radial": 16, "angular": 32},
        "annulus": {"radial": 8, "angular": 16},
    }
    sc = write_scenario(tmp_path, doc)
    code, out, err = run(["extend", "--scenario", sc], capsys)
    assert (code, err) == (1, "")
    assert "failure=Re p <= 0" in out
    code, out, err = run(["beltrami", "--scenario", sc], capsys)
    assert (code, err) == (1, "")
    assert "passed=false" in out


def test_sector_scenario_end_to_end(tmp_path, capsys):
    doc = {
        "version": 1,
        "function": {"kind": "identity"},
        "companion": {"kind": "sector", "w0": [-2.0, 0.0],
                      "lambda0": 1.8333333333333333, "a": 0.3333333333333333},
        "criterion": "sector_nw",
        "params": {"k": 0.65, "w0": [-2.0, 0.0],
                   "lambda0": 1.8333333333333333, "a": 0.3333333333333333},
        "grid": {"radial": 16, "angular": 32},
        "annulus": {"radial": 10, "angular": 20, "inner": 1.001, "outer": 2.5},
        "times": {"t_max": 1.5, "count": 7},
    }
    sc = write_scenario(tmp_path, doc)
    for cmd in ("check", "extend", "beltrami"):
        code, out, _ = run([cmd, "--scenario", sc], capsys)
        assert code == 0, cmd
    assert "rotation_convention" in out  # beltrami report names the reading


def test_sector_criterion_needs_a_sector_companion_to_extend(tmp_path, capsys):
    # check only tests f against the sector; extend and beltrami build the
    # chain from the companion, so an identity companion would extend the
    # plain nw chain instead of the sector extension
    doc = {
        "version": 1,
        "function": {"kind": "polynomial", "coefficients": [[0.1, 0.0]]},
        "companion": {"kind": "identity"},
        "criterion": "sector_nw",
        "params": {"k": 0.75, "w0": [-2.0, 0.0],
                   "lambda0": 1.8333333333333333, "a": 0.3333333333333333},
        "grid": {"radial": 16, "angular": 32},
        "annulus": {"radial": 6, "angular": 12, "inner": 1.001, "outer": 3.0},
        "times": {"t_max": 2.0, "count": 5},
    }
    path = write_scenario(tmp_path, doc)
    code, out, _ = run(["check", "--scenario", path], capsys)
    assert code == 0 and "passed=true" in out
    for command in ("extend", "beltrami"):
        code, out, err = run([command, "--scenario", path], capsys)
        assert code == 2, command
        assert "needs a sector companion" in err
        assert "report" not in out


def test_moebius_criterion_needs_a_moebius_companion_to_extend(tmp_path, capsys):
    doc = {
        "version": 1,
        "function": {"kind": "polynomial", "coefficients": [[0.2, 0.0]]},
        "criterion": "moebius_nw",
        "params": {"k": 0.6, "gamma": [0.2, 0.0], "delta": [1.0, 0.0]},
        "grid": {"radial": 16, "angular": 32},
        "annulus": {"radial": 6, "angular": 12, "inner": 1.001, "outer": 3.0},
        "times": {"t_max": 2.0, "count": 5},
    }
    path = write_scenario(tmp_path, doc)
    for command in ("extend", "beltrami"):
        code, _, err = run([command, "--scenario", path], capsys)
        assert code == 2, command
        assert "needs a moebius companion" in err
    doc["companion"] = {"kind": "moebius", "alpha": [1.0, 0.0], "beta": [0.0, 0.0],
                        "gamma": [0.2, 0.0], "delta": [1.0, 0.0]}
    path = write_scenario(tmp_path, doc, "matching.json")
    for command in ("extend", "beltrami"):
        code, _, err = run([command, "--scenario", path], capsys)
        assert code == 0, (command, err)


_SECTOR_PARAMS = {"w0": [-2.0, 0.0], "lambda0": 1.8333333333333333,
                  "a": 0.3333333333333333}


@pytest.mark.parametrize("patch, names", [
    # check passed on the params' sector, and extend validated the chain of
    # the companion's other sector (chain_ok=true)
    ({"function": {"kind": "identity"}, "criterion": "sector_nw",
      "params": {"k": 0.65, **_SECTOR_PARAMS},
      "companion": {"kind": "sector", "w0": [-5.0, 0.0], "lambda0": 1.9, "a": 0.2}},
     "not the companion's SectorDomain(w0=(-5+0j), lambda0=1.9, a=0.2)"),
    ({"function": {"kind": "identity"}, "criterion": "sector_nw",
      "params": {"k": 0.65, **_SECTOR_PARAMS},
      "companion": {"kind": "sector", **_SECTOR_PARAMS, "normalized": False}},
     "sector_nw reads the normalized sector map"),
    # check passed on Q' = 1/(0.2w + 1)^2, and extend validated Q = -1/(w - 3)
    # (u_margin_min=-8.0172..., chain_ok=false)
    ({"function": {"kind": "polynomial", "coefficients": [[0.2, 0.0]]},
      "criterion": "moebius_nw",
      "params": {"k": 0.6, "gamma": [0.2, 0.0], "delta": [1.0, 0.0]},
      "companion": {"kind": "moebius", "pole": [3, 0]}},
     "not the companion's normalized ((1+0j), (-3-0j))"),
    ({"function": {"kind": "cayley"}, "criterion": "moebius_becker",
      "params": {"k": 0.1, "c2": [-1.0, 0.0]},
      "companion": {"kind": "moebius", "pole": [-2.0, 0.0]}},
     "pole c2 = (-1+0j), not the companion's pole (-2+0j)"),
], ids=["sector", "sector_nw-unnormalized", "moebius_nw", "moebius_becker"])
def test_chain_companion_must_be_the_map_the_row_reads(tmp_path, capsys, patch, names):
    doc = {"version": 1, "grid": {"radial": 16, "angular": 32},
           "annulus": {"radial": 6, "angular": 12}, "times": {"count": 5}, **patch}
    path = write_scenario(tmp_path, doc)
    for command in ("extend", "beltrami"):
        code, out, err = run([command, "--scenario", path], capsys)
        assert code == 2, command
        assert names in err
        assert "report" not in out


@pytest.mark.parametrize("command", ["check", "extend", "beltrami"])
def test_a_k_row_is_extended_against_the_bound_check_concludes(tmp_path, capsys, command):
    # moebius_becker reads k: extend and beltrami judged it against k_prime
    # = 0.05 ("p escapes U(0.05)", sup|mu| 0.1355) where check concluded 0.9
    doc = json.loads(json.dumps(BASE))
    doc["function"] = {"kind": "polynomial", "coefficients": [[0.2, 0.0]]}
    doc["criterion"] = "moebius_becker"
    doc["companion"] = {"kind": "moebius", "pole": [-3.0, 0.0]}
    doc["params"] = {"k": 0.9, "k_prime": 0.05, "c2": [-3.0, 0.0]}
    doc["grid"] = {"radial": 16, "angular": 32}
    code, out, err = run([command, "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")
    assert {"check": "concluded_dilatation=0.9", "extend": "chain_ok=true",
            "beltrami": "bound=0.9"}[command] in out


_MOEBIUS_POLE = {"kind": "moebius", "pole": [-3.0, 0.0]}
_MOEBIUS_GD = {"kind": "moebius", "gamma": [0.2, 0.0], "delta": [1.0, 0.0]}
_SECTOR_Q = {"kind": "sector", **_SECTOR_PARAMS}


def _gate_cases():
    """(criterion, companion, params, check's error) for scenarios check
    refuses on their params; each names the companion its chain reads."""
    k_prime, k = "k_prime (or k)", "k"
    no_bound = {  # criterion: (companion, params, the bound it reads)
        "gen_becker": (None, {}, k_prime), "nw": (None, {}, k_prime),
        "phi_like_udisk": (None, {}, k_prime),
        "bazilevic_udisk": (None, {"s": [1.0, 0.5]}, k_prime),
        "moebius_becker": (_MOEBIUS_POLE, {"c2": [-3.0, 0.0]}, k),
        "moebius_nw": (_MOEBIUS_GD, {"gamma": [0.2, 0.0], "delta": [1.0, 0.0]}, k),
        "sector_becker": (_SECTOR_Q, _SECTOR_PARAMS, k),
        "sector_nw": (_SECTOR_Q, _SECTOR_PARAMS, k),
    }
    cases = [pytest.param(criterion, companion, params, f"{criterion} needs {bound}",
                          id=f"{criterion}-without-its-bound")
             for criterion, (companion, params, bound) in no_bound.items()]
    affine = {"kind": "moebius", "gamma": [0.0, 0.0], "delta": [1.0, 0.0]}
    return cases + [
        pytest.param("moebius_nw", affine, {"k": 0.6, "gamma": [0.0, 0.0], "delta": [1.0, 0.0]},
                     "moebius_nw requires gamma != 0 (the affine case is the classical "
                     "condition)", id="moebius_nw-gamma-0"),
        pytest.param("bazilevic", None, {"p": {"kind": "polynomial", "coefficients": [0.9]}},
                     "comparison map is not starlike on the grid "
                     "(violation at (-0.6109807391451604+0.16371179564491634j))",
                     id="bazilevic-p-not-starlike"),
        pytest.param("moebius_becker", _MOEBIUS_POLE, {"k": 0.9}, "moebius_becker needs c2",
                     id="moebius_becker-without-c2"),
        pytest.param("moebius_nw", _MOEBIUS_GD, {"k": 0.6}, "moebius_nw needs gamma and delta",
                     id="moebius_nw-without-gamma"),
        pytest.param("sector_becker", _SECTOR_Q, {"k": 0.65},
                     "sector criteria need w0, lambda0 and a", id="sector_becker-without-w0"),
        pytest.param("sector_nw", _SECTOR_Q, {"k": 0.75},
                     "sector criteria need w0, lambda0 and a", id="sector_nw-without-w0"),
    ]


@pytest.mark.parametrize("criterion, companion, params, message", _gate_cases())
def test_extend_and_beltrami_refuse_what_check_refuses(tmp_path, capsys, criterion,
                                                       companion, params, message):
    # extend and beltrami ran (exit 0) without the bound or with gamma = 0,
    # and extended a chain on a non-starlike p (exit 1)
    doc = {"version": 1, "function": {"kind": "polynomial", "coefficients": [[0.1, 0.0]]},
           "criterion": criterion, "params": params, "grid": {"radial": 16, "angular": 32},
           "annulus": {"radial": 6, "angular": 12}, "times": {"count": 5}}
    if companion is not None:
        doc["companion"] = companion
    path = write_scenario(tmp_path, doc)
    for command in ("check", "extend", "beltrami"):
        code, out, err = run([command, "--scenario", path], capsys)
        assert (code, err) == (2, f"error: {message}\n"), command
        assert "report" not in out


def test_c_is_held_to_k_when_k_prime_is_absent(tmp_path, capsys):
    # |c| = 0.55 > k = 0.5: check passed (sup 0.4455, concluded 0.5) and
    # extend found p escaping U(0.5) at t = 0
    doc = json.loads(json.dumps(BASE))
    doc["function"] = {"kind": "identity"}
    doc["criterion"] = "gen_becker"
    doc["params"] = {"k": 0.5, "c": [0.55, 0.0]}
    doc["grid"] = {"radial": 16, "angular": 32, "eps": 0.1}
    for command in ("check", "extend"):
        code, out, err = run([command, "--scenario", write_scenario(tmp_path, doc)], capsys)
        assert code == 2 and "report" not in out
        assert "|c| must not exceed k_prime (or k)" in err


def test_phi_like_with_a_vanishing_q_prime_fails_rather_than_raises(tmp_path, capsys):
    # Q = w - w^2 has Q' = 0 at the grid point 1/2: Phi = Q/Q' raised there
    # (exit 2); z G'/G = 0 there now fails the strict Re > 0 condition
    doc = json.loads(json.dumps(BASE))
    doc["function"] = {"kind": "identity"}
    doc["criterion"] = "phi_like"
    doc["companion"] = {"kind": "catalog", "extension_dilatation": 0.0,
                        "base": {"kind": "polynomial", "coefficients": [[-1.0, 0.0]]}}
    doc["params"] = {}
    doc["grid"] = {"radial": 3, "angular": 4, "eps": 0.25}  # radii 0, 1/2, 3/4
    code, out, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert (code, err) == (1, "")
    assert "passed=false" in out


def test_moebius_becker_cancellation_scenario(tmp_path, capsys):
    doc = {
        "version": 1,
        "function": {"kind": "cayley"},
        "criterion": "moebius_becker",
        "params": {"k": 0.1, "c": [0.0, 0.0], "c2": [-1.0, 0.0]},
        "grid": {"radial": 24, "angular": 48},
    }
    code, out, _ = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 0
    sup = float([l for l in out.splitlines() if l.startswith("sup_value=")][0][10:])
    assert sup < 1e-9


@pytest.mark.parametrize("command, doc, exit_code, named", [
    ("extend", {"function": {"kind": "polynomial", "coefficients": [0.9]},
                "criterion": "nw", "params": {"k": 0.5},
                "grid": {"radial": 8, "angular": 16}}, 1,
     "failure=Re p <= 0 at z=(-0.8415106807538887+1.03055336163356e-16j), t=0.4"),
    ("check", {"criterion": "bazilevic",
               "params": {"p": {"kind": "polynomial", "coefficients": [0.9]}}}, 2,
     "(violation at (-0.6109807391451604+0.16371179564491634j))"),
    ("check", {"function": {"kind": "polynomial", "coefficients": [0.3]},
               "criterion": "sector_becker", "params": {"k": 0.65, **_SECTOR_PARAMS},
               "grid": {"radial": 24, "angular": 48}}, 2,
     "image point f((6.055554187902111e-17+0.9889470485887398j)) = "
     "(-0.2934048794737137+0.9889470485887398j) escapes"),
], ids=["extend-re-p", "check-not-starlike", "check-leaves-the-sector"])
def test_failing_points_print_as_python_numbers(tmp_path, capsys, command, doc,
                                                exit_code, named):
    # numpy 2 prints a numpy scalar as np.complex128(...)
    path = write_scenario(tmp_path, {"version": 1, **doc})
    code, out, err = run([command, "--scenario", path], capsys)
    assert code == exit_code
    assert named in out + err
    assert "np." not in out + err
