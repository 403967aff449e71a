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
    resolved = json.loads(out.splitlines()[1])
    assert resolved["grid"] == {"radial": 64, "angular": 128, "eps": 1e-3}
    assert resolved["fd_step"] == 1e-5
    assert resolved["times"] == {"t_max": 2.0, "count": 21}


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


def test_bazilevic_companion_must_fix_the_origin(tmp_path, capsys):
    # Q(f(w))/w has a pole at 0 unless Q(0) = 0: named before any scan, not
    # a branch-tracking failure after walking into the pole
    doc = json.loads(json.dumps(BASE))
    doc["criterion"] = "bazilevic"
    doc["companion"] = {"kind": "moebius", "beta": [0.1, 0.0]}
    doc["params"] = {"s": [1.0, 0.5]}
    code, _, err = run(["check", "--scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert "bazilevic needs Q(0) = 0" in err
    assert "branch tracking" not in err


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
        assert "phi_like_typo" in err


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
