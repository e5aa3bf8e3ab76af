import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from critsys import cli
from critsys.algebraic import eval_F1, eval_F2
from critsys.cli import dumps17, main
from critsys.params import make_params
from critsys.spectral import load_field

DATA = Path(__file__).parent / "data"

#: sha256 of the file `verify --dump` writes for the write_params defaults
#: at N = 32, L = 8, eps = 1 (numpy 2.4.6, x86-64)
VERIFY_DUMP_SHA256 = \
    "176f80fddfbb5df2f169f9423c0314812ce9b8f4c59445f4eee483d1397a6359"


def write_params(tmp_path, **fields):
    base = {"n": 3, "s": 0.5, "alpha": 1.5, "mu1": 1.0, "mu2": 1.0,
            "gamma": 1.0}
    base.update(fields)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(base))
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# json emission

def test_dumps17_float_width():
    text = dumps17({"v": 8.0 / 9.0, "w": [1.25, True, None], "n": 3})
    assert "0.88888888888888884" in text
    assert '"w": [1.25, true, null]' in text
    assert json.loads(text)["v"] == 8.0 / 9.0  # lossless round trip


def test_classify_command(tmp_path, capsys):
    params = write_params(tmp_path, gamma=-1.0)
    code, out, _ = run_main(capsys, "classify", "--params", params)
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "NEGATIVE_GAMMA"
    assert payload["gammaB"] == 1.0
    assert payload["params"]["beta"] == 1.5  # full resolved provenance


def test_classify_flags_override_file(tmp_path, capsys):
    params = write_params(tmp_path, gamma=-1.0)
    code, out, _ = run_main(capsys, "classify", "--params", params,
                            "--gamma", "0.5")
    assert code == 0
    assert json.loads(out)["label"] == "SMALL_GAMMA_CANDIDATE"


def test_classify_flags_only(capsys):
    code, out, _ = run_main(capsys, "classify", "--n", "1", "--s", "0.4",
                            "--alpha", "5.0", "--mu1", "1", "--mu2", "1",
                            "--gamma", "-2.0")
    assert code == 0
    assert json.loads(out)["label"] == "NEGATIVE_GAMMA"


def test_solve_command(tmp_path, capsys):
    params = write_params(tmp_path, gamma=2.0)
    code, out, _ = run_main(capsys, "solve", "--params", params)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "bisection"
    assert payload["k0"] == pytest.approx(0.25, abs=1e-10)
    assert payload["res1"] <= 1e-12 and payload["res2"] <= 1e-12


def test_solve_ratio_method(tmp_path, capsys):
    params = write_params(tmp_path, n=1, s=0.4, alpha=5.0, gamma=4.0)
    code, out, _ = run_main(capsys, "solve", "--params", params,
                            "--method", "ratio")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "ratio"
    assert payload["k0"] == pytest.approx(3.0 ** -0.25, abs=1e-9)


def test_solve_with_domination_check(tmp_path, capsys):
    params = write_params(tmp_path, n=1, s=0.4, alpha=5.0, gamma=8.0)
    code, out, _ = run_main(capsys, "--seed", "11", "solve", "--params",
                            params, "--check-domination", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["domination"]["violations"] == 0
    assert payload["domination"]["feasible"] > 0
    # determinism under the same seed
    code2, out2, _ = run_main(capsys, "--seed", "11", "solve", "--params",
                              params, "--check-domination", "2000")
    assert out2 == out


def test_solve_domain_error_exit_code(tmp_path, capsys):
    params = write_params(tmp_path, gamma=-1.0)
    code, out, err = run_main(capsys, "solve", "--params", params)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert "constraint" in payload


def test_solve_uncovered_regime_exit_code(tmp_path, capsys):
    # mixed exponents: no solvable hypothesis applies
    params = write_params(tmp_path, n=5, s=0.9, alpha=2.05, gamma=1.0)
    code, _, err = run_main(capsys, "solve", "--params", params)
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_numerical_error_exit_code(tmp_path, capsys):
    # far above the coupling bound the ratio reduction loses monotonicity
    params = write_params(tmp_path, n=1, s=0.4, alpha=5.0, gamma=80.0)
    code, _, err = run_main(capsys, "solve", "--params", params,
                            "--method", "ratio")
    assert code == 2
    assert json.loads(err)["error"] == "monotonicity-violation"


def test_usage_error_exit_code(capsys):
    assert main(["solve", "--no-such-flag"]) == 64
    assert main(["not-a-command"]) == 64


def test_parser_built_once_answers_as_a_fresh_one(monkeypatch, capsys):
    # main() parses with one parser per process; a usage error on it leaves
    # later calls answered as a freshly built parser answers them
    point = ["--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1", "1",
             "--mu2", "2", "--gamma", "1.5"]
    calls = (["solve", "--no-such-flag"], ["classify", *point],
             ["solve", *point])

    def run_all():
        return [(main(argv), *capsys.readouterr()) for argv in calls]

    assert cli._parser() is cli._parser()
    cached = run_all()
    assert [code for code, _, _ in cached] == [64, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == cached


#: every option of the parser as (dest, default, type, required, choices),
#: by subcommand; recorded before the shared flags moved to parent parsers
_NONE = (None, None, False, None)
_PARAM_OPTIONS = {
    "--params": ("params", *_NONE), "--n": ("n", None, int, False, None),
    "--s": ("s", None, float, False, None),
    "--alpha": ("alpha", None, float, False, None),
    "--mu1": ("mu1", None, float, False, None),
    "--mu2": ("mu2", None, float, False, None),
    "--gamma": ("gamma", None, float, False, None),
}
PARSER_OPTIONS = {
    "critsys": {"--seed": ("seed", 0, int, False, None)},
    "classify": {**_PARAM_OPTIONS, "--out": ("out", *_NONE)},
    "solve": {**_PARAM_OPTIONS,
              "--tol": ("tol", 1e-12, float, False, None),
              "--method": ("method", "bisection", None, False,
                           ("bisection", "ratio")),
              "--check-domination": ("check_domination", 0, int, False,
                                     None),
              "--out": ("out", *_NONE)},
    "energy": {**_PARAM_OPTIONS, "--Ss": ("Ss", None, float, False, None),
               "--out": ("out", *_NONE)},
    "sobolev": {"--n": ("n", None, int, True, None),
                "--s": ("s", None, float, True, None),
                "--L": ("L", 30.0, float, False, None),
                "--N": ("N", 128, int, False, None),
                "--eps": ("eps", None, float, False, None),
                "--out": ("out", *_NONE)},
    "verify": {**_PARAM_OPTIONS, "--L": ("L", 30.0, float, False, None),
               "--N": ("N", 128, int, False, None),
               "--eps": ("eps", 1.0, float, False, None),
               "--tol": ("tol", 1e-12, float, False, None),
               "--dump": ("dump", *_NONE), "--out": ("out", *_NONE)},
    "perturb": {**_PARAM_OPTIONS, "--R": ("R", None, None, True, None),
                "--eps": ("eps", 1.0, float, False, None),
                "--N": ("N", 128, int, False, None),
                "--tol": ("tol", 1e-12, float, False, None),
                "--out": ("out", *_NONE)},
    "continue": {**_PARAM_OPTIONS,
                 "--gamma-max": ("gamma_max", None, float, True, None),
                 "--step": ("step", "auto", None, False, None),
                 "--tol": ("tol", 1e-12, float, False, None),
                 "--out": ("out", *_NONE)},
    "sweep": {"--grid": ("grid", None, None, True, None),
              "--tol": ("tol", 1e-12, float, False, None),
              "--out": ("out", *_NONE)},
}


def _options(parser):
    return {a.option_strings[0]: (a.dest, a.default, a.type, a.required,
                                  a.choices)
            for a in parser._actions if a.option_strings and a.dest != "help"}


def test_parser_options_are_unchanged():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {"critsys": _options(parser)}
    got.update((name, _options(p)) for name, p in sub.choices.items())
    assert got == PARSER_OPTIONS


@pytest.mark.parametrize("command", sorted(set(PARSER_OPTIONS) - {"critsys"}))
def test_every_subcommand_has_help(capsys, command):
    code, out, err = run_main(capsys, command, "--help")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: critsys {command} ")


TOL_COMMANDS = {
    "solve": ["solve", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1",
              "1", "--mu2", "2", "--gamma", "1.5"],
    "verify": ["verify", "--n", "3", "--s", "0.5", "--alpha", "1.5",
               "--mu1", "1", "--mu2", "2", "--gamma", "1.5", "--N", "16",
               "--L", "4"],
    "perturb": ["perturb", "--n", "2", "--s", "0.3", "--alpha", "1.2",
                "--mu1", "1", "--mu2", "1.5", "--gamma=-0.3", "--R", "10",
                "--N", "64"],
    "continue": ["continue", "--n", "3", "--s", "0.5", "--alpha", "1.5",
                 "--mu1", "1", "--mu2", "2", "--gamma", "0", "--gamma-max",
                 "0.5"],
    "sweep": ["sweep", "--grid", str(DATA / "sweep_grid.json")],
}


@pytest.mark.parametrize("tol", ["--tol=nan", "--tol=inf", "--tol=-1"])
@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_tol_outside_its_domain_is_domain_error(capsys, command, tol):
    code, out, err = run_main(capsys, *TOL_COMMANDS[command], tol)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == ("domain", "tol")


@pytest.mark.parametrize("command, want", [
    ("solve", (0, None)), ("verify", (0, None)), ("continue", (0, None)),
    ("sweep", (0, None)), ("perturb", (2, "divergence"))])
def test_tol_zero_is_accepted(capsys, command, want):
    # a zero bound is a valid request; perturb's fixed point cannot reach a
    # zero defect, and says so
    code, out, err = run_main(capsys, *TOL_COMMANDS[command], "--tol", "0")
    assert (code, err and json.loads(err)["error"] or None) == want
    if command == "solve":
        payload = json.loads(out)
        assert payload["res1"] == payload["res2"] == 0.0


def test_energy_command(tmp_path, capsys):
    params = write_params(tmp_path, mu2=2.0, gamma=-1.0)
    code, out, _ = run_main(capsys, "energy", "--params", params)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimensionless_A"] == 1.25
    assert payload["attained"] is False
    code, out, _ = run_main(capsys, "energy", "--params", params,
                            "--Ss", "2.7")
    assert json.loads(out)["absolute_A"] == pytest.approx(
        1.25 / 6.0 * 2.7 ** 3, rel=1e-14)


@pytest.mark.parametrize("Ss", ["nan", "inf", "0", "-2.7"])
def test_energy_rejects_bad_sharp_constant(tmp_path, capsys, Ss):
    params = write_params(tmp_path, gamma=-1.0)
    code, out, err = run_main(capsys, "energy", "--params", params,
                              "--Ss", Ss)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain" and payload["constraint"] == "S_s"


def test_energy_overflowing_sharp_constant_is_numerical(tmp_path, capsys):
    # S_s^(n/2s) = (1e308)^3 overflows a float
    params = write_params(tmp_path, gamma=-1.0)
    code, out, err = run_main(capsys, "energy", "--params", params,
                              "--Ss", "1e308")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "numerical"
    assert "overflows" in payload["message"]


def test_energy_attained_includes_minimizer(tmp_path, capsys):
    params = write_params(tmp_path, gamma=2.0)
    code, out, _ = run_main(capsys, "energy", "--params", params)
    assert code == 0
    payload = json.loads(out)
    assert payload["attained"] is True
    assert payload["dimensionless_A"] == pytest.approx(0.5, abs=1e-10)
    assert len(payload["minimizer_coeffs"]) == 2


def test_energy_regime_mismatch(tmp_path, capsys):
    params = write_params(tmp_path, gamma=0.5)
    code, _, err = run_main(capsys, "energy", "--params", params)
    assert code == 1
    assert json.loads(err)["error"] == "regime-mismatch"


def test_sobolev_command(capsys):
    code, out, _ = run_main(capsys, "sobolev", "--n", "3", "--s", "0.5",
                            "--L", "15", "--N", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == pytest.approx(2.70257, abs=1e-4)
    assert payload["rel_gap"] <= 0.08  # cheap grid; acceptance runs 1%
    assert payload["est_error"] >= 0.0


def test_verify_command_with_dump(tmp_path, capsys):
    params = write_params(tmp_path, gamma=1.0)
    dump = tmp_path / "field.bin"
    code, out, _ = run_main(capsys, "verify", "--params", params,
                            "--L", "15", "--N", "32", "--eps", "1.0",
                            "--dump", str(dump))
    assert code == 0
    payload = json.loads(out)
    assert payload["single"]["rel_l2_core"] <= 0.5
    assert payload["system_eq1"]["rel_l2_core"] == pytest.approx(
        payload["single"]["rel_l2_core"], rel=1e-9)
    assert payload["k0"] == pytest.approx(4.0 / 9.0, abs=1e-4)
    field, s_back = load_field(str(dump))
    assert s_back == 0.5 and field.N == 32
    assert np.all(field.values > 0.0)


def test_verify_dump_golden_digest(tmp_path, capsys):
    params = write_params(tmp_path)
    dump = tmp_path / "field.bin"
    code, _, _ = run_main(capsys, "verify", "--params", params, "--N", "32",
                          "--L", "8", "--dump", str(dump))
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == VERIFY_DUMP_SHA256


@pytest.mark.parametrize("command", [
    ["verify", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1", "1",
     "--mu2", "1", "--gamma", "1", "--N", "16", "--L", "4"],
    ["sobolev", "--n", "3", "--s", "0.5", "--N", "16"],
    ["perturb", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1", "1",
     "--mu2", "1", "--gamma=-1", "--R", "10", "--N", "16"],
], ids=["verify", "sobolev", "perturb"])
def test_bubble_scale_with_overflowing_square_is_domain_error(capsys,
                                                              command):
    code, out, err = run_main(capsys, *command, "--eps", "1.4e154")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert isinstance(payload, dict)
    assert (payload["error"], payload["constraint"]) == ("domain", "epsilon")


def _out_of_memory(*args, **kwargs):
    raise MemoryError("cannot allocate the array")


@pytest.mark.parametrize("command, target", [
    (["verify", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1", "1",
      "--mu2", "1", "--gamma", "1", "--N", "16", "--L", "4"], "rfft"),
    (["sobolev", "--n", "3", "--s", "0.5", "--N", "16"], "_axis_sum"),
    (["perturb", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1", "1",
      "--mu2", "1", "--gamma=-1", "--R", "10", "--N", "16"], "_axis_sum"),
], ids=["verify-transform", "sobolev-grid", "perturb-grid"])
def test_grid_too_large_to_allocate_is_domain_error_on_N(capsys,
                                                         monkeypatch,
                                                         command, target):
    # an allocation fails as numpy's would for a grid beyond memory, while
    # the grid is transformed or built; no large array is asked for
    from critsys import spectral

    monkeypatch.setattr(np.fft if target == "rfft" else spectral, target,
                        _out_of_memory)
    code, out, err = run_main(capsys, *command)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "domain", "message": "the grid is too large to allocate",
        "constraint": "N", "value": 16}


def test_out_of_memory_outside_a_grid_command_is_not_an_N_error(monkeypatch):
    monkeypatch.setattr(cli.regimes, "classify", _out_of_memory)
    with pytest.raises(MemoryError):
        main(["classify", "--n", "3", "--s", "0.5", "--alpha", "1.5",
              "--mu1", "1", "--mu2", "1", "--gamma", "2"])


PERTURB_NEG = ["perturb", "--n", "3", "--s", "0.5", "--alpha", "1.5",
               "--mu1", "1", "--mu2", "1.5", "--gamma=-1", "--N", "8"]


@pytest.mark.parametrize("command", [
    ["verify", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1", "1",
     "--mu2", "1", "--gamma=-1", "--N", "8", "--L", "1e200"],
    ["sobolev", "--n", "2", "--s", "0.3", "--N", "16", "--L", "1e200",
     "--eps", "1"],
    PERTURB_NEG + ["--eps", "1e150", "--R", "10"],
    PERTURB_NEG + ["--R", "1e300"],
], ids=["verify-L", "sobolev-L", "perturb-eps", "perturb-R"])
def test_box_beyond_the_float_range_is_domain_error(capsys, command):
    # L^2 or the cell volume (2L/N)^n overflows
    code, out, err = run_main(capsys, *command)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == ("domain", "L")


@pytest.mark.parametrize("L", ["0", "-5", "nan", "inf", "1e300"])
def test_sobolev_checks_its_box_before_deriving_eps(capsys, L):
    # the default eps is L/30; the error names L, as verify's does
    code, out, err = run_main(capsys, "sobolev", "--n", "3", "--s", "0.5",
                              "--L", L)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == (
        "domain", "finite" if L == "inf" else "L")


def test_perturb_underflowed_critical_integral_is_resolution_error(capsys):
    # at eps = 1e-100 every grid sample of w1^(2*) underflows to 0
    code, out, err = run_main(capsys, "perturb", "--n", "1", "--s", "0.3",
                              "--alpha", "2.5", "--mu1", "1", "--mu2", "1",
                              "--gamma=-1", "--N", "16", "--eps", "1e-100",
                              "--R", "1e150")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == \
        ("resolution", "critical_norm")


def test_perturb_underflowed_amplitude_is_numerical_error(capsys):
    # valid inputs: mu1^(-1/(2*-2)) = 1e10^(-74.6) underflows to 0
    code, out, err = run_main(capsys, "perturb", "--n", "3", "--s", "0.01",
                              "--alpha", "1.005", "--mu1", "1e10", "--mu2",
                              "1", "--gamma=-1", "--R", "10", "--N", "16")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == \
        ("numerical", "kappa")


SMALL_S = ["--n", "3", "--s", "0.01", "--alpha", "1.005", "--mu2", "1",
           "--gamma", "0"]


@pytest.mark.parametrize("command", [
    ["solve", *SMALL_S, "--mu1", "1e10"],
    ["solve", *SMALL_S, "--mu1", "1e-10"],
    ["continue", *SMALL_S, "--mu1", "1e10", "--gamma-max", "1"],
    ["continue", *SMALL_S, "--mu1", "1e-10", "--gamma-max", "1"],
], ids=["solve-0", "solve-inf", "continue-0", "continue-inf"])
def test_decoupled_pair_beyond_the_float_range_is_numerical_error(capsys,
                                                                  command):
    # 2* - 2 is about 0.013, so k_sup = mu1^(-149) is 0 or inf for valid mu1
    code, out, err = run_main(capsys, *command)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == \
        ("numerical", "0 < k_sup, l_sup < inf")


def test_verify_underflowed_residual_is_resolution_error(capsys):
    # the profile is about 1e-100 on the box, so both residual norms
    # underflow and their ratio is nan: no verdict, not a pass
    code, out, err = run_main(capsys, "verify", "--n", "3", "--s", "0.5",
                              "--alpha", "1.5", "--mu1", "1", "--mu2", "1",
                              "--gamma", "1", "--N", "16", "--L", "4",
                              "--eps", "1e100")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert isinstance(payload, dict)
    assert (payload["error"], payload["value"]) == ("resolution", "nan")


def test_sobolev_underflowed_norm_is_resolution_error(capsys):
    code, out, err = run_main(capsys, "sobolev", "--n", "3", "--s", "0.5",
                              "--N", "32", "--eps", "1e100")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert isinstance(payload, dict) and payload["error"] == "resolution"


def test_sobolev_non_finite_estimate_is_resolution_error(capsys):
    # on a box of half-width 1e-300 the multiplier overflows and the
    # quotient is nan: no estimate, not a pass
    code, out, err = run_main(capsys, "sobolev", "--n", "1", "--s", "0.3",
                              "--N", "16", "--L", "1e-300", "--eps", "0.5")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["value"]) == ("resolution", "nan")


@pytest.mark.parametrize("extra", [["--L", "4", "--eps", "1e-200"],
                                   ["--L", "1e-300"], ["--L", "inf"]],
                         ids=["eps-1e-200", "L-1e-300", "L-inf"])
def test_error_stderr_holds_only_the_json(extra):
    # a subprocess, because pytest captures warnings: numpy's
    # RuntimeWarnings on the way to the error must not reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "critsys.cli", "verify", "--n", "3", "--s",
         "0.5", "--alpha", "1.5", "--mu1", "1", "--mu2", "1", "--gamma", "1",
         "--N", "16", *extra], capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert (payload["error"], payload["constraint"]) == ("domain", "finite")


def test_verify_negative_gamma_single_only(tmp_path, capsys):
    params = write_params(tmp_path, gamma=-1.0)
    code, out, _ = run_main(capsys, "verify", "--params", params,
                            "--L", "15", "--N", "32")
    assert code == 0
    payload = json.loads(out)
    assert "single" in payload and "system_eq1" not in payload


def test_verify_failed_solve_is_system_skipped(capsys):
    # gamma = 1e-8 lies far below gamma_B = 1: the minimal root is under the
    # scan floor, so the system check is skipped and the single check stands
    code, out, err = run_main(capsys, "verify", "--n", "3", "--s", "0.5",
                              "--alpha", "1.5", "--mu1", "1", "--mu2", "1",
                              "--gamma", "1e-8", "--N", "32", "--L", "8")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["system_skipped"]["error"] == "numerical"
    assert payload["system_skipped"]["constraint"] == "scan-floor"
    assert "single" in payload and "system_eq1" not in payload


def test_perturb_bad_separation_list_is_domain_error(tmp_path, capsys):
    params = write_params(tmp_path, mu2=2.0, gamma=-1.0)
    code, out, err = run_main(capsys, "perturb", "--params", params,
                              "--R", "10,x", "--N", "16")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"], payload["value"]) \
        == ("domain", "R", "10,x")


def test_perturb_command(tmp_path, capsys):
    params = write_params(tmp_path, mu2=2.0, gamma=-1.0)
    code, out, _ = run_main(capsys, "perturb", "--params", params,
                            "--R", "6,12", "--eps", "1.0", "--N", "64")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    assert rows[0]["gap"] > rows[1]["gap"] > 0.0


def test_perturb_matches_golden_output(capsys):
    code, out, _ = run_main(capsys, "perturb", "--n", "2", "--s", "0.3",
                            "--alpha", "1.2", "--mu1", "1", "--mu2", "1.5",
                            "--gamma=-0.3", "--R", "10,20", "--N", "64")
    assert code == 0
    assert out == (DATA / "golden_perturb.json").read_text()


def test_perturb_matches_golden_output_3d(capsys):
    # n = 3 at the default N = 128 and automatic boxes, with tail checks
    code, out, _ = run_main(capsys, "perturb", "--n", "3", "--s", "0.5",
                            "--alpha", "1.4", "--mu1", "0.8", "--mu2", "1.6",
                            "--gamma=-0.7", "--R", "10,20,40")
    assert code == 0
    assert out == (DATA / "golden_perturb_n3.json").read_text()


_GRID64 = ["--mu1", "1", "--mu2", "1.5", "--N", "64", "--L", "10"]
#: the residual and Sobolev payloads at 17 digits, recorded with numpy
#: 2.4.6 on x86-64; gamma > 0 runs the system residuals too (case B for
#: n = 1, 2, 3 and case A for n = 1)
SPECTRAL_GOLDEN_CASES = {
    "verify-n1-pos": ["verify", "--n", "1", "--s", "0.2", "--alpha", "1.6",
                      "--gamma", "3"] + _GRID64,
    "verify-n1-neg": ["verify", "--n", "1", "--s", "0.2", "--alpha", "1.6",
                      "--gamma=-0.5"] + _GRID64,
    "verify-n1-caseA": ["verify", "--n", "1", "--s", "0.3", "--alpha", "2.5",
                        "--gamma", "1"] + _GRID64,
    "verify-n2-pos": ["verify", "--n", "2", "--s", "0.4", "--alpha", "1.6",
                      "--gamma", "3"] + _GRID64,
    "verify-n2-neg": ["verify", "--n", "2", "--s", "0.4", "--alpha", "1.6",
                      "--gamma=-0.5"] + _GRID64,
    "verify-n3-pos": ["verify", "--n", "3", "--s", "0.5", "--alpha", "1.5",
                      "--gamma", "2.5"] + _GRID64,
    "verify-n3-neg": ["verify", "--n", "3", "--s", "0.5", "--alpha", "1.5",
                      "--gamma=-0.5"] + _GRID64,
    "sobolev-n3": ["sobolev", "--n", "3", "--s", "0.5", "--N", "64"],
}


@pytest.mark.parametrize("case", sorted(SPECTRAL_GOLDEN_CASES))
def test_spectral_commands_match_golden_output(capsys, case):
    code, out, err = run_main(capsys, *SPECTRAL_GOLDEN_CASES[case])
    assert code == 0 and err == ""
    golden = json.loads((DATA / "golden_spectral_stdout.json").read_text())
    assert out == golden[case]


_ALG = ["--n", "3", "--s", "0.5", "--alpha", "1.4", "--mu1", "0.8",
        "--mu2", "1.6"]
#: the algebraic payloads at 17 digits, which pin their key order too
ALGEBRAIC_GOLDEN_CASES = {
    "classify-caseA": ["classify", "--n", "1", "--s", "0.3", "--alpha", "2.5",
                       "--mu1", "1", "--mu2", "1.5", "--gamma", "1"],
    "solve-domination": ["solve", *_ALG, "--gamma", "2",
                         "--check-domination", "100"],
    "energy-negative": ["energy", *_ALG, "--gamma=-0.5", "--Ss", "2.7"],
    "energy-attained-B": ["energy", *_ALG, "--gamma", "2"],
}


@pytest.mark.parametrize("case", sorted(ALGEBRAIC_GOLDEN_CASES))
def test_algebraic_commands_match_golden_output(capsys, case):
    code, out, err = run_main(capsys, *ALGEBRAIC_GOLDEN_CASES[case])
    assert code == 0 and err == ""
    golden = json.loads((DATA / "golden_algebraic_stdout.json").read_text())
    assert out == golden[case]


def test_perturb_wrong_sign_exit(tmp_path, capsys):
    params = write_params(tmp_path, gamma=0.5)
    code, _, err = run_main(capsys, "perturb", "--params", params,
                            "--R", "6", "--N", "64")
    assert code == 1


def test_continue_command_csv(tmp_path, capsys):
    params = write_params(tmp_path, gamma=0.1)
    out_path = tmp_path / "branch.csv"
    code, _, _ = run_main(capsys, "continue", "--params", params,
                          "--gamma-max", "0.3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "gamma,k,l,k_plus_l,ordering_ok"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    last = lines[-1].split(",")
    closed = (1.0 + 0.3 / 2.0) ** -2.0
    assert float(last[1]) == pytest.approx(closed, abs=1e-9)
    assert last[4] == "true"


CONTINUE = ["continue", "--n", "3", "--s", "0.5", "--alpha", "1.5", "--mu1",
            "1", "--mu2", "2", "--gamma", "0", "--gamma-max", "1"]


def test_continue_accepts_samples_at_a_looser_tol(capsys):
    # the corrector converges to 1e-9 and the acceptance check holds each
    # sample to the same bound, not to a tighter one of its own
    code, out, err = run_main(capsys, *CONTINUE, "--tol", "1e-9")
    assert code == 0 and err == ""
    rows = [[float(v) for v in line.split(",")[:3]]
            for line in out.strip().splitlines()[1:]]
    assert len(rows) > 1
    for gamma, k, l in rows:
        p = make_params(3, 0.5, 1.5, 1.0, 2.0, gamma)
        assert abs(eval_F1(p, k, l)) <= 1e-9 and abs(eval_F2(p, k, l)) <= 1e-9


@pytest.mark.parametrize("flag, constraint, value", [
    ("--step=abc", "step", "abc"), ("--step=0", "step", 0),
    ("--step=-1", "step", -1), ("--step=nan", "step", "nan"),
    ("--gamma-max=inf", "gamma_max", "inf")])
def test_continue_bad_step_or_gamma_max_is_domain_error(capsys, flag,
                                                        constraint, value):
    code, out, err = run_main(capsys, *CONTINUE, flag)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"], payload["value"]) == \
        ("domain", constraint, value)


def test_negative_domination_samples_is_domain_error(tmp_path, capsys):
    params = write_params(tmp_path, gamma=2.0)
    code, out, err = run_main(capsys, "solve", "--params", params,
                              "--check-domination", "-5")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"], payload["value"]) == \
        ("domain", "samples", -5)


def test_sweep_matches_golden_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_main(capsys, "sweep", "--grid",
                          str(DATA / "sweep_grid.json"),
                          "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (DATA / "golden_sweep.csv").read_text()


@pytest.mark.parametrize("regime", ["A", "B"])
def test_asymmetric_sweep_matches_golden_file(tmp_path, capsys, regime):
    # alpha != beta and mu1 != mu2: a slip between the two sides of the
    # system (mu1 for mu2, alpha for beta, the order of a product) shows here
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_main(capsys, "sweep", "--grid",
                          str(DATA / f"mirror_grid_{regime}.json"),
                          "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == \
        (DATA / f"golden_mirror_{regime}.csv").read_text()


def test_folding_branch_matches_golden_file(tmp_path, capsys):
    # mu2/mu1 = 2 and alpha != beta, traced to 0.999 gamma_B; the branch folds
    out_path = tmp_path / "branch.csv"
    code, _, _ = run_main(capsys, "continue", "--n", "3", "--s", "0.5",
                          "--alpha", "1.4", "--mu1", "1.3", "--mu2", "2.6",
                          "--gamma", "0.1", "--gamma-max", "2.75003037202091",
                          "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == \
        (DATA / "golden_fold_branch.csv").read_text()


def test_sweep_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_main(capsys, "sweep", "--grid", str(DATA / "sweep_grid.json"),
             "--out", str(a))
    run_main(capsys, "sweep", "--grid", str(DATA / "sweep_grid.json"),
             "--out", str(b))
    assert a.read_text() == b.read_text()


def test_sweep_records_overflowing_energy(tmp_path, capsys):
    # mu1^(-(n-2s)/2s) overflows a float; the row says so, the sweep goes on
    grid = {"axes": {"gamma": [-1, -0.5]},
            "fixed": {"n": 5, "s": 0.016, "alpha": 1.005, "mu1": 1.6e-3,
                      "mu2": 1}}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, _ = run_main(capsys, "sweep", "--grid", str(grid_path))
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert all(",NEGATIVE_GAMMA,,numerical: " in row for row in rows)


def test_sweep_records_invalid_points(tmp_path, capsys):
    grid = {"axes": {"s": [0.5, 1.5]},
            "fixed": {"n": 3, "alpha": 1.5, "mu1": 1.0, "mu2": 1.0,
                      "gamma": -1.0}}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, _ = run_main(capsys, "sweep", "--grid", str(grid_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "NEGATIVE_GAMMA" in lines[1]
    assert "INVALID" in lines[2] and "s out of range" in lines[2]


def test_sweep_cap(tmp_path, capsys):
    grid = {"axes": {"gamma": list(range(1001)), "mu1": list(range(1, 1002))},
            "fixed": {"n": 3, "s": 0.5, "alpha": 1.5, "mu2": 1.0}}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, _, err = run_main(capsys, "sweep", "--grid", str(grid_path))
    assert code == 1
    assert "cap" in json.loads(err)["message"]


@pytest.mark.parametrize("grid", [
    {"axes": [1, 2]},
    {"axes": {"gamma": 5}, "fixed": {"n": 3}},
    {"axes": {"gamma": [1]}, "fixed": [1]},
], ids=["axes-list", "axis-not-a-list", "fixed-list"])
def test_malformed_grid_is_domain_error(tmp_path, capsys, grid):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, err = run_main(capsys, "sweep", "--grid", str(grid_path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"], payload["value"]) \
        == ("domain", "grid", str(grid_path))


@pytest.mark.parametrize("beta", ["x", None, float("nan"), [1.5]],
                         ids=["string", "null", "nan", "list"])
def test_non_numeric_beta_is_domain_error(tmp_path, capsys, beta):
    params = write_params(tmp_path, beta=beta)
    code, out, err = run_main(capsys, "classify", "--params", params)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"]) == ("domain", "beta")
    assert payload["message"] == "beta must be a finite real number"


def test_sweep_records_non_numeric_beta_as_invalid(tmp_path, capsys):
    grid = {"axes": {"gamma": [-1.0, 2.0]},
            "fixed": {"n": 3, "s": 0.5, "alpha": 1.5, "beta": "x",
                      "mu1": 1.0, "mu2": 1.0}}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, err = run_main(capsys, "sweep", "--grid", str(grid_path))
    assert code == 0 and err == ""
    error = "domain: beta must be a finite real number"
    assert out.strip().splitlines()[1:] == [
        f"3,0.5,1.5,,1,1,-1,INVALID,,{error}",
        f"3,0.5,1.5,,1,1,2,INVALID,,{error}"]


def test_sweep_survives_a_threshold_power_beyond_the_float_range(tmp_path,
                                                                 capsys):
    # beta a few ulps above 2 and a large alpha overflow one power of the
    # A threshold; the point is an ordinary attained row
    grid = {"axes": {"gamma": [0.09405510392542676]},
            "fixed": {"n": 1, "s": 0.4877901426882109,
                      "alpha": 79.90103901005145, "mu1": 1.0189837491644327,
                      "mu2": 6.53815578476938}}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, err = run_main(capsys, "sweep", "--grid", str(grid_path))
    assert code == 0 and err == ""
    header, line = out.strip().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["label"] == "ATTAINED_A" and row["error"] == ""
    assert float(row["dimensionless_A"]) > 0.0


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "malformed", "not-an-object"])
@pytest.mark.parametrize("command", ["sweep", "classify"])
def test_unreadable_input_file_is_domain_error(tmp_path, capsys, command,
                                               content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    flag, constraint = (("--grid", "grid") if command == "sweep"
                        else ("--params", "params"))
    code, out, err = run_main(capsys, command, flag, str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert payload["constraint"] == constraint
    assert payload["value"] == str(path)


@pytest.mark.parametrize("flag, constraint", [("--out", "out"),
                                              ("--dump", "dump")])
def test_unwritable_output_path_is_domain_error(tmp_path, capsys, flag,
                                                constraint):
    path = tmp_path / "missing-dir" / "x.out"
    code, out, err = run_main(capsys, "verify", "--n", "3", "--s", "0.5",
                              "--alpha", "1.5", "--mu1", "1", "--mu2", "1",
                              "--gamma=-1", "--N", "16", "--L", "4", flag,
                              str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["constraint"], payload["value"]) == \
        ("domain", constraint, str(path))


def test_stdout_closed_by_its_reader_ends_quietly():
    # as in `critsys classify ... | head -c0`: the read end is closed before
    # the command writes, so its first write meets a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "critsys.cli", "classify", "--n", "3", "--s",
         "0.5", "--alpha", "1.5", "--mu1", "1", "--mu2", "1", "--gamma", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: neither the import nor a run of the
    # FFT commands may load it (a lazy scipy.fft import alone costs ~0.3 s)
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    script = "\n".join([
        "import contextlib, io, sys, critsys.cli",
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [critsys.cli.main(argv.split()) for argv in (",
        "        'verify --n 3 --s 0.5 --alpha 1.5 --mu1 1 --mu2 1 '",
        "        '--gamma 2 --N 16 --L 4', 'sobolev --n 3 --s 0.5 --N 16')]",
        "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0] []"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_error_value_is_valid_json(capsys, value):
    code, out, err = run_main(capsys, "classify", "--n", "3", "--s", "0.5",
                              "--alpha", "1.5", "--mu1", "1", "--mu2", "1",
                              "--gamma", value)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["constraint"], payload["value"]) == ("gamma", value)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "critsys.cli", "classify", "--n", "3", "--s",
         "0.5", "--alpha", "1.5", "--mu1", "1", "--mu2", "1", "--gamma", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["label"] == "ATTAINED_B"
