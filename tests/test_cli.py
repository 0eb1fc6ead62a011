"""CLI driver: subcommands, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from stabbench import matrices
from stabbench.cli import main
from stabbench.constructors import BipartiteTanner, save_alist
from stabbench.gf2 import SEARCH_BUDGET


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_toric(tmp_path, capsys):
    out_path = tmp_path / "toric3.json"
    code, _, err = run_cli(
        ["build", "--family", "toric", "--L", "3", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["n"] == 18
    assert len(data["checks"]) == 18
    assert "[[18, 2, 3]]" in err


def test_build_usage_error(capsys):
    code, _, err = run_cli(["build", "--family", "toric", "--L", "1"], capsys)
    assert code == 2
    assert "L >= 2" in err


@pytest.mark.parametrize("family, missing", [
    ("toric", "--L"),
    ("repetition", "--n"),
    ("random-biregular", "--n, --deg-bit, --deg-check"),
    ("hgp", "--left"),
])
def test_build_without_size_flag_is_usage_error(family, missing, capsys):
    code, _, err = run_cli(["build", "--family", family], capsys)
    assert code == 2
    assert f"needs {missing}" in err


def test_build_hgp_from_alist(tmp_path, capsys):
    rep3 = BipartiteTanner.repetition(3)
    alist = tmp_path / "rep3.alist"
    save_alist(rep3, alist)
    out_path = tmp_path / "hgp.json"
    code, _, err = run_cli(
        ["build", "--family", "hgp", "--left", str(alist), "--right",
         str(alist), "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["n"] == 13
    assert "[[13, 1, 3]]" in err


def test_params_round_trip(tmp_path, capsys):
    art = tmp_path / "rep6.json"
    assert run_cli(["build", "--family", "repetition", "--n", "6",
                    "--out", str(art)], capsys)[0] == 0
    code, out, _ = run_cli(["params", str(art)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["parameters"]["k"] == 1
    assert data["parameters"]["d_z"] == 1
    assert data["input"]["w_max"] is None
    code, out, _ = run_cli(["params", str(art), "--w-max", "3"], capsys)
    assert code == 0
    assert json.loads(out)["input"]["w_max"] == 3


def test_params_refuses_a_mislabelled_kind(tmp_path, capsys):
    # [[5, 1, 3]]: XZZXI and its cyclic shifts mix X and Z in every check.
    # Labelled "css", its distance would be read sector by sector (d = 1);
    # the label is refused, and without one the code reports d = 3.
    checks = [{"pauli": "XZZXI"[-s:] + "XZZXI"[:-s], "lambda": 1.0}
              for s in range(4)]
    art = tmp_path / "five.json"
    art.write_text(json.dumps({"n": 5, "kind": "css", "checks": checks}))
    code, out, err = run_cli(["params", str(art)], capsys)
    assert code == 2
    assert out == ""
    assert "'general'" in err and "'css'" in err
    art.write_text(json.dumps({"n": 5, "checks": checks}))
    code, out, _ = run_cli(["params", str(art)], capsys)
    assert code == 0
    params = json.loads(out)["parameters"]
    assert (params["n"], params["k"], params["d"]) == (5, 1, 3)


def test_threads_is_not_an_option(tmp_path, capsys):
    art = tmp_path / "rep4.json"
    assert run_cli(["build", "--family", "repetition", "--n", "4",
                    "--out", str(art)], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", str(art), "--threads", "2"])
    assert exc.value.code == 2


def test_seed_is_an_option_of_the_seeded_commands_only(tmp_path, capsys):
    art = tmp_path / "rep4.json"
    assert run_cli(["build", "--family", "repetition", "--n", "4",
                    "--out", str(art)], capsys)[0] == 0
    for argv in (["params", str(art)], ["soundness", str(art)], ["flow"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2


def test_soundness_command(tmp_path, capsys):
    art = tmp_path / "toric2.json"
    run_cli(["build", "--family", "toric", "--L", "2", "--out", str(art)],
            capsys)
    code, out, _ = run_cli(
        ["soundness", str(art), "--size-max", "3"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["soundness"]) == {"X", "Z"}
    assert data["input"]["budget"] == SEARCH_BUDGET
    for sector in data["soundness"].values():
        assert sector["certified"]
        for row in sector["rows"]:
            assert row["f_emp"] <= row["M"] ** 2
    assert data["expansion"]["certified"]


def test_spectrum_deterministic_json(tmp_path, capsys):
    art = tmp_path / "toric2.json"
    run_cli(["build", "--family", "toric", "--L", "2", "--out", str(art)],
            capsys)
    argv = ["spectrum", str(art), "--perturbation", "x-field",
            "--eps", "0.0,0.05", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    data = json.loads(out1)
    assert data["rows"][0]["cluster_size"] == 4
    assert data["rows"][1]["gap"] > 0.5


@pytest.mark.parametrize("extra, message", [
    (["--mode", "dense"], "exceeds the limit"),
    (["--mode", "sparse", "--num-eigs", "0"], "k = 0 is outside 1..2^14"),
])
def test_spectrum_usage_errors_exit_usage(tmp_path, capsys, extra, message):
    art = tmp_path / "rep14.json"
    run_cli(["build", "--family", "repetition", "--n", "14", "--out",
             str(art)], capsys)
    code, _, err = run_cli(["spectrum", str(art), "--eps", "0.1", *extra],
                           capsys)
    assert code == 2
    assert message in err and "eigensolver failure" not in err


@pytest.mark.parametrize("mode, message", [
    ("sparse", "72 qubits exceeds the limit of 63"),
    ("dense", "72 qubits exceeds the limit of 12"),
], ids=["sparse", "dense"])
def test_spectrum_past_63_qubits_is_usage_error(tmp_path, capsys, mode,
                                                message):
    # Toric L = 6 has 72 qubits, past the 63 bits of an int64 column mask:
    # a labelled size refusal before any mask is packed, not an overflow
    # reported as an eigensolver failure.
    art = tmp_path / "toric6.json"
    run_cli(["build", "--family", "toric", "--L", "6", "--w-max", "3",
             "--out", str(art)], capsys)
    code, out, err = run_cli(["spectrum", str(art), "--mode", mode,
                              "--eps", "0.1", "--num-eigs", "8"], capsys)
    assert code == 2
    assert out == ""
    assert message in err and "eigensolver failure" not in err


def test_spectrum_residual_gate_exits_numeric(tmp_path, capsys, monkeypatch):
    # rep11 under a 0.3 X field: two Lanczos blocks of 2^10 states.
    art = tmp_path / "rep11.json"
    run_cli(["build", "--family", "repetition", "--n", "11", "--out",
             str(art)], capsys)
    solve = matrices._thick_restart_lanczos

    def corrupted(*args):
        vals, vecs = solve(*args)
        return vals + 1e-6, vecs

    monkeypatch.setattr(matrices, "_thick_restart_lanczos", corrupted)
    code, _, err = run_cli(["spectrum", str(art), "--mode", "sparse",
                            "--eps", "0.3", "--num-eigs", "6"], capsys)
    assert code == 3
    assert "eigensolver failure" in err and "residual" in err


def test_spectrum_lanczos_cycle_cap_exits_numeric(tmp_path, capsys,
                                                  monkeypatch):
    # The same two blocks take more than one basis of 20 vectors each.
    art = tmp_path / "rep11.json"
    run_cli(["build", "--family", "repetition", "--n", "11", "--out",
             str(art)], capsys)
    monkeypatch.setattr(matrices, "LANCZOS_MAX_CYCLES", 1)
    code, out, err = run_cli(["spectrum", str(art), "--mode", "sparse",
                              "--eps", "0.3", "--num-eigs", "6"], capsys)
    assert code == 3
    assert out == ""
    assert "eigensolver failure" in err and "did not converge" in err


def test_spectrum_csv_format(tmp_path, capsys):
    art = tmp_path / "rep4.json"
    run_cli(["build", "--family", "repetition", "--n", "4", "--out",
             str(art)], capsys)
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        ["spectrum", str(art), "--eps", "0.0,0.1", "--format", "csv",
         "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,")
    assert len(lines) == 3


def test_flow_command(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        ["flow", "--kappa1", "1", "--ds", "20", "--n", "64",
         "--trajectory", str(traj)],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["envelope_ok"]
    assert data["c_iter"]["value"] > 0
    header = traj.read_text().splitlines()[0]
    assert header == "m,kappa_m,v_m,v_tilde_m,d_m,d_tilde_m"


def test_swt_command(tmp_path, capsys):
    art = tmp_path / "toric2.json"
    run_cli(["build", "--family", "toric", "--L", "2", "--out", str(art)],
            capsys)
    code, out, _ = run_cli(
        ["swt", str(art), "--perturbation", "x-field", "--epsilon", "0.02",
         "--orders", "2"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["unitarity_defect"] < 1e-10
    assert len(data["v_norms"]) == 2
    assert data["v_norms"][1] < data["v_norms"][0]


def test_swt_command_reports_its_coset_frame(tmp_path, capsys):
    # Toric L = 2 under an X field: the plaquettes' z-span (rank 3) is the
    # smaller, so the Hadamard frame, 2^5 cosets of 2^3 states; the checks
    # and the field are real, so the blocks are too.
    art = tmp_path / "toric2.json"
    run_cli(["build", "--family", "toric", "--L", "2", "--out", str(art)],
            capsys)
    code, out, _ = run_cli(
        ["swt", str(art), "--perturbation", "x-field", "--epsilon", "0.02",
         "--orders", "2"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["cosets"] == {"frame": "hadamard", "blocks": 32,
                              "block_qubits": 3, "dtype": "float64"}
    assert 0 < data["garbage_norm"] < 1e-3


def test_swt_past_dense_limit_is_usage_error(tmp_path, capsys, monkeypatch):
    # Toric L = 3 has 18 qubits, past the dense limit of 12: a size
    # refusal, exit 2 as for --swt-orders past the limit, before any run.
    import stabbench.cli as cli

    art = tmp_path / "toric3.json"
    run_cli(["build", "--family", "toric", "--L", "3", "--out", str(art)],
            capsys)

    def no_run(*args, **kwargs):
        raise AssertionError("SWT run started past the dense limit")

    monkeypatch.setattr(cli, "swt_run", no_run)
    code, out, err = run_cli(["swt", str(art)], capsys)
    assert code == 2
    assert out == ""
    assert "SWT engine requires n <= 12" in err


def test_suite_subset(capsys):
    code, out, _ = run_cli(["suite", "--only", "6,lto"], capsys)
    assert code == 0
    data = json.loads(out[out.index("{"):])
    # two criteria ran and both passed
    assert len(data["criteria"]) == 2
    assert data["all_passed"]
    assert "[PASS] criterion 6" in out


def test_suite_unknown_selection(capsys):
    code, _, err = run_cli(["suite", "--only", "nonsense"], capsys)
    assert code == 2
    assert "unknown" in err


def test_spectrum_swt_mode_columns(tmp_path, capsys):
    art = tmp_path / "toric2.json"
    run_cli(["build", "--family", "toric", "--L", "2", "--out", str(art)],
            capsys)
    code, out, _ = run_cli(
        ["spectrum", str(art), "--eps", "0.02", "--swt-orders", "2"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert "projector_distance" in row and row["projector_distance"] > 0
    assert "v_1" in row and "v_2" in row and row["v_2"] < row["v_1"]


def test_spectrum_swt_orders_outside_dense_is_usage_error(tmp_path, capsys,
                                                          monkeypatch):
    import stabbench.cli as cli

    art = tmp_path / "rep4.json"
    run_cli(["build", "--family", "repetition", "--n", "4", "--out",
             str(art)], capsys)

    def no_grid(*args, **kwargs):
        raise AssertionError("spectrum grid computed before the usage check")

    monkeypatch.setattr(cli, "spectrum_grid", no_grid)
    code, out, err = run_cli(
        ["spectrum", str(art), "--mode", "sparse", "--eps", "0.1",
         "--swt-orders", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "--swt-orders requires dense mode" in err


def _strip_timings(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    out.pop("total_runtime_s", None)
    for c in out.get("criteria", []):
        c.pop("runtime_s", None)
    return out


def test_suite_deterministic_modulo_timings(capsys):
    argv = ["suite", "--only", "6,lto", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    d1 = _strip_timings(json.loads(out1[out1.index("{"):]))
    d2 = _strip_timings(json.loads(out2[out2.index("{"):]))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_flow_certificate_valid_with_good_constants(capsys):
    code, out, _ = run_cli(
        ["flow", "--kappa1", "3", "--cd", "1", "--c1", "0.1",
         "--epsilon", "1e-5", "--ds", "20", "--n", "100"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert cert["valid"] is True
    assert cert["gap_lower_bound"] == 0.5
    assert cert["smallest_valid_n"] is not None
    lo, hi = cert["spectrum_intervals"]
    assert hi[0] > lo[1]  # disjoint intervals


def test_flow_overflowing_constants_exit_numeric(capsys):
    # exp(c' dk^-alpha) in the iteration constant passes the float range.
    code, out, err = run_cli(
        ["flow", "--cf-prime", "135", "--alpha", "1", "--delta", "8",
         "--n", "18", "--ds", "3"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "infeasible flow constants: math range error" in err


def test_soundness_command_warns_on_truncation(tmp_path, capsys,
                                               monkeypatch):
    import stabbench.soundness as snd

    art = tmp_path / "toric2.json"
    run_cli(["build", "--family", "toric", "--L", "2", "--out", str(art)],
            capsys)
    # 8 checks: 8 + 28 subsets of up to 2 checks fit a budget of 40.
    monkeypatch.setattr(snd, "SEARCH_BUDGET", 40)
    code, out, err = run_cli(
        ["soundness", str(art), "--size-max", "3", "--budget", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["input"]["budget"] == 4
    assert not data["expansion"]["certified"]
    assert set(data["expansion"]["min_weight_by_size"]) == {"1", "2"}
    assert "soundness sweep truncated" in err
    assert "sizes up to 2 only" in err
    assert "sampled" not in err


def test_suite_exit_code_on_failure(capsys, monkeypatch):
    import stabbench.acceptance as acc
    from stabbench.acceptance import CriterionResult

    def forced_failure():
        return CriterionResult("6", "forced failure", False, {})

    monkeypatch.setitem(acc.CRITERIA, "6", forced_failure)
    code, out, _ = run_cli(["suite", "--only", "6"], capsys)
    assert code == 4
    assert "[FAIL]" in out
