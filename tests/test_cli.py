import json
import math
import os

import fdstab.flow
from fdstab import acceptance as acc
from fdstab.cli import main
from fdstab.fields import (RadialField, barenblatt_field,
                           normalized_to_profile_mass)
from fdstab.flow import default_flow_mesh, solve_fd_original
from fdstab.params import derive_exponents


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_constants_command(tmp_path, capsys):
    out_path = tmp_path / "ledger.json"
    code = main(["constants", "--d", "3", "--m", "0.75",
                 "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    by_name = {e["name"]: e for e in payload}
    assert math.isclose(by_name["eta"]["value"], 0.5, rel_tol=1e-12)
    assert by_name["c2"]["value"] == 2592.0
    assert by_name["h"]["value"] is None  # far beyond float range
    assert by_name["h"]["log_value"] > 0
    # the artifact is self-describing
    assert payload[0]["name"] == "inputs"
    for token in ("d=3", "m=0.75", "lam0=0.5", "A=1"):
        assert token in payload[0]["formula"]


def test_shoot_command(capsys):
    code, out = run(["shoot", "--problem", "line", "--d", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["amplitude"], math.sqrt(2.0), rel_tol=1e-12)


def test_spectral_command(capsys):
    code, out = run(["spectral", "--d", "3", "--p", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalues"]["l1k0"]["value"] == 8.0
    assert payload["eigenvalues"]["l0k1"]["value"] == 10.0
    assert payload["critical"]["eta_branches_agree"] is False


def test_phase_command_csv(capsys):
    code, out = run(["phase", "--d", "3", "--m", "0.6666666666666666",
                     "--x0", "0", "--y0", "1", "--t-end", "0.1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "t,X,Y,L"
    assert len(lines) > 50


def test_delay_command(capsys):
    code, out = run(["delay", "--d", "3", "--m", "0.6666666666666666",
                     "--k0", "0", "--s0", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "A"
    assert payload["tau_bullet"] > 0


def test_delay_simulate_is_the_battery_run(capsys):
    # delay --simulate is check_delay_bound's run from the (0.8, 1.3) pair
    code, out = run(["delay", "--d", "3", "--m", "0.6666666666666666",
                     "--simulate", "--t-end", "0.3"], capsys)
    assert code == 0
    payload = json.loads(out)
    ex = derive_exponents(3, m=0.6666666666666666)
    records = acc.moment_matched_delay_run(ex, 0.8, 1.3, 0.3).delay
    assert payload["simulated_tau_path"] == [
        {"t": rec.t, "tau": rec.tau, "lambda": rec.lam} for rec in records]
    assert payload["simulated_sup_abs_tau"] == max(abs(rec.tau) for rec in records)


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--d", "3", "--m", "0.75",
            "--init", "scaled-barenblatt:1.1", "--t-end", "0.2",
            "--cells", "120", "--saves", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    # rerun metadata is embedded in the artifact
    for key in ("d=3", "m=0.75", "cells=120", "t_end=0.2"):
        assert key in header


def test_simulate_fd_writes_the_trajectory_csv(tmp_path):
    # the free flow has no reports; its CSV is Trajectory.table's
    # t,mass,entropy_integral rows in the CLI's 17-digit format
    out = tmp_path / "fd.csv"
    assert main(["simulate", "--d", "3", "--m", "0.75", "--equation", "fd",
                 "--t-end", "0.1", "--cells", "120", "--saves", "3",
                 "--out", str(out)]) == 0
    ex = derive_exponents(3, m=0.75)
    mesh = default_flow_mesh(120, 50.0)
    fld = normalized_to_profile_mass(barenblatt_field(ex, mesh, lam=1.2))
    traj = solve_fd_original(fld, 0.1, n_saves=3)
    rows = ["t,mass,entropy_integral"] + [
        ",".join("%.17g" % v for v in (t, m_fv, snap.entropy_integral()))
        for t, m_fv, snap in zip(traj.times, traj.conserved_mass, traj.snapshots)]
    meta, body = out.read_text().split("\n", 1)
    assert meta.startswith("# d=3 m=0.75 init=scaled-barenblatt:1.2 equation=fd")
    assert body == "\n".join(rows) + "\n"
    assert traj.table()[0] == rows[0]


def test_delay_simulate_measures_each_state_once(monkeypatch, capsys):
    # the Heun loop measures each state's second moment, and a save's
    # report reads it again from the same field: one second-moment
    # quadrature per state
    measured = []
    quad = RadialField.quad

    def counted(self, integrand, moment=0):
        if moment == 2:
            measured.append(self)  # kept alive, so ids stay distinct
        return quad(self, integrand, moment)

    monkeypatch.setattr(RadialField, "quad", counted)
    code, _ = run(["delay", "--d", "3", "--m", "0.6666666666666666",
                   "--simulate"], capsys)
    assert code == 0
    repeats = len(measured) - len({id(f) for f in measured})
    assert len(measured) > 100 and repeats == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=3\nm=0.6666666666666666\nx0=0\ny0=1\nt-end=5\n")
    code, out = run(["phase", "--config", str(cfg), "--t-end", "0.05"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    # the explicit flag overrode the config's horizon
    last_t = float(lines[-1].split(",")[0])
    assert abs(last_t - 0.05) < 1e-9


def test_usage_errors_exit_one(capsys):
    assert main(["simulate", "--d", "3", "--m", "0.75",
                 "--init", "bogus"]) == 1
    assert main(["constants", "--d", "0", "--m", "0.75"]) == 1
    assert main(["nonsense"]) == 1
    # runs that would be empty or go backwards: each input is checked once,
    # before any stepping, so these fail at once with an error line
    flow = ["simulate", "--d", "3", "--m", "0.75"]
    phase = ["phase", "--d", "3", "--m", "0.75", "--x0", "0.1", "--y0", "0.05"]
    for argv in (flow + ["--saves", "0"], flow + ["--saves", "-3"],
                 flow + ["--t-end", "0"], flow + ["--t-end", "-1"],
                 flow + ["--equation", "fd", "--saves", "0"],
                 flow + ["--equation", "fdr-delayed", "--t-end", "0"],
                 flow + ["--cells", "0"], flow + ["--cells", "1"],
                 flow + ["--r-max", "5"], flow + ["--r-max", "-1"],
                 phase + ["--dt", "-0.001"], phase + ["--dt", "0"],
                 phase + ["--t-end", "-1"], phase + ["--t-end", "0"],
                 flow + ["--init", "scaled-barenblatt:0"],
                 flow + ["--init", "scaled-barenblatt:-1"],
                 flow + ["--init", "moment-matched:1.2,1.2"],
                 # dilations whose powers overflow float64
                 flow + ["--init", "scaled-barenblatt:1e-300"],
                 flow + ["--init", "scaled-barenblatt:1e300"],
                 flow + ["--init", "moment-matched:1e-300,2"],
                 flow + ["--init", "moment-matched:0.8,1e300"],
                 # dilations the 400-cell mesh does not resolve: the mass
                 # normalizer would rescale them by 9.4e10, 9.4e65 and 0.015
                 flow + ["--init", "scaled-barenblatt:1e-8"],
                 flow + ["--init", "scaled-barenblatt:1e-30"],
                 flow + ["--init", "scaled-barenblatt:1e4"]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_config_without_path_is_a_usage_error(capsys):
    # --config as the last argument names no file: an error line, exit 1
    assert main(["simulate", "--d", "3", "--m", "0.75", "--config"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_harnack_command(capsys):
    code, out = run(["harnack-check", "--lam0", "0.5", "--lam1", "2.0"],
                    capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_satisfied"] is True
    assert payload["ratio"] >= 1.0


def test_harnack_constant_coefficient_is_the_battery_quotient(capsys):
    code, out = run(["harnack-check", "--coefficient", "constant"], capsys)
    assert code == 0
    ratio, mu, mu_log_h = acc.harnack_quotient("constant", 0.5, 2.0)
    assert json.loads(out) == {
        "ratio": ratio, "log_ratio": math.log(ratio), "mu": mu,
        "mu_log_h": mu_log_h, "bound_satisfied": True}


def test_shoot_scan_out(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    code, out = run(["shoot", "--problem", "disk", "--scan-out", str(scan)],
                    capsys)
    assert code == 0
    a_star = json.loads(out)["a_star"]
    lines = scan.read_text().splitlines()
    assert lines[0] == "a,slope_at_one,sign_changes"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert len(rows) == 75
    # the scan holds the bracket that located a*: adjacent rows on the
    # one-sign-change branch whose slopes f'(1) change sign around it
    brackets = [(a0, a1) for (a0, s0, n0), (a1, s1, n1) in zip(rows, rows[1:])
                if n0 == n1 == 1 and s0 * s1 < 0.0]
    assert [b for b in brackets if b[0] < a_star < b[1]]


def test_constants_builds_where_c_shift_overflowed_float64(tmp_path):
    out_path = tmp_path / "ledger.json"
    assert main(["constants", "--d", "2", "--m", "0.52",
                 "--out", str(out_path)]) == 0
    by_name = {e["name"]: e for e in json.loads(out_path.read_text())}
    assert by_name["t_bar"]["value"] is None  # c_shift > e^700


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("step size underflow")
    monkeypatch.setattr(fdstab.flow, "solve_fdr", fail)
    assert main(["simulate", "--d", "3", "--m", "0.75", "--t-end", "0.1"]) == 2
    assert "numerical failure: step size underflow" in capsys.readouterr().err


def test_simulate_barenblatt_snapshot_out(tmp_path):
    snap = tmp_path / "snap.csv"
    assert main(["simulate", "--d", "3", "--m", "0.75", "--init", "barenblatt",
                 "--t-end", "0.05", "--cells", "120", "--saves", "2",
                 "--out", str(tmp_path / "traj.csv"),
                 "--snapshot-out", str(snap)]) == 0
    lines = snap.read_text().splitlines()
    assert lines[0] == "r,value"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert rows[0][0] == 0.0 and len(rows) > 120
    assert all(v > 0.0 for _, v in rows)


def test_config_boolean_key(tmp_path, capsys):
    cfg = tmp_path / "delay.cfg"
    cfg.write_text("d=3\nm=0.6666666666666666\nsimulate=true\nt-end=0.05\n")
    code, out = run(["delay", "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads(out)
    # the true-valued key became the bare --simulate flag
    assert payload["simulated_tau_path"][0]["t"] == 0.0
