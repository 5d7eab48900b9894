import json

import numpy as np
import pytest

from plasticwalk import convergence
from plasticwalk.cli import main
from plasticwalk.config import ConfigError, ExperimentConfig, parse_rational

from conftest import draw_plastic_compliant


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def time_doc(theta0x=np.pi, theta0y=0.0, delta=-np.pi / 2, tau=2):
    coin = {"delta": 0.0, "zeta0": 0.0, "zeta1": 0.0, "theta0": 0.0,
            "theta1": 0.5, "phi0": 0.0, "phi1": 0.0, "b": "1/1"}
    return {
        "walk": {
            "mode": "time", "tau": tau, "a": "0/1", "delta_spatial": 1.0,
            "coin_x": {**coin, "theta0": theta0x},
            "coin_y": {**coin, "theta0": theta0y, "delta": delta, "theta1": -0.3},
        },
        "lattice": {"nx": 16, "ny": 16},
        "run": {"t_final": 1.0, "eps": 0.01,
                "eps_list": [2.0 ** -k for k in range(6, 10)],
                "grid": 5, "steps": 50,
                "momenta": [[0.7, -0.3]], "l_index": 0,
                "initial": {"type": "random"}},
        "output": {"format": "json", "path": None},
        "seed": 7,
    }


def plastic_doc(rng):
    cfg = draw_plastic_compliant(rng)
    jx, jy = cfg.coin_x, cfg.coin_y

    def coin(j):
        return {"delta": j.delta, "zeta0": j.zeta0, "zeta1": 0.0,
                "theta0": j.theta0, "theta1": j.theta1, "phi0": j.phi0,
                "phi1": 0.0, "b": "1/2"}

    return {
        "walk": {"mode": "plastic", "tau": 2, "a": "1/2", "delta_spatial": 1.0,
                 "coin_x": coin(jx), "coin_y": coin(jy)},
        "lattice": {"nx": 8, "ny": 8},
        "run": {"t_final": 0.5, "eps": 0.01,
                "eps_list": [2.0 ** -k for k in range(6, 10)], "grid": 5,
                "steps": 20, "momenta": [[0.7, -0.3], [0.2, 0.4]],
                "l_index": 0, "initial": {"type": "delta"}},
        "output": {"format": "json", "path": None},
        "seed": 3,
    }


def test_parse_rational_rejects_bad_input():
    assert parse_rational("3/4").numerator == 3
    with pytest.raises(ConfigError):
        parse_rational("1/0")
    with pytest.raises(ConfigError):
        parse_rational(0.5)
    with pytest.raises(ConfigError):
        parse_rational("half")


def test_config_round_trip_is_byte_identical(tmp_path):
    path = write_config(tmp_path, time_doc())
    cfg = ExperimentConfig.load(path)
    text1 = cfg.dumps()
    path2 = tmp_path / "echo.json"
    path2.write_text(text1)
    cfg2 = ExperimentConfig.load(path2)
    assert cfg2.dumps() == text1


def test_check_compliant_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    code = main(["--config", path, "check"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True
    witnesses = {k: v for c in out["conditions"] for k, v in c["witness"].items()}
    assert witnesses["nu"] == 1 and witnesses["p"] == 1


def test_check_odd_tau_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, time_doc(tau=3))
    code = main(["--config", path, "check"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    by_name = {c["name"]: c for c in out["conditions"]}
    assert by_name["tau_even"]["satisfied"] is False


def test_malformed_rational_exits_two(tmp_path, capsys):
    doc = time_doc()
    doc["walk"]["a"] = "1/0"
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "check"]) == 2


def test_missing_config_exits_two(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "check"]) == 2


def test_hamiltonian_command(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "hamiltonian"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["terms"]) == 4
    words = {(t["px"], t["py"]) for t in out["terms"]}
    assert words == {(2, 0), (0, -2), (0, 0), (2, -2)}  # nu = 1 branch
    assert all(len(t["matrix"]) == 8 for t in out["terms"])


def test_hamiltonian_rejects_noncompliant(tmp_path):
    path = write_config(tmp_path, time_doc(theta0y=np.pi))
    assert main(["--config", path, "hamiltonian"]) == 1


def test_pde_command(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = write_config(tmp_path, plastic_doc(rng))
    assert main(["--config", path, "pde"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["calibration"] + 0.5) <= 1e-9
    assert len(out["terms"]) == 4
    assert any("d/dx" in line for line in out["rendered"])


def test_terms_command_counts(tmp_path, capsys):
    rng = np.random.default_rng(6)
    path = write_config(tmp_path, plastic_doc(rng))
    assert main(["--config", path, "terms"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 36
    assert len(out["terms"]) == 36
    groups = {t["group"] for t in out["terms"]}
    assert "l=1+l=1" in groups and "l=2" in groups and "l=1+n=1" in groups


def test_terms_csv_output(tmp_path):
    rng = np.random.default_rng(7)
    out_path = tmp_path / "terms.csv"
    path = write_config(tmp_path, plastic_doc(rng))
    assert main(["--config", path, "--format", "csv",
                 "--output", str(out_path), "terms"]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("l1x,l1y,l2x,l2y")
    assert len(lines) == 37


def test_simulate_reports_norm_drift(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "simulate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm_drift"] <= 1e-12
    assert out["steps"] == 50


def test_converge_csv_with_json_sidecar(tmp_path):
    path = write_config(tmp_path, time_doc())
    out_path = tmp_path / "conv.csv"
    assert main(["--config", path, "--format", "csv",
                 "--output", str(out_path), "converge"]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "eps,error"
    assert len(lines) == 5
    sidecar = json.loads((tmp_path / "conv.csv.json").read_text())
    assert abs(sidecar["slope"] - 1.0) <= 0.3


def test_converge_plastic_mode(tmp_path, capsys):
    rng = np.random.default_rng(8)
    doc = plastic_doc(rng)
    doc["run"]["eps_list"] = [2.0 ** -k for k in range(6, 11)]
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "converge"]) == 0
    out = json.loads(capsys.readouterr().out)
    errs = [s["error"] for s in out["samples"]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert out["slope"] > 0.3


def test_dispersion_command(tmp_path, capsys):
    path = write_config(tmp_path, time_doc())
    assert main(["--config", path, "dispersion"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["bands"]) == 25


def _dispersion_oracle(eps, n, bands):
    """The band table as json.dumps and %.17g write it, one k-point at a time."""
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False).tolist()
    rows = [(x, y, p1, p2) for (x, y), (p1, p2)
            in zip([(x, y) for x in ks for y in ks], bands.reshape(-1, 2).tolist())]
    text = json.dumps({"schema_version": 1, "eps": eps, "bands": [
        {"kx": x, "ky": y, "phase1": p1, "phase2": p2} for x, y, p1, p2 in rows]},
        sort_keys=True, indent=2) + "\n"
    csv = "kx,ky,phase1,phase2\n" + "".join(
        f"{x:.17g},{y:.17g},{p1:.17g},{p2:.17g}\n" for x, y, p1, p2 in rows)
    return text, csv


def _dispersion_outputs(tmp_path, capsys, doc):
    path = write_config(tmp_path, doc)
    outs = []
    for fmt in ("json", "csv"):
        assert main(["--config", path, "--format", fmt, "dispersion"]) == 0
        outs.append(capsys.readouterr().out)
    return tuple(outs)


def test_dispersion_nan_phases_print_as_json_writes_them(tmp_path, capsys):
    doc = time_doc()
    doc["walk"]["coin_x"]["theta1"] = 4.0  # theta0 + theta1 eps overflows to inf
    doc["run"].update(eps=1e308, grid=3)
    ks = np.linspace(-np.pi, np.pi, 3, endpoint=False)
    with np.errstate(invalid="ignore"):
        bands = convergence.dispersion(ExperimentConfig.from_dict(doc).walk, 1e308,
                                       ks[:, None], ks[None, :])
        outs = _dispersion_outputs(tmp_path, capsys, doc)
    assert np.isnan(bands).all()
    assert outs == _dispersion_oracle(1e308, 3, bands)
    assert '"phase1": NaN' in outs[0] and ",nan,nan\n" in outs[1]


def test_dispersion_infinite_phases_print_as_json_writes_them(tmp_path, capsys, monkeypatch):
    bands = np.array([np.nan, np.inf, -np.inf, 0.5, -1e-300, 3.0, np.inf, -np.inf] * 4)[:18]
    monkeypatch.setattr(convergence, "dispersion", lambda *args: bands.reshape(3, 3, 2))
    doc = time_doc()
    doc["run"]["grid"] = 3
    outs = _dispersion_outputs(tmp_path, capsys, doc)
    assert outs == _dispersion_oracle(doc["run"]["eps"], 3, bands)
    assert '"phase2": -Infinity' in outs[0] and ",-inf," in outs[1]


def test_outputs_are_deterministic(tmp_path):
    path = write_config(tmp_path, time_doc())
    dir1 = tmp_path / "run1"
    dir2 = tmp_path / "run2"
    dir1.mkdir()
    dir2.mkdir()
    out1 = dir1 / "out.json"
    out2 = dir2 / "out.json"
    assert main(["--config", path, "--output", str(out1), "--seed", "9", "simulate"]) == 0
    assert main(["--config", path, "--output", str(out2), "--seed", "9", "simulate"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (dir1 / "out.json.field.csv").read_bytes() == (dir2 / "out.json.field.csv").read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("a,b", [("2/3", "3/4"), ("0/1", "1/2")])
def test_check_without_order_one_terms_prints_strict_json(tmp_path, capsys, a, b):
    doc = plastic_doc(np.random.default_rng(9))
    doc["walk"]["a"] = a
    doc["walk"]["coin_x"]["b"] = doc["walk"]["coin_y"]["b"] = b
    assert main(["--config", write_config(tmp_path, doc), "check"]) == 1
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    by_name = {c["name"]: c for c in out["conditions"]}
    assert by_name["exponents_rational"]["witness"]["order_one_terms"] == 0
    assert by_name["no_divergence"] == {"name": "no_divergence", "satisfied": False,
                                        "residual": 1.0, "witness": {}}


def _set(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _initial_kx(value):
    def edit(doc):
        doc["run"]["initial"] = {"type": "plane_wave", "kx": value}
    return edit


def _plastic_tau(doc):
    doc.update(plastic_doc(np.random.default_rng(10)))
    doc["walk"]["tau"] = 4


@pytest.mark.parametrize("edit,command,code", [
    (_plastic_tau, "check", 1),
    (_set("lattice", "nx", 1), "simulate", 2),
    (_set("lattice", "ny", 0), "simulate", 2),
    (_set("run", "grid", 0), "dispersion", 2),
    (_set("run", "eps", -1.0), "simulate", 2),
    (_set("run", "eps", 0.0), "dispersion", 2),
    (_set("run", "eps_list", [0.01, 0.005]), "converge", 2),
    (_set("run", "eps_list", [0.01, 0.0, 0.005]), "converge", 2),
    (_set("run", "momenta", []), "converge", 2),
    (_set("run", "steps", -1), "simulate", 2),
    (_initial_kx("abc"), "simulate", 2),
], ids=["plastic-tau-4", "nx-1", "ny-0", "grid-0", "eps-negative", "eps-zero",
        "eps_list-two", "eps_list-zero-entry", "momenta-empty", "steps-negative",
        "initial-kx-abc"])
def test_bad_input_exit_codes_without_traceback(tmp_path, capsys, edit, command, code):
    doc = time_doc()
    edit(doc)
    assert main(["--config", write_config(tmp_path, doc), command]) == code
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
