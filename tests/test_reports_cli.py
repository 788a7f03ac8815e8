import json
import math
import re
import shutil

import numpy as np
import pytest

from asymcsit import (
    CsitQuality,
    ExperimentConfig,
    PlanValidationError,
    build_preset,
    dof_region,
    plan_as_dict,
    region_as_dict,
    region_export,
    run,
    sweep,
)
from asymcsit import evaluator, reports
from asymcsit.cli import main
from asymcsit.reports import CSV_HEADER
from asymcsit.schemes import perturb_link_prelog


SMALL = dict(p_grid_db=[60.0, 80.0, 100.0], n_trials=120, n_cycles=6, seed=7)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(alpha1=0.3, alpha2=0.5)
        assert cfg.p_grid_db == [60.0, 80.0, 100.0, 120.0]
        assert cfg.n_trials == 2000 and cfg.n_cycles == 50
        assert cfg.tolerance == 0.05

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig(alpha1=0.3, alpha2=0.5, p_grid_db=[80, 60])

    @pytest.mark.parametrize("grid,message", [
        ([60.0, 80.0], "at least 3 points"),
        ([60.0, 70.0, 80.0], "at least 40 dB"),
        ([0.0, 20.0, 40.0, 60.0], "above 0 dB"),
        ([math.nan, 80.0, 100.0, 120.0], "finite"),
        ([60.0, 80.0, 4000.0], "4000.0 dB overflows"),
        ([], "at least 3 points"),
        ([60.0, 100.0, 100.0004, 120.0], r"100\.0 and 100\.0004 dB share one channel stream"),
    ])
    def test_rejects_grid_the_fit_cannot_use(self, grid, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(alpha1=0.3, alpha2=0.5, p_grid_db=grid)

    @pytest.mark.parametrize("field,value", [
        ("n_trials", "20"),
        ("n_trials", 20.5),
        ("n_cycles", True),
        ("seed", 7.5),
        ("seed", -1),
        ("p_grid_db", [60.0, "80", 100.0]),
        ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("tolerance", -0.01),
    ])
    def test_rejects_field_of_wrong_type_or_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(alpha1=0.3, alpha2=0.5, **{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['n_trial', 'trials'\]"):
            ExperimentConfig.from_dict({"alpha1": 0.3, "alpha2": 0.5, "trials": 20, "n_trial": 20})

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            ExperimentConfig(alpha1=0.3, alpha2=0.5, schemes=["bogus"])

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError, match="at least one scheme"):
            ExperimentConfig(alpha1=0.3, alpha2=0.5, schemes=[])

    @pytest.mark.parametrize("a1, a2", [(0.3, 3.0), (0.6, 0.5), (-0.1, 0.5)])
    def test_rejects_quality_pair_before_the_grid(self, tmp_path, a1, a2):
        # alpha2 = 3 used to fail the grid's precision ceiling first, an
        # error that named the grid, not the pair
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha1": a1, "alpha2": a2}))
        with pytest.raises(ValueError, match=r"need 0 <= alpha1 <= alpha2 <= 1"):
            ExperimentConfig.from_file(path)

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha1": 0.3, "alpha2": 0.5, "n_trials": 10}))
        cfg = ExperimentConfig.from_file(path, {"seed": 99})
        assert cfg.n_trials == 10 and cfg.seed == 99


class TestRun:
    def test_end_to_end(self, tmp_path):
        cfg = ExperimentConfig(alpha1=0.3, alpha2=0.5,
                               schemes=["case-ii", "sc-zf", "ges12-asym"],
                               output_dir=tmp_path / "out", **SMALL)
        report = run(cfg)
        assert len(report.results) == 3
        case_ii = next(r for r in report.results if r.name == "case-ii")
        assert case_ii.target.as_tuple() == pytest.approx((0.7, 0.9), abs=1e-12)
        for r in report.results:
            assert r.within_region
            assert abs(r.estimate.slope.d1 - r.target.d1) < 0.1
        assert (tmp_path / "out" / "ledger.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "region.json").exists()

        lines = (tmp_path / "out" / "ledger.csv").read_text().splitlines()
        assert lines[1] == CSV_HEADER
        # one row per (scheme, grid point)
        assert len(lines) == 2 + 3 * 3

        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["schema"] == "asymcsit-report-v1"
        assert {s["name"] for s in rep["schemes"]} == {"case-ii", "sc-zf", "ges12-asym"}

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg1 = ExperimentConfig(alpha1=0.3, alpha2=0.5, schemes=["case-ii"],
                                output_dir=tmp_path / "a", **SMALL)
        cfg2 = ExperimentConfig(alpha1=0.3, alpha2=0.5, schemes=["case-ii"],
                                output_dir=tmp_path / "b", **SMALL)
        run(cfg1)
        run(cfg2)
        a = (tmp_path / "a" / "ledger.csv").read_bytes()
        b = (tmp_path / "b" / "ledger.csv").read_bytes()
        assert a == b

    def test_scheme_condition_error_names_condition(self, tmp_path):
        cfg = ExperimentConfig(alpha1=0.3, alpha2=0.5, schemes=["case-i"],
                               output_dir=tmp_path / "out", **SMALL)
        with pytest.raises(Exception, match=r"2\*alpha2 - alpha1 >= 1"):
            run(cfg)


class TestSweep:
    def test_sweep_routes_cases_and_indexes(self, tmp_path):
        base = ExperimentConfig(alpha1=0.0, alpha2=0.0, schemes=["auto"],
                                output_dir=tmp_path / "sw", **SMALL)
        qualities = [CsitQuality(0.1, 0.3), CsitQuality(0.2, 0.8)]
        index = sweep(qualities, base)
        assert len(index["runs"]) == 2
        assert index["runs"][0]["schemes"].keys() == {"case-ii"}
        assert index["runs"][1]["schemes"].keys() == {"case-i"}
        assert (tmp_path / "sw" / "index.json").exists()

    def test_sweep_records_failures_and_continues(self, tmp_path):
        base = ExperimentConfig(alpha1=0.0, alpha2=0.0, schemes=["case-i"],
                                output_dir=tmp_path / "sw", **SMALL)
        index = sweep([CsitQuality(0.3, 0.5), CsitQuality(0.2, 0.8)], base)
        assert "error" in index["runs"][0]
        assert index["runs"][1]["passed"] in (True, False)
        assert "error" not in index["runs"][1]

    def test_sweep_dirs_distinguish_close_qualities(self, tmp_path):
        base = ExperimentConfig(alpha1=0.0, alpha2=0.0, schemes=["sc-zf"],
                                output_dir=tmp_path / "sw", **SMALL)
        index = sweep([CsitQuality(0.1234567, 0.5), CsitQuality(0.1234568, 0.5)], base)
        dirs = [entry["dir"] for entry in index["runs"]]
        assert dirs[0] != dirs[1]
        for d in dirs:
            assert (tmp_path / "sw" / d / "ledger.csv").exists()

    def test_sweep_propagates_programming_errors(self, tmp_path, monkeypatch):
        def broken(config):
            raise RuntimeError("bug")

        monkeypatch.setattr("asymcsit.reports.run", broken)
        base = ExperimentConfig(alpha1=0.0, alpha2=0.0, output_dir=tmp_path / "sw", **SMALL)
        with pytest.raises(RuntimeError, match="bug"):
            sweep([CsitQuality(0.3, 0.5)], base)

    def test_sweep_rejects_empty(self, tmp_path):
        base = ExperimentConfig(alpha1=0.0, alpha2=0.0, output_dir=tmp_path, **SMALL)
        with pytest.raises(ValueError, match="nonempty"):
            sweep([], base)


def _written(out) -> dict:
    """Every file under out, by relative path, as bytes, and then removes
    them; report.json without its wall time, the one field that differs
    between two runs."""
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
    shutil.rmtree(out)
    return {name: re.sub(rb'"wall_time_s": [^,]*,', b"", data) if name.endswith("report.json") else data
            for name, data in files.items()}


class TestNumpyScalars:
    """numpy scalars pass the config's checks (numbers.Integral and
    numbers.Real); they used to stop run() with a TypeError when it wrote
    report.json, after ledger.csv, and so abort a whole sweep.  Of exactly
    representable values, they must write the bytes that Python scalars
    write, into the same directory."""

    PY = dict(alpha1=0.25, alpha2=0.5, tolerance=0.25, seed=7, n_trials=120, n_cycles=6, p_grid_db=[60.0, 80.0, 100])
    NP = dict(alpha1=np.float32(0.25), alpha2=np.float16(0.5), tolerance=np.longdouble(0.25), seed=np.int64(7),
              n_trials=np.int32(120), n_cycles=np.uint8(6), p_grid_db=[np.float64(60.0), np.float32(80.0), np.int64(100)])

    def test_run_writes_the_bytes_of_python_scalars(self, tmp_path):
        written = []
        for fields in (self.PY, self.NP):
            cfg = ExperimentConfig(schemes=["sc-zf", "ges12-asym"], output_dir=tmp_path / "out", **fields)
            assert [type(getattr(cfg, f)) for f in fields] == [type(v) for v in self.PY.values()]
            assert list(map(type, cfg.p_grid_db)) == [float, float, int]
            run(cfg)
            written.append(_written(tmp_path / "out"))
        assert written[1] == written[0]
        assert set(written[0]) == {"ledger.csv", "report.json", "region.json"}

    def test_sweep_writes_the_bytes_of_python_scalars(self, tmp_path):
        written = []
        for fields, pairs in ((self.PY, [CsitQuality(0.25, 0.5), CsitQuality(0, 0.5)]),
                              (self.NP, [CsitQuality(np.float32(0.25), np.float32(0.5)),
                                         CsitQuality(np.int64(0), np.float64(0.5))])):
            index = sweep(pairs, ExperimentConfig(schemes=["sc-zf"], output_dir=tmp_path / "sw", **fields))
            assert [(e["alpha1"], e["alpha2"], "error" in e) for e in index["runs"]] == [(0.25, 0.5, False),
                                                                                        (0, 0.5, False)]
            written.append(_written(tmp_path / "sw"))
        assert written[1] == written[0]
        assert len(written[0]) == 7 and b'"alpha1": 0,' in written[0]["index.json"]


class TestRegionExport:
    def test_region_file_contents(self, tmp_path):
        path = region_export(CsitQuality(0.3, 0.5), tmp_path / "region.json")
        d = json.loads(path.read_text())
        assert [0.7, 0.9] in [[round(a, 6), round(b, 6)] for a, b in d["vertices"]]

    def test_outside_case_region_drops_intersection(self, tmp_path):
        path = region_export(CsitQuality(0.2, 0.8), tmp_path / "region.json")
        d = json.loads(path.read_text())
        rounded = [[round(a, 4), round(b, 4)] for a, b in d["vertices"]]
        assert [0.6, 1.0] in rounded
        assert [0.5333, 1.1333] not in rounded

    def test_no_csit_region_is_capped_triangle(self, tmp_path):
        path = region_export(CsitQuality(0.0, 0.0), tmp_path / "region.json")
        d = json.loads(path.read_text())
        rounded = {tuple(round(x, 6) for x in v) for v in d["vertices"]}
        assert (round(2 / 3, 6), round(2 / 3, 6)) in rounded


class TestCli:
    def test_region_stdout(self, capsys):
        assert main(["region", "--alpha1", "0.3", "--alpha2", "0.5"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["alpha1"] == 0.3

    def test_region_out_file(self, tmp_path, capsys):
        path = tmp_path / "r" / "region.json"
        assert main(["region", "--alpha1", "0.3", "--alpha2", "0.5", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert json.loads(path.read_text()) == json.loads(json.dumps(region_as_dict(dof_region(CsitQuality(0.3, 0.5)))))

    def test_region_out_that_is_a_directory_leaves_no_temp_file(self, tmp_path, capsys):
        # the rename onto the directory fails; its temp file used to stay
        # behind as D.tmp
        out = tmp_path / "D"
        out.mkdir()
        assert main(["region", "--alpha1", "0.3", "--alpha2", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["D"]
        assert list(out.iterdir()) == []

    def test_run_command(self, tmp_path, capsys):
        rc = main([
            "run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "sc-zf",
            "--grid-db", "60,80,100", "--trials", "100", "--cycles", "4",
            "--seed", "7", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert "sc-zf" in capsys.readouterr().out
        assert (tmp_path / "o" / "ledger.csv").exists()

    def test_run_condition_error_exit_code(self, tmp_path, capsys):
        rc = main([
            "run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "case-i",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "2*alpha2 - alpha1 >= 1" in capsys.readouterr().err

    def test_validate_command(self, capsys):
        rc = main(["validate", "--scheme", "case-ii", "--alpha1", "0.3",
                   "--alpha2", "0.5", "--cycles", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan valid" in out
        assert "eta_hat_3_1" in out

    @pytest.mark.parametrize("diags, code", [([], 0), (["power budget exceeded: slot 1 has exponent 1.5 > 1"], 1)])
    def test_validate_json_is_one_document(self, capsys, monkeypatch, diags, code):
        # the two header lines and "plan valid" used to surround the JSON
        monkeypatch.setattr("asymcsit.cli.validate_plan", lambda plan: list(diags))
        rc = main(["validate", "--scheme", "case-ii", "--alpha1", "0.3", "--alpha2", "0.5", "--cycles", "1", "--json"])
        assert rc == code
        doc = json.loads(capsys.readouterr().out)
        plan = build_preset("case-ii", CsitQuality(0.3, 0.5), 1)
        assert doc == {**json.loads(json.dumps(plan_as_dict(plan))), "diagnostics": diags}

    def test_validate_prints_diagnostics(self, capsys, monkeypatch):
        # every preset validates clean, so the diagnostics are patched in
        diags = ["power budget exceeded: slot 1 has exponent 1.5 > 1", "predicted DoF (1.0, 1.0) outside the region"]
        monkeypatch.setattr("asymcsit.cli.validate_plan", lambda plan: list(diags))
        rc = main(["validate", "--scheme", "case-ii", "--alpha1", "0.3", "--alpha2", "0.5", "--cycles", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.endswith("diagnostics:\n" + "".join(f"  - {d}\n" for d in diags))
        assert "plan valid" not in out

    def test_sweep_skips_empty_quality_items(self, tmp_path, capsys, monkeypatch):
        seen = []

        def record(qualities, base):
            seen.extend((q.alpha1, q.alpha2) for q in qualities)
            return {"runs": []}

        monkeypatch.setattr("asymcsit.cli.sweep", record)
        rc = main(["sweep", "--qualities", ",0.1:0.3,, 0.2:0.8 ,", "--out-dir", str(tmp_path / "sw")])
        assert rc == 0
        assert seen == [(0.1, 0.3), (0.2, 0.8)]

    def test_sweep_command(self, tmp_path, capsys):
        rc = main([
            "sweep", "--qualities", "0.1:0.3,0.2:0.8", "--schemes", "auto",
            "--grid-db", "60,80,100", "--trials", "60", "--cycles", "3",
            "--out-dir", str(tmp_path / "sw"),
        ])
        assert rc == 0
        assert (tmp_path / "sw" / "index.json").exists()

    def test_sweep_rejects_short_grid_before_running(self, tmp_path, capsys):
        rc = main([
            "sweep", "--qualities", "0.1:0.3,0.2:0.8", "--schemes", "auto",
            "--grid-db", "60,80", "--out-dir", str(tmp_path / "sw"),
        ])
        assert rc == 2
        assert "at least 3 points" in capsys.readouterr().err
        assert not (tmp_path / "sw" / "index.json").exists()

    @pytest.mark.parametrize("grid", ["0,20,40,60", "nan,80,100,120"])
    def test_sweep_rejects_unusable_grid_before_running(self, tmp_path, capsys, grid):
        rc = main([
            "sweep", "--qualities", "0.3:0.5", "--grid-db", grid, "--out-dir", str(tmp_path / "sw"),
        ])
        assert rc == 2
        assert "finite and above 0 dB" in capsys.readouterr().err
        assert not (tmp_path / "sw" / "index.json").exists()

    def test_run_rejects_overflowing_grid_before_running(self, tmp_path, capsys):
        # 10**(4000/10) overflows a float: the grid check must refuse the
        # point before any SnrPoint is built
        rc = main([
            "run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "sc-zf",
            "--grid-db", "60,80,4000", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "4000.0 dB overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_rejects_negative_seed_before_running(self, tmp_path, capsys):
        rc = main(["sweep", "--qualities", "0.3:0.5", "--seed", "-1", "--out-dir", str(tmp_path / "sw")])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sw" / "index.json").exists()

    def test_sweep_names_bad_quality_item(self, tmp_path, capsys):
        rc = main(["sweep", "--qualities", "0.1:0.3,0.3", "--out-dir", str(tmp_path / "sw")])
        assert rc == 2
        assert "'0.3' is not of the form alpha1:alpha2" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, item", [("60,x,120", "'x'"), ("60,,120", "''")])
    def test_run_names_bad_grid_item(self, tmp_path, capsys, grid, item):
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--grid-db", grid,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert f"--grid-db item {item} is not a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scheme", ["ges12-asym", "sc-zf", "case-ii"])
    def test_validate_rejects_zero_cycles_for_every_scheme(self, capsys, scheme):
        rc = main(["validate", "--scheme", scheme, "--alpha1", "0.3", "--alpha2", "0.5", "--cycles", "0"])
        assert rc == 2
        assert "n_cycles must be >= 1, got 0" in capsys.readouterr().err

    def test_config_file_with_fractional_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha1": 0.3, "alpha2": 0.5, "seed": 7.5}))
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--config", str(path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "seed must be an integer, got 7.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content,message", [
        ([1, 2], "must hold a JSON object, got list"),
        ({"alpha1": 0.3, "alpha2": 0.5, "output_dir": None}, "output_dir must be a string or a path, got None"),
        ({"alpha1": 0.3, "alpha2": 0.5, "schemes": "case-ii"}, "schemes must be a list of strings, got 'case-ii'"),
    ], ids=["top-level-list", "null-output-dir", "schemes-string"])
    def test_config_file_of_wrong_shape_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--config", str(path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_run_names_the_quality_pair_before_the_grid(self, tmp_path, capsys):
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "3", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "need 0 <= alpha1 <= alpha2 <= 1, got (0.3, 3.0)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_grid_with_bad_quality_pair_exits_2(self, tmp_path, capsys):
        # the file's grid is fine at alpha2 <= 1 and above the precision
        # ceiling at alpha2 = 3: the pair is the fault named
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p_grid_db": [200.0, 250.0, 300.0]}))
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "3", "--config", str(path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "need 0 <= alpha1 <= alpha2 <= 1, got (0.3, 3.0)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_rejects_grid_above_the_precision_ceiling(self, tmp_path, capsys):
        rc = main([
            "run", "--alpha1", "1", "--alpha2", "1", "--grid-db", "260,290,320",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "above the precision ceiling" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_checks_every_pair_before_running(self, tmp_path, capsys):
        # 320 dB is fine at alpha2 = 0.5 but above the ceiling at alpha2 = 1
        rc = main([
            "sweep", "--qualities", "0.3:0.5,1:1", "--schemes", "sc-zf", "--grid-db", "60,200,320",
            "--out-dir", str(tmp_path / "sw"),
        ])
        assert rc == 2
        assert "above the precision ceiling at alpha2 = 1.0" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.fixture
    def no_estimates(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr("asymcsit.reports.estimate_dof", refuse)
        monkeypatch.setattr("asymcsit.reports.estimate_dofs", refuse)

    def test_run_refuses_a_repeated_scheme(self, tmp_path, capsys, no_estimates):
        # each plan used to be estimated twice, with duplicate ledger rows
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "auto,case-ii,sc-zf,sc-zf",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "scheme 'sc-zf' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_refuses_two_names_for_one_preset(self, tmp_path, capsys, no_estimates):
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "auto,case-ii",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "schemes 'auto' and 'case-ii' both build case-ii" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_builds_every_plan_before_the_first_estimate(self, tmp_path, capsys, no_estimates):
        # sc-zf used to spend a full estimate before case-ii was refused
        rc = main(["run", "--alpha1", "0.2", "--alpha2", "0.8", "--schemes", "sc-zf,case-ii",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "case-ii requires 2*alpha2 - alpha1 < 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_refuses_a_repeated_pair_before_running(self, tmp_path, capsys, no_estimates):
        # both spellings name one pair, run into one directory; 0 and -0 name
        # one pair too, which used to run twice, into a1_0p0_a2_0p5 and
        # a1_-0p0_a2_0p5
        for qualities, pair in (("0.3:0.5,0.30:0.5", "(0.3, 0.5)"), ("0:0.5,-0:0.5", "(-0.0, 0.5)")):
            rc = main(["sweep", "--qualities", qualities, "--schemes", "sc-zf",
                       "--out-dir", str(tmp_path / "sw")])
            assert rc == 2
            assert f"quality pair {pair} is listed twice" in capsys.readouterr().err
            assert not (tmp_path / "sw").exists()

    def test_run_validates_every_plan_before_the_first_stream(self, tmp_path, monkeypatch):
        # sc-zf used to be estimated in full before case-ii's validation failed
        build, streams = reports.build_preset, []

        def mismatched_case_ii(name, quality, n_cycles):
            plan = build(name, quality, n_cycles)
            return perturb_link_prelog(plan, plan.links[0].interference_id, 0.1) if name == "case-ii" else plan

        monkeypatch.setattr(reports, "build_preset", mismatched_case_ii)
        monkeypatch.setattr(evaluator, "_seed_words", lambda *args: streams.append("_seed_words"))
        monkeypatch.setattr(evaluator, "_draw", lambda *args: streams.append("_draw"))
        config = ExperimentConfig(0.3, 0.5, schemes=["sc-zf", "case-ii"], output_dir=tmp_path / "o", **SMALL)
        with pytest.raises(PlanValidationError, match="quantization rate mismatch"):
            run(config)
        assert streams == []

    @pytest.mark.parametrize("command", [
        ["run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "case-ii,sc-zf"],
        ["sweep", "--qualities", "0.3:0.5,0.2:0.8", "--schemes", "sc-zf"],
    ], ids=["run", "sweep"])
    def test_unusable_out_dir_refused_before_the_first_estimate(self, tmp_path, capsys, no_estimates, command):
        # an --out-dir that is a file used to fail only when the first
        # report was written, after every estimate had run
        path = tmp_path / "taken"
        path.write_text("a file\n")
        rc = main(command + ["--out-dir", str(path)])
        assert rc == 2
        assert "File exists" in capsys.readouterr().err
        assert path.read_text() == "a file\n"

    def test_config_file_flag(self, tmp_path):
        cfg = {"alpha1": 0.3, "alpha2": 0.5, "schemes": ["sc-zf"],
               "p_grid_db": [60, 80, 100], "n_trials": 60, "n_cycles": 3,
               "output_dir": str(tmp_path / "o")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--config", str(path)])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["n_trials"] == 60

    def test_config_file_flag_equal_to_default_overrides(self, tmp_path):
        cfg = {"alpha1": 0.3, "alpha2": 0.5, "schemes": ["sc-zf"],
               "p_grid_db": [60, 80, 100], "n_trials": 60, "n_cycles": 3, "seed": 3,
               "output_dir": str(tmp_path / "o")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # 7 is also the flag's default value; an explicit flag still wins
        rc = main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--config", str(path), "--seed", "7"])
        assert rc == 0
        config = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        assert config["seed"] == 7
        assert config["n_trials"] == 60
