import json
import math
import subprocess
import sys

import pytest

from liouville_lab.cli import main
from liouville_lab.config import load_defaults, parse_config
from liouville_lab.report import (
    ReportEntry,
    all_pass,
    emit,
    parse_csv,
    parse_json,
    render_csv,
    render_json,
)
from liouville_lab.scenarios import SCENARIOS, run_scenario


def _entry(**kw):
    base = dict(check_id="demo/check", params={"N": 1}, measured=1.0,
                expected=1.0, tolerance=1e-6, provenance="trivial")
    base.update(kw)
    return ReportEntry(**base)


class TestReportEntry:
    def test_pass_on_absolute(self):
        e = _entry(measured=1.0 + 5e-7)
        assert e.pass_ and e.abs_err == pytest.approx(5e-7)

    def test_pass_on_relative(self):
        e = _entry(measured=2.0000001, expected=2.0, tolerance=1e-6)
        assert e.pass_

    def test_fail(self):
        e = _entry(measured=2.0, expected=1.0)
        assert not e.pass_

    def test_zero_expected_uses_absolute(self):
        e = _entry(measured=1e-9, expected=0.0, tolerance=1e-6)
        assert e.pass_ and math.isinf(e.rel_err)

    def test_provenance_validated(self):
        with pytest.raises(ValueError):
            _entry(provenance="guessed")


class TestEmit:
    def test_empty_json(self, tmp_path):
        path = tmp_path / "empty.json"
        emit([], "json", path)
        assert path.read_text(encoding="utf-8").strip() == "[]"

    def test_csv_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit([_entry()], "csv", path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("check_id,params,measured")

    def test_json_round_trip_bit_exact(self):
        entries = [_entry(measured=math.pi, expected=16 * math.pi, tolerance=1e-6,
                          provenance="paper"),
                   _entry(check_id="a/b", measured=-1.2345678901234567e-12,
                          expected=0.0, tolerance=1e-9, provenance="derived")]
        back = parse_json(render_json(entries))
        for orig, copy in zip(sorted(entries, key=lambda e: e.check_id),
                              sorted(back, key=lambda e: e.check_id)):
            assert copy.measured == orig.measured
            assert copy.expected == orig.expected
            assert copy.tolerance == orig.tolerance
            assert copy.pass_ == orig.pass_

    def test_csv_round_trip_bit_exact(self):
        entries = [_entry(measured=1.0 / 3.0, expected=2.0 / 3.0, tolerance=1e-1,
                          provenance="derived", params={"seed": 42, "mu": 0.1})]
        back = parse_csv(render_csv(entries))
        assert back[0].measured == entries[0].measured
        assert back[0].expected == entries[0].expected
        assert back[0].params == entries[0].params

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "yaml", tmp_path / "x.yaml")


class TestConfig:
    def test_parse_key_value(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("rel_tol = 1e-9  # tight\nseed = 7\n", encoding="utf-8")
        values = parse_config(path)
        assert values == {"rel_tol": "1e-9", "seed": "7"}

    def test_defaults_load(self):
        cfg = load_defaults()
        assert cfg.rel_tol == 1e-8
        assert cfg.seed == 42

    def test_override_file(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("seed = 11\n", encoding="utf-8")
        cfg = load_defaults(path)
        assert cfg.seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("bogus = 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_defaults(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("not a pair\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config(path)


class TestScenarios:
    def test_identities_all_pass(self):
        entries = run_scenario("identities", {"n_max": 64})
        assert entries and all_pass(entries)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_scenario("nonsense", {})

    def test_names_exposed(self):
        assert "all" in SCENARIOS and "conjecture-disk" in SCENARIOS

    def test_sorted_output(self):
        entries = run_scenario("identities", {})
        ids = [e.check_id for e in entries]
        assert ids == sorted(ids)

    def test_branch_scenario_expected_values(self):
        entries = run_scenario("branch", {"N": 1})
        folds = [e for e in entries
                 if e.check_id == "branch/fold-lambda" and e.params["N"] == 1]
        assert folds and folds[0].expected == 8.0 and folds[0].pass_
        harnacks = [e for e in entries
                    if e.check_id == "branch/harnack" and e.params["N"] == 1]
        assert harnacks and all(e.expected == pytest.approx(math.log(8.0)) for e in harnacks)


class TestCli:
    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "id.json"
        code = main(["verify", "--scenario", "identities", "--seed", "42",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        entries = parse_json(out.read_text(encoding="utf-8"))
        assert entries and all(e.pass_ for e in entries)

    def test_unknown_scenario_exit_two(self, tmp_path):
        code = main(["verify", "--scenario", "bogus", "--out",
                     str(tmp_path / "x.json"), "--format", "json"])
        assert code == 2

    def test_missing_argument_exit_two(self):
        assert main(["verify", "--scenario", "identities"]) == 2

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", "identities", "--seed", "-1",
                     "--out", str(out), "--format", "json"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_io_failure_exit_three(self, tmp_path):
        target = tmp_path / "no-such-dir" / "x.json"
        code = main(["verify", "--scenario", "identities", "--out", str(target),
                     "--format", "json"])
        assert code == 3

    def test_csv_output(self, tmp_path):
        out = tmp_path / "id.csv"
        code = main(["verify", "--scenario", "identities", "--out", str(out),
                     "--format", "csv"])
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("check_id,")

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "id.json"
        main(["verify", "--scenario", "identities", "--seed", "7",
              "--out", str(out), "--format", "json"])
        data = json.loads(out.read_text(encoding="utf-8"))
        seeded = [d for d in data if "seed" in d["params"]]
        assert seeded and all(d["params"]["seed"] == 7 for d in seeded)

    def test_failing_entries_exit_one(self, tmp_path, monkeypatch):
        import liouville_lab.cli as cli_mod

        failing = _entry(measured=5.0, expected=1.0, tolerance=1e-9)
        assert not failing.pass_
        monkeypatch.setattr(cli_mod, "run_scenario", lambda *a, **k: [failing])
        code = main(["verify", "--scenario", "identities",
                     "--out", str(tmp_path / "f.json"), "--format", "json"])
        assert code == 1

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "id.json"
        proc = subprocess.run(
            [sys.executable, "-m", "liouville_lab.cli", "verify", "--scenario",
             "identities", "--out", str(out), "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
