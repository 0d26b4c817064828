import contextlib
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import liouville_lab.scenarios as scenarios_mod
from liouville_lab.cli import main
from liouville_lab.config import INPUT_TYPES, load_defaults, parse_config
from liouville_lab.errors import NotASolutionError, QuadratureBudgetError
from liouville_lab.report import (
    ReportEntry,
    emit,
    render_csv,
    render_json,
)
from liouville_lab.scenarios import INPUTS, SCENARIOS, run_scenario
from oracles import parse_csv, parse_json


def _entry(**kw):
    base = dict(check_id="demo/check", params={"N": 1}, measured=1.0,
                expected=1.0, tolerance=1e-6, provenance="trivial")
    base.update(kw)
    return ReportEntry(**base)


def _usage_error(capsys, code, out) -> None:
    """Exit 2, exactly one ``usage error:`` line on stderr, no report."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


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
        # without a file nothing is set: every scenario runs on its INPUTS defaults
        assert load_defaults() == {}

    def test_override_file(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("seed = 11\nN = 3\nmu = 14\ntol = 1e-9\n", encoding="utf-8")
        assert load_defaults(path) == {"seed": 11, "N": 3, "mu": 14.0, "tol": 1e-9}

    def test_mistyped_value_rejected(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("N = 2.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="N: expected int"):
            load_defaults(path)

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
        entries = run_scenario("identities", {"N": 64})
        assert entries and all(e.pass_ for e in entries)

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

    def test_guards_name_the_records_their_blocks_write(self, monkeypatch):
        # the ids a guard names matter only when its block raises: each block
        # must write exactly those records, in that order
        guard = scenarios_mod._records
        blocks = []

        @contextlib.contextmanager
        def watched(entries, params, ids):
            start = len(entries)
            with guard(entries, params, ids) as guarded:
                yield guarded
            blocks.append((ids, tuple(e.check_id for e in entries[start:])))

        monkeypatch.setattr(scenarios_mod, "_records", watched)
        for name in ("pohozaev", "interaction", "conjecture-disk"):
            scenarios_mod._SCENARIO_FUNCS[name](
                **{key: s.default for key, s in INPUTS[name].items()})
        assert len(blocks) == 10
        assert all(named == written for named, written in blocks), blocks


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

    @pytest.mark.parametrize("scenario", [s for s in SCENARIOS if "tol" not in INPUTS.get(s, {})])
    def test_tol_rejected_where_ignored(self, tmp_path, capsys, scenario):
        # every scenario but bubble pins its own tolerances; --tol must not
        # pass there as if it had been applied
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", scenario, "--tol", "1e-6",
                     "--out", str(out), "--format", "json"])
        _usage_error(capsys, code, out)

    def test_tol_reaches_bubble_quadrature(self, monkeypatch):
        seen = []
        real = scenarios_mod.bubbles.total_mass

        def spy(params, spec=None):
            seen.append(spec.rel_tol)
            return real(params, spec)

        monkeypatch.setattr(scenarios_mod.bubbles, "total_mass", spy)
        run_scenario("bubble", {"seed": 42, "tol": 1e-10})
        assert seen and set(seen) == {1e-10}

    @pytest.mark.parametrize("scenario, flag, value", [
        # at 1e-14 the peak panels' estimates are their roundoff floors, which
        # exceed their share of the tolerance; no bisection can lower them
        ("bubble", "tol", "1e-14"),
        ("bubble", "tol", "1e-2"),
        # the interaction kernel's disk of radius 0.5/eps has its peak of width 1
        # at the centre, which needs more of the tolerance than its panels' width
        ("interaction", "mu", "20"),
        ("interaction", "mu", "24"),
        ("conjecture-disk", "mu", "40"),
        # the secular coefficient -2 e^(-mu) is of order one here
        ("farfield", "mu", "0"),
        ("farfield", "mu", "4"),
        # the gap of about 5e-15 at N = 2, L = 40 against |V| of about 150
        ("farfield", "mu", "100"),
        # nested disks at low and high peak height: a spread bubble at 0 and a
        # peak of width e^-7 at 14
        ("pohozaev", "mu", "0"),
        ("pohozaev", "mu", "14"),
    ])
    def test_range_ends_exit_zero(self, tmp_path, scenario, flag, value):
        out = tmp_path / "report.json"
        code = main(["verify", "--scenario", scenario, f"--{flag}", value,
                     "--out", str(out), "--format", "json"])
        entries = parse_json(out.read_text(encoding="utf-8"))
        assert code == 0 and entries and all(e.pass_ for e in entries)

    def test_override_outside_domain_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", "identities", "--N", "300",
                     "--out", str(out), "--format", "json"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: identities:") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    def test_library_error_becomes_failing_record(self, tmp_path, capsys):
        # at mu = 8 the translation-kernel fit is too coarse: its residual
        # record fails, and nothing else does
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", "interaction", "--mu", "8",
                     "--out", str(out), "--format", "json"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        records = json.loads(out.read_text(encoding="utf-8"))
        assert len(records) == 10
        failed = [r["check_id"] for r in records if not r["pass"]]
        assert failed == ["interaction/kernel-fit-residual"]

    def test_wrong_interaction_fails_records_not_the_scenario(self, tmp_path):
        # at mu = 100 the quadrature misses the closed forms; the run still
        # writes every interaction record, and the failing ones give exit 1
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", "interaction", "--mu", "100",
                     "--out", str(out), "--format", "json"])
        records = json.loads(out.read_text(encoding="utf-8"))
        assert code == 1 and len(records) == 10
        failed = {r["check_id"] for r in records if not r["pass"]}
        assert {"interaction/pure-separation", "interaction/pure-coefficient"} <= failed

    def test_library_error_in_one_scenario_keeps_the_others(self, monkeypatch):
        def broken(**inputs):
            raise QuadratureBudgetError("quadrature budget exceeded: test",
                                        value=0.0, estimate=1e-6, tolerance=1e-9)

        funcs = {"identities": scenarios_mod.scenario_identities, "moments": broken}
        monkeypatch.setattr(scenarios_mod, "_SCENARIO_FUNCS", funcs)
        entries = run_scenario("all", {"seed": 42})
        failed = [e for e in entries if not e.pass_]
        assert [e.check_id for e in failed] == ["moments/error"]
        assert failed[0].params["exception"] == "QuadratureBudgetError"
        assert any(e.check_id.startswith("identities/") for e in entries)

    def test_library_error_fails_only_the_records_it_feeds(self, monkeypatch):
        original = scenarios_mod.pohozaev.byparts_identity
        calls = []

        def first_call_raises(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise QuadratureBudgetError("quadrature budget exceeded: test",
                                            value=0.0, estimate=3e-9, tolerance=1e-11)
            return original(*args, **kwargs)

        monkeypatch.setattr(scenarios_mod.pohozaev, "byparts_identity", first_call_raises)
        entries = run_scenario("pohozaev", {"mu": 10.0})
        failed = [e for e in entries if not e.pass_]
        assert len(entries) == 9 and [e.check_id for e in failed] == ["pohozaev/byparts-kernel"]
        assert failed[0].params["exception"] == "QuadratureBudgetError"
        assert failed[0].params["N"] == 1 and failed[0].params["mu"] == 10.0
        assert failed[0].params["estimate"] == 3e-9 and failed[0].params["quad_tol"] == 1e-11
        assert "pohozaev/error" not in {e.check_id for e in entries}

    def test_separation_error_spares_the_coefficient_record(self, monkeypatch):
        # the pure-separation quadrature raises; pure-coefficient and the
        # moment records have their own blocks and pass, and additivity, which
        # needs both coefficients, fails unrun
        original = scenarios_mod.interaction.interaction_coefficient
        calls = []

        def separation_raises(params, spec):
            calls.append(params)
            if params.h_l == params.h_s:
                raise QuadratureBudgetError("quadrature budget exceeded: test",
                                            value=math.nan, estimate=math.nan, tolerance=1e-12)
            return original(params, spec)

        monkeypatch.setattr(scenarios_mod.interaction, "interaction_coefficient",
                            separation_raises)
        entries = run_scenario("interaction", {"mu": 16.0})
        status = {e.check_id: e.pass_ for e in entries}
        assert len(entries) == 10 and len(calls) == 2
        assert status["interaction/pure-coefficient"]
        assert [e.check_id for e in entries if not e.pass_] == [
            "interaction/additivity", "interaction/pure-separation"]
        additivity = next(e for e in entries if e.check_id == "interaction/additivity")
        assert additivity.params["message"].startswith("not computed")
        # a NaN estimate stays out of the record, beside the tolerance it missed
        separation = next(e for e in entries if e.check_id == "interaction/pure-separation")
        assert separation.params["exception"] == "QuadratureBudgetError"
        assert "estimate" not in separation.params and separation.params["quad_tol"] == 1e-12

    def test_failed_moment_records_keep_their_provenance(self, tmp_path):
        # at mu = 26 the phi1, phi2 quadrature misses its budget: both records
        # fail, as the paper's claims they check
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", "interaction", "--mu", "26",
                     "--out", str(out), "--format", "json"])
        records = json.loads(out.read_text(encoding="utf-8"))
        failed = {r["check_id"]: r["provenance"] for r in records if not r["pass"]}
        assert code == 1 and len(records) == 10
        assert failed == {"interaction/phi1-moment": "paper", "interaction/phi2-moment": "paper"}

    def test_failed_bubble_residual_keeps_its_provenance(self, monkeypatch):
        def raises(params):
            raise NotASolutionError("not a solution: test")

        monkeypatch.setattr(scenarios_mod.pohozaev, "bubble_field", raises)
        entries = run_scenario("pohozaev", {"mu": 10.0})
        failed = [e for e in entries if not e.pass_]
        assert len(failed) == 3
        assert all(e.check_id == "pohozaev/bubble-residual" and e.provenance == "paper"
                   for e in failed)

    def test_nan_pohozaev_residual_fails(self, monkeypatch):
        original = scenarios_mod.pohozaev.pohozaev_check

        def nan_residual(*args, **kwargs):
            rep = original(*args, **kwargs)
            return dataclasses.replace(rep, residual=np.full_like(rep.residual, np.nan))

        monkeypatch.setattr(scenarios_mod.pohozaev, "pohozaev_check", nan_residual)
        entries = run_scenario("pohozaev", {"mu": 10.0})
        residual = [e for e in entries if e.check_id == "pohozaev/bubble-residual"]
        assert len(residual) == 3 and not any(e.pass_ for e in residual)

    def test_nan_dichotomy_ratio_fails(self, monkeypatch):
        original = scenarios_mod.harmonic.root_gradients

        def nan_ratio(*args):
            g, ratios = original(*args)
            return g, np.full_like(ratios, math.nan)

        monkeypatch.setattr(scenarios_mod.harmonic, "root_gradients", nan_ratio)
        entries = run_scenario("layer-dichotomy", {"seed": 42})
        (ratio,) = [e for e in entries if e.check_id == "layer/dichotomy-min-ratio"]
        assert not ratio.pass_

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
            [sys.executable, "-X", "importtime", "-m", "liouville_lab.cli", "verify",
             "--scenario", "identities", "--out", str(out), "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
        # only the branch scenario's layers need scipy; -X importtime names
        # every module the run loaded, one per stderr line
        scipy_lines = [line for line in proc.stderr.splitlines()
                       if line.startswith("import time:")
                       and line.rsplit("|", 1)[-1].strip().split(".")[0] == "scipy"]
        assert scipy_lines == [], "\n".join(scipy_lines)


# a value inside each input's range that differs from its default
TRIALS = {
    ("identities", "seed"): 7, ("identities", "N"): 3,
    ("bubble", "seed"): 7, ("bubble", "tol"): 1e-9,
    ("farfield", "mu"): 14.0,
    ("layer-dichotomy", "seed"): 7,
    ("interaction", "mu"): 14.0,
    ("pohozaev", "mu"): 6.0,
    ("branch", "N"): 3,
    ("conjecture-disk", "N"): 2, ("conjecture-disk", "mu"): 16.0,
}


class TestInputTable:
    def test_every_declared_input_has_a_trial(self):
        declared = {(name, key) for name, reads in INPUTS.items() for key in reads}
        assert declared == set(TRIALS)
        assert {key for _, key in declared} == set(INPUT_TYPES)
        for (name, key), value in TRIALS.items():
            setting = INPUTS[name][key]
            assert value != setting.default and setting.low <= value <= setting.high

    @pytest.mark.parametrize("name,key", sorted(TRIALS))
    def test_declared_input_reaches_the_scenario(self, name, key):
        value = TRIALS[(name, key)]
        entries = run_scenario(name, {key: value})
        seen = [e.params.get(k) for e in entries for k in (key, f"{key}_max")]
        assert value in seen

    # --tol is TestCli::test_tol_rejected_where_ignored
    @pytest.mark.parametrize("name,key", [(name, key) for name in SCENARIOS
                                          for key in ("N", "mu") if key not in INPUTS.get(name, {})])
    def test_undeclared_input_exits_two(self, tmp_path, capsys, name, key):
        out = tmp_path / "x.json"
        code = main(["verify", "--scenario", name, f"--{key}", "3",
                     "--out", str(out), "--format", "json"])
        _usage_error(capsys, code, out)

    @pytest.mark.parametrize("name", [s for s in SCENARIOS if s != "all"])
    def test_seed_accepted_everywhere(self, tmp_path, name):
        # the benchmark passes --seed to every scenario
        code = main(["verify", "--scenario", name, "--seed", "7",
                     "--out", str(tmp_path / "x.json"), "--format", "json"])
        assert code == 0

    @pytest.mark.parametrize("name,key,value", [
        ("identities", "N", 0), ("identities", "N", 65), ("identities", "N", 2.5),
        ("bubble", "tol", 0.0), ("farfield", "mu", math.nan), ("pohozaev", "mu", -1.0),
        ("branch", "N", 65), ("conjecture-disk", "N", 7), ("all", "seed", -1),
    ])
    def test_out_of_range_input_rejected(self, name, key, value):
        with pytest.raises(ValueError, match=f"{name}: {key} must be"):
            run_scenario(name, {key: value})

    def test_hidden_override_keys_rejected(self):
        with pytest.raises(ValueError, match="layer-dichotomy: no input draws"):
            run_scenario("layer-dichotomy", {"draws": 0})

    @pytest.mark.parametrize("name,config,flags", [
        ("layer-dichotomy", "dichotomy_draws = 0", []),
        ("identities", "identity_n_max = 2", []),
        ("pohozaev", "rel_tol = 1e-2", []),
        ("moments", None, ["--N", "5", "--mu", "3"]),
        ("branch", None, ["--mu", "99"]),
        ("all", None, ["--N", "3"]),
    ])
    def test_silent_overrides_exit_two(self, tmp_path, capsys, name, config, flags):
        # each of these used to exit 0 with the override quietly dropped or
        # weakening a check
        out = tmp_path / "x.json"
        if config is not None:
            (tmp_path / "conf.cfg").write_text(config + "\n", encoding="utf-8")
            flags = flags + ["--config", str(tmp_path / "conf.cfg")]
        code = main(["verify", "--scenario", name, *flags,
                     "--out", str(out), "--format", "json"])
        _usage_error(capsys, code, out)

    def test_config_input_takes_effect_and_flags_win(self, tmp_path):
        conf = tmp_path / "conf.cfg"
        conf.write_text("N = 300\nseed = 5\n", encoding="utf-8")
        out = tmp_path / "id.json"
        code = main(["verify", "--scenario", "identities", "--config", str(conf),
                     "--N", "3", "--out", str(out), "--format", "json"])
        assert code == 0
        params = [r["params"] for r in json.loads(out.read_text(encoding="utf-8"))]
        assert {p["N_max"] for p in params if "N_max" in p} == {3}
        assert {p["seed"] for p in params if "seed" in p} == {5}
