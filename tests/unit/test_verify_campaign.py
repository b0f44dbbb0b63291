"""Unit + integration coverage of coverage-guided fuzz campaigns.

The acceptance scenario of the verify subsystem: a farm-sharded
campaign on the elevator-door design reaches 100% transition coverage,
and the buggy variant is caught with a minimized counterexample that
lands in the trace ledger.
"""

import json
import os

import pytest

from repro.cli import main
from repro.designs import DOOR_CTRL_BUGGY_ECL, DOOR_CTRL_ECL
from repro.errors import EclError
from repro.farm import TraceLedger
from repro.verify import (
    VerifyCampaign,
    load_campaign_spec,
    never,
    present,
    within,
)

INTERLOCK = never(present("door_open") & present("motor_on"))


class TestCampaignInline:
    def test_good_controller_reaches_full_transition_coverage(self):
        campaign = VerifyCampaign(
            {"door": DOOR_CTRL_ECL}, "door", "door_ctrl",
            properties=[INTERLOCK],
            rounds=6, jobs_per_round=8, length=48, workers=1, salt=3)
        result = campaign.run()
        assert result.ok
        assert result.reached_target
        assert result.report.complete
        assert result.report.transition_percent == 100.0
        assert not result.violations
        assert "100.0%" in result.summary()

    def test_buggy_controller_caught_and_minimized(self, tmp_path):
        ledger_root = str(tmp_path / "traces")
        campaign = VerifyCampaign(
            {"door": DOOR_CTRL_BUGGY_ECL}, "door", "door_ctrl",
            properties=[INTERLOCK],
            rounds=6, jobs_per_round=8, length=48, workers=1, salt=3,
            ledger_root=ledger_root)
        result = campaign.run()
        assert not result.ok
        violation = result.violations[0]
        assert "door_open & motor_on" in violation.property_text
        # the minimal witness: one empty start instant (non-immediate
        # await), call_btn, then three ticks to the buggy arrival
        assert list(violation.stimulus) == [
            {}, {"call_btn": None}, {"tick": None}, {"tick": None},
            {"tick": None}]
        # the minimized counterexample is persisted in the ledger
        assert violation.trace_digest is not None
        ledger = TraceLedger(ledger_root)
        header, records = ledger.load(violation.trace_digest)
        assert header["module"] == "door_ctrl"
        assert len(records) == 5
        assert set(records[-1]["emitted"]) == {"door_open", "motor_on"}

    def test_campaign_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            campaign = VerifyCampaign(
                {"door": DOOR_CTRL_BUGGY_ECL}, "door", "door_ctrl",
                properties=[INTERLOCK],
                rounds=3, jobs_per_round=6, length=40, workers=1,
                salt=11)
            result = campaign.run()
            outcomes.append(
                (result.jobs_run,
                 tuple(tuple(sorted(i.items()))
                       for v in result.violations for i in v.stimulus)))
        assert outcomes[0] == outcomes[1]

    def test_unknown_design_label_rejected(self):
        with pytest.raises(EclError):
            VerifyCampaign({"door": DOOR_CTRL_ECL}, "ghost", "door_ctrl")

    def test_non_replayable_engine_rejected_at_construction(self):
        with pytest.raises(EclError) as caught:
            VerifyCampaign({"door": DOOR_CTRL_ECL}, "door", "door_ctrl",
                           engine="equivalence")
        assert "campaign engine" in str(caught.value)

    def test_coverage_only_campaign_without_properties(self):
        campaign = VerifyCampaign(
            {"door": DOOR_CTRL_ECL}, "door", "door_ctrl",
            rounds=4, jobs_per_round=8, length=48, workers=1, salt=5)
        result = campaign.run()
        assert result.ok
        assert result.reached_target

    def test_seed_corpus_feeds_round_zero(self):
        seed = [{}, {"call_btn": None}, {"tick": None}, {"tick": None},
                {"tick": None}]
        campaign = VerifyCampaign(
            {"door": DOOR_CTRL_BUGGY_ECL}, "door", "door_ctrl",
            properties=[INTERLOCK],
            rounds=1, jobs_per_round=1, length=8, workers=1,
            seeds=[seed], minimize=False)
        result = campaign.run()
        assert result.violations
        assert result.violations[0].job_label.endswith("#0")


class TestCampaignOnFarm:
    def test_farm_sharded_campaign_full_coverage_and_catch(self, tmp_path):
        """The acceptance criterion, with real worker processes."""
        ledger_root = str(tmp_path / "traces")
        campaign = VerifyCampaign(
            {"door": DOOR_CTRL_BUGGY_ECL}, "door", "door_ctrl",
            properties=[INTERLOCK],
            rounds=4, jobs_per_round=8, length=48, workers=2,
            salt=3, ledger_root=ledger_root)
        result = campaign.run()
        assert result.reached_target
        assert result.report.transition_percent == 100.0
        assert result.violations
        assert result.violations[0].trace_digest is not None


class TestCampaignSpec:
    def _write(self, tmp_path, extra=""):
        (tmp_path / "door.ecl").write_text(DOOR_CTRL_BUGGY_ECL)
        spec = {
            "designs": {"door": "door.ecl"},
            "module": "door_ctrl",
            "properties": [
                {"kind": "never",
                 "pred": {"all": ["door_open", "motor_on"]}}],
            "rounds": 3, "jobs_per_round": 6, "length": 40,
            "workers": 1, "seed": 3,
        }
        spec.update(json.loads(extra) if extra else {})
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_spec_round_trip(self, tmp_path):
        campaign = load_campaign_spec(self._write(tmp_path))
        assert campaign.design == "door"  # single design inferred
        assert campaign.module == "door_ctrl"
        assert campaign.properties == (INTERLOCK,)
        result = campaign.run()
        assert result.violations

    def test_spec_with_seeds_and_ledger(self, tmp_path):
        extra = json.dumps({
            "ledger": "traces",
            "seeds": [[{}, {"call_btn": None}, {"tick": None},
                       {"tick": None}, {"tick": None}]],
        })
        campaign = load_campaign_spec(self._write(tmp_path, extra))
        assert campaign.ledger_root == str(tmp_path / "traces")
        assert len(campaign.seeds) == 1
        result = campaign.run()
        assert result.violations
        assert os.path.isdir(str(tmp_path / "traces"))

    def test_bad_specs_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(EclError):
            load_campaign_spec(str(path))
        path.write_text(json.dumps({"designs": {}}))
        with pytest.raises(EclError):
            load_campaign_spec(str(path))
        (tmp_path / "door.ecl").write_text(DOOR_CTRL_ECL)
        path.write_text(json.dumps(
            {"designs": {"door": "door.ecl"}}))  # no module
        with pytest.raises(EclError):
            load_campaign_spec(str(path))


    @pytest.mark.parametrize("value_range", [[10, 5], "ab", [1, 2, 3],
                                             [0, 2.5], 7])
    def test_bad_value_range_is_named(self, tmp_path, value_range):
        extra = json.dumps({"value_range": value_range})
        with pytest.raises(EclError, match='"value_range"'):
            load_campaign_spec(self._write(tmp_path, extra))


class TestVerifyCli:
    def _design(self, tmp_path, source):
        path = tmp_path / "door.ecl"
        path.write_text(source)
        return str(path)

    def test_verify_run_flags_catch_the_bug(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_BUGGY_ECL)
        report = str(tmp_path / "report.json")
        code = main(["verify", "run", design, "-m", "door_ctrl",
                     "--never", "door_open&motor_on",
                     "--rounds", "3", "--jobs", "6", "-j", "1",
                     "--seed", "3", "--report", report])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out
        assert "minimized" in out
        data = json.load(open(report))
        assert data["ok"] is False
        assert data["violations"]
        assert data["coverage"]["transition_percent"] == 100.0

    def test_verify_run_clean_design_exits_zero(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        code = main(["verify", "run", design, "-m", "door_ctrl",
                     "--never", "door_open&motor_on",
                     "--rounds", "3", "--jobs", "6", "-j", "1",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reached" in out

    def test_verify_run_needs_properties(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        code = main(["verify", "run", design, "-m", "door_ctrl"])
        assert code == 2
        assert "eclc cover" in capsys.readouterr().err

    def test_verify_run_spec(self, tmp_path, capsys):
        (tmp_path / "door.ecl").write_text(DOOR_CTRL_BUGGY_ECL)
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "designs": {"door": "door.ecl"},
            "module": "door_ctrl",
            "properties": [{"kind": "never",
                            "pred": {"all": ["door_open", "motor_on"]}}],
            "rounds": 3, "jobs_per_round": 6, "workers": 1, "seed": 3,
        }))
        code = main(["verify", "run", "--spec", str(spec)])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [
        ("rounds", "x"), ("present_prob", "half"), ("seeds", [[5]]),
        ("present_prob", 5), ("rounds", 2.5)])
    def test_verify_run_spec_bad_field_is_named(self, tmp_path, capsys,
                                                field, value):
        (tmp_path / "door.ecl").write_text(DOOR_CTRL_ECL)
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "designs": {"door": "door.ecl"},
            "module": "door_ctrl",
            "properties": [{"kind": "never",
                            "pred": {"all": ["door_open", "motor_on"]}}],
            field: value,
        }))
        assert main(["verify", "run", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eclc: error:")
        assert field in err

    def test_spec_flags_override_or_are_rejected(self, tmp_path, capsys):
        (tmp_path / "door.ecl").write_text(DOOR_CTRL_BUGGY_ECL)
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "designs": {"door": "door.ecl"},
            "module": "door_ctrl",
            "properties": [{"kind": "never",
                            "pred": {"all": ["door_open", "motor_on"]}}],
            "rounds": 3, "jobs_per_round": 6, "workers": 1, "seed": 3,
        }))
        # flags given next to --spec override the spec's values
        code = main(["verify", "run", "--spec", str(spec),
                     "--jobs", "4", "--rounds", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "4 job(s) over 1 round(s)" in out
        # property flags and a positional file conflict loudly
        assert main(["verify", "run", "--spec", str(spec),
                     "--never", "door_open"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main(["verify", "run", str(tmp_path / "door.ecl"),
                     "--spec", str(spec)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cover_reports_and_gates(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        report = str(tmp_path / "coverage.json")
        code = main(["cover", design, "-m", "door_ctrl",
                     "--rounds", "3", "--jobs", "8", "-j", "1",
                     "--seed", "3", "--fail-under", "100",
                     "--report", report])
        out = capsys.readouterr().out
        assert code == 0
        assert "transitions 11/11" in out
        data = json.load(open(report))
        assert data["coverage"]["transition_percent"] == 100.0

    def test_cover_fail_under_gates(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        # a campaign too small to cover everything: one empty-ish trace
        code = main(["cover", design, "-m", "door_ctrl",
                     "--rounds", "1", "--jobs", "1", "--length", "1",
                     "-j", "1", "--seed", "3", "--fail-under", "100"])
        err = capsys.readouterr().err
        assert code == 1
        assert "below --fail-under" in err

    def test_malformed_predicate_terms_rejected(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        for bad in ("level=3", "door_open|motor_on", "a&&b"):
            code = main(["verify", "run", design, "-m", "door_ctrl",
                         "--never", bad, "--rounds", "1", "--jobs", "2"])
            err = capsys.readouterr().err
            assert code == 1
            assert "bad signal name" in err or "empty predicate" in err

    def test_cover_rejects_the_interpreter_engine(self, tmp_path,
                                                  capsys):
        import pytest as _pytest
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        with _pytest.raises(SystemExit):
            main(["cover", design, "-m", "door_ctrl",
                  "--engine", "interp"])
        assert "invalid choice" in capsys.readouterr().err

    def test_within_property_flag(self, tmp_path, capsys):
        design = self._design(tmp_path, DOOR_CTRL_ECL)
        code = main(["verify", "run", design, "-m", "door_ctrl",
                     "--within", "call_btn:door_open:8",
                     "--rounds", "2", "--jobs", "6", "-j", "1",
                     "--seed", "3"])
        out = capsys.readouterr().out
        # without guaranteed ticks the door may legitimately stall:
        # the campaign reports it either way — just exercise the flag
        assert code in (0, 1)
        assert "campaign:" in out
