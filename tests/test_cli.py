import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpo.channels import Lossy
from mpo.cli import main
from mpo.montecarlo import (
    bitimely_connectivity_bound,
    closed_form_single_hop,
    mc_multi_hop,
    mc_single_hop,
)
from mpo.netsim import Scenario, preset_dependable, run
from mpo.scenario_io import (
    ScenarioParseError,
    dump_scenario,
    dump_scenario_file,
    parse_scenario,
    parse_scenario_file,
)
from mpo.trace import canonical_json, fingerprint_scenario, read_trace, read_trace_file, write_trace
from strategies import small_scenarios


GOOD_CONFIG = """
[scenario]
n = 3
horizon = 4000
seed = 5

[timers]
sender_timeout = 16
initial_receiver_timeout = 24
timeout_increment = 1

[channels]
default = timely b=3
0->1 = eventually_timely b=2 until=100
1->0 = fair_lossy q=0.5 delay=4:8
2->1 = fair_lossy drop=2
1->2 = strongly_non_timely burst=8 cap=64 delay=1:4

[crashes]
2 = 3000

[labels]
note = smoke
"""


class TestScenarioIO:
    def test_parse_and_run(self):
        scn = parse_scenario(io.StringIO(GOOD_CONFIG))
        assert scn.n == 3 and scn.horizon == 4000
        assert scn.crash_schedule == {2: 3000}
        trace = run(scn)
        assert trace.events

    def test_round_trip_preserves_fingerprint(self, tmp_path):
        scn = preset_dependable(4, seed=9, horizon=3000,
                                crash_victims=(2,), crash_steps=(1500,))
        path = tmp_path / "scn.cfg"
        dump_scenario_file(scn, str(path))
        again = parse_scenario_file(str(path))
        assert again == scn
        assert again.fingerprint() == scn.fingerprint()
        assert run(again).events == run(scn).events

    def test_missing_section_rejected(self):
        with pytest.raises(ScenarioParseError, match=r"\[scenario\]"):
            parse_scenario(io.StringIO("[timers]\nsender_timeout = 4\n"))

    def test_bad_pair_key_rejected(self):
        cfg = "[scenario]\nn = 3\nhorizon = 100\n[channels]\n0-1 = lossy\n"
        with pytest.raises(ScenarioParseError, match="0-1"):
            parse_scenario(io.StringIO(cfg))

    def test_bad_channel_spec_anchored(self):
        cfg = "[scenario]\nn = 3\nhorizon = 100\n[channels]\n0->1 = warp speed\n"
        with pytest.raises(ScenarioParseError, match="channels"):
            parse_scenario(io.StringIO(cfg))

    def test_syntax_error_carries_line(self):
        cfg = "[scenario]\nn = 3\nhorizon = 100\njunk line without equals\n"
        with pytest.raises(ScenarioParseError, match="line"):
            parse_scenario(io.StringIO(cfg))

    def test_topology_requires_all_processes(self):
        cfg = "[scenario]\nn = 3\nhorizon = 100\n[topology]\n0 = 1 2\n"
        with pytest.raises(ScenarioParseError, match="topology"):
            parse_scenario(io.StringIO(cfg))

    def test_propagation_section(self):
        cfg = ("[scenario]\nn = 3\nhorizon = 100\n"
               "[propagation]\np_reliable = 0.8\np_timely = 0.5\nbound = 3\n")
        scn = parse_scenario(io.StringIO(cfg))
        assert scn.propagation.p_reliable == 0.8
        assert scn.propagation.bound == 3

    def test_per_origin_section(self):
        cfg = ("[scenario]\nn = 3\nhorizon = 100\n"
               "[channels]\ndefault = lossy\n"
               "[channels:origin=1]\n0->2 = timely b=2\n"
               "[labels]\nx = 1\n")
        scn = parse_scenario(io.StringIO(cfg))
        assert (0, 2) in scn.origin_channels[1]
        out = io.StringIO()
        dump_scenario(scn, out)
        again = parse_scenario(io.StringIO(out.getvalue()))
        assert again.fingerprint() == scn.fingerprint()


@settings(max_examples=200, deadline=None)
@given(small_scenarios())
def test_ini_and_dict_forms_round_trip(scn):
    out = io.StringIO()
    dump_scenario(scn, out)
    parsed = parse_scenario(io.StringIO(out.getvalue()))
    assert parsed == scn == Scenario.from_dict(scn.to_dict())
    assert hash(parsed) == hash(scn)


@settings(max_examples=30, deadline=None)
@given(small_scenarios())
def test_a_trace_reads_back_its_scenario(scn):
    out = io.StringIO()
    write_trace(run(scn), out)
    assert read_trace(io.StringIO(out.getvalue())).scenario == scn


class TestCliRun:
    def run_config(self, tmp_path, horizon=4000):
        scn = preset_dependable(3, seed=2, horizon=horizon)
        path = tmp_path / "scn.cfg"
        dump_scenario_file(scn, str(path))
        return path

    def test_run_writes_trace(self, tmp_path, capsys):
        cfg = self.run_config(tmp_path)
        out = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_run_is_reproducible_bytes(self, tmp_path):
        cfg = self.run_config(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["run", "--scenario", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--scenario", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_missing_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = main(["run", "--scenario", str(tmp_path / "no.cfg"), "--out", str(out)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_run_takes_a_negative_seed(self, tmp_path):
        # random.Random takes any int; only numpy's estimators refuse one
        cfg = self.run_config(tmp_path, horizon=500)
        out = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", str(cfg), "--out", str(out), "--seed", "-1"]) == 0
        assert read_trace_file(str(out)).scenario.seed == -1

    def test_run_malformed_scenario_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nn = banana\nhorizon = 10\n")
        rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCliAudit:
    def make_trace(self, tmp_path, scn):
        cfg = tmp_path / "scn.cfg"
        dump_scenario_file(scn, str(cfg))
        out = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 0
        return out

    def test_converged_preset_passes(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, preset_dependable(4, seed=3, horizon=8000))
        report = tmp_path / "rep.json"
        rc = main(["audit", "--trace", str(trace), "--report", str(report)])
        assert rc == 0
        obj = json.loads(report.read_text())
        assert obj["leader"] == 0 and obj["converged"]

    @pytest.mark.parametrize("labels", [{"preset": "dependable"},
                                        {"preset": "dependable", "leader": "x"}],
                             ids=["preset without leader", "leader x"])
    def test_labels_are_not_read(self, tmp_path, labels):
        scn = dataclasses.replace(preset_dependable(4, seed=3, horizon=8000), labels=labels)
        trace = self.make_trace(tmp_path, scn)
        report = tmp_path / "rep.json"
        assert main(["audit", "--trace", str(trace), "--report", str(report)]) == 0
        assert sorted(json.loads(report.read_text())["timer_growth"]) == ["1", "2", "3"]

    def test_dead_network_fails_audit(self, tmp_path):
        scn = Scenario(n=3, horizon=3000, seed=1, default_channel=Lossy())
        trace = self.make_trace(tmp_path, scn)
        assert main(["audit", "--trace", str(trace)]) == 1

    def test_cutoff_zero_fails_efficiency(self, tmp_path):
        trace = self.make_trace(tmp_path, preset_dependable(4, seed=3, horizon=8000))
        assert main(["audit", "--trace", str(trace), "--cutoff", "0"]) == 1

    def test_unreadable_trace_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "t.jsonl"
        bad.write_text("not json\n")
        assert main(["audit", "--trace", str(bad)]) == 2
        assert main(["audit", "--trace", str(tmp_path / "none.jsonl")]) == 2


class TestCliMc:
    def test_existence_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--mode", "existence", "--n", "3,5", "--p", "0.8",
                   "--trials", "2000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("mode,n,p,trials,estimate,stderr,closed_form")
        assert len(lines) == 1 + 4  # two sizes x two modes

    def test_existence_rows_pair_each_estimator_with_its_closed_form(self, capsys):
        rc = main(["mc", "--mode", "existence", "--n", "3,5", "--p", "0.3,0.8",
                   "--trials", "1000", "--seed", "4", "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        table = (("single_hop", mc_single_hop, closed_form_single_hop),
                 ("multi_hop", mc_multi_hop, bitimely_connectivity_bound))
        expected = [(mode, n, p, estimator(n, p, 1000, 4), closed_form(n, p))
                    for n in (3, 5) for p in (0.3, 0.8)
                    for mode, estimator, closed_form in table]
        assert len(rows) == len(expected)
        for row, (mode, n, p, est, closed) in zip(rows, expected):
            assert (row["mode"], row["n"], row["p"]) == (mode, n, p)
            assert (row["estimate"], row["stderr"]) == (est.value, est.stderr)
            assert row["closed_form"] == closed

    def test_multi_hop_stability_has_no_closed_form(self, capsys):
        rc = main(["mc", "--mode", "stability-multi", "--n", "4", "--p", "0.9",
                   "--trials", "200", "--seed", "2", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)[0]["closed_form"] is None

    @pytest.mark.parametrize("mode", ["stability-single", "stability-multi"])
    def test_p_one_writes_valid_json(self, capsys, mode):
        rc = main(["mc", "--mode", mode, "--n", "4", "--p", "1", "--trials", "20",
                   "--seed", "2", "--cap", "50", "--json"])
        assert rc == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rows[0]["closed_form"] is None

    def test_stability_mode_json(self, capsys):
        rc = main(["mc", "--mode", "stability-single", "--n", "4", "--p", "0.9",
                   "--trials", "2000", "--seed", "2", "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        q = 0.9 ** 3
        assert abs(rows[0]["estimate"] - q / (1 - q)) < 0.3

    def test_zero_trials_usage_error(self, capsys):
        rc = main(["mc", "--mode", "existence", "--n", "4", "--p", "0.5",
                   "--trials", "0"])
        assert rc == 2

    def test_bad_grid_usage_error(self):
        with pytest.raises(SystemExit):
            main(["mc", "--mode", "existence", "--n", "4,banana", "--p", "0.5",
                  "--trials", "10"])


class TestCliSweepAndDemo:
    def test_sweep_emits_rows(self, capsys):
        rc = main(["sweep", "--target", "3", "--n", "6,10", "--trials", "400",
                   "--seed", "3", "--cap", "500", "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [6, 10]
        assert all(r["mean"] >= 0 for r in rows)

    def test_demo_small_network(self, capsys):
        rc = main(["demo", "--n", "2", "--seed", "4", "--horizon", "6000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "leader=0" in out
        assert "max packets per tail message: " in out
        budget_line = [l for l in out.splitlines() if "max packets" in l][0]
        assert "(linear budget 2)" in budget_line

    def test_demo_with_leader_crash_reports_reelection(self, capsys):
        # crashing the designated leader wires in a backup hub; survivors
        # re-converge on it
        rc = main(["demo", "--n", "4", "--seed", "1", "--horizon", "30000",
                   "--crash", "0@5000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crashes: 0@5000" in out
        assert "converged: leader=1" in out

    def test_demo_crash_of_everyone_rejected(self, capsys):
        rc = main(["demo", "--n", "2", "--seed", "1", "--crash", "0@100,1@200"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_demo_crash_of_follower_converges(self, capsys):
        rc = main(["demo", "--n", "5", "--seed", "6", "--horizon", "20000",
                   "--crash", "2@4000,3@9000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged: leader=0" in out
        assert "crashes: 2@4000, 3@9000" in out

    def test_demo_that_does_not_converge_fails(self, capsys):
        rc = main(["demo", "--n", "3", "--horizon", "100"])
        assert rc == 1
        assert "did not converge" in capsys.readouterr().out

    def test_demo_scenario_replays_to_its_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MPO_SEED", raising=False)  # `run` would take it as --seed
        demo, scn, replay = (str(tmp_path / f) for f in ("demo.jsonl", "demo.ini", "run.jsonl"))
        assert main(["demo", "--n", "4", "--seed", "2", "--horizon", "6000",
                     "--out", demo, "--emit-scenario", scn]) == 0
        assert main(["run", "--scenario", scn, "--out", replay]) == 0
        with open(demo, "rb") as a, open(replay, "rb") as b:
            assert a.read() == b.read()

    def test_env_seed_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MPO_SEED", "77")
        rc = main(["demo", "--n", "3", "--horizon", "5000"])
        assert rc == 0
        assert "seed=77" in capsys.readouterr().out


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    # a stand-in for numpy's ArrayMemoryError; never allocate for real, as an
    # overcommitting machine may grant the memory and then kill the process
    def no_memory(*_args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr("mpo.cli.mc_single_hop", no_memory)
    rc = main(["mc", "--mode", "existence", "--n", "100000", "--p", "0.5", "--trials", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _meta(scenario: dict) -> str:
    return canonical_json({"t": "meta", "fingerprint": fingerprint_scenario(scenario),
                           "scenario": scenario}) + "\n"


def _line(record: dict) -> str:
    """A record's line as write_trace writes it: canonical JSON."""
    return canonical_json(record) + "\n"


_META = _meta({"n": 3, "horizon": 100})
_FINAL = '{"t":"final","leaders":[null,null,null],"crashed":[false,false,false]}\n'

# bytes past the first 8 KiB that text-mode reading decodes at once
_FAR = 9_000

# (input body: scenario file lines after [scenario] for `run`, None for a valid
# scenario, or the whole trace file for `audit`, or bytes, the whole file for
# either; CLI arguments; environment)
BAD_INPUTS = {
    "channel bound 0": ("[channels]\ndefault = timely b=0\n", ["run"], {}),
    "empty delay window": ("[channels]\n0->1 = fair_lossy q=0.5 delay=9:2\n", ["run"], {}),
    "channel bound not a number": ("[channels]\n0->1 = timely b=x\n", ["run"], {}),
    "channel bound 1_0": ("[channels]\n0->1 = timely b=1_0\n", ["run"], {}),
    "channel key the model does not take": (
        "[channels]\ndefault = timely b=4 until=300\n", ["run"], {}),
    "channel key repeated": ("[channels]\n0->1 = timely b=4 b=5\n", ["run"], {}),
    "channel drop and q": ("[channels]\n0->1 = fair_lossy drop=1 q=0.5\n", ["run"], {}),
    "propagation bound 0": (
        "[propagation]\np_reliable = 0.9\np_timely = 0.6\nbound = 0\n", ["run"], {}),
    "sender timeout 0": ("[timers]\nsender_timeout = 0\n", ["run"], {}),
    "unknown origin": ("[channels:origin=9]\n5->6 = timely b=2\n", ["run"], {}),
    "origin pair out of range": ("[channels:origin=1]\n5->6 = timely b=2\n", ["run"], {}),
    "neighbour out of range": ("[topology]\n0 = 1 7\n1 = 0\n2 = 0\n", ["run"], {}),
    "topology keyed 1..n": ("[topology]\n1 = 2\n2 = 3\n3 = 1\n", ["run"], {}),
    "scenario key foo": ("foo = 1\n", ["run"], {}),
    "origin section default": ("[channels:origin=1]\ndefault = timely b=2\n", ["run"], {}),
    "unknown section": ("[bogus]\nx = 1\n", ["run"], {}),
    "channel spec empty": ("[channels]\n0->1 =\n", ["run"], {}),
    "channel spec timely 3": ("[channels]\n0->1 = timely 3\n", ["run"], {}),
    "channel spec timely": ("[channels]\n0->1 = timely\n", ["run"], {}),
    "channel spec fair_lossy without policy": (
        "[channels]\n0->1 = fair_lossy delay=1:2\n", ["run"], {}),
    "run horizon 0": (None, ["run", "--horizon", "0"], {}),
    "MPO_SEED not a number": (None, ["run"], {"MPO_SEED": "abc"}),
    "grid value": (None, ["mc", "--mode", "existence", "--n", "3,x", "--p", "0.5",
                          "--trials", "10"], {}),
    "crash step": (None, ["demo", "--n", "3", "--crash", "1@x"], {}),
    "crash victim repeated": (None, ["demo", "--n", "3", "--crash", "1@10,1@20"], {}),
    "demo horizon 0": (None, ["demo", "--n", "3", "--horizon", "0"], {}),
    "trace event missing fields": (_META + _line({"t": "send", "step": 1}) + _FINAL,
                                   ["audit"], {}),
    "trace meta without fingerprint": (
        '{"t":"meta","scenario":{"n":3,"horizon":100}}\n' + _FINAL, ["audit"], {}),
    "trace scenario without horizon": (_meta({"n": 3}) + _FINAL, ["audit"], {}),
    "fingerprint does not match scenario": (
        '{"t":"meta","fingerprint":"0","scenario":{"n":3,"horizon":100}}\n' + _FINAL,
        ["audit"], {}),
    "trace final without crashed": (
        _META + '{"t":"final","leaders":[null,null,null]}\n', ["audit"], {}),
    "trace crashed list shorter than n": (
        _META + '{"t":"final","leaders":[null,null,null],"crashed":[false]}\n', ["audit"], {}),
    "trace meta line not an object": ("[1]\n" + _FINAL, ["audit"], {}),
    "trace event line a list": (_META + "[1]\n" + _FINAL, ["audit"], {}),
    "trace event line a string": (_META + '"str"\n' + _FINAL, ["audit"], {}),
    "trace event line null": (_META + "null\n" + _FINAL, ["audit"], {}),
    # values the writer's form cannot hold: the line is not an event line
    "trace step not an int": (
        _META + _line({"t": "send", "step": "x", "mid": [0, 1], "kind": "alive",
                       "from": 0, "to": 1}) + _FINAL, ["audit"], {}),
    "trace mid not two ints": (
        _META + _line({"t": "send", "step": 1, "mid": [[1], 2], "kind": "alive",
                       "from": 0, "to": 1}) + _FINAL, ["audit"], {}),
    "trace step negative": (
        _META + _line({"t": "send", "step": -5, "mid": [0, 0], "kind": "alive",
                       "from": 0, "to": 1}) + _FINAL, ["audit"], {}),
    "trace phase origin out of range": (
        _META + _line({"t": "phase", "step": 9, "proc": 0, "origin": -1, "phase": 1})
        + _FINAL, ["audit"], {}),
    "trace seq negative": (
        _META + _line({"t": "send", "step": 9, "mid": [0, -1], "kind": "alive",
                       "from": 0, "to": 1}) + _FINAL, ["audit"], {}),
    "trace phase negative": (
        _META + _line({"t": "phase", "step": 9, "proc": 0, "origin": 0, "phase": -2})
        + _FINAL, ["audit"], {}),
    "trace unknown kind": (
        _META + _line({"t": "send", "step": 9, "mid": [0, 0], "kind": "zzz",
                       "from": 0, "to": 1}) + _FINAL, ["audit"], {}),
    # values the reader checks against the meta record's n=3 and horizon=100
    "trace step past the horizon": (_META + _line({"t": "crash", "step": 101, "proc": 0})
                                    + _FINAL, ["audit"], {}),
    "trace step decreases": (
        _META + _line({"t": "crash", "step": 5, "proc": 0})
        + _line({"t": "crash", "step": 4, "proc": 1}) + _FINAL, ["audit"], {}),
    "trace proc out of range": (
        _META + _line({"t": "leader", "step": 9, "proc": 9, "old": None, "new": 1}) + _FINAL,
        ["audit"], {}),
    "trace subject out of range": (
        _META + _line({"t": "timer", "step": 9, "proc": 0, "subject": 3}) + _FINAL,
        ["audit"], {}),
    "trace from out of range": (
        _META + _line({"t": "deliver", "step": 9, "mid": [0, 0], "from": 3, "to": 1})
        + _FINAL, ["audit"], {}),
    "trace to out of range": (
        _META + _line({"t": "drop", "step": 9, "mid": [0, 0], "from": 0, "to": 7}) + _FINAL,
        ["audit"], {}),
    "trace mid origin out of range": (
        _META + _line({"t": "send", "step": 9, "mid": [3, 0], "kind": "alive",
                       "from": 0, "to": 1}) + _FINAL, ["audit"], {}),
    "trace old leader out of range": (
        _META + _line({"t": "leader", "step": 9, "proc": 0, "old": 5, "new": 0}) + _FINAL,
        ["audit"], {}),
    "trace new leader out of range": (
        _META + _line({"t": "leader", "step": 9, "proc": 0, "old": None, "new": 3}) + _FINAL,
        ["audit"], {}),
    "trace crashed with no crash event": (
        _META + '{"t":"final","leaders":[null,null,null],"crashed":[false,true,true]}\n',
        ["audit"], {}),
    # int fields of the meta record's scenario that int() would truncate
    "trace scenario seed 1.5": (_meta({"n": 3, "horizon": 100, "seed": 1.5}) + _FINAL,
                                ["audit"], {}),
    "trace scenario seed true": (_meta({"n": 3, "horizon": 100, "seed": True}) + _FINAL,
                                 ["audit"], {}),
    "trace scenario timer 16.9": (
        _meta({"n": 3, "horizon": 100, "timers": {"sender_timeout": 16.9}}) + _FINAL,
        ["audit"], {}),
    "trace scenario crash step 2.5": (
        _meta({"n": 3, "horizon": 100, "crashes": {"1": 2.5}}) + _FINAL, ["audit"], {}),
    "trace scenario propagation bound 4.5": (
        _meta({"n": 3, "horizon": 100,
               "propagation": {"p_reliable": 0.9, "p_timely": 0.6, "bound": 4.5}}) + _FINAL,
        ["audit"], {}),
    "trace final leaders not the events' last": (
        _META + "".join(_line({"t": "leader", "step": 9, "proc": p, "old": None, "new": 0})
                        for p in range(3))
        + '{"t":"final","leaders":[1,2,null],"crashed":[false,false,false]}\n', ["audit"], {}),
    "trace scenario p_reliable true": (
        _meta({"n": 3, "horizon": 100,
               "propagation": {"p_reliable": True, "p_timely": 0.5, "bound": 4}}) + _FINAL,
        ["audit"], {}),
    "trace final leader 7": (
        _META + '{"t":"final","leaders":[7,null,null],"crashed":[false,false,false]}\n',
        ["audit"], {}),
    "trace event after the final record": (
        _META + _FINAL + _line({"t": "leader", "step": 99, "proc": 1, "old": None, "new": 0}),
        ["audit"], {}),
    "trace garbage after the final record": (
        _META + _FINAL + "garbage not json\n", ["audit"], {}),
    "trace second final record": (_META + _FINAL + "\n" + _FINAL, ["audit"], {}),
    "trace crashed entry 1": (
        _META + _line({"t": "crash", "step": 5, "proc": 0})
        + '{"t":"final","leaders":[null,null,null],"crashed":[1,false,false]}\n',
        ["audit"], {}),
    "trace final leader true": (
        _META + _line({"t": "leader", "step": 9, "proc": 0, "old": None, "new": 1})
        + '{"t":"final","leaders":[true,null,null],"crashed":[false,false,false]}\n',
        ["audit"], {}),
    "trace final leader 1.0": (
        _META + _line({"t": "leader", "step": 9, "proc": 0, "old": None, "new": 1})
        + '{"t":"final","leaders":[1.0,null,null],"crashed":[false,false,false]}\n',
        ["audit"], {}),
    "trace crashed list longer than n": (
        _META + '{"t":"final","leaders":[null,null,null],"crashed":[false,false,false,false]}\n',
        ["audit"], {}),
    "trace final without leaders": (
        _META + '{"t":"final","crashed":[false,false,false]}\n', ["audit"], {}),
    # nesting too deep for the JSON decoder to recurse through
    "trace final record nested 100,000 deep": (
        _META + '{"t":"final","leaders":' + "[" * 100_000 + "]" * 100_000
        + ',"crashed":[false,false,false]}\n', ["audit"], {}),
    "trace meta line nested 100,000 deep": (
        "[" * 100_000 + "]" * 100_000 + "\n" + _FINAL, ["audit"], {}),
    "audit cutoff -5": (_META + _FINAL, ["audit", "--cutoff", "-5"], {}),
    "audit cutoff past the horizon": (_META + _FINAL, ["audit", "--cutoff", "99999999"], {}),
    "audit window 0": (_META + _FINAL, ["audit", "--window", "0"], {}),
    "audit window -3": (_META + _FINAL, ["audit", "--window", "-3"], {}),
    "sweep n 1": (None, ["sweep", "--n", "1"], {}),
    "sweep target nan": (None, ["sweep", "--target", "nan", "--n", "4", "--trials", "10"], {}),
    "sweep target 1e300": (None, ["sweep", "--n", "2", "--trials", "1", "--target", "1e300"], {}),
    "sweep target 0": (None, ["sweep", "--n", "2", "--trials", "1", "--target", "0"], {}),
    "stability p above 1": (None, ["mc", "--mode", "stability-multi", "--n", "3",
                                   "--p", "1.5", "--trials", "10"], {}),
    "stability cap 0": (None, ["mc", "--mode", "stability-multi", "--n", "3", "--p", "0.5",
                               "--cap", "0", "--trials", "10"], {}),
    "stability n 1": (None, ["mc", "--mode", "stability-single", "--n", "1", "--p", "0.5",
                             "--trials", "10"], {}),
    "empty grid": (None, ["mc", "--mode", "existence", "--n", ",", "--p", "0.5",
                          "--trials", "10"], {}),
    "mc seed -1": (None, ["mc", "--mode", "existence", "--n", "3", "--p", "0.5",
                          "--trials", "10", "--seed", "-1"], {}),
    "sweep seed -1": (None, ["sweep", "--n", "3", "--trials", "10", "--seed", "-1"], {}),
    "scenario file not UTF-8": (b"\xff[scenario]\nn = 3\nhorizon = 100\n", ["run"], {}),
    "scenario label not UTF-8": (
        b"[scenario]\nn = 3\nhorizon = 100\n[labels]\nnote = caf\xe9\n", ["run"], {}),
    "trace file not UTF-8": (b"\xff" + (_META + _FINAL).encode(), ["audit"], {}),
    "trace not UTF-8 past the first read": (
        (_META + "\n" * _FAR).encode() + b"\xc3(\n" + _FINAL.encode(), ["audit"], {}),
}


# row -> what stderr names: for the rows of one bad event line, a line not in
# the writer's form or a field of one that fails its check; for a bad final
# record, that record; for a file that is not UTF-8, the offset of its first
# bad byte; for an argument out of its bounds, the bound rule's message; for a
# bad section, key or channel spec of a scenario file, the rule it breaks
EVENT_ERRORS = {
    "topology keyed 1..n": "keyed 0..n-1",
    "scenario key foo": "unknown key 'foo'",
    "origin section default": "per-origin sections take no default",
    "unknown section": "unknown section [bogus]",
    "channel spec empty": "empty channel spec",
    "channel spec timely 3": "expected key=value, got '3'",
    "channel spec timely": "timely needs b=",
    "channel spec fair_lossy without policy": "fair_lossy needs drop= or q=",
    "mc seed -1": "seed must be >= 0, got -1",
    "sweep seed -1": "seed must be >= 0, got -1",
    "audit cutoff -5": "cutoff must lie in [0, 99], got -5",
    "audit cutoff past the horizon": "cutoff must lie in [0, 99], got 99999999",
    "audit window 0": "window must lie in [1, 100], got 0",
    "sweep n 1": "n must be >= 2, got 1",
    "stability cap 0": "cap must be >= 1, got 0",
    "demo horizon 0": "horizon must be >= 1, got 0",
    "scenario file not UTF-8": "not UTF-8 at byte 0",
    "scenario label not UTF-8": "not UTF-8 at byte 50",
    "trace file not UTF-8": "not UTF-8 at byte 0",
    "trace not UTF-8 past the first read": f"not UTF-8 at byte {len(_META) + _FAR}",
    **dict.fromkeys(["trace event missing fields", "trace step not an int",
                     "trace mid not two ints", "trace step negative",
                     "trace phase origin out of range", "trace seq negative",
                     "trace phase negative", "trace unknown kind"],
                    "not an event line as write_trace writes it"),
    "trace step past the horizon": "bad 'crash' event",
    "trace step decreases": "bad 'crash' event",
    "trace proc out of range": "bad 'leader' event",
    "trace subject out of range": "bad 'timer' event",
    "trace from out of range": "bad 'deliver' event",
    "trace to out of range": "bad 'drop' event",
    "trace mid origin out of range": "bad 'send' event",
    "trace old leader out of range": "bad 'leader' event",
    "trace new leader out of range": "bad 'leader' event",
    "trace final record nested 100,000 deep": "line 2: maximum recursion depth",
    "trace meta line nested 100,000 deep": "line 1: maximum recursion depth",
    **dict.fromkeys(["trace final without crashed", "trace crashed list shorter than n",
                     "trace crashed with no crash event",
                     "trace final leaders not the events' last", "trace final leader 7",
                     "trace crashed entry 1", "trace final leader true",
                     "trace final leader 1.0", "trace crashed list longer than n",
                     "trace final without leaders"], "final record: "),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_is_usage_error(tmp_path, capsys, monkeypatch, name):
    body, argv, env = BAD_INPUTS[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if argv[0] == "run":
        cfg = tmp_path / "scn.cfg"
        if isinstance(body, bytes):
            cfg.write_bytes(body)
        else:
            cfg.write_text("[scenario]\nn = 3\nhorizon = 100\n" + (body or ""))
        argv = argv + ["--scenario", str(cfg), "--out", str(tmp_path / "out.jsonl")]
    elif argv[0] == "audit":
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(body if isinstance(body, bytes) else body.encode())
        argv = argv + ["--trace", str(trace)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert EVENT_ERRORS.get(name, "") in err
