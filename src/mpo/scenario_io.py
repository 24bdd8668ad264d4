"""Scenario config files: the INI form of `Scenario.to_dict()`.

A file holds the same keys as the `scenario` object in a trace's meta
line, one INI section per dict key, and is read by building that dict
and handing it to `Scenario.from_dict`, which reads every value and
checks the scenario.  Only the section layout is INI-specific:

    [scenario]                   ; n, horizon and seed
    n = 6
    horizon = 50000
    seed = 42

    [timers]                     ; optional
    sender_timeout = 64
    initial_receiver_timeout = 78
    timeout_increment = 1

    [channels]                   ; `default` is the dict's default_channel
    default = lossy
    0->1 = eventually_timely b=2 until=30
    1->0 = fair_lossy q=0.5 delay=10:20

    [channels:origin=2]          ; optional per-origin overrides; no default
    0->1 = timely b=3

    [topology]                   ; optional `adjacency`, one line per process
    0 = 1 2 3

    [crashes]                    ; optional
    3 = 5000

    [propagation]                ; optional; per-message sampling mode
    p_reliable = 0.9
    p_timely = 0.6
    bound = 3

    [labels]                     ; optional free-form annotations
    preset = dependable
"""

from __future__ import annotations

import configparser
from typing import Any, TextIO

from .netsim import Scenario, ScenarioError

_ORIGIN_PREFIX = "channels:origin="


class ScenarioParseError(ScenarioError):
    """Config file rejected; the message names the section or key at fault."""


def parse_scenario(fh: TextIO, source: str = "<config>") -> Scenario:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    cp.optionxform = str  # keys are case-sensitive, as in the dict form
    try:
        cp.read_file(fh, source=source)
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc)) from None
    if "scenario" not in cp:
        raise ScenarioParseError("missing required section [scenario]")

    obj: dict[str, Any] = {}
    for name in cp.sections():
        rows = dict(cp[name])
        if name == "scenario":
            obj.update(rows)
        elif name == "channels":
            if "default" in rows:
                obj["default_channel"] = rows.pop("default")
            obj["channels"] = rows
        elif name.startswith(_ORIGIN_PREFIX):
            if "default" in rows:
                raise ScenarioParseError(
                    f"section [{name}]: per-origin sections take no default"
                )
            origin = name.removeprefix(_ORIGIN_PREFIX)
            obj.setdefault("origin_channels", {})[origin] = rows
        elif name == "topology":
            ids = [str(p) for p in range(len(rows))]
            if set(rows) != set(ids):
                raise ScenarioParseError(
                    "section [topology]: needs one line per process, keyed 0..n-1"
                )
            obj["adjacency"] = [rows[p].split() for p in ids]
        elif name in ("timers", "crashes", "propagation", "labels"):
            obj[name] = rows
        else:
            raise ScenarioParseError(f"unknown section [{name}]")
    try:
        return Scenario.from_dict(obj)
    except ScenarioError as exc:
        raise ScenarioParseError(str(exc)) from None


def parse_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_scenario(fh, source=path)
        except ScenarioError as exc:
            raise ScenarioParseError(f"{path}: {exc}") from None


def dump_scenario(scn: Scenario, fh: TextIO) -> None:
    d = scn.to_dict()
    sections = {
        "scenario": {k: d[k] for k in ("n", "horizon", "seed")},
        "timers": d["timers"],
        "channels": {"default": d["default_channel"], **d["channels"]},
    }
    for origin, pairs in d["origin_channels"].items():
        sections[f"{_ORIGIN_PREFIX}{origin}"] = pairs
    if d["adjacency"] is not None:
        sections["topology"] = {
            p: " ".join(map(str, neighbors)) for p, neighbors in enumerate(d["adjacency"])
        }
    for name in ("crashes", "propagation", "labels"):
        if d[name]:
            sections[name] = d[name]
    fh.write("\n".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items())
        for name, rows in sections.items()
    ))


def dump_scenario_file(scn: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_scenario(scn, fh)
