"""Scenarios and their text forms: the dict form and its INI layout.

`Scenario.from_dict` is the one reader of the dict form (`to_dict()`),
the `scenario` object of a trace's meta line, whose `canonical_json`
gives the fingerprint.  A config file holds the same keys, one INI
section per dict key, and is read by building the dict and handing it
to `from_dict`.  Only the section layout is INI-specific:

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

    [propagation]                ; optional; per-message sampling mode, which
                                 ; replaces every [channels...] entry
    p_reliable = 0.9
    p_timely = 0.6
    bound = 3

    [labels]                     ; optional free-form annotations
    preset = dependable
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping, TextIO

from .channels import (ChannelModel, GeneralPropagation, Timely, model_from_spec,
                       model_to_spec, read_float, read_int)
from .core import TimerConfig, check_int, check_ints, check_type


class ScenarioError(ValueError):
    """Scenario fails validation."""


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    Immutable and checked on construction: a bad field raises ScenarioError
    (or a model's ConfigurationError), so every Scenario that exists is
    valid.  The mapping fields hold read-only copies of the dicts given, and
    `adjacency` a tuple of frozensets, so neither a write into a field nor a
    later change to a value passed in reaches a Scenario.  Labels are kept as
    text, sorted by key, as the dict form writes them, so a Scenario equals
    itself read back from either text form.  A Scenario hashes as its
    fingerprint, which equal Scenarios share.  Override a field with
    `dataclasses.replace`, which checks the result again.
    """

    n: int
    horizon: int
    seed: int = 0
    timers: TimerConfig = field(default_factory=TimerConfig)
    default_channel: ChannelModel = field(default_factory=lambda: Timely(4))
    channels: Mapping[tuple[int, int], ChannelModel] = field(default_factory=dict)
    origin_channels: Mapping[int, Mapping[tuple[int, int], ChannelModel]] = field(
        default_factory=dict
    )
    adjacency: tuple[frozenset[int], ...] | None = None
    crash_schedule: Mapping[int, int] = field(default_factory=dict)
    propagation: GeneralPropagation | None = None
    labels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("channels", "crash_schedule"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "origin_channels", MappingProxyType(
            {o: MappingProxyType(dict(pairs)) for o, pairs in self.origin_channels.items()}))
        object.__setattr__(self, "labels", MappingProxyType(
            dict(sorted((str(k), str(v)) for k, v in self.labels.items()))))
        if self.adjacency is not None:
            try:
                object.__setattr__(self, "adjacency", tuple(map(frozenset, self.adjacency)))
            except TypeError:
                raise ScenarioError("adjacency must hold a collection of process ids per"
                                    f" process, got {self.adjacency!r}") from None
        check_ints(self, ScenarioError, n=2, horizon=1)
        check_int("seed", self.seed, ScenarioError)
        n = self.n
        check_type("timers", self.timers, TimerConfig, "a TimerConfig", ScenarioError)
        check_type("default_channel", self.default_channel, ChannelModel, "a channel model",
                   ScenarioError)
        check_type("propagation", self.propagation, GeneralPropagation | None,
                   "a GeneralPropagation or None", ScenarioError)
        _check_pairs("channels", self.channels, n)
        for origin, pairs in self.origin_channels.items():
            check_int("origin_channels origin", origin, ScenarioError, 0, n - 1)
            _check_pairs(f"origin_channels {origin}", pairs, n)
        for p, step in self.crash_schedule.items():
            check_int("crashed process", p, ScenarioError, 0, n - 1)
            check_int(f"crash step of process {p}", step, ScenarioError, 1, self.horizon)
        if self.adjacency is not None:
            if len(self.adjacency) != n:
                raise ScenarioError(
                    f"adjacency: the topology needs one out-neighbor list per process,"
                    f" got {len(self.adjacency)} for n={n}"
                )
            for p, neighbors in enumerate(self.adjacency):
                for q in neighbors:
                    check_int(f"adjacency: process {p}'s neighbour", q, ScenarioError, 0, n - 1)

    def to_dict(self) -> dict[str, Any]:
        return {key: write(getattr(self, attr)) for key, (attr, write, _) in _DICT_FORM.items()}

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "Scenario":
        """Inverse of `to_dict`; the one way text or JSON becomes a Scenario.

        Values may be numbers or strings (a config file's form).  An
        omitted key keeps the field default; a bad value raises
        ScenarioError naming its key.
        """
        for key in ("n", "horizon"):
            if key not in obj:
                raise ScenarioError(f"missing required key {key!r}")
        kwargs = {}
        for key, value in obj.items():
            if key not in _DICT_FORM:
                raise ScenarioError(f"unknown key {key!r}")
            attr, _, read = _DICT_FORM[key]
            try:
                kwargs[attr] = read(value)
            except (ValueError, TypeError, AttributeError) as exc:
                raise ScenarioError(f"{key}: {exc}") from None
        return cls(**kwargs)

    def fingerprint(self) -> str:
        return fingerprint_scenario(self.to_dict())

    def __hash__(self) -> int:  # the generated hash fails on the mapping fields
        return hash(self.fingerprint())


def _check_pairs(where: str, pairs, n: int) -> None:
    for (u, v), model in pairs.items():
        check_int(f"{where}: channel pair process", u, ScenarioError, 0, n - 1)
        check_int(f"{where}: channel pair process", v, ScenarioError, 0, n - 1)
        if u == v:
            raise ScenarioError(f"{where}: bad channel pair ({u}, {v})")
        check_type(f"{where} ({u}, {v})", model, ChannelModel, "a channel model", ScenarioError)


def _entries(d: dict, key_fn, value_fn) -> dict:
    out = {}
    for k, v in d.items():
        try:
            out[key_fn(k)] = value_fn(v)
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"key {k!r}: {exc}") from None
    return out


def _pair(key: str) -> tuple[int, int]:
    u, arrow, v = key.partition("->")
    if not arrow:
        raise ValueError("expected 'U->V'")
    return read_int(u), read_int(v)


def _read_pairs(d: dict[str, str]) -> dict[tuple[int, int], ChannelModel]:
    return _entries(d, _pair, model_from_spec)


def _write_pairs(d: dict[tuple[int, int], ChannelModel]) -> dict[str, str]:
    return {f"{u}->{v}": model_to_spec(m) for (u, v), m in sorted(d.items())}


def _optional(convert):
    """`convert`, with None kept as None."""
    return lambda value: None if value is None else convert(value)


def _same(value):
    return value


def _read_timers(d: dict[str, Any]) -> TimerConfig:
    """The `timers` value of the dict form; a key left out keeps its default."""
    return TimerConfig(**{k: read_int(v) for k, v in d.items()})


def _read_propagation(d: dict[str, Any]) -> GeneralPropagation:
    return GeneralPropagation(
        **{k: read_int(v) if k == "bound" else read_float(v) for k, v in d.items()}
    )


# The dict form, written by `to_dict` and read by `from_dict`: dict key ->
# (Scenario field, writer of the field's value, reader of its JSON or
# config-file value).
_DICT_FORM = {
    "n": ("n", _same, read_int),
    "horizon": ("horizon", _same, read_int),
    "seed": ("seed", _same, read_int),
    "timers": ("timers", asdict, _read_timers),
    "default_channel": ("default_channel", model_to_spec, model_from_spec),
    "channels": ("channels", _write_pairs, _read_pairs),
    "origin_channels": (
        "origin_channels",
        lambda d: {str(o): _write_pairs(pairs) for o, pairs in sorted(d.items())},
        lambda d: _entries(d, read_int, _read_pairs),
    ),
    "adjacency": (
        "adjacency",
        _optional(lambda a: [sorted(s) for s in a]),
        _optional(lambda a: tuple(frozenset(map(read_int, s)) for s in a)),
    ),
    "crashes": (
        "crash_schedule",
        lambda d: {str(p): s for p, s in sorted(d.items())},
        lambda d: _entries(d, read_int, read_int),
    ),
    "propagation": ("propagation", _optional(asdict), _optional(_read_propagation)),
    # text already, and sorted (see `Scenario`)
    "labels": ("labels", dict, dict),
}


# the one JSON form of trace lines, scenario fingerprints and configuration
# hashes: keys sorted, no spaces, and a MessageId, being a tuple, written as
# [origin, seq]; the trace's event line templates write the same bytes
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fingerprint_scenario(scenario: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(scenario).encode()).hexdigest()[:16]


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


def read_text_file(path: str, read: Callable[[TextIO], Any], error: type[ValueError]) -> Any:
    """`read` of the UTF-8 text file at `path`; an `error` it raises, or a byte
    not UTF-8, raises `error` naming the path (and the byte's offset)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read(fh)
        except error as exc:
            raise error(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            pass
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None
    raise error(f"{path}: not UTF-8")  # the file changed since it was read


def parse_scenario_file(path: str) -> Scenario:
    return read_text_file(path, lambda fh: parse_scenario(fh, path), ScenarioParseError)


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
