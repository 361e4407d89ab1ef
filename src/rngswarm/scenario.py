"""Scenario files: a YAML mapping that builds a WorldConfig, and its inverse.

Top-level keys: n, V, m, sep, seed, max_rounds, behavior, obstacles, init.
The behavior block takes kind, spacing, gain, leader_index, waypoints,
waypoint_tolerance, max_step. init takes exactly one of positions or box.
Each rule has one home. The loader checks only the file's shape: a mapping,
the known and required keys, and obstacles as a list. Every value rule (an
integer, a number in its range, a list of finite [x, y] pairs, a four-entry
box, and the cross-field rules) belongs to the config classes, which apply
it to Python callers and files alike; their errors are re-raised with field
names replaced by YAML keys (waypoints[0] becomes 'behavior.waypoints[0]'),
so a message always names the offending key.

Files are parsed by `_LOADER`: PyYAML's C parser (libyaml) when PyYAML was
built with it, else its pure-Python one. Only the parser differs; both feed
the same safe constructor and resolver, so a file gives the same values
either way. The file goes to PyYAML as bytes, so PyYAML decodes it (UTF-8,
or UTF-16 with a byte order mark) and every mark in its errors names the
file. A syntax error under libyaml names the line and column but quotes no
source.
"""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from .engine import InitSpec, WorldConfig
from .geom import Polygon
from .motion import BehaviorSpec


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"missing required key '{context}{key}'")
    return mapping[key]


# YAML key -> dataclass field of the scalar settings
_TOP_FIELDS = {
    "n": "n",
    "V": "vis_range",
    "m": "rng_plus",
    "sep": "min_separation",
    "seed": "seed",
    "max_rounds": "max_rounds",
}
_BEHAVIOR_FIELDS = {
    "spacing": "desired_spacing",
    "gain": "spring_gain",
    "leader_index": "leader_index",
    "waypoints": "waypoints",
    "waypoint_tolerance": "waypoint_tolerance",
    "max_step": "max_step",
}
_TOP_KEYS = set(_TOP_FIELDS) | {"behavior", "obstacles", "init"}
_INIT_KEYS = {"positions", "box"}

# dataclass field -> YAML key, for error messages
_YAML_KEYS = {
    **{field: key for key, field in _TOP_FIELDS.items()},
    **{field: f"behavior.{key}" for key, field in _BEHAVIOR_FIELDS.items()},
    "kind": "behavior.kind",
    "init": "init",
    "positions": "init.positions",
    "init.positions": "init.positions",
    "box": "init.box",
}
# a dataclass message leads with the offending field; later in it, indexed
# names (waypoints[0]) name an entry of a list field, and unquoted snake_case
# words the other fields of a cross-field rule (quoted ones are values, such
# as a behaviour kind)
_FIELD_NAME = re.compile(r"^[\w.]+(?:\[\d+\])?|(?<!')\b[a-z]+(?:_[a-z]+)*\[\d+\]|(?<!')\b[a-z]+(?:_[a-z]+)+\b(?!')")


def _yaml_key(match: re.Match) -> str:
    field, bracket, index = match[0].partition("[")
    return f"'{_YAML_KEYS[field]}{bracket}{index}'" if field in _YAML_KEYS else match[0]


def _yaml_message(message: str) -> str:
    return _FIELD_NAME.sub(_yaml_key, message)


def _check_keys(mapping: dict, allowed, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{context}{key}' (allowed: {sorted(allowed)})")


def _mapping(raw: dict, key: str, allowed) -> dict:
    value = _require(raw, key, "")
    if not isinstance(value, dict):
        raise ScenarioError(f"'{key}' must be a mapping")
    _check_keys(value, allowed, f"{key}.")
    return value


def _fields(raw: dict, table: dict) -> dict:
    return {field: raw[key] for key, field in table.items() if key in raw}


def load_scenario(path) -> WorldConfig:
    """Parse and validate a scenario file into a WorldConfig."""
    path = Path(path)
    try:
        with path.open("rb") as stream:
            raw = yaml.load(stream, Loader=_LOADER)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario file must be a mapping at the top level")
    _check_keys(raw, _TOP_KEYS, "")
    for key in ("n", "V"):
        _require(raw, key, "")
    top = _fields(raw, _TOP_FIELDS)

    braw = _mapping(raw, "behavior", _BEHAVIOR_FIELDS.keys() | {"kind"})
    kind = _require(braw, "kind", "behavior.")

    oraw = raw.get("obstacles")
    if not isinstance(oraw, (list, type(None))):
        raise ScenarioError("'obstacles' must be a list of vertex lists")
    obstacles = []
    for idx, verts in enumerate(oraw or []):
        try:
            obstacles.append(Polygon(verts))
        except ValueError as exc:
            raise ScenarioError(f"'obstacles[{idx}]': {exc}") from exc

    init = _mapping(raw, "init", _INIT_KEYS)
    try:
        return WorldConfig(
            behavior=BehaviorSpec.for_range(kind, top["vis_range"], **_fields(braw, _BEHAVIOR_FIELDS)),
            init=InitSpec(**init),
            obstacles=tuple(obstacles),
            **top,
        )
    except ValueError as exc:
        raise ScenarioError(_yaml_message(str(exc))) from exc


def _plain(value):
    """Tuples as lists, at every depth: the sequences `yaml.safe_dump` writes."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _keyed(obj, table: dict) -> dict:
    return {key: _plain(getattr(obj, field)) for key, field in table.items()}


def save_scenario(world: WorldConfig, path) -> None:
    """Write a scenario file that load_scenario turns back into this config,
    its keys taken in order from the tables the loader reads."""
    doc = _keyed(world, _TOP_FIELDS)
    doc["behavior"] = {"kind": world.behavior.kind, **_keyed(world.behavior, _BEHAVIOR_FIELDS)}
    if world.obstacles:
        doc["obstacles"] = [_plain(poly.vertices) for poly in world.obstacles]
    doc["init"] = {key: _plain(value) for key, value in vars(world.init).items() if value is not None}
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))
