"""Scenario files: a YAML mapping that builds a WorldConfig, and its inverse.

Top-level keys: n, V, m, sep, seed, max_rounds, behavior, obstacles, init.
The behavior block takes kind, spacing, gain, leader_index, waypoints,
waypoint_tolerance, max_step. init takes exactly one of positions or box.
Loading checks the shape of the file (known keys, value types) and leaves
every range and cross-field rule to the dataclasses; their errors are
re-raised with field names replaced by YAML keys, so a message always names
the offending key.
"""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from .engine import InitSpec, WorldConfig
from .geom import Polygon
from .motion import BehaviorSpec


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"missing required key '{context}{key}'")
    return mapping[key]


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"'{key}' must be an integer, got {value!r}")
    return value


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"'{key}' must be a number, got {value!r}")
    return float(value)


def _as_pairs(value, key: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"'{key}' must be a list of [x, y] pairs")
    out = []
    for idx, item in enumerate(value):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ScenarioError(f"'{key}[{idx}]' must be an [x, y] pair, got {item!r}")
        out.append((_as_number(item[0], f"{key}[{idx}][0]"), _as_number(item[1], f"{key}[{idx}][1]")))
    return tuple(out)


# YAML key -> (dataclass field, type check) for the scalar settings
_TOP_FIELDS = {
    "n": ("n", _as_int),
    "V": ("vis_range", _as_number),
    "m": ("rng_plus", _as_int),
    "sep": ("min_separation", _as_number),
    "seed": ("seed", _as_int),
    "max_rounds": ("max_rounds", _as_int),
}
_BEHAVIOR_FIELDS = {
    "spacing": ("desired_spacing", _as_number),
    "gain": ("spring_gain", _as_number),
    "leader_index": ("leader_index", _as_int),
    "waypoints": ("waypoints", _as_pairs),
    "waypoint_tolerance": ("waypoint_tolerance", _as_number),
    "max_step": ("max_step", _as_number),
}
_TOP_KEYS = set(_TOP_FIELDS) | {"behavior", "obstacles", "init"}
_INIT_KEYS = {"positions", "box"}

# dataclass field -> YAML key, for error messages
_YAML_KEYS = {
    **{field: key for key, (field, _) in _TOP_FIELDS.items()},
    **{field: f"behavior.{key}" for key, (field, _) in _BEHAVIOR_FIELDS.items()},
    "kind": "behavior.kind",
    "init": "init",
    "positions": "init.positions",
    "init.positions": "init.positions",
    "box": "init.box",
}
# a dataclass message leads with the offending field; unquoted snake_case
# words later in it name the other fields of a cross-field rule (quoted ones
# are values, such as a behaviour kind)
_FIELD_NAME = re.compile(r"^[\w.]+|(?<!')\b[a-z]+(?:_[a-z]+)+\b(?!')")


def _yaml_message(message: str) -> str:
    return _FIELD_NAME.sub(
        lambda m: f"'{_YAML_KEYS[m[0]]}'" if m[0] in _YAML_KEYS else m[0], message
    )


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


def _fields(raw: dict, table: dict, context: str) -> dict:
    return {field: check(raw[key], f"{context}{key}") for key, (field, check) in table.items() if key in raw}


def load_scenario(path) -> WorldConfig:
    """Parse and validate a scenario file into a WorldConfig."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario file must be a mapping at the top level")
    _check_keys(raw, _TOP_KEYS, "")
    for key in ("n", "V"):
        _require(raw, key, "")
    top = _fields(raw, _TOP_FIELDS, "")

    braw = _mapping(raw, "behavior", _BEHAVIOR_FIELDS.keys() | {"kind"})
    kind = _require(braw, "kind", "behavior.")
    behavior = _fields(braw, _BEHAVIOR_FIELDS, "behavior.")

    obstacles = []
    oraw = raw.get("obstacles", [])
    if oraw is None:
        oraw = []
    if not isinstance(oraw, (list, tuple)):
        raise ScenarioError("'obstacles' must be a list of vertex lists")
    for idx, verts in enumerate(oraw):
        pairs = _as_pairs(verts, f"obstacles[{idx}]")
        try:
            obstacles.append(Polygon(pairs))
        except ValueError as exc:
            raise ScenarioError(f"'obstacles[{idx}]': {exc}") from exc

    iraw = _mapping(raw, "init", _INIT_KEYS)
    init = {}
    if "positions" in iraw:
        init["positions"] = _as_pairs(iraw["positions"], "init.positions")
    if "box" in iraw:
        box = iraw["box"]
        if not isinstance(box, (list, tuple)) or len(box) != 4:
            raise ScenarioError("'init.box' must be [xmin, ymin, xmax, ymax]")
        init["box"] = tuple(_as_number(v, f"init.box[{k}]") for k, v in enumerate(box))

    try:
        return WorldConfig(
            behavior=BehaviorSpec.for_range(kind, top["vis_range"], **behavior),
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
    return {key: _plain(getattr(obj, field)) for key, (field, _) in table.items()}


def save_scenario(world: WorldConfig, path) -> None:
    """Write a scenario file that load_scenario turns back into this config,
    its keys taken in order from the tables the loader reads."""
    doc = _keyed(world, _TOP_FIELDS)
    doc["behavior"] = {"kind": world.behavior.kind, **_keyed(world.behavior, _BEHAVIOR_FIELDS)}
    if world.obstacles:
        doc["obstacles"] = [_plain(poly.vertices) for poly in world.obstacles]
    doc["init"] = {key: _plain(value) for key, value in vars(world.init).items() if value is not None}
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))
