"""Instance configuration files and deterministic run reports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .arith import (RATIONAL_LITERAL, Wall, is_saturated, rat, saturate,
                    vec)
from .instances import BUILTINS, FixedPointInstance, builtin_instance

TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


@dataclass
class InstanceConfig:
    instance: FixedPointInstance
    warnings: tuple = ()
    raw: dict = field(default_factory=dict)

    @property
    def walls(self):
        return self.instance.walls


def require_keys(entry, keys, where):
    """Raise a ConfigError naming where unless entry is a JSON object with
    every one of keys; the message names the first missing key."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in entry:
            raise ConfigError(f"{where}: missing key {key!r}")


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rational(x):
    """Whether rat reads x: a JSON integer or a "num/den" string."""
    return _is_integer(x) or (isinstance(x, str) and
                              RATIONAL_LITERAL.fullmatch(x.strip()) is not None)


def _array_of(is_item):
    return lambda x: isinstance(x, list) and all(map(is_item, x))


# (key, JSON type, test) of the values read from wall and point entries
WALL_TYPES = (("id", "an integer", _is_integer),
              ("alpha", "an array of integers", _array_of(_is_integer)),
              ("sigma_tilde", "an array of rationals",
               _array_of(_is_rational)))
POINT_TYPES = (("c_const", "a rational", _is_rational),
               ("c_linear", "an array of rationals", _array_of(_is_rational)))


def _require_types(entry, types, where, untyped=()):
    """require_keys for the untyped keys and those of types, then a
    ConfigError naming where and the key unless each value of types has
    its JSON type."""
    require_keys(entry, untyped + tuple(key for key, _, _ in types), where)
    for key, kind, ok in types:
        if not ok(entry[key]):
            raise ConfigError(f"{where}: key {key!r} must be {kind}")


def _parse_walls(entries, path):
    walls = []
    warnings = []
    seen = set()
    for i, entry in enumerate(entries):
        where = f"{path}.walls[{i}]"
        _require_types(entry, WALL_TYPES, where)
        st = frozenset(rat(x) for x in entry["sigma_tilde"])
        if not st:
            raise ConfigError(f"{where}: sigma_tilde must be nonempty")
        if not is_saturated(st):
            st = saturate(st)
            warnings.append(
                f"{where}: sigma_tilde was not saturated; saturated on load")
        wid = entry["id"]
        if wid in seen:
            raise ConfigError(f"{where}: duplicate wall id {wid}")
        seen.add(wid)
        wall = Wall(id=wid, alpha=tuple(entry["alpha"]), sigma_tilde=st)
        if any(w.alpha == wall.alpha for w in walls):
            raise ConfigError(
                f"{where}: duplicate wall covector {wall.alpha}; distinct "
                "walls must have distinct kernels")
        walls.append(wall)
    return tuple(walls), warnings


ARRAY_KEYS = ("points", "walls", "lambdas", "generators")
VECTOR_KEYS = ("lambdas", "generators")


def _check_types(data, path):
    """Raise a ConfigError naming path and the key unless data is a JSON
    object whose array keys hold arrays, whose vector arrays hold arrays of
    rationals, and whose builtin sizes or rank are integers."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in ARRAY_KEYS:
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise ConfigError(f"{path}: key {key!r} must be a JSON array")
        if key in VECTOR_KEYS:
            for i, entry in enumerate(entries):
                if not isinstance(entry, list):
                    raise ConfigError(
                        f"{path}.{key}[{i}]: expected a JSON array")
                if not all(map(_is_rational, entry)):
                    raise ConfigError(
                        f"{path}.{key}[{i}]: expected an array of rationals")
    for key in ("n", "ell") if "builtin" in data else ("rank",):
        if key in data and not _is_integer(data[key]):
            raise ConfigError(f"{path}: key {key!r} must be an integer")


def parse_config(data: dict, path="config") -> InstanceConfig:
    _check_types(data, path)
    warnings = []
    if "builtin" in data:
        if data["builtin"] not in BUILTINS:
            raise ConfigError(f'{path}: unknown builtin {data["builtin"]!r}; '
                              f'expected one of {", ".join(BUILTINS)}')
        if "n" not in data:
            raise ConfigError(
                f'{path}: builtin {data["builtin"]!r} needs a size "n"')
        params = {k: v for k, v in data.items()
                  if k in ("n", "ell", "lambdas")}
        if "lambdas" in params:
            params["lambdas"] = tuple(vec(l) for l in params["lambdas"])
        inst = builtin_instance(data["builtin"], **params)
    elif "points" in data:
        require_keys(data, ("name", "rank"), path)
        for i, entry in enumerate(data["points"]):
            _require_types(entry, POINT_TYPES, f"{path}.points[{i}]",
                           untyped=("id",))
        for i, entry in enumerate(data.get("walls", [])):
            _require_types(entry, WALL_TYPES, f"{path}.walls[{i}]")
        inst = FixedPointInstance.from_json(data)
    elif "walls" in data:
        if "rank" not in data:
            raise ConfigError(f"{path}: wall configs need a rank")
        walls, wall_warnings = _parse_walls(data["walls"], path)
        warnings.extend(wall_warnings)
        rank = data["rank"]
        for w in walls:
            if len(w.alpha) != rank:
                raise ConfigError(
                    f"{path}: wall {w.id} covector length != rank {rank}")
        inst = FixedPointInstance(
            name=data.get("name", "walls-only"), rank=rank,
            points=("*",), c_const={"*": rat(0)},
            c_linear={"*": tuple(rat(0) for _ in range(rank))},
            walls=walls,
            lambdas=tuple(vec(l) for l in data.get("lambdas", [])),
            generators=tuple(vec(g) for g in data.get("generators", [])) or
            tuple(tuple(1 if i == j else 0 for j in range(rank))
                  for i in range(rank)),
        )
    else:
        raise ConfigError(
            f"{path}: expected a builtin name, an inline points table, or "
            "a walls array")
    if "walls" in data and "builtin" in data:
        walls, wall_warnings = _parse_walls(data["walls"], path)
        warnings.extend(wall_warnings)
        inst = replace(inst, walls=walls)
    return InstanceConfig(instance=inst, warnings=tuple(warnings), raw=data)


def load_instance(path: str) -> InstanceConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}") \
            from exc
    return parse_config(data, path)


def run_report(command: str, inputs, outputs, checks=None) -> dict:
    """Deterministic report: identical inputs give byte-identical JSON."""
    blob = json.dumps(inputs, sort_keys=True, default=str).encode()
    return {
        "command": command,
        "inputs_hash": hashlib.sha256(blob).hexdigest(),
        "outputs": outputs,
        "checks": checks if checks is not None else {},
        "tool_version": TOOL_VERSION,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=str)
