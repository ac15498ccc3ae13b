"""Instance configuration files and deterministic run reports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .arith import Wall, is_saturated, rat, saturate, vec
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


WALL_KEYS = ("id", "alpha", "sigma_tilde")


def require_keys(entry, keys, where):
    """Raise a ConfigError naming where unless entry is a JSON object with
    every one of keys; the message names the first missing key."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in entry:
            raise ConfigError(f"{where}: missing key {key!r}")


def _parse_walls(entries, path):
    walls = []
    warnings = []
    seen = set()
    for i, entry in enumerate(entries):
        where = f"{path}.walls[{i}]"
        require_keys(entry, WALL_KEYS, where)
        st = frozenset(rat(x) for x in entry["sigma_tilde"])
        if not st:
            raise ConfigError(f"{where}: sigma_tilde must be nonempty")
        if not is_saturated(st):
            st = saturate(st)
            warnings.append(
                f"{where}: sigma_tilde was not saturated; saturated on load")
        wid = int(entry["id"])
        if wid in seen:
            raise ConfigError(f"{where}: duplicate wall id {wid}")
        seen.add(wid)
        wall = Wall(id=wid, alpha=tuple(int(a) for a in entry["alpha"]),
                    sigma_tilde=st)
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
    object whose array keys hold arrays, whose vector arrays hold arrays,
    and whose builtin sizes are integers."""
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
    if "builtin" in data:
        for key in ("n", "ell"):
            if key in data and (not isinstance(data[key], int)
                                or isinstance(data[key], bool)):
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
            require_keys(entry, ("id", "c_const", "c_linear"),
                         f"{path}.points[{i}]")
        for i, entry in enumerate(data.get("walls", [])):
            require_keys(entry, WALL_KEYS, f"{path}.walls[{i}]")
        inst = FixedPointInstance.from_json(data)
    elif "walls" in data:
        if "rank" not in data:
            raise ConfigError(f"{path}: wall configs need a rank")
        walls, wall_warnings = _parse_walls(data["walls"], path)
        warnings.extend(wall_warnings)
        rank = int(data["rank"])
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
