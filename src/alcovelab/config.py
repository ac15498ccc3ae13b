"""Instance configuration files and deterministic run reports.

The one module that reads JSON input: configs and the files fed back in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .alcoves import GE, LE, RealAlcove, SingularPointError, real_alcove_of
from .arith import (RATIONAL_LITERAL, Wall, is_saturated, rat, rat_str,
                    saturate, vec, z_classes)
from .instances import (BUILTINS, POINT_KINDS, FixedPointInstance,
                        builtin_instance)
from .polyhedra import feasible

TOOL_VERSION = "0.1.0"

# Saturating a sigma_tilde lists every value of each Z-coset's integer
# span, so a span (max - min) above this is rejected before any is listed.
MAX_SATURATED_SPAN = 10_000
# A points or walls-only config builds rank x rank default generator
# entries, so a rank above this is rejected before any vector is built.
MAX_RANK = 1000


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
POINT_TYPES = (("id", "a string", lambda x: isinstance(x, str)),
               ("c_const", "a rational", _is_rational),
               ("c_linear", "an array of rationals", _array_of(_is_rational)))


def _require_types(entry, types, where):
    """require_keys for the keys of types, then a ConfigError naming where
    and the key unless each value has its JSON type."""
    require_keys(entry, tuple(key for key, _, _ in types), where)
    for key, kind, ok in types:
        if not ok(entry[key]):
            raise ConfigError(f"{where}: key {key!r} must be {kind}")


def _vector(coords, rank, where):
    """The vector of a JSON array of rank rationals; anything else is a
    ConfigError naming where."""
    if not isinstance(coords, list):
        raise ConfigError(f"{where}: expected a JSON array")
    if not all(map(_is_rational, coords)):
        raise ConfigError(f"{where}: expected an array of rationals")
    if len(coords) != rank:
        raise ConfigError(
            f"{where}: expected {rank} coordinates, got {len(coords)}")
    return vec(coords)


def _parse_walls(entries, path, rank):
    walls = []
    warnings = []
    for i, entry in enumerate(entries):
        where = f"{path}.walls[{i}]"
        _require_types(entry, WALL_TYPES, where)
        alpha = _vector(entry["alpha"], rank, f"{where}.alpha")
        if not any(alpha):
            raise ConfigError(f"{where}: key 'alpha' is the zero covector")
        st = frozenset(rat(x) for x in entry["sigma_tilde"])
        if not st:
            raise ConfigError(f"{where}: sigma_tilde must be nonempty")
        span = max(int(max(e) - min(e)) for e in z_classes(st))
        if span > MAX_SATURATED_SPAN:
            raise ConfigError(
                f"{where}: a Z-coset of sigma_tilde spans {span} (max - min); "
                f"the bound is {MAX_SATURATED_SPAN}")
        if not is_saturated(st):
            st = saturate(st)
            warnings.append(
                f"{where}: sigma_tilde was not saturated; saturated on load")
        wid = entry["id"]
        if any(w.id == wid for w in walls):
            raise ConfigError(f"{where}: duplicate wall id {wid}")
        wall = Wall(id=wid, alpha=alpha, sigma_tilde=st)
        if any(w.alpha == wall.alpha for w in walls):
            raise ConfigError(
                f"{where}: duplicate wall covector {wall.alpha}; distinct "
                "walls must have distinct kernels")
        walls.append(wall)
    return tuple(walls), warnings


def _parse_points(entries, path, rank, kind):
    """(points, c_const, c_linear) of a points table, in file order."""
    if not entries:
        raise ConfigError(f"{path}: key 'points' must be nonempty")
    c_const, c_linear = {}, {}
    for i, entry in enumerate(entries):
        where = f"{path}.points[{i}]"
        _require_types(entry, POINT_TYPES, where)
        try:
            x = POINT_KINDS[kind][0](entry["id"])
        except ValueError:
            raise ConfigError(f"{where}: id {entry['id']!r} does not parse "
                              f"under meta points {kind!r}") from None
        if x in c_const:
            raise ConfigError(f"{where}: duplicate point id {entry['id']!r}")
        c_const[x] = rat(entry["c_const"])
        c_linear[x] = _vector(entry["c_linear"], rank, f"{where}.c_linear")
    return tuple(c_const), c_const, c_linear


ARRAY_KEYS = ("points", "walls", "lambdas", "generators")


def _check_types(data, path):
    """Raise a ConfigError naming path and the key unless data is a JSON
    object whose array keys hold arrays, whose builtin sizes or rank are
    integers, and whose meta is an object with a known points kind."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in ARRAY_KEYS:
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise ConfigError(f"{path}: key {key!r} must be a JSON array")
    for key in ("n", "ell") if "builtin" in data else ("rank",):
        if key in data and not _is_integer(data[key]):
            raise ConfigError(f"{path}: key {key!r} must be an integer")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: key 'meta' must be a JSON object")
    if meta.get("points") not in list(POINT_KINDS):  # compares, never hashes
        raise ConfigError(f"{path}.meta: key 'points' must be "
                          '"partitions" or "permutations"')


def parse_config(data: dict, path="config") -> InstanceConfig:
    """The instance of a config in one of three forms: a builtin, a
    points table, or walls alone over the single point "*".  Walls,
    lambdas and generators are read alike in every form and override a
    builtin's own; generators default to the unit vectors of Z^rank."""
    _check_types(data, path)
    if "builtin" in data:
        if data["builtin"] not in BUILTINS:
            raise ConfigError(f'{path}: unknown builtin {data["builtin"]!r}; '
                              f'expected one of {", ".join(BUILTINS)}')
        if "n" not in data:
            raise ConfigError(
                f'{path}: builtin {data["builtin"]!r} needs a size "n"')
        try:
            base = builtin_instance(data["builtin"], **{
                k: v for k, v in data.items() if k in ("n", "ell")})
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    elif "points" in data or "walls" in data:
        require_keys(data, ("name", "rank") if "points" in data
                     else ("rank",), path)
        rank = data["rank"]
        if rank < 1:
            raise ConfigError(f"{path}: key 'rank' must be at least 1")
        if rank > MAX_RANK:
            raise ConfigError(f"{path}: key 'rank' is {rank}; the bound is "
                              f"{MAX_RANK}")
        meta = dict(data.get("meta", {}))
        if "points" in data:
            table = _parse_points(data["points"], path, rank,
                                  meta.get("points"))
        else:
            table = ("*",), {"*": rat(0)}, {"*": (rat(0),) * rank}
        base = FixedPointInstance(
            data.get("name", "walls-only"), rank, *table,
            generators=tuple(tuple(int(i == j) for j in range(rank))
                             for i in range(rank)),
            meta=meta)
    else:
        raise ConfigError(
            f"{path}: expected a builtin name, an inline points table, or "
            "a walls array")
    walls, warnings = base.walls, []
    if "walls" in data:
        walls, warnings = _parse_walls(data["walls"], path, base.rank)

    def vectors(key):
        return tuple(_vector(v, base.rank, f"{path}.{key}[{i}]")
                     for i, v in enumerate(data.get(key, [])))

    inst = replace(base, walls=walls, lambdas=vectors("lambdas"),
                   generators=vectors("generators") or base.generators)
    return InstanceConfig(instance=inst, warnings=tuple(warnings), raw=data)


def _inequality(entry, where, wall_ids):
    """(wall_id, offset, sense) from [wall_id, "num/den", ">=" or "<="]."""
    if isinstance(entry, list) and len(entry) == 3:
        wid, m, sense = entry
        if _is_integer(wid) and _is_rational(m) and sense in (GE, LE):
            if wid not in wall_ids:
                raise ConfigError(f"{where}: no wall with id {wid}")
            return wid, rat(m), sense
    raise ConfigError(f'{where}: expected [wall_id, offset, ">=" or "<="]')


def parse_alcove(data, path, instance) -> RealAlcove:
    """The alcove of instance that a `RealAlcove.to_json` object names, in
    canonical form.  Anything else, a wall id the instance lacks, another
    rank, an empty interior or inequalities other than those of the
    instance's alcove at their vertex average is a ConfigError naming path
    and the key or entry at fault."""
    require_keys(data, ("rank", "inequalities"), path)
    if not _is_integer(data["rank"]):
        raise ConfigError(f"{path}: key 'rank' must be an integer")
    if data["rank"] != instance.rank:
        raise ConfigError(f"{path}: key 'rank' is {data['rank']} but the "
                          f"instance has rank {instance.rank}")
    if not isinstance(data["inequalities"], list):
        raise ConfigError(f"{path}: key 'inequalities' must be a JSON array")
    ids = {w.id for w in instance.walls}
    A = RealAlcove(instance.rank, tuple(
        _inequality(entry, f"{path}.inequalities[{i}]", ids)
        for i, entry in enumerate(data["inequalities"])))
    strict = [(c, r, True) for c, r, _ in A.constraints(instance.walls)]
    if not feasible(strict, instance.rank):
        raise ConfigError(f"{path}: the inequalities have no interior point")
    center = A.interior_point(instance.walls)
    if center is None:
        raise ConfigError(f"{path}: the inequalities have no vertex average")
    shown = ",".join(map(rat_str, center))
    try:
        alcove = real_alcove_of(center, instance.walls)
    except SingularPointError as exc:
        raise ConfigError(
            f"{path}: the vertex average {shown} lies on wall {exc.wall_id} "
            f"at offset {rat_str(exc.offset)}") from exc
    if set(alcove.inequalities) != set(A.inequalities):
        raise ConfigError(f"{path}: the inequalities are not those of the "
                          f"alcove at their vertex average {shown}")
    return alcove


def load_json(path: str):
    """The JSON value in the file at path; malformed JSON is a ConfigError
    naming the file and the byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}") \
            from exc


def load_instance(path: str) -> InstanceConfig:
    return parse_config(load_json(path), path)


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
