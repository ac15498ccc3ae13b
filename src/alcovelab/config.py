"""Instance configuration files and deterministic run reports.

The one module that reads JSON input (configs and the files fed back in)
and the one that writes a report's JSON text (report_to_json).
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii

from .alcoves import (GE, LE, RealAlcove, SingularPointError, constraints_of,
                      real_alcove_of)
from .arith import (MAX_SHIFTS, RATIONAL_LITERAL, Wall, rat, rat_str,
                    saturate, vec, z_classes)
from .instances import (BUILTINS, POINT_KINDS, FixedPointInstance,
                        builtin_instance)
from .polyhedra import feasible, interior_point

TOOL_VERSION = "0.1.0"

# A points or walls-only config builds rank x rank default generator
# entries, so a rank above this is rejected before any vector is built.
MAX_RANK = 1000


class ConfigError(ValueError):
    pass


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
    walls, warnings, shifts = [], [], 0
    for i, entry in enumerate(entries):
        where = f"{path}.walls[{i}]"
        _require_types(entry, WALL_TYPES, where)
        alpha = _vector(entry["alpha"], rank, f"{where}.alpha")
        if not any(alpha):
            raise ConfigError(f"{where}: key 'alpha' is the zero covector")
        st = frozenset(rat(x) for x in entry["sigma_tilde"])
        if not st:
            raise ConfigError(f"{where}: sigma_tilde must be nonempty")
        # saturating lists every value of each Z-coset's span (max - min)
        spans = [int(max(e) - min(e)) for e in z_classes(st)]
        size = len(spans) + sum(spans)  # of the saturated sigma_tilde
        shifts += size
        if shifts > MAX_SHIFTS:
            raise ConfigError(
                f"{where}: sigma_tilde brings the walls to {shifts} shifts "
                f"once saturated, more than {MAX_SHIFTS} (the bound)")
        if size != len(st):
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


def parse_config(data: dict, path="config") -> tuple:
    """(instance, warnings) of a config in one of three forms: a builtin, a
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

    lambdas, generators = vectors("lambdas"), vectors("generators")
    inst = base   # a builtin without overrides stays the one cached build
    if "walls" in data or lambdas or generators:
        inst = base.replace(walls=walls, lambdas=lambdas,
                            generators=generators or base.generators)
    return inst, tuple(warnings)


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
    ineqs = [_inequality(entry, f"{path}.inequalities[{i}]", ids)
             for i, entry in enumerate(data["inequalities"])]
    cons = constraints_of(ineqs, instance.walls)
    if not feasible([(c, r, True) for c, r, _ in cons], instance.rank):
        raise ConfigError(f"{path}: the inequalities have no interior point")
    center = interior_point(cons, instance.rank)
    if center is None:
        raise ConfigError(f"{path}: the inequalities have no vertex average")
    shown = ",".join(map(rat_str, center))
    try:
        alcove = real_alcove_of(center, instance.walls)
    except SingularPointError as exc:
        raise ConfigError(
            f"{path}: the vertex average {shown} lies on wall {exc.wall_id} "
            f"at offset {rat_str(exc.offset)}") from exc
    if set(alcove.inequalities) != set(ineqs):
        raise ConfigError(f"{path}: the inequalities are not those of the "
                          f"alcove at their vertex average {shown}")
    return alcove


def load_json(path: str):
    """The JSON value in the file at path; malformed JSON is a ConfigError
    naming the file and the byte offset, and JSON nested deeper than the
    decoder's recursion limit one naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}") \
            from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to read") from None


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


def report_to_json(report, pad="\n") -> str:
    """json.dumps(report, sort_keys=True, indent=2, default=str), byte for
    byte, for a report with no cycle (which json rejects), without the
    pure-Python encoder that call runs; pad is the newline and indent that
    start report's line.  The walk writes containers, exact strs and ints
    and hands every other value to the C encoder.  Plain loops keep each
    level to one frame, so it writes every depth json.dumps writes, and
    each level joins its text once."""
    kind = type(report)
    if kind is str:
        return encode_basestring_ascii(report)
    if kind is int:
        return int.__repr__(report)
    if isinstance(report, dict):
        if not report:
            return "{}"
        inner, parts = pad + "  ", ["{"]
        for key, value in sorted(report.items()):
            parts += inner, _key(key), ": ", report_to_json(value, inner), ","
        parts[-1] = pad + "}"   # in place of the last item's ","
        return "".join(parts)
    if isinstance(report, (list, tuple)):
        if not report:
            return "[]"
        inner, parts = pad + "  ", ["["]
        for value in report:
            parts += inner, report_to_json(value, inner), ","
        parts[-1] = pad + "]"
        return "".join(parts)
    return _ENCODE(report)


_ENCODE = json.JSONEncoder(sort_keys=True, default=str).encode


def _key(key):
    """The JSON text of a dict key: json writes an int, float, bool or
    None key as the string of its JSON text."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float, type(None))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _ENCODE(key)
    return _ENCODE(key)
