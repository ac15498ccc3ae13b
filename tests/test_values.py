"""The value types behave as the frozen dataclasses they replace, and the
package imports without `dataclasses`.

Each value type has a test-only mirror here: a frozen dataclass with the
same name, fields and field options (RealAlcove's incidence is left out of
equality, hash and repr; AffineInP keeps its own hash; the defaults of
AffineInP and FixedPointInstance).  Drawn field values must give the same
repr, equality, hash and replace results on both, and assigning or
deleting a field of a value must be an AttributeError.  Drawn calls, their
fields given by position, by name or both, must store the same fields,
and raise a TypeError on a value type exactly when they do on its mirror:
a field missing, one argument too many, an unknown name or a field given
twice; the TypeError of a call by name names the class, its fields and
each name left over.  Every value type is built by the one constructor,
`arith.Value.__init__`: a stdlib `ast` check fails on any other `__init__`
of a value type but those of OWN_INIT, which normalize or default a field,
and on any write of a field past the frozen `__setattr__`.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcovelab.alcoves import (Chamber, Face, PAlcove, QuantumChamber,
                               RealAlcove)
from alcovelab.arith import AffineInP, Value, Wall, primitivize, saturate
from alcovelab.compat import CompatiblePair
from alcovelab.instances import FixedPointInstance
from alcovelab.orders import LabeledPoset, PreOrder
from alcovelab.polyhedra import VertexIncidence

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alcovelab"

# each value type's fields, in order, as its dataclass declared them
FIELDS = {
    Wall: ("id", "alpha", "sigma_tilde"),
    AffineInP: ("const", "slope"),
    VertexIncidence: ("den", "nums", "masks"),
    RealAlcove: ("rank", "inequalities", "incidence"),
    Face: ("parent", "active", "codim", "witness", "vertex_set"),
    PAlcove: ("source", "inequalities"),
    Chamber: ("rank", "covectors"),
    QuantumChamber: ("lam", "inequalities"),
    CompatiblePair: ("lam", "mu", "alcove", "face"),
    FixedPointInstance: ("name", "rank", "points", "c_const", "c_linear",
                         "walls", "lambdas", "generators", "meta"),
    LabeledPoset: ("labels", "blocks", "p", "window"),
    PreOrder: ("instance", "lam_bar", "mu", "labels", "classes"),
}


# the value types that keep an __init__ of their own, for what they
# normalize or default; it hands the values to Value.__init__
OWN_INIT = {"Wall", "AffineInP", "FixedPointInstance"}


def mirror_of(cls):
    """The frozen dataclass cls was: its name, fields and field options."""
    fields = [(name, object) for name in FIELDS[cls]]
    namespace = {}
    if cls is RealAlcove:
        fields[-1] = ("incidence", object,
                      dataclasses.field(compare=False, repr=False))
    if cls is AffineInP:
        namespace["__hash__"] = AffineInP.__hash__
        fields = [(name, object, F(0)) for name in FIELDS[cls]]
    if cls is FixedPointInstance:
        fields[5:] = [("walls", object, ()), ("lambdas", object, ()),
                      ("generators", object, ()),
                      ("meta", object, dataclasses.field(default_factory=dict))]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace=namespace)


MIRRORS = {cls: mirror_of(cls) for cls in FIELDS}

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
leaves = st.one_of(st.integers(-3, 3), fractions, st.text("ab", max_size=2),
                   st.none())
# nested tuples of leaves, as the fields of the value types hold
nested = st.recursive(leaves, lambda inner: st.lists(
    inner, max_size=3).map(tuple), max_leaves=6)
dicts = st.dictionaries(st.integers(0, 3), nested, max_size=3)


def field_values(cls):
    """Values of cls's fields that its __init__ stores as given."""
    if cls is Wall:
        return st.fixed_dictionaries({
            "id": st.integers(0, 3),
            "alpha": st.lists(st.integers(-2, 2), min_size=1, max_size=3)
                       .filter(any).map(primitivize),
            "sigma_tilde": st.sets(fractions, min_size=1, max_size=3)
                             .map(saturate)})
    if cls is AffineInP:
        return st.fixed_dictionaries({"const": fractions, "slope": fractions})
    return st.fixed_dictionaries({
        name: dicts if name in ("c_const", "c_linear", "meta", "blocks")
        else nested for name in FIELDS[cls]})


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # a dict field makes hash a TypeError
        return type(exc)


@st.composite
def value_pairs(draw):
    """(cls, values of a, values of b, a field, a new value for it): b is
    a's values with one field redrawn, or a fresh draw."""
    cls = draw(st.sampled_from(sorted(FIELDS, key=lambda c: c.__name__)))
    a = draw(field_values(cls))
    other = draw(field_values(cls))
    name = draw(st.sampled_from(FIELDS[cls]))
    b = draw(st.sampled_from([a, {**a, name: other[name]}, other]))
    return cls, a, b, name, other[name]


def stored(value):
    """The fields of a value, in order."""
    return {name: getattr(value, name) for name in FIELDS[type(value)]}


def mirrored(value):
    """The mirror holding the very objects the value stores: a Wall's
    sigma_tilde is a frozenset its __init__ built, as the dataclass's
    __post_init__ built it, and the repr shows its iteration order."""
    return MIRRORS[type(value)](**stored(value))


@settings(max_examples=300, deadline=None)
@given(value_pairs())
def test_value_types_behave_as_their_frozen_dataclasses(drawn):
    cls, a, b, name, new = drawn
    real_a, real_b = cls(**a), cls(**b)
    assert stored(real_a) == a
    mirror_a, mirror_b = mirrored(real_a), mirrored(real_b)
    assert repr(real_a) == repr(mirror_a)
    assert (real_a == real_b) == (mirror_a == mirror_b)
    assert (real_a != real_b) == (mirror_a != mirror_b)
    assert real_a != mirror_a and not real_a == mirror_a
    assert outcome(hash, real_a) == outcome(hash, mirror_a)
    changed = real_a.replace(**{name: new})
    assert type(changed) is cls
    assert stored(changed) == {**a, name: new}
    mirror_changed = dataclasses.replace(mirror_a, **{name: new})
    assert (changed == real_b) == (mirror_changed == mirror_b)
    assert repr(changed) == repr(mirrored(changed))
    assert outcome(hash, changed) == outcome(hash, mirror_changed)
    with pytest.raises(AttributeError, match=repr(name)):
        setattr(real_a, name, new)
    with pytest.raises(AttributeError, match=repr(name)):
        delattr(real_a, name)
    with pytest.raises(AttributeError):
        real_a.not_a_field = new
    with pytest.raises(TypeError):
        real_a.replace(not_a_field=new)
    assert repr(real_a) == repr(mirror_a)


@st.composite
def calls(draw):
    """(cls, values, args, named, shape): drawn values of cls's fields, the
    first k given by position and the rest by name, then bent to shape:
    one field left out, one argument past the last field, an unknown name,
    a positional field given by name too, or none of these."""
    cls = draw(st.sampled_from(sorted(FIELDS, key=lambda c: c.__name__)))
    values, fields = draw(field_values(cls)), FIELDS[cls]
    shape = draw(st.sampled_from(["valid", "missing", "too many", "unknown",
                                  "repeated"]))
    k = draw(st.integers(shape == "repeated", len(fields)))
    if shape == "missing":
        gone = draw(st.sampled_from(fields))
        k = min(k, fields.index(gone))
        fields = tuple(name for name in fields if name != gone)
    args = [values[name] for name in fields[:k]]
    named = {name: values[name] for name in fields[k:]}
    if shape == "too many":
        args = [values[name] for name in FIELDS[cls]] + [draw(nested)]
        named = {}
    elif shape == "unknown":
        named["not_a_field"] = draw(nested)
    elif shape == "repeated":
        name = draw(st.sampled_from(fields[:k]))
        named[name] = values[name]
    return cls, values, args, named, shape


@settings(max_examples=300, deadline=None)
@given(calls())
def test_calls_bind_as_on_the_dataclasses(drawn):
    cls, values, args, named, shape = drawn
    real = outcome(lambda: cls(*args, **named))
    mirror = outcome(lambda: MIRRORS[cls](*args, **named))
    assert (real is TypeError) == (mirror is TypeError)
    if shape != "missing":   # a missing field may have a default
        assert (real is TypeError) == (shape != "valid")
    if shape == "valid":
        by_position = cls(*[values[name] for name in FIELDS[cls]])
        assert stored(real) == stored(by_position) == stored(
            cls(**values)) == values


@pytest.mark.parametrize("cls", [cls for cls in FIELDS
                                 if cls.__name__ not in OWN_INIT],
                         ids=lambda cls: cls.__name__)
def test_a_bad_call_by_name_names_the_class_and_each_name_left(cls):
    # an unknown field, a field given by position and by name, and both;
    # the types of OWN_INIT bind names by their own signature
    values, first = dict.fromkeys(FIELDS[cls]), FIELDS[cls][0]
    for args, named, left in [
            ((), values | {"not_a_field": 0}, ["not_a_field"]),
            ((None,), values, [first]),
            ((None,), values | {"not_a_field": 0, "nor_this": 0},
             [first, "not_a_field", "nor_this"])]:
        with pytest.raises(TypeError) as raised:
            cls(*args, **named)
        text = str(raised.value)
        assert text.startswith(cls.__qualname__), text
        # the fields are named once, and each name left once more
        assert all(text.count(repr(name)) == (name in values) + (name in left)
                   for name in [*values, *left]), text


def test_every_value_type_is_mirrored_and_compares_two_fields_or_more():
    # Value reads the compared fields with one attrgetter, which returns a
    # tuple only for two or more names
    assert set(Value.__subclasses__()) == set(FIELDS)
    assert all(len(cls._compared) >= 2 for cls in FIELDS)


def test_defaults_are_the_dataclass_defaults():
    assert repr(AffineInP()) == repr(MIRRORS[AffineInP]())
    assert repr(AffineInP(slope=2)) == repr(MIRRORS[AffineInP](F(0), F(2)))
    inst = FixedPointInstance("x", 1, (), {}, {})
    assert repr(inst) == repr(MIRRORS[FixedPointInstance](
        "x", 1, (), {}, {}))
    assert inst.meta == {} and inst.meta is not \
        FixedPointInstance("x", 1, (), {}, {}).meta
    with pytest.raises(TypeError):   # an alcove carries its incidence
        RealAlcove(1, ())


def test_the_cli_imports_without_dataclasses_or_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, alcovelab.cli; print(sorted({'dataclasses', "
            "'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]")


def imported_modules(source):
    """The top-level module of every import in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_check_sees_each_import_form():
    source = ("import dataclasses\nfrom dataclasses import field\n"
              "import os.path as p\nfrom . import arith\n")
    assert imported_modules(source) == {"dataclasses", "os"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(
        path.read_text(encoding="utf-8"))


def constructor_breaches(source):
    """Each __init__ of a Value subclass not in OWN_INIT, and each
    set_field or object.__setattr__, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ClassDef) and node.name not in OWN_INIT
                and "Value" in map(ast.unparse, node.bases)):
            found += [f"{node.name}.__init__" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "__init__"]
        elif isinstance(node, (ast.Name, ast.alias)) and "set_field" in (
                getattr(node, "id", None), getattr(node, "name", None)):
            found.append("set_field")
        elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
              and ast.unparse(node.value) == "object"):
            found.append("object.__setattr__")
    return found


def test_the_constructor_check_sees_each_breach():
    source = ("from .arith import set_field\n"
              "class Face(Value):\n    def __init__(self): pass\n"
              "class Wall(Value):\n    def __init__(self): pass\n"
              "class Plain:\n    def __init__(self): pass\n"
              "object.__setattr__(x, 'a', 1)\n")
    assert sorted(constructor_breaches(source)) == [
        "Face.__init__", "object.__setattr__", "set_field"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_value_types_are_built_by_the_one_constructor(path):
    assert constructor_breaches(path.read_text(encoding="utf-8")) == []
