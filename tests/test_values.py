"""The value types behave as the frozen dataclasses they replace, and the
package imports without `dataclasses`.

Each value type has a test-only mirror here: a frozen dataclass with the
same name, fields and field options (RealAlcove's incidence is left out of
equality, hash and repr; AffineInP keeps its own hash).  Drawn field values
must give the same repr, equality, hash and replace results on both, and
assigning or deleting a field of a value must be an AttributeError.
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


def mirror_of(cls):
    """The frozen dataclass cls was: its name, fields and field options."""
    fields = [(name, object) for name in FIELDS[cls]]
    namespace = {}
    if cls is RealAlcove:
        fields[-1] = ("incidence", object,
                      dataclasses.field(compare=False, repr=False))
    if cls is AffineInP:
        namespace["__hash__"] = AffineInP.__hash__
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
    assert repr(real_a) == repr(mirror_a)


def test_every_value_type_is_mirrored_and_compares_two_fields_or_more():
    # Value reads the compared fields with one attrgetter, which returns a
    # tuple only for two or more names
    assert set(Value.__subclasses__()) == set(FIELDS)
    assert all(len(cls._compared) >= 2 for cls in FIELDS)


def test_defaults_are_the_dataclass_defaults():
    assert repr(AffineInP()) == repr(MIRRORS[AffineInP](F(0), F(0)))
    inst = FixedPointInstance("x", 1, (), {}, {})
    assert repr(inst) == repr(MIRRORS[FixedPointInstance](
        "x", 1, (), {}, {}, (), (), (), {}))
    assert inst.meta == {} and inst.meta is not \
        FixedPointInstance("x", 1, (), {}, {}).meta
    with pytest.raises(TypeError):   # an alcove carries its incidence
        RealAlcove(1, ())
    with pytest.raises(TypeError):
        AffineInP().replace(offset=1)


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
