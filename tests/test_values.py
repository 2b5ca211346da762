"""Value semantics of every immutable value type, all from the one ``Frozen`` base.

Each ``Frozen`` subclass refuses assignment, new attributes and deletion,
has no ``__dict__``, survives a pickle round trip, equals only values of its
own type, and hashes like the tuple of its fields.  ``SignedSqrtRational``
keeps its own radicand repr and pickle form.
"""

import ast
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import misiolek
from misiolek.criterion import (
    MCReport,
    MCSummand,
    MCValue,
    RHWave,
    mc_coriolis,
    mc_flat,
)
from misiolek.exact import Frozen, SignedSqrtRational
from misiolek.structure import HarmonicIndex
from misiolek.wigner import threej_lm

SSR = SignedSqrtRational
SOURCE = Path(misiolek.__file__).parent

#: One value of every Frozen subclass, and its repr where it is pinned.
EXAMPLES = {
    SignedSqrtRational: (threej_lm(3, 2, 1, 1, -1, 0),
                         "SignedSqrtRational(sign=1, radicand=Fraction(8, 105))"),
    HarmonicIndex: (HarmonicIndex(2, -1), "HarmonicIndex(l=2, m=-1)"),
    MCValue: (MCValue(Fraction(2), Fraction(-3), SSR.of(1, Fraction(9, 4))),
              "MCValue(rational=Fraction(2, 1), over_pi=Fraction(-3, 1), "
              "root_over_sqrt_pi=SignedSqrtRational(sign=1, radicand=Fraction(9, 4)))"),
    MCSummand: (mc_flat(HarmonicIndex(7, 3), HarmonicIndex(4, -2)).summands[0],
                "MCSummand(l3=4, num=246960, den=20449, weight=36)"),
    MCReport: (mc_coriolis(HarmonicIndex(3, 0), HarmonicIndex(2, 1), Fraction(5)), None),
    RHWave: (RHWave(A=1 + 2j, C=0.5, index=HarmonicIndex(3, 2), a=Fraction(-1, 3)),
             "RHWave(A=(Fraction(1, 1), Fraction(2, 1)), C=Fraction(1, 2), "
             "index=HarmonicIndex(l=3, m=2), alpha2=Fraction(0, 1), a=Fraction(-1, 3))"),
}


def _fields(value):
    return tuple(getattr(value, name) for name in value._fields)


def test_every_frozen_subclass_has_an_example():
    assert set(Frozen.__subclasses__()) == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    value, pinned = EXAMPLES[cls]
    assert type(value) is cls and value._fields
    before = _fields(value)
    for name in value._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name in value._fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == before
    assert not hasattr(value, "__dict__")

    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls and restored is not value
    assert restored == value and _fields(restored) == before
    assert hash(restored) == hash(value) and len({value, restored}) == 1

    assert value != before and hash(value) == hash(before)
    if pinned is not None:
        assert repr(value) == pinned
    if cls is not SignedSqrtRational:
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
        assert repr(value) == f"{cls.__name__}({fields})"


def test_cached_values_are_shared():
    # lru_cache hands the same value object to every caller of threej_lm,
    # which is why the value types refuse writes.
    assert threej_lm(3, 2, 1, 1, -1, 0) is threej_lm(3, 2, 1, 1, -1, 0)


def test_equality_needs_the_same_type():
    a = HarmonicIndex(2, 1)
    assert a == HarmonicIndex(2, 1) and a != HarmonicIndex(2, -1)
    assert MCSummand(2, 1, 1, 1) != MCSummand(2, 1, 1, 2)
    assert a != MCSummand(2, 1, 1, 1) and a.__eq__((2, 1)) is NotImplemented


def _modules():
    return sorted(SOURCE.glob("*.py"))


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_no_module_imports_dataclasses():
    for path in _modules():
        assert "dataclasses" not in _imported_modules(path), path.name


def test_the_3j_layer_imports_no_fractions():
    # 3j symbols and structure constants are integer triples reduced once; a
    # Fraction there would be a second exact representation on the hot path.
    for name in ("wigner.py", "structure.py"):
        assert "fractions" not in _imported_modules(SOURCE / name), name


def test_only_the_oracle_names_math_pi_or_math_sqrt():
    # Every other float is an exact value rounded once by exact.to_double, so
    # a rounded pi or root anywhere else would be a second float route.
    names = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
                names.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                names += [(path.name, alias.name) for alias in node.names]
    assert {(module, name) for module, name in names if name in ("pi", "sqrt")} == {
        ("oracle.py", "pi"), ("oracle.py", "sqrt")}


def test_immutability_is_written_once():
    owners = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                owners += [(path.name, node.name) for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__")]
    assert owners == [("exact.py", "Frozen")] * 2
