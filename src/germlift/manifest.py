"""Manifest files: named rings, maps, unfoldings, field tables, divisors,
augmentation bundles and a task list, in JSON with a fixed schema version.

All fixture tables ship as manifest data; the engine itself hard-codes
none of them.  One checker, ``_check``, reads both halves of a manifest:
every entry of a section against ``SECTIONS`` into the object it
declares, whose invariants its class validates, and every task against
``TASKS``, the one description of each task op, with ``check_task``, into
the ``Task`` its runner reads; the command line checks the tasks it
builds with the same function.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from operator import attrgetter

from .derlog import Divisor, augmented_target
from .errors import (
    ExprSyntaxError,
    GermliftError,
    SchemaError,
    ValidationError,
)
from .exprio import parse_poly
from .germs import MapGerm, Unfolding, VectorField
from .modules import Submodule, membership_module
from .poly import Polynomial, VarSet

SCHEMA = "germlift-manifest/1"


@dataclass
class FieldTable:
    ring: VarSet
    fields: tuple

    def as_submodule(self) -> Submodule:
        return membership_module(self.ring, len(self.ring), self.fields)


@dataclass
class AugInstance:
    k: int
    ring: VarSet
    divisor: Divisor
    tilde_fields: FieldTable
    recipes: tuple


@dataclass
class Augmentation:
    unfolding: Unfolding
    discriminant: Divisor
    lift_fields: FieldTable
    instances: dict


@dataclass
class Manifest:
    rings: dict
    maps: dict
    unfoldings: dict
    fields: dict
    divisors: dict
    augmentations: dict
    tasks: list = field(default_factory=list)


def _parse(text, ring: VarSet, path: str) -> Polynomial:
    if not isinstance(text, str):
        raise SchemaError(path, "expected an expression string")
    try:
        return parse_poly(text, ring)
    except ExprSyntaxError as e:
        raise SchemaError(path, str(e)) from e


class Ref:
    """A value that names an entry of the manifest registry ``registry``.
    ``over="key.attr"`` asks the entry to live over the ring ``attr`` of
    the entry that the object's ``key`` names, and a bare ``over="key"``
    over the ring that ``key`` names; ``one`` asks a field table to hold
    exactly one field; ``check(entry, named, path)`` raises on any further
    fault.  (A plain class: a dataclass would cost a millisecond of every
    import.)"""

    def __init__(self, registry: str, over: str | None = None, one: bool = False,
                 check=None):
        self.registry, self.over, self.one, self.check = registry, over, one, check
        if over:
            self.other, _, attr = over.partition(".")
            self.ring_of = attrgetter(attr) if attr else (lambda ring: ring)
            self.what = f"the {attr.replace('.', ' ')} of {self.other}" if attr else self.other

    def resolve(self, obj: dict, key: str, named: dict, m: Manifest, path: str):
        name, kpath = obj[key], f"{path}.{key}"
        registry = getattr(m, self.registry)
        if not isinstance(name, str):
            raise SchemaError(kpath, "expected str")
        if name not in registry:
            raise SchemaError(kpath, f"unresolved name {name!r}")
        entry = registry[name]
        if self.over and entry.ring != self.ring_of(named[self.other]):
            raise SchemaError(kpath, f"{name!r} is not over {self.what} {obj[self.other]!r}")
        if self.one and len(entry.fields) != 1:
            raise SchemaError(kpath, f"expected one field, {name!r} has {len(entry.fields)}")
        if self.check:
            self.check(entry, named, kpath)
        return entry


def _check(obj, kinds: dict, m: Manifest, path: str, checked=None):
    """Check the object ``obj`` against the table ``kinds`` and the names
    of ``m``: every required key, and each value by its kind, parsing every
    expression it holds on the ring it is read on.  Returns ``checked``
    (a new dict by default) with each checked value under its key; raises
    ``SchemaError`` or ``ValidationError`` at ``path`` on the first fault."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in kinds:
        if key not in obj and not key.endswith("?"):
            raise SchemaError(path, f"missing required key {key!r}")
    if checked is None:
        checked = {}
    for key, kind in kinds.items():
        key = key.rstrip("?")
        if key not in obj:
            continue
        value, kpath = obj[key], f"{path}.{key}"
        if isinstance(kind, Ref):
            value = kind.resolve(obj, key, checked, m, path)
        elif isinstance(kind, tuple):
            if value not in kind:
                raise SchemaError(kpath, "expected " + " or ".join(map(repr, kind)))
        elif isinstance(kind, type):
            if type(value) is not kind:
                raise SchemaError(kpath, f"expected {kind.__name__}")
        else:
            value = kind(value, checked, m, kpath)
        checked[key] = value
    return checked


def _values(checked: dict, kinds: dict) -> list:
    """The checked value of each key of ``kinds`` in order, None for an
    optional key that is absent."""
    return [checked.get(key.rstrip("?")) for key in kinds]


def _names(names, named: dict, m: Manifest, path: str) -> list:
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError(path, "expected a list of names")
    return names


def _vars(names, named: dict, m: Manifest, path: str) -> list:
    if not _names(names, named, m, path):
        raise SchemaError(path, "expected at least one variable")
    return names


def _weights(weights, named: dict, m: Manifest, path: str) -> list | None:
    if weights is None:
        return None
    # bool is an int subclass, but true/false are not weights
    if not isinstance(weights, list) or not all(type(w) is int for w in weights):
        raise SchemaError(path, "weights must be a list of integers")
    if any(w <= 0 for w in weights):
        raise SchemaError(path, "weights must be positive")
    return weights


def _expression(ring: str):
    """The kind of an expression over the ring that the key ``ring`` names."""
    return lambda text, named, m, path: _parse(text, named[ring], path)


def _each(kind):
    """The kind of a list whose every item has the kind ``kind``."""
    def check(values, named: dict, m: Manifest, path: str) -> tuple:
        if not isinstance(values, list):
            raise SchemaError(path, "expected list")
        return tuple([kind(v, named, m, f"{path}[{i}]") for i, v in enumerate(values)])
    return check


def _field(vec, named: dict, m: Manifest, path: str) -> VectorField:
    """One entry per variable of the table's ring, each an expression."""
    ring = named["ring"]
    if not isinstance(vec, list) or len(vec) != len(ring):
        raise ValidationError(path, f"expected {len(ring)} entries, one per"
                                    " variable of the table's ring")
    return VectorField(ring, [_parse(t, ring, f"{path}[{j}]") for j, t in enumerate(vec)])


def _combo(combo, table: FieldTable, path: str) -> tuple:
    """A list of [coefficient, index] pairs as (polynomial, index) pairs,
    each coefficient over the ring of ``table``, each index into its fields."""
    if not isinstance(combo, list):
        raise SchemaError(path, "expected a list of [coefficient, index] pairs")
    pairs = []
    for j, entry in enumerate(combo):
        epath = f"{path}[{j}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(epath, "expected [coefficient, index]")
        coef, idx = entry
        poly = _parse(coef, table.ring, epath)
        # bool is an int subclass, but true/false are not indices here
        if type(idx) is not int or not 0 <= idx < len(table.fields):
            raise SchemaError(epath, f"field index {idx!r} out of range")
        pairs.append((poly, idx))
    return tuple(pairs)


_RECIPE = {"kind": ("map", "div"),
           "combo": lambda combo, named, m, path: _combo(combo, named["lift_fields"], path)}


def _recipes(recipes, named: dict, m: Manifest, path: str) -> tuple:
    """One (kind, combination of the lift fields) pair per field of the
    instance's ``tilde_fields``."""
    if not isinstance(recipes, list):
        raise SchemaError(path, "expected list")
    if len(recipes) != len(named["tilde_fields"].fields):
        raise SchemaError(path, "expected one recipe per field of tilde_fields")
    return tuple(
        tuple(_values(_check(rec, _RECIPE, m, f"{path}[{j}]",
                             {"lift_fields": named["lift_fields"]}), _RECIPE))
        for j, rec in enumerate(recipes))


_INSTANCE = {"ring": Ref("rings"), "divisor": Ref("divisors", over="ring"),
             "tilde_fields": Ref("fields", over="ring"), "recipes": _recipes}
_INSTANCE_KEY = re.compile("[1-9][0-9]*")


def _instances(instances, named: dict, m: Manifest, path: str) -> dict:
    """The augmentation's ``AugInstance`` by ``k``, each checked against
    ``_INSTANCE`` with the augmentation's ``lift_fields`` in scope.  A key
    is ``k`` in decimal: positive, with no sign, space or leading zero."""
    if not isinstance(instances, dict):
        raise SchemaError(path, "expected an object")
    out = {}
    for key, inst in instances.items():
        ipath = f"{path}.{key}"
        if not _INSTANCE_KEY.fullmatch(key):
            raise SchemaError(ipath, "an instance key is a positive decimal integer"
                                     " with no sign, space or leading zero")
        try:
            k = int(key)
        except ValueError:  # more digits than int() converts
            raise SchemaError(ipath, f"an instance key of {len(key)} digits") from None
        checked = _check(inst, _INSTANCE, m, ipath, {"lift_fields": named["lift_fields"]})
        out[k] = AugInstance(k, *_values(checked, _INSTANCE))
    return out


def _one_parameter(unfolding, named: dict, path: str):
    if unfolding.r != 1:
        raise ValidationError(path, "augmentation needs a 1-parameter unfolding")


def _combinations(combos, named: dict, m: Manifest, path: str) -> list:
    """One list of [coefficient, index] pairs per field of the ``expect``
    table, each index into the ``fields`` table and each coefficient over
    its ring."""
    if not isinstance(combos, list):
        raise SchemaError(path, "expected a list of combinations")
    if len(combos) != len(named["expect"].fields):
        raise SchemaError(path, "expected one combination per expected field")
    return [_combo(combo, named["fields"], f"{path}[{i}]") for i, combo in enumerate(combos)]


def _instance(k, named: dict, m: Manifest, path: str) -> AugInstance:
    """The instance ``k`` of the named augmentation."""
    # bool is an int subclass, but true/false are not integers here
    if type(k) is not int:
        raise SchemaError(path, "expected int")
    if k not in named["augmentation"].instances:
        raise SchemaError(path, f"the augmentation has no instance k={k}")
    return named["augmentation"].instances[k]


def _expressions(ideal, named: dict, m: Manifest, path: str) -> list | None:
    """Null, or generators of an ideal over the ring of instance ``k`` less
    its last variable, the ring of ``last_component_ideal``; ``[]`` is the
    zero ideal."""
    if ideal is None:
        return None
    if not isinstance(ideal, list):
        raise SchemaError(path, "expected null or a list of expression strings")
    ring = VarSet(named["k"].ring.names[:-1])
    return [_parse(text, ring, f"{path}[{i}]") for i, text in enumerate(ideal)]


def _augmented_target(table, named: dict, path: str):
    """Raise unless ``table`` has the variables of the target of the named
    augmentation's unfolding once augmented."""
    names = augmented_target(named["augmentation"].unfolding).names
    if table.ring.names != names:
        raise SchemaError(path, f"expected a table over the variables {list(names)}"
                                " of the augmented unfolding's target")


def _one_per_field(table, named: dict, path: str):
    """Raise unless ``table`` holds one field per field of the ``fields``
    table."""
    want, got = len(named["fields"].fields), len(table.fields)
    if got != want:
        raise SchemaError(path, f"expected {want} fields, one per field of the"
                                f" fields table, got {got}")


def _weighted(divisor, named: dict, path: str):
    """Raise unless ``divisor`` has the weights of an Euler field."""
    if divisor.effective_weights() is None:
        raise SchemaError(path, "the divisor and its ring have no weights")


_TOTAL = Ref("fields", over="unfolding.total.target")
_CORE = Ref("fields", over="unfolding.core.target")
_AUGMENTATION = {"augmentation": Ref("augmentations"), "k": _instance}

# A key's kind is a Ref into a registry, a tuple of allowed values, a type,
# or a function (value, the object checked so far, the manifest, path) for
# a value of more structure, which returns what is read for it.  A key
# ending in "?" is optional.  Keys come after the keys their checks read.

# Every section with the class of its entries and the keys of an entry;
# the checked values, in the order of the keys, are the class's arguments.
# Sections come after the sections their Refs name.
SECTIONS = {
    "rings": (VarSet, {"vars": _vars, "weights?": _weights}),
    "maps": (MapGerm, {"source": Ref("rings"), "target": Ref("rings"),
                       "components": _each(_expression("source"))}),
    "unfoldings": (Unfolding, {"map": Ref("maps"), "source_params": _names,
                               "target_params": _names, "core": Ref("maps")}),
    "fields": (FieldTable, {"ring": Ref("rings"), "elements": _each(_field)}),
    "divisors": (Divisor, {"ring": Ref("rings"), "equation": _expression("ring"),
                           "weights?": _weights}),
    "augmentations": (Augmentation, {
        "unfolding": Ref("unfoldings", check=_one_parameter),
        "discriminant": Ref("divisors", over="unfolding.total.target"),
        "lift_fields": _TOTAL, "instances": _instances}),
}

_TASK = {"id": str, "op": str}

# Every task op with the keys it reads, besides those of _TASK.  The first
# key names what the task is about, the name the CLI resolves.
TASKS = {
    "lift_check": {"map": Ref("maps"), "fields": Ref("fields", over="map.target"),
                   "expect": ("certified", "obstructed")},
    "transport_table": {"map": Ref("maps"), "inverse": Ref("maps"),
                        "fields": Ref("fields", over="map.source"),
                        "expect": Ref("fields", over="map.target",
                                      check=_one_per_field)},
    "project_combinations": {"unfolding": Ref("unfoldings"), "fields": _TOTAL,
                             "expect": _CORE, "combinations": _combinations},
    "pipeline": {"unfolding": Ref("unfoldings"), "fields": _TOTAL, "expect?": _CORE},
    "pipeline_vs_derlog": {"unfolding": Ref("unfoldings"), "fields": _TOTAL,
                           "divisor": Ref("divisors", over="unfolding.core.target")},
    "discriminant": {"map": Ref("maps"),
                     "expect_divisor": Ref("divisors", over="map.target")},
    "derlog": {"divisor": Ref("divisors"), "mode": ("strict", "delta"),
               "expect?": Ref("fields", over="divisor.ring")},
    "euler": {"divisor": Ref("divisors", check=_weighted), "degree": int,
              "expect?": Ref("fields", over="divisor.ring", one=True)},
    "augment_tilde": _AUGMENTATION,
    "augment_pi2": {**_AUGMENTATION, "expect_ideal?": _expressions},
    "augment_descend": _AUGMENTATION,
    "augment_tau": {**_AUGMENTATION,
                    "field": Ref("fields", one=True, check=_augmented_target)},
    "tau_zero": {"fields": Ref("fields")},
    "note": {"text": str},
}


class Task(dict):
    """A task as ``check_task`` checked it.  A ``Ref`` key maps to its
    registry entry, ``combinations`` to (polynomial, index) pairs,
    ``expect_ideal`` to polynomials and ``k`` to its ``AugInstance``; every
    other key keeps its raw value.  ``maps`` are the maps of the manifest it
    was checked against, whose caches ``suite.run_task`` drops."""

    def __init__(self, raw: dict, maps: dict):
        super().__init__(raw)
        self.maps = maps


def check_task(task, m: Manifest, path: str) -> Task:
    """Check ``task`` against ``TASKS`` and the names of ``m``: a string
    ``id``, a known ``op``, and the keys of its op.  Returns the checked
    ``Task``; raises ``SchemaError`` at ``path`` on the first fault."""
    op = _check(task, _TASK, m, path)["op"]
    if op not in TASKS:
        raise SchemaError(path, f"unknown operation {op!r}")
    return _check(task, TASKS[op], m, path, Task(task, m.maps))


def loads(text: str) -> Manifest:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError("$", f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise SchemaError("$", "manifest must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise SchemaError("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        raise SchemaError("tasks", "expected a list")
    m = Manifest({}, {}, {}, {}, {}, {})
    for name, (cls, kinds) in SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise SchemaError(name, "expected an object")
        entries = getattr(m, name)
        for key, spec in section.items():
            path = f"{name}.{key}"
            args = _values(_check(spec, kinds, m, path), kinds)
            try:
                entries[key] = cls(*args)
            except GermliftError as e:
                raise ValidationError(path, str(e)) from e
    ids = set()
    for i, task in enumerate(tasks):
        m.tasks.append(check_task(task, m, f"tasks[{i}]"))
        if task["id"] in ids:
            raise SchemaError(f"tasks[{i}].id", f"duplicate task id {task['id']!r}")
        ids.add(task["id"])
    return m


def load_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise SchemaError("$", f"not UTF-8 text: {e}") from e
    return loads(text)
