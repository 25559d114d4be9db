"""Manifest files: named rings, maps, unfoldings, field tables, divisors,
augmentation bundles and a task list, in JSON with a fixed schema version.

All fixture tables ship as manifest data; the engine itself hard-codes
none of them.  Loading validates every declared object's invariants, and
checks every task against ``TASKS``, the one description of each task op,
with ``check_task``, into the ``Task`` its runner reads; the command line
checks the tasks it builds with the same function.
"""

from __future__ import annotations

import json
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
    raw: dict
    rings: dict
    maps: dict
    unfoldings: dict
    fields: dict
    divisors: dict
    augmentations: dict
    tasks: list = field(default_factory=list)

    def dumps(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"


def _need(obj: dict, key: str, path: str, kind=None):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(path, f"missing required key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _names(obj: dict, key: str, path: str) -> list:
    names = _need(obj, key, path, list)
    if not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{path}.{key}", "expected a list of names")
    return names


def _weights(spec: dict, path: str) -> list | None:
    weights = spec.get("weights")
    if weights is None:
        return None
    # bool is an int subclass, but true/false are not weights
    if not isinstance(weights, list) or not all(
            type(w) is int for w in weights):
        raise SchemaError(f"{path}.weights", "weights must be a list of integers")
    if any(w <= 0 for w in weights):
        raise SchemaError(f"{path}.weights", "weights must be positive")
    return weights


def _parse(text, ring: VarSet, path: str) -> Polynomial:
    if not isinstance(text, str):
        raise SchemaError(path, "expected an expression string")
    try:
        return parse_poly(text, ring)
    except ExprSyntaxError as e:
        raise SchemaError(path, str(e)) from e


def _load_rings(raw, out):
    for name, spec in raw.items():
        path = f"rings.{name}"
        names = _names(spec, "vars", path)
        weights = _weights(spec, path)
        try:
            out[name] = VarSet(names, weights)
        except GermliftError as e:
            raise ValidationError(path, str(e)) from e


def _ref(obj: dict, key: str, registry: dict, path: str):
    """The entry of ``registry`` that the name ``obj[key]`` resolves to."""
    name = _need(obj, key, path, str)
    if name not in registry:
        raise SchemaError(f"{path}.{key}", f"unresolved name {name!r}")
    return registry[name]


def _over(entry, ring: VarSet, name: str, path: str, what: str):
    """Raise unless the table or divisor ``entry``, named ``name``, lives
    over ``ring``, the ring described by ``what``."""
    if entry.ring != ring:
        raise SchemaError(path, f"{name!r} is not over {what}")


def _load_maps(raw, rings, out):
    for name, spec in raw.items():
        path = f"maps.{name}"
        src = _ref(spec, "source", rings, path)
        tgt = _ref(spec, "target", rings, path)
        comps_raw = _need(spec, "components", path, list)
        comps = [
            _parse(c, src, f"{path}.components[{i}]") for i, c in enumerate(comps_raw)
        ]
        try:
            out[name] = MapGerm(src, tgt, comps)
        except GermliftError as e:
            raise ValidationError(path, str(e)) from e


def _load_unfoldings(raw, maps, out):
    for name, spec in raw.items():
        path = f"unfoldings.{name}"
        total = _ref(spec, "map", maps, path)
        core = _ref(spec, "core", maps, path)
        try:
            out[name] = Unfolding(total, _names(spec, "source_params", path),
                                  _names(spec, "target_params", path), core)
        except GermliftError as e:
            raise ValidationError(path, str(e)) from e


def _load_fields(raw, rings, out):
    for name, spec in raw.items():
        path = f"fields.{name}"
        ring = _ref(spec, "ring", rings, path)
        elems = _need(spec, "elements", path, list)
        fields = []
        for i, vec in enumerate(elems):
            if not isinstance(vec, list) or len(vec) != len(ring):
                raise ValidationError(
                    f"{path}.elements[{i}]",
                    f"expected {len(ring)} entries over ring {spec['ring']}",
                )
            entries = [
                _parse(t, ring, f"{path}.elements[{i}][{j}]") for j, t in enumerate(vec)
            ]
            fields.append(VectorField(ring, entries))
        out[name] = FieldTable(ring, tuple(fields))


def _load_divisors(raw, rings, out):
    for name, spec in raw.items():
        path = f"divisors.{name}"
        ring = _ref(spec, "ring", rings, path)
        h = _parse(_need(spec, "equation", path, str), ring, f"{path}.equation")
        weights = _weights(spec, path)
        try:
            out[name] = Divisor(ring, h, weights)
        except GermliftError as e:
            raise ValidationError(path, str(e)) from e


def _load_augmentations(raw, m: Manifest, out):
    for name, spec in raw.items():
        path = f"augmentations.{name}"
        unf = _ref(spec, "unfolding", m.unfoldings, path)
        if unf.r != 1:
            raise ValidationError(path, "augmentation needs a 1-parameter unfolding")
        disc = _ref(spec, "discriminant", m.divisors, path)
        lift_fields = _ref(spec, "lift_fields", m.fields, path)
        for key, entry in (("discriminant", disc), ("lift_fields", lift_fields)):
            _over(entry, unf.total.target, spec[key], f"{path}.{key}",
                  f"the total target of unfolding {spec['unfolding']!r}")
        instances = {}
        for kstr, inst in _need(spec, "instances", path, dict).items():
            ipath = f"{path}.instances.{kstr}"
            try:
                k = int(kstr)
            except ValueError:
                raise SchemaError(ipath, "instance keys must be integers") from None
            ring = _ref(inst, "ring", m.rings, ipath)
            divisor = _ref(inst, "divisor", m.divisors, ipath)
            tilde = _ref(inst, "tilde_fields", m.fields, ipath)
            for key, entry in (("divisor", divisor), ("tilde_fields", tilde)):
                _over(entry, ring, inst[key], f"{ipath}.{key}", f"ring {inst['ring']!r}")
            recipes = []
            for j, rec in enumerate(_need(inst, "recipes", ipath, list)):
                rpath = f"{ipath}.recipes[{j}]"
                kind = _need(rec, "kind", rpath, str)
                if kind not in ("map", "div"):
                    raise SchemaError(rpath, "recipe kind must be 'map' or 'div'")
                recipes.append((kind, _combo(_need(rec, "combo", rpath),
                                             lift_fields, f"{rpath}.combo")))
            if len(recipes) != len(tilde.fields):
                raise SchemaError(f"{ipath}.recipes",
                                  "expected one recipe per field of tilde_fields")
            instances[k] = AugInstance(k, ring, divisor, tilde, tuple(recipes))
        out[name] = Augmentation(unf, disc, lift_fields, instances)


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


class Ref:
    """A task value that names an entry of the manifest registry
    ``registry``.  ``over="key.attr"`` asks the entry to live over the ring
    ``attr`` of the entry that the task's ``key`` names; ``one`` asks a field
    table to hold exactly one field; ``check(entry, named, path)`` raises on
    any further fault.  (A plain class: a dataclass would cost a millisecond
    of every import.)"""

    def __init__(self, registry: str, over: str | None = None, one: bool = False,
                 check=None):
        self.registry, self.over, self.one, self.check = registry, over, one, check

    def resolve(self, task: dict, key: str, named: dict, m: Manifest, path: str):
        entry = _ref(task, key, getattr(m, self.registry), path)
        name, kpath = task[key], f"{path}.{key}"
        if self.over:
            other, _, attr = self.over.partition(".")
            _over(entry, attrgetter(attr)(named[other]), name, kpath,
                  f"the {attr.replace('.', ' ')} of {other} {task[other]!r}")
        if self.one and len(entry.fields) != 1:
            raise SchemaError(kpath, f"expected one field, {name!r} has {len(entry.fields)}")
        if self.check:
            self.check(entry, named, kpath)
        return entry


def _combinations(combos, named: dict, path: str) -> list:
    """One list of [coefficient, index] pairs per field of the ``expect``
    table, each index into the ``fields`` table and each coefficient over
    its ring."""
    if not isinstance(combos, list):
        raise SchemaError(path, "expected a list of combinations")
    if len(combos) != len(named["expect"].fields):
        raise SchemaError(path, "expected one combination per expected field")
    return [_combo(combo, named["fields"], f"{path}[{i}]") for i, combo in enumerate(combos)]


def _instance(k, named: dict, path: str) -> AugInstance:
    """The instance ``k`` of the named augmentation."""
    # bool is an int subclass, but true/false are not integers here
    if type(k) is not int:
        raise SchemaError(path, "expected int")
    if k not in named["augmentation"].instances:
        raise SchemaError(path, f"the augmentation has no instance k={k}")
    return named["augmentation"].instances[k]


def _expressions(ideal, named: dict, path: str) -> list | None:
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

# Every task op with the keys it reads, besides "id" and "op".  A key's kind
# is a Ref into a registry, a tuple of allowed values, a type, or a function
# (value, the task checked so far, path) for a value of more structure,
# which returns what the runner reads for it.  A key ending in "?" is
# optional.  Keys come after the keys their checks read, and the first key
# names what the task is about, the name the CLI resolves.
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
    """Check ``task`` against ``TASKS`` and the names of ``m``: a known
    ``op``, a string ``id``, every required key, and each value by its
    kind, parsing every expression it holds on the ring its runner reads it
    on.  Returns the checked ``Task``; raises ``SchemaError`` at ``path``
    on the first fault."""
    if not isinstance(task, dict):
        raise SchemaError(path, "task must be an object")
    op = _need(task, "op", path, str)
    if op not in TASKS:
        raise SchemaError(path, f"unknown operation {op!r}")
    _need(task, "id", path, str)
    for key in TASKS[op]:
        if not key.endswith("?") and key not in task:
            raise SchemaError(path, f"operation {op!r} requires key {key!r}")
    checked = Task(task, m.maps)
    for key, kind in TASKS[op].items():
        key = key.rstrip("?")
        if key not in task:
            continue
        value, kpath = task[key], f"{path}.{key}"
        if isinstance(kind, Ref):
            checked[key] = kind.resolve(task, key, checked, m, path)
        elif isinstance(kind, tuple):
            if value not in kind:
                raise SchemaError(kpath, "expected " + " or ".join(map(repr, kind)))
        elif isinstance(kind, type):
            if type(value) is not kind:
                raise SchemaError(kpath, f"expected {kind.__name__}")
        else:
            checked[key] = kind(value, checked, kpath)
    return checked

SECTIONS = ("rings", "maps", "unfoldings", "fields", "divisors", "augmentations")


def _section(raw: dict, name: str) -> dict:
    """A top-level section: an object whose every entry is an object."""
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise SchemaError(name, "expected an object")
    for key, spec in sec.items():
        if not isinstance(spec, dict):
            raise SchemaError(f"{name}.{key}", "expected an object")
    return sec


def loads(text: str) -> Manifest:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError("$", f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise SchemaError("$", "manifest must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise SchemaError("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    sec = {name: _section(raw, name) for name in SECTIONS}
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        raise SchemaError("tasks", "expected a list")
    m = Manifest(raw, {}, {}, {}, {}, {}, {})
    _load_rings(sec["rings"], m.rings)
    _load_maps(sec["maps"], m.rings, m.maps)
    _load_unfoldings(sec["unfoldings"], m.maps, m.unfoldings)
    _load_fields(sec["fields"], m.rings, m.fields)
    _load_divisors(sec["divisors"], m.rings, m.divisors)
    _load_augmentations(sec["augmentations"], m, m.augmentations)
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


def save_manifest(m: Manifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(m.dumps())
