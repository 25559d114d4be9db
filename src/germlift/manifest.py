"""Manifest files: named rings, maps, unfoldings, field tables, divisors,
augmentation bundles and a task list, in JSON with a fixed schema version.

All fixture tables ship as manifest data; the engine itself hard-codes
none of them.  Loading validates every declared object's invariants and that
every name referenced by a task resolves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .derlog import Divisor
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

TASK_OPS = {
    "lift_check": {"map", "fields", "expect"},
    "transport_table": {"map", "inverse", "fields", "expect"},
    "project_combinations": {"unfolding", "fields", "combinations", "expect"},
    "pipeline": {"unfolding", "fields", "expect"},
    "pipeline_vs_derlog": {"unfolding", "fields", "divisor"},
    "discriminant": {"map", "expect_divisor"},
    "derlog": {"divisor", "mode", "expect"},
    "euler": {"divisor", "degree"},
    "augment_tilde": {"augmentation", "k"},
    "augment_pi2": {"augmentation", "k", "expect_ideal"},
    "augment_descend": {"augmentation", "k"},
    "augment_tau": {"augmentation", "k", "field"},
    "tau_zero": {"fields"},
    "note": {"text"},
}


@dataclass
class FieldTable:
    ring_name: str
    ring: VarSet
    fields: tuple

    def as_submodule(self) -> Submodule:
        return membership_module(
            self.ring, len(self.ring), [f.as_element() for f in self.fields]
        )


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

    def to_json(self) -> dict:
        return self.raw

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


def _ring_ref(rings, name, path) -> VarSet:
    if name not in rings:
        raise SchemaError(path, f"unknown ring {name!r}")
    return rings[name]


def _load_maps(raw, rings, out):
    for name, spec in raw.items():
        path = f"maps.{name}"
        src = _ring_ref(rings, _need(spec, "source", path, str), f"{path}.source")
        tgt = _ring_ref(rings, _need(spec, "target", path, str), f"{path}.target")
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
        total_name = _need(spec, "map", path, str)
        core_name = _need(spec, "core", path, str)
        if total_name not in maps:
            raise SchemaError(f"{path}.map", f"unknown map {total_name!r}")
        if core_name not in maps:
            raise SchemaError(f"{path}.core", f"unknown map {core_name!r}")
        try:
            out[name] = Unfolding(
                maps[total_name],
                _names(spec, "source_params", path),
                _names(spec, "target_params", path),
                maps[core_name],
            )
        except GermliftError as e:
            raise ValidationError(path, str(e)) from e


def _load_fields(raw, rings, out):
    for name, spec in raw.items():
        path = f"fields.{name}"
        ring_name = _need(spec, "ring", path, str)
        ring = _ring_ref(rings, ring_name, f"{path}.ring")
        elems = _need(spec, "elements", path, list)
        fields = []
        for i, vec in enumerate(elems):
            if not isinstance(vec, list) or len(vec) != len(ring):
                raise ValidationError(
                    f"{path}.elements[{i}]",
                    f"expected {len(ring)} entries over ring {ring_name}",
                )
            entries = [
                _parse(t, ring, f"{path}.elements[{i}][{j}]") for j, t in enumerate(vec)
            ]
            fields.append(VectorField(ring, entries))
        out[name] = FieldTable(ring_name, ring, tuple(fields))


def _load_divisors(raw, rings, out):
    for name, spec in raw.items():
        path = f"divisors.{name}"
        ring = _ring_ref(rings, _need(spec, "ring", path, str), f"{path}.ring")
        h = _parse(_need(spec, "equation", path, str), ring, f"{path}.equation")
        weights = _weights(spec, path)
        try:
            out[name] = Divisor(ring, h, weights)
        except GermliftError as e:
            raise ValidationError(path, str(e)) from e


def _load_augmentations(raw, m: Manifest, out):
    for name, spec in raw.items():
        path = f"augmentations.{name}"
        unf_name = _need(spec, "unfolding", path, str)
        if unf_name not in m.unfoldings:
            raise SchemaError(f"{path}.unfolding", f"unknown unfolding {unf_name!r}")
        unf = m.unfoldings[unf_name]
        if unf.r != 1:
            raise ValidationError(path, "augmentation needs a 1-parameter unfolding")
        div_name = _need(spec, "discriminant", path, str)
        if div_name not in m.divisors:
            raise SchemaError(f"{path}.discriminant", f"unknown divisor {div_name!r}")
        lf_name = _need(spec, "lift_fields", path, str)
        if lf_name not in m.fields:
            raise SchemaError(f"{path}.lift_fields", f"unknown fields {lf_name!r}")
        lift_fields = m.fields[lf_name]
        instances = {}
        for kstr, inst in _need(spec, "instances", path, dict).items():
            ipath = f"{path}.instances.{kstr}"
            try:
                k = int(kstr)
            except ValueError:
                raise SchemaError(ipath, "instance keys must be integers") from None
            ring = _ring_ref(m.rings, _need(inst, "ring", ipath, str), f"{ipath}.ring")
            dname = _need(inst, "divisor", ipath, str)
            if dname not in m.divisors:
                raise SchemaError(f"{ipath}.divisor", f"unknown divisor {dname!r}")
            fname = _need(inst, "tilde_fields", ipath, str)
            if fname not in m.fields:
                raise SchemaError(f"{ipath}.tilde_fields", f"unknown fields {fname!r}")
            recipes = []
            for j, rec in enumerate(_need(inst, "recipes", ipath, list)):
                rpath = f"{ipath}.recipes[{j}]"
                kind = _need(rec, "kind", rpath, str)
                if kind not in ("map", "div"):
                    raise SchemaError(rpath, "recipe kind must be 'map' or 'div'")
                combo = []
                for c, entry in enumerate(_need(rec, "combo", rpath, list)):
                    epath = f"{rpath}.combo[{c}]"
                    coef, idx = _combo_pair(entry, len(lift_fields.fields), epath)
                    combo.append((_parse(coef, lift_fields.ring, epath), idx))
                recipes.append((kind, tuple(combo)))
            instances[k] = AugInstance(
                k, ring, m.divisors[dname], m.fields[fname], tuple(recipes)
            )
        out[name] = Augmentation(
            unf, m.divisors[div_name], lift_fields, instances
        )


# Which task keys are names, and into which registry they must resolve.
TASK_REFS = {
    "lift_check": {"map": "maps", "fields": "fields"},
    "transport_table": {"map": "maps", "inverse": "maps", "fields": "fields",
                        "expect": "fields"},
    "project_combinations": {"unfolding": "unfoldings", "fields": "fields",
                             "expect": "fields"},
    "pipeline": {"unfolding": "unfoldings", "fields": "fields", "expect": "fields"},
    "pipeline_vs_derlog": {"unfolding": "unfoldings", "fields": "fields",
                           "divisor": "divisors"},
    "discriminant": {"map": "maps", "expect_divisor": "divisors"},
    "derlog": {"divisor": "divisors", "expect": "fields"},
    "euler": {"divisor": "divisors", "expect": "fields"},
    "augment_tilde": {"augmentation": "augmentations"},
    "augment_pi2": {"augmentation": "augmentations"},
    "augment_descend": {"augmentation": "augmentations"},
    "augment_tau": {"augmentation": "augmentations", "field": "fields"},
    "tau_zero": {"fields": "fields"},
    "note": {},
}


DERLOG_MODES = ("strict", "delta")
LIFT_EXPECTS = ("certified", "obstructed")


def _combo_pair(entry, nfields: int, path: str) -> tuple:
    """A [coefficient string, index] pair whose index points into a table of
    ``nfields`` fields."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise SchemaError(path, "expected [coefficient, index]")
    coef, idx = entry
    if not isinstance(coef, str):
        raise SchemaError(path, "expected an expression string")
    # bool is an int subclass, but true/false are not indices here
    if type(idx) is not int or not 0 <= idx < nfields:
        raise SchemaError(path, f"field index {idx!r} out of range")
    return coef, idx


def _check_combinations(task: dict, m: Manifest, path: str):
    """``combinations``: one list of [coefficient, index] pairs per field of
    the ``expect`` table, each index into the ``fields`` table.  The
    coefficients are parsed when the task runs."""
    table = m.fields[task["fields"]]
    combos = task["combinations"]
    if not isinstance(combos, list):
        raise SchemaError(f"{path}.combinations", "expected a list of combinations")
    if len(combos) != len(m.fields[task["expect"]].fields):
        raise SchemaError(f"{path}.combinations",
                          "expected one combination per expected field")
    for i, combo in enumerate(combos):
        cpath = f"{path}.combinations[{i}]"
        if not isinstance(combo, list):
            raise SchemaError(cpath, "expected a list of [coefficient, index] pairs")
        for j, entry in enumerate(combo):
            _combo_pair(entry, len(table.fields), f"{cpath}[{j}]")


def _check_params(task: dict, op: str, m: Manifest, path: str):
    """Type-check the values of ``task`` that are not registry names."""
    keys = TASK_OPS[op]
    for key in ("k", "degree"):
        # bool is an int subclass, but true/false are not integers here
        if key in keys and type(task[key]) is not int:
            raise SchemaError(f"{path}.{key}", "expected an integer")
    if op == "lift_check" and task["expect"] not in LIFT_EXPECTS:
        raise SchemaError(f"{path}.expect",
                          "expect must be 'certified' or 'obstructed'")
    if "mode" in keys and task["mode"] not in DERLOG_MODES:
        raise SchemaError(f"{path}.mode", "mode must be 'strict' or 'delta'")
    if "text" in keys and not isinstance(task["text"], str):
        raise SchemaError(f"{path}.text", "expected a string")
    if "expect_ideal" in keys:
        ideal = task["expect_ideal"]
        if ideal is not None and not (
                isinstance(ideal, list) and all(isinstance(t, str) for t in ideal)):
            raise SchemaError(f"{path}.expect_ideal",
                              "expected null or a list of expression strings")
    if "combinations" in keys:
        _check_combinations(task, m, path)


def _check_tasks(tasks, m: Manifest):
    registries = {
        "maps": m.maps,
        "fields": m.fields,
        "unfoldings": m.unfoldings,
        "divisors": m.divisors,
        "augmentations": m.augmentations,
    }
    for i, task in enumerate(tasks):
        path = f"tasks[{i}]"
        if not isinstance(task, dict):
            raise SchemaError(path, "task must be an object")
        op = _need(task, "op", path, str)
        if op not in TASK_OPS:
            raise SchemaError(path, f"unknown operation {op!r}")
        _need(task, "id", path, str)
        for key in TASK_OPS[op]:
            if key not in task:
                raise SchemaError(path, f"operation {op!r} requires key {key!r}")
        for key, registry in TASK_REFS[op].items():
            if key not in task:
                continue
            if not isinstance(task[key], str):
                raise SchemaError(f"{path}.{key}", "expected a name")
            if task[key] not in registries[registry]:
                raise SchemaError(f"{path}.{key}", f"unresolved name {task[key]!r}")
        _check_params(task, op, m, path)


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
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise SchemaError("$", "manifest must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise SchemaError("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    sec = {name: _section(raw, name) for name in SECTIONS}
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        raise SchemaError("tasks", "expected a list")
    m = Manifest(raw, {}, {}, {}, {}, {}, {}, list(tasks))
    _load_rings(sec["rings"], m.rings)
    _load_maps(sec["maps"], m.rings, m.maps)
    _load_unfoldings(sec["unfoldings"], m.maps, m.unfoldings)
    _load_fields(sec["fields"], m.rings, m.fields)
    _load_divisors(sec["divisors"], m.rings, m.divisors)
    _load_augmentations(sec["augmentations"], m, m.augmentations)
    _check_tasks(m.tasks, m)
    return m


def load_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save_manifest(m: Manifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(m.dumps())
