import copy
import importlib.util
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift import suite
from germlift.errors import ManifestError, SchemaError, ValidationError
from germlift.groebner import Budget
from germlift.manifest import (_INSTANCE, SECTIONS, TASKS, Manifest, load_manifest,
                               loads)
from germlift.suite import BUNDLED_FIXTURES, bundled_manifests, run_task

from conftest import fixture_path

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_bundled_fixtures_load():
    for m in bundled_manifests():
        assert m.tasks


def test_hk_manifest_contents():
    m = load_manifest(fixture_path("hk.manifest.json"))
    for name in ("H2", "F2", "G2", "G2_inv"):
        assert name in m.maps
    assert len(m.fields["lift_F"].fields) == 7
    assert len(m.fields["lift_F2"].fields) == 7
    assert len(m.fields["lift_H2"].fields) == 5


def test_augment_manifest_contents():
    m = load_manifest(fixture_path("augment.manifest.json"))
    assert set(m.augmentations["quartic"].instances) == {1, 2, 3}
    assert len(m.fields["etas"].fields) == 3


def _minimal(**overrides):
    doc = {
        "schema": "germlift-manifest/1",
        "rings": {
            "src": {"vars": ["x", "lam"]},
            "tgt": {"vars": ["X", "Lam"]},
            "core_src": {"vars": ["x"]},
            "core_tgt": {"vars": ["X"]},
        },
        "maps": {
            "f": {"source": "core_src", "target": "core_tgt",
                  "components": ["x^2"]},
            "F": {"source": "src", "target": "tgt",
                  "components": ["x^2", "lam"]},
        },
        "unfoldings": {
            "U": {"map": "F", "source_params": ["lam"],
                  "target_params": ["Lam"], "core": "f"},
        },
        "fields": {},
        "divisors": {},
        "tasks": [],
    }
    doc.update(overrides)
    return doc


def test_minimal_manifest_loads():
    m = loads(json.dumps(_minimal()))
    assert "U" in m.unfoldings


def test_unfolding_law_violation_is_validation_error():
    doc = _minimal()
    doc["maps"]["F"]["components"] = ["x^2", "lam^2"]
    with pytest.raises(ValidationError):
        loads(json.dumps(doc))


def test_augmentation_needs_a_one_parameter_unfolding():
    doc = _minimal()
    doc["unfoldings"]["U0"] = {"map": "f", "source_params": [],
                               "target_params": [], "core": "f"}
    doc["augmentations"] = {"a": {"unfolding": "U0", "discriminant": "d",
                                  "lift_fields": "t", "instances": {}}}
    with pytest.raises(ValidationError, match="1-parameter") as e:
        loads(json.dumps(doc))
    assert e.value.path == "augmentations.a.unfolding"


def test_bad_schema_version():
    doc = _minimal(schema="other/9")
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError):
        loads("{not json")


def test_unknown_ring_reference():
    doc = _minimal()
    doc["maps"]["f"]["source"] = "nope"
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_expression_error_carries_path():
    doc = _minimal()
    doc["maps"]["f"]["components"] = ["x +"]
    with pytest.raises(SchemaError) as e:
        loads(json.dumps(doc))
    assert "maps.f.components[0]" in str(e.value)


def test_nonpositive_weight_rejected():
    doc = _minimal()
    doc["rings"]["src"]["weights"] = [0, 1]
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_non_integer_weight_rejected():
    doc = _minimal()
    doc["rings"]["src"]["weights"] = [1.5, 1]
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_germ_origin_violation_is_validation_error():
    doc = _minimal()
    doc["maps"]["f"]["components"] = ["x^2 + 1"]
    with pytest.raises(ValidationError):
        loads(json.dumps(doc))


def test_task_reference_must_resolve():
    doc = _minimal()
    doc["tasks"] = [{"id": "t", "op": "lift_check", "map": "missing",
                     "fields": "also_missing", "expect": "certified"}]
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_task_unknown_op():
    doc = _minimal()
    doc["tasks"] = [{"id": "t", "op": "frobnicate"}]
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_field_entry_count_must_match_ring():
    doc = _minimal()
    doc["fields"] = {"bad": {"ring": "tgt", "elements": [["X"]]}}
    with pytest.raises(ValidationError):
        loads(json.dumps(doc))


def test_fixtures_match_published_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = os.path.join(ROOT, "docs", "manifest.schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    for name in BUNDLED_FIXTURES:
        with open(fixture_path(name), encoding="utf-8") as fh:
            jsonschema.validate(json.load(fh), schema)


def test_task_table_runners_and_schema_name_the_same_ops():
    with open(os.path.join(ROOT, "docs", "manifest.schema.json")) as fh:
        schema = json.load(fh)
    ops = schema["properties"]["tasks"]["items"]["properties"]["op"]["enum"]
    assert sorted(TASKS) == sorted(suite._RUNNERS) == sorted(ops)
    # each section's entry, and an augmentation's instance, has the keys
    # the schema publishes, the same ones required
    entries = {name: (kinds, schema["properties"][name]["additionalProperties"])
               for name, (_, kinds) in SECTIONS.items()}
    instance = entries["augmentations"][1]["properties"]["instances"]
    entries["instance"] = (_INSTANCE, instance["additionalProperties"])
    assert entries.keys() == schema["properties"].keys() - {"schema", "tasks"} | {"instance"}
    for name, (kinds, published) in entries.items():
        keys = [key.rstrip("?") for key in kinds]
        required = [key for key in kinds if not key.endswith("?")]
        assert sorted(required) == sorted(published["required"]), name
        assert sorted(keys) == sorted(published["properties"]), name


def test_fixtures_match_their_generator():
    # the suite reads these files; the benchmark builds its hk manifests
    # from the generator, so the two must not drift apart
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(ROOT, "tools", "make_fixtures.py"))
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    texts = make_fixtures.fixture_texts()
    assert sorted(texts) == sorted(BUNDLED_FIXTURES)
    for name, text in texts.items():
        with open(fixture_path(name), encoding="utf-8") as fh:
            assert fh.read() == text, name


def _node_paths(value, path=()):
    """The path to every node of a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _node_paths(child, path + (key,))


def _fuzz_doc(name):
    """The document, the path to each of its nodes, and the values a
    mutation may move into a task: the names the sections declare and
    the names and numbers the tasks hold."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    values = {key for section in doc.values() if isinstance(section, dict)
              for key in section}
    values |= {v for task in doc["tasks"] for v in task.values()
               if isinstance(v, (str, int))}
    return doc, list(_node_paths(doc)), sorted(values, key=repr)


FUZZ_DOCS = {name: _fuzz_doc(name)
             for name in ("hk.manifest.json", "augment.manifest.json")}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_fixture_loads_or_raises_manifest_error(data):
    doc, paths, values = FUZZ_DOCS[data.draw(st.sampled_from(sorted(FUZZ_DOCS)))]
    # half the mutations replace the value of a task key, and may load
    task_paths = [p for p in paths if p[:1] == ("tasks",) and len(p) == 3]
    path = data.draw(st.sampled_from(paths) | st.sampled_from(task_paths))
    value = data.draw(json_values | st.sampled_from(values))
    if path:
        doc = copy.deepcopy(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc = value
    try:
        m = loads(json.dumps(doc))
    except ManifestError:
        return
    assert isinstance(m, Manifest)
    # a task that loads runs to a report; no exception escapes run_task
    for task in m.tasks:
        run_task(m, task, Budget(max_reductions=300, max_basis=60))
