import json

import pytest

from germlift.cli import main
from germlift.poly import Polynomial

from conftest import fixture_path


HK = fixture_path("hk.manifest.json")
AUG = fixture_path("augment.manifest.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lift_check_pass(capsys):
    code, out, _ = run(capsys, "lift-check", "-m", HK,
                       "--map", "H2", "--fields", "lift_H2", "--show-witness")
    assert code == 0
    assert "PASS" in out
    assert "witness" in out


def test_lift_check_fail_exit_2(capsys):
    code, out, _ = run(capsys, "lift-check", "-m", HK,
                       "--map", "H2", "--fields", "bogus_constant")
    assert code == 2
    assert "FAIL" in out


def test_lift_check_expected_obstruction(capsys):
    code, out, _ = run(capsys, "lift-check", "-m", HK, "--map", "H2",
                       "--fields", "bogus_constant", "--expect", "obstructed")
    assert code == 0


def test_unknown_map_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["lift-check", "-m", HK, "--map", "NOPE", "--fields", "lift_H2"])
    assert e.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["augment", "-m", AUG, "--augmentation", "quartic", "-k", "99", "--check", "tilde"],
     "augment.k: the augmentation has no instance k=99"),
    (["lift-check", "-m", HK, "--map", "H2", "--fields", "lift_F"],
     "lift-check.fields: 'lift_F' is not over the target of map 'H2'"),
    (["from-unfolding", "-m", HK, "--unfolding", "F2_unf", "--fields", "lift_H2"],
     "from-unfolding.fields: 'lift_H2' is not over the total target of unfolding"),
    (["derlog", "-m", AUG, "--divisor", "h_k2", "--expect", "etas"],
     "derlog.expect: 'etas' is not over the ring of divisor 'h_k2'"),
    (["augment", "-m", AUG, "--augmentation", "quartic", "-k", "2", "--check", "pi2",
      "--expect-ideal", "X+"],
     "augment.expect_ideal[0]: "),
], ids=["augment-no-instance", "lift-check-fields-ring", "from-unfolding-fields-ring",
        "derlog-expect-ring", "augment-expect-ideal-syntax"])
def test_task_check_usage_error(capsys, argv, message):
    # the CLI checks the task it builds as a manifest's tasks are checked
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_missing_argument_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["lift-check", "-m", HK])
    assert e.value.code == 64
    capsys.readouterr()


def test_order_flag_is_gone_usage_error(capsys):
    # the order is the ring's default; other orders are passed in the library
    with pytest.raises(SystemExit) as e:
        main(["paper-suite", "--order", "lex"])
    assert e.value.code == 64
    capsys.readouterr()


def test_corrupt_manifest_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.manifest.json"
    bad.write_text('{"schema": "germlift-manifest/1", "rings": {"r": {}}}')
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert "manifest error" in err


@pytest.mark.parametrize("data", [
    b"\xff\xfe" + '{"schema": "germlift-manifest/1"}'.encode("utf-16-le"),
    b"[" * 200_000 + b"]" * 200_000,
], ids=["not-utf8", "nested-200000-deep"])
def test_undecodable_manifest_data_error(tmp_path, capsys, data):
    bad = tmp_path / "bad.manifest.json"
    bad.write_bytes(data)
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert "manifest error: $: " in err
    assert "Traceback" not in err


RING_X = '"rings": {"r": {"vars": ["x"]}}, '


@pytest.mark.parametrize("section, path", [
    ('"rings": []', "rings"),
    ('"maps": {"m": 3}', "maps.m"),
    ('"tasks": {}', "tasks"),
    ('"rings": {"r": {"vars": ["x"], "weights": 5}}', "rings.r.weights"),
    ('"rings": {"r": {"vars": ["x"], "weights": [true]}}', "rings.r.weights"),
    ('"rings": {"r": {"vars": ["x", 1]}}', "rings.r.vars"),
    (RING_X + '"divisors": {"d": {"ring": "r", "equation": "x", "weights": 3}}',
     "divisors.d.weights"),
    ('"rings": {"r": {"vars": ["x y"]}}', "rings.r"),
    ('"rings": {"r": {"vars": ["x-1"]}}', "rings.r"),
    ('"rings": {"r": {"vars": ["\\u00e9"]}}', "rings.r"),
    ('"rings": {"r": {"vars": []}}', "rings.r.vars"),
], ids=["rings-list", "map-entry-number", "tasks-object", "ring-weights-number",
        "ring-weights-bool", "ring-var-number", "divisor-weights-number",
        "ring-var-space", "ring-var-minus", "ring-var-non-ascii", "ring-vars-empty"])
def test_malformed_section_data_error(tmp_path, capsys, section, path):
    bad = tmp_path / "bad.manifest.json"
    bad.write_text('{"schema": "germlift-manifest/1", ' + section + '}')
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert f"manifest error: {path}:" in err
    assert "Traceback" not in err


INSTANCE_2 = "instance_2"
INSTANCE_KEYS = {"minus-one": "-1", "zero": "0", "leading-zero": "01",
                 "underscore": "1_0", "space": " 2", "5000-digits": "9" * 5000}


@pytest.mark.parametrize("entry, value, path", [
    (("instances", "2"), 7, "augmentations.quartic.instances.2"),
    (("instances", "2", "recipes", 0), 5,
     "augmentations.quartic.instances.2.recipes[0]"),
    (("instances", "2", "recipes", 0, "combo", 0), ["1", True],
     "augmentations.quartic.instances.2.recipes[0].combo[0]"),
    (("instances", "2", "recipes", 0, "combo", 0), ["1", 9],
     "augmentations.quartic.instances.2.recipes[0].combo[0]"),
    (("instances", "2", "recipes"), [], "augmentations.quartic.instances.2.recipes"),
    (("instances", "2", "divisor"), "H", "augmentations.quartic.instances.2.divisor"),
    (("instances", "2", "tilde_fields"), "etas_tilde_k3",
     "augmentations.quartic.instances.2.tilde_fields"),
    (("discriminant",), "h_k2", "augmentations.quartic.discriminant"),
    (("lift_fields",), "etas_tilde_k2", "augmentations.quartic.lift_fields"),
    *[(("instances", key), INSTANCE_2, f"augmentations.quartic.instances.{key}")
      for key in INSTANCE_KEYS.values()],
], ids=["instance-number", "recipe-number", "combo-index-bool", "combo-index-range",
        "recipes-fewer-than-fields", "instance-divisor-ring", "instance-tilde-ring",
        "discriminant-ring", "lift-fields-ring",
        *[f"instance-key-{name}" for name in INSTANCE_KEYS]])
def test_malformed_augmentation_entry_data_error(tmp_path, capsys, entry, value,
                                                 path):
    with open(AUG) as fh:
        doc = json.load(fh)
    node = doc["augmentations"]["quartic"]
    if value == INSTANCE_2:
        # a well-formed instance, under a key that is not a positive decimal
        value = node["instances"]["2"]
    for key in entry[:-1]:
        node = node[key]
    node[entry[-1]] = value
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert f"manifest error: {path}:" in err
    assert "Traceback" not in err


def test_zero_divisor_equation_data_error(tmp_path, capsys):
    # a zero equation defines no hypersurface; certifying its "derlog" is wrong
    with open(AUG) as fh:
        doc = json.load(fh)
    doc["divisors"]["disc_f"]["equation"] = "0"
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "derlog", "-m", str(bad), "--divisor", "disc_f",
                         "--mode", "delta")
    assert code == 65
    assert "manifest error: divisors.disc_f: divisor equation is zero" in err
    assert "PASS" not in out
    assert "Traceback" not in err


NOTE_TASK = {"id": "note", "op": "note", "text": "ok"}
EMPTY = "empty_table"
SHORT = "short_table"
UNWEIGHTED = "unweighted"


@pytest.mark.parametrize("fixture, index, key, value", [
    (AUG, 8, "k", "two"),
    (AUG, 8, "k", True),
    (AUG, 7, "degree", "12"),
    (AUG, 4, "mode", "weak"),
    (HK, 4, "combinations", "x"),
    (HK, 4, "combinations", [[["1", 0]]]),
    (HK, 4, "combinations", [[["1", 9]]] * 5),
    (HK, 4, "combinations", [[[3, 0]]] * 5),
    (HK, 4, "combinations", [[["1", 0, 2]]] * 5),
    (AUG, 10, "expect_ideal", "X"),
    (AUG, None, "text", 5),
    (HK, 0, "expect", "certifed"),
    (HK, 1, "expect", 1),
    (AUG, 8, "k", 99),
    (HK, 0, "fields", "lift_F"),
    (HK, 3, "fields", "lift_H2"),
    (HK, 3, "expect", "lift_H2"),
    (HK, 4, "expect", "lift_F"),
    (HK, 6, "fields", "lift_H2"),
    (HK, 6, "expect", "lift_F"),
    (AUG, 15, "fields", "etas_tilde_k2"),
    (AUG, 15, "divisor", "H"),
    (AUG, 1, "expect_divisor", "H"),
    (AUG, 5, "expect", "etas"),
    (AUG, 7, "expect", "etas_tilde_k2"),
    (AUG, 7, "expect", EMPTY),
    (AUG, 16, "field", EMPTY),
    (HK, 4, "combinations", [[["1+", 0]]] * 5),
    (AUG, 10, "expect_ideal", ["X+"]),
    (AUG, 16, "field", "euler_H"),
    (AUG, 7, "divisor", UNWEIGHTED),
    (HK, 3, "expect", SHORT),
    (HK, 1, "id", "hk2.certify"),
], ids=["k-string", "k-bool", "degree-string", "mode-unknown", "combinations-string",
        "combinations-count", "combination-index-range", "combination-coefficient-number",
        "combination-triple", "expect-ideal-string", "text-number",
        "lift-expect-typo", "lift-expect-number", "k-no-instance",
        "lift-fields-ring", "transport-fields-ring", "transport-expect-ring",
        "combinations-expect-ring", "pipeline-fields-ring", "pipeline-expect-ring",
        "pipeline-vs-derlog-fields-ring", "pipeline-vs-derlog-divisor-ring",
        "discriminant-divisor-ring",
        "derlog-expect-ring", "euler-expect-ring", "euler-expect-empty",
        "tau-field-empty", "combination-coefficient-syntax", "expect-ideal-syntax",
        "tau-field-ring", "euler-divisor-unweighted", "transport-expect-length",
        "id-duplicate"])
def test_malformed_task_parameter_data_error(tmp_path, capsys, fixture, index,
                                             key, value):
    with open(fixture) as fh:
        doc = json.load(fh)
    if index is None:
        index = len(doc["tasks"])
        doc["tasks"].append(dict(NOTE_TASK))
    if value == EMPTY:
        # no fields, over the ring of the table it replaces
        ring = doc["fields"][doc["tasks"][index][key]]["ring"]
        doc["fields"][EMPTY] = {"ring": ring, "elements": []}
    if value == SHORT:
        # the table it replaces less its last field
        table = doc["fields"][doc["tasks"][index][key]]
        doc["fields"][SHORT] = {"ring": table["ring"], "elements": table["elements"][:-1]}
    if value == UNWEIGHTED:
        # a divisor with no weights, over a ring with none
        doc["rings"][UNWEIGHTED] = {"vars": ["X"]}
        doc["divisors"][UNWEIGHTED] = {"ring": UNWEIGHTED, "equation": "X"}
    doc["tasks"][index][key] = value
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert f"manifest error: tasks[{index}].{key}" in err
    assert "Traceback" not in err


def test_deeply_nested_expression_data_error(tmp_path, capsys):
    deep = "(" * 5000 + "x" + ")" * 5000
    bad = tmp_path / "deep.manifest.json"
    bad.write_text(json.dumps({
        "schema": "germlift-manifest/1",
        "rings": {"r": {"vars": ["x"]}},
        "maps": {"m": {"source": "r", "target": "r", "components": [deep]}},
    }))
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert "nested deeper" in err
    assert "Traceback" not in err


def test_power_too_large_data_error(tmp_path, capsys):
    bad = tmp_path / "power.manifest.json"
    bad.write_text(json.dumps({
        "schema": "germlift-manifest/1",
        "rings": {"r": {"vars": ["x", "y", "z"]}},
        "maps": {"m": {"source": "r", "target": "r",
                       "components": ["(x+y+z+1)^40", "y", "z"]}},
    }))
    code, _, err = run(capsys, "paper-suite", "-m", str(bad))
    assert code == 65
    assert "terms (at offset 9)" in err
    assert "Traceback" not in err


def _map_manifest(tmp_path, component):
    path = tmp_path / "map.manifest.json"
    path.write_text(json.dumps({
        "schema": "germlift-manifest/1",
        "rings": {"r": {"vars": ["x", "y", "z"]}},
        "maps": {"m": {"source": "r", "target": "r",
                       "components": [component, "y", "z"]}},
    }))
    return str(path)


def test_product_too_large_data_error(tmp_path, capsys):
    # 66 * 66 term products; each factor passes the power bound on its own
    bad = _map_manifest(tmp_path, "(x+y+z)^10*(x+y+z)^10")
    code, _, err = run(capsys, "paper-suite", "-m", bad)
    assert code == 65
    assert "terms (at offset 10)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("component", ["x^" + "9" * 5000, "1" + "0" * 5000 + "*x"],
                         ids=["exponent", "coefficient"])
def test_long_literal_data_error(tmp_path, capsys, component):
    bad = _map_manifest(tmp_path, component)
    code, _, err = run(capsys, "paper-suite", "-m", bad)
    assert code == 65
    assert "digits" in err
    assert "Traceback" not in err


def test_constant_power_field_data_error(tmp_path, capsys):
    # 2^20000 has 6,021 digits, more than Python will convert to a string
    with open(HK) as fh:
        doc = json.load(fh)
    doc["fields"]["huge"] = {"ring": "tgt3", "elements": [["2^20000*X", "0", "0"]]}
    bad = tmp_path / "field.manifest.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "lift-check", "-m", str(bad), "--map", "H2",
                       "--fields", "huge")
    assert code == 65
    assert "longer than 1000 digits (at offset 1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("component, offset", [
    ("(1000*x + 1)^1999 - 1", 12),  # passes the term bound; 45 s to expand
    ("(1/3*x)^3000", 7),
    ("10^600*x*10^600", 8),
    # each denominator has 1000 digits; the first sum's has 1999
    (" + ".join(f"1/{10**999 + k}*x" for k in (1, 3, 7, 9, 11, 13)), 1005),
], ids=["binomial-power", "denominator-power", "product", "sum"])
def test_coefficient_too_long_data_error(tmp_path, capsys, component, offset):
    bad = _map_manifest(tmp_path, component)
    code, _, err = run(capsys, "paper-suite", "-m", bad)
    assert code == 65
    assert f"longer than 1000 digits (at offset {offset})" in err
    assert "Traceback" not in err


def test_power_work_data_error(tmp_path, capsys):
    # 2000 terms pass the term bound; squaring would take seconds
    bad = _map_manifest(tmp_path, "y + (x+1)^1999")
    code, _, err = run(capsys, "paper-suite", "-m", bad)
    assert code == 65
    assert "more than 100000 term products (at offset 9)" in err
    assert "Traceback" not in err


def test_text_work_data_error(tmp_path, capsys):
    # each power passes every bound; together they would take about a second
    one = "(x+y+z+1)^20"
    bad = _map_manifest(tmp_path, " + ".join([one] * 2))
    code, _, err = run(capsys, "paper-suite", "-m", bad)
    assert code == 65
    assert f"more than 100000 term products (at offset {len(one) + 3 + one.index('^')})" in err
    assert "Traceback" not in err


def test_missing_file_data_error(capsys):
    code, _, err = run(capsys, "paper-suite", "-m", "/nonexistent.json")
    assert code == 65


def test_timeout_budget_zero(capsys):
    code, out, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H",
                       "--mode", "delta", "--timeout", "0")
    assert code == 3
    assert "TIMEOUT" in out


def test_timeout_budget_zero_stops_a_determinant(capsys):
    # aug.disc_k3's discriminant is a determinant, with no Groebner run
    code, out, _ = run(capsys, "paper-suite", "--only", "aug.disc_k3", "--timeout", "0")
    assert code == 3
    assert "TIMEOUT" in out and "aug.disc_k3" in out


def _germ_manifest(tmp_path, weights, fields):
    """The germ (x, y^3, y^5 + x*y) with the given source weights and
    fields on its target."""
    src = {"vars": ["x", "y"]}
    if weights is not None:
        src["weights"] = weights
    path = tmp_path / "germ.manifest.json"
    path.write_text(json.dumps({
        "schema": "germlift-manifest/1",
        "rings": {"src": src, "tgt": {"vars": ["X", "Y", "Z"]}},
        "maps": {"H": {"source": "src", "target": "tgt",
                       "components": ["x", "y^3", "y^5 + x*y"]}},
        "fields": {name: {"ring": "tgt", "elements": [entries]}
                   for name, entries in fields.items()},
    }))
    return str(path)


def test_timeout_budget_zero_stops_a_pull_back(tmp_path, capsys, monkeypatch):
    # composing Z^3000 with y^5 + x*y squares a growing polynomial about
    # twelve times; under --timeout 0 no such product is made
    path = _germ_manifest(tmp_path, None, {"z": ["0", "0", "Z^3000"]})
    products = []
    real = Polynomial.__mul__

    def counted(a, b):
        if isinstance(b, Polynomial) and len(a.terms) > 1 and len(b.terms) > 1:
            products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    code, out, _ = run(capsys, "lift-check", "-m", path, "--map", "H", "--fields", "z",
                       "--timeout", "0", "--json")
    assert code == 3
    result, = json.loads(out)["results"]
    assert result["verdict"] == "TIMEOUT"
    assert result["details"][0].startswith("time limit")
    assert products == []


BIG = 10**29


@pytest.mark.parametrize("weights", [None, [1, 10**20]], ids=["plain", "weighted"])
@pytest.mark.parametrize("field, obstruction, reductions", [
    ("X^100000", "(x^100000, 0, 0)", 4),
    ("X^70000*Y", "(0, 3/5*x^70000*y^2, 1/5*x^70001)", 5),
    (f"X^{BIG}", f"(x^{BIG}, 0, 0)", 4),
], ids=["1e5", "7e4", "1e29"])
def test_wide_exponents_and_weights_give_the_exact_obstruction(tmp_path, capsys, weights,
                                                               field, obstruction,
                                                               reductions):
    # the whole report, counters included: exponents and weights too wide
    # for fixed fields must still give the exact obstruction
    path = _germ_manifest(tmp_path, weights, {"f": [field, "0", "0"]})
    code, out, _ = run(capsys, "lift-check", "-m", path, "--map", "H", "--fields", "f",
                       "--json")
    assert code == 2
    expected = {
        "results": [{
            "certificates": [{"field": f"({field}, 0, 0)", "obstruction": obstruction}],
            "counters": {"reductions": reductions, "s_pairs": 0, "zero_reductions": 0},
            "details": ["generator 0 not polynomially liftable"],
            "id": "lift-check.H.f",
            "verdict": "UNDECIDED_LOCAL",
        }],
        "schema": "germlift-report/1",
        "summary": {"fail": 0, "pass": 0, "timeout": 0, "total": 1, "undecided_local": 1},
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", ["abc", "nan", "-1", ""])
def test_bad_timeout_flag_usage_error(capsys, value):
    with pytest.raises(SystemExit) as e:
        main(["derlog", "-m", AUG, "--divisor", "H", f"--timeout={value}"])
    assert e.value.code == 64
    assert "argument --timeout" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "nan", "NaN", "-0.5"])
def test_bad_env_timeout_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("GERMLIFT_TIMEOUT", value)
    with pytest.raises(SystemExit) as e:
        main(["derlog", "-m", AUG, "--divisor", "H"])
    assert e.value.code == 64
    err = capsys.readouterr().err
    assert "GERMLIFT_TIMEOUT" in err
    assert "Traceback" not in err


def test_infinite_timeout_means_no_limit(monkeypatch, capsys):
    code, out, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H",
                       "--timeout", "inf")
    assert code == 0
    monkeypatch.setenv("GERMLIFT_TIMEOUT", "inf")
    code, out, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H")
    assert code == 0


def test_timeout_flag_wins_over_environment(monkeypatch, capsys):
    monkeypatch.setenv("GERMLIFT_TIMEOUT", "0")
    code, _, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H",
                     "--timeout", "inf")
    assert code == 0
    monkeypatch.setenv("GERMLIFT_TIMEOUT", "inf")
    code, out, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H",
                       "--timeout", "0")
    assert code == 3
    assert "time limit" in out


def test_from_unfolding_with_expect(capsys):
    code, out, _ = run(capsys, "from-unfolding", "-m", HK,
                       "--unfolding", "F2_unf", "--fields", "lift_F2",
                       "--expect", "lift_H2")
    assert code == 0
    assert "equality both directions" in out


def test_derlog_with_expect(capsys):
    code, out, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H",
                       "--expect", "etas")
    assert code == 0


def test_augment_subcommands(capsys):
    for check in ("tilde", "pi2", "descend"):
        code, out, _ = run(capsys, "augment", "-m", AUG,
                           "--augmentation", "quartic", "-k", "2",
                           "--check", check)
        assert code == 0, (check, out)


def test_empty_expected_ideal_is_the_zero_ideal(capsys):
    # --expect-ideal with no expressions expects (0), which (X, Y) is not
    code, out, _ = run(capsys, "augment", "-m", AUG, "--augmentation", "quartic",
                       "-k", "2", "--check", "pi2", "--expect-ideal")
    assert code == 2
    assert "ideal differs from the expected one" in out


def test_paper_suite_only_subset(capsys):
    code, out, _ = run(capsys, "paper-suite", "--only", "hk2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert all("hk2" in l for l in lines)
    assert len(lines) >= 6


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_paper_suite_only_without_a_match_usage_error(capsys, json_flag):
    # a mistyped prefix must not read as a green run of zero tasks
    with pytest.raises(SystemExit) as e:
        main(["paper-suite", "--only", "hk9.nothing", *json_flag])
    assert e.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "'hk9.nothing'" in err


def test_json_reports_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "paper-suite", "--only", "hk2.certify", "--json")
    code2, out2, _ = run(capsys, "paper-suite", "--only", "hk2.certify", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "germlift-report/1"
    assert doc["summary"]["fail"] == 0


def test_env_timeout(monkeypatch, capsys):
    monkeypatch.setenv("GERMLIFT_TIMEOUT", "0")
    code, out, _ = run(capsys, "derlog", "-m", AUG, "--divisor", "H",
                       "--mode", "delta")
    assert code == 3
