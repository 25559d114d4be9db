#!/usr/bin/env python3
"""Regenerate the bundled manifest fixtures.

The tables ship as manifest data; this script is the single place that knows
how to produce them for a given family index k.  Run from the repo root:

    python tools/make_fixtures.py
"""

import functools
import json
import os

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "germlift", "fixtures")


def power(var, n):
    """The expression var^n: "1" for n <= 0, var itself for n = 1."""
    if n <= 0:
        return "1"
    if n == 1:
        return var
    return f"{var}^{n}"


W1, Y, Z = (functools.partial(power, var) for var in ("W1", "Y", "Z"))


def lift_F_table():
    return [
        ["2*U1", "2*V1", "V2", "3*W1", "3*W2"],
        ["4*U1^2", "-3*U1*V1 + 3*V2*W1", "-5*U1*V2 - 3*W2", "6*U1*W1",
         "-3*V1*W1 + 2*U1*W2"],
        ["6*U1", "-3*V1", "-6*V2", "9*W1", "0"],
        ["9*V1", "-6*V2^2", "0", "9*W2 + 3*U1*V2", "3*V1*V2"],
        ["0", "-3*U1*V2 - 3*W2", "3*V1", "0", "-3*V2*W1"],
        ["-9*W1", "2*U1*V2", "-3*V1", "2*U1^2", "6*V2*W1 + 2*U1*V1"],
        ["-9*W2 - 3*U1*V2", "-3*V1*V2", "0", "3*U1*V1", "6*V2*W2 + 3*V1^2"],
    ]


def lift_Fk_table(k):
    return [
        ["2*U1", "2*V1", f"V2 - {3*k-4}*{W1(k-1)}", "3*W1", "3*W2"],
        ["4*U1^2", f"-3*U1*V1 + 3*V2*W1 + 3*{W1(k)}",
         f"-5*U1*V2 - {6*k-1}*U1*{W1(k-1)} - 3*W2", "6*U1*W1",
         "-3*V1*W1 + 2*U1*W2"],
        ["6*U1", "-3*V1", f"-6*V2 - {9*k-3}*{W1(k-1)}", "9*W1", "0"],
        ["9*V1", f"-6*V2^2 - 12*V2*{W1(k-1)} - 6*{W1(2*k-2)}",
         f"-{9*(k-1)}*{W1(k-2)}*W2 - {3*(k-1)}*U1*V2*{W1(k-2)} - {3*(k-1)}*U1*{W1(2*k-3)}",
         f"9*W2 + 3*U1*V2 + 3*U1*{W1(k-1)}", f"3*V1*V2 + 3*V1*{W1(k-1)}"],
        ["0", f"-3*U1*V2 - 3*U1*{W1(k-1)} - 3*W2", "3*V1", "0",
         f"-3*V2*W1 - 3*{W1(k)}"],
        ["-9*W1", f"2*U1*V2 + 2*U1*{W1(k-1)}",
         f"-3*V1 - {2*(k-1)}*U1^2*{W1(k-2)}", "2*U1^2",
         f"6*V2*W1 + 6*{W1(k)} + 2*U1*V1"],
        [f"-9*W2 - 3*U1*V2 - 3*U1*{W1(k-1)}", f"-3*V1*V2 - 3*V1*{W1(k-1)}",
         f"-{3*(k-1)}*U1*V1*{W1(k-2)}", "3*U1*V1",
         f"6*V2*W2 + 6*{W1(k-1)}*W2 + 3*V1^2"],
    ]


def lift_Hk_table(k):
    return [
        [f"{3*k-2}*X", "3*Y", f"{3*k-1}*Z"],
        [f"X^2 + {3*k-1}*{Y(k-1)}*Z", "-3*X*Y", f"{3*k-1}*{Y(2*k-1)}"],
        [f"Z^2 - X*{Y(k)}", "0", f"X^2*Y + {Y(k)}*Z"],
        [f"{3*k-1}*{Y(2*k-1)} + X*Z", "-3*Y*Z", f"-{3*k-1}*X*{Y(k)}"],
        [f"-{3*k-1}*{Y(2*k-2)}*Z - X^2*{Y(k-1)}", "3*Z^2",
         f"{3*k}*X*{Y(k-1)}*Z + X^3"],
    ]


def combinations(k):
    # index into the transported table:
    # 0 eta_ke, 1 eta_k1^1, 2 eta_k1^2, 3 eta_k1^3, 4 eta_k2^1, 5 eta_k2^2, 6 eta_k2^3
    # The fifth combination multiplies eta_k1^1; the eta_k2^1 variant violates
    # the vanishing conditions at the parameter zero section and does not
    # project onto a multiple of the fifth generator.
    return [
        [[f"{9*k-3}", 0], [f"-{3*k-4}", 2]],
        [["3*V1", 2], [f"{9*k-3}*{W1(k-1)}", 4]],
        [["2*V1", 1], ["W2", 4], ["-W2", 5], ["W1", 6]],
        [["W1", 3], [f"-{3*(k-1)}*{W1(k-1)}", 1], ["V1", 4], ["V1", 5]],
        [["W2", 3], ["V1", 6], [f"-{3*(k-1)}*{W1(k-2)}*W2", 1]],
    ]


def expand_psi_body(k):
    """v1*y + v2*y^2 + y^2*(y^3 + u1*y)^(k-1), expanded by the binomial."""
    from math import comb

    terms = ["v1*y", "v2*y^2"]
    for j in range(k):
        c = comb(k - 1, j)
        coeff = "" if c == 1 else f"{c}*"
        upow = "" if j == 0 else (f"u1*" if j == 1 else f"u1^{j}*")
        ypow = 3 * k - 1 - 2 * j
        terms.append(f"{coeff}{upow}y^{ypow}")
    return " + ".join(terms)


def hk_manifest(k):
    kk = f"{k}"
    m = {
        "schema": "germlift-manifest/1",
        "rings": {
            "src2": {"vars": ["x", "y"], "weights": [3 * k - 2, 1]},
            "tgt3": {"vars": ["X", "Y", "Z"], "weights": [3 * k - 2, 3, 3 * k - 1]},
            "src4": {"vars": ["u1", "v1", "v2", "y"]},
            "tgt5": {"vars": ["U1", "V1", "V2", "W1", "W2"]},
        },
        "maps": {
            f"H{kk}": {
                "source": "src2",
                "target": "tgt3",
                "components": ["x", "y^3", f"y^{3*k-1} + x*y"],
            },
            "F": {
                "source": "src4",
                "target": "tgt5",
                "components": ["u1", "v1", "v2", "y^3 + u1*y", "v1*y + v2*y^2"],
            },
            f"F{kk}": {
                "source": "src4",
                "target": "tgt5",
                "components": ["u1", "v1", "v2", "y^3 + u1*y", expand_psi_body(k)],
            },
            f"G{kk}": {
                "source": "tgt5",
                "target": "tgt5",
                "components": ["U1", "V1", f"V2 - {W1(k-1)}", "W1", "W2"],
            },
            f"G{kk}_inv": {
                "source": "tgt5",
                "target": "tgt5",
                "components": ["U1", "V1", f"V2 + {W1(k-1)}", "W1", "W2"],
            },
        },
        "unfoldings": {
            f"F{kk}_unf": {
                "map": f"F{kk}",
                "source_params": ["u1", "v2"],
                "target_params": ["U1", "V2"],
                "core": f"H{kk}",
            }
        },
        "fields": {
            "lift_F": {"ring": "tgt5", "elements": lift_F_table()},
            f"lift_F{kk}": {"ring": "tgt5", "elements": lift_Fk_table(k)},
            f"lift_H{kk}": {"ring": "tgt3", "elements": lift_Hk_table(k)},
            "bogus_constant": {"ring": "tgt3", "elements": [["0", "0", "1"]]},
        },
        "divisors": {},
        "augmentations": {},
        "tasks": [
            {
                "id": f"hk{kk}.certify",
                "op": "lift_check",
                "map": f"H{kk}",
                "fields": f"lift_H{kk}",
                "expect": "certified",
            },
            {
                "id": f"hk{kk}.bogus",
                "op": "lift_check",
                "map": f"H{kk}",
                "fields": "bogus_constant",
                "expect": "obstructed",
            },
            {
                "id": f"hk{kk}.lift_F_valid",
                "op": "lift_check",
                "map": "F",
                "fields": "lift_F",
                "expect": "certified",
            },
            {
                "id": f"hk{kk}.transport",
                "op": "transport_table",
                "map": f"G{kk}",
                "inverse": f"G{kk}_inv",
                "fields": "lift_F",
                "expect": f"lift_F{kk}",
            },
            {
                "id": f"hk{kk}.combinations",
                "op": "project_combinations",
                "unfolding": f"F{kk}_unf",
                "fields": f"lift_F{kk}",
                "combinations": combinations(k),
                "expect": f"lift_H{kk}",
            },
            {
                "id": f"hk{kk}.tau",
                "op": "tau_zero",
                "fields": f"lift_H{kk}",
            },
        ],
    }
    m["tasks"].append(
        {
            "id": f"hk{kk}.pipeline",
            "op": "pipeline",
            "unfolding": f"F{kk}_unf",
            "fields": f"lift_F{kk}",
            "expect": f"lift_H{kk}",
        }
    )
    return m


def h_equation(k):
    return (
        f"256*X^3 + 27*Y^4 + 144*X*Y^2*{Z(k)} + 128*X^2*{Z(2*k)}"
        f" + 4*Y^2*{Z(3*k)} + 16*X*{Z(4*k)}"
    )


def etas_table():
    return [
        ["4*X", "3*Y", "2*Z"],
        ["-9*Y^2 - 16*X*Z", "12*Y*Z", "48*X + 4*Z^2"],
        ["Y*Z", "-8*X - 2*Z^2", "6*Y"],
    ]


def etas_tilde_table(k):
    return [
        [f"{4*k}*X", f"{3*k}*Y", "2*Z"],
        [f"-{9*k}*Y^2*{Z(k-1)} - {16*k}*X*{Z(2*k-1)}", f"{12*k}*Y*{Z(2*k-1)}",
         f"48*X + 4*{Z(2*k)}"],
        [f"{k}*Y*{Z(2*k-1)}", f"-{8*k}*X*{Z(k-1)} - {2*k}*{Z(3*k-1)}", "6*Y"],
        [f"-{9*k}*Y^3 - {24*k}*X*Y*{Z(k)}",
         f"{64*k}*X^2 + {12*k}*Y^2*{Z(k)} + {16*k}*X*{Z(2*k)}",
         f"4*Y*{Z(k+1)}"],
    ]


def recipes(k):
    return [
        {"kind": "div", "combo": [[f"{k}", 0]]},
        {"kind": "map", "combo": [["1", 1]]},
        {"kind": "map", "combo": [["1", 2]]},
        {"kind": "div", "combo": [[f"{k}*Y", 1], [f"-{8*k}*X", 2]]},
    ]


def augment_manifest():
    ks = [1, 2, 3]
    m = {
        "schema": "germlift-manifest/1",
        "rings": {
            "srcf": {"vars": ["x", "y"], "weights": [1, 3]},
            "tgt2": {"vars": ["X", "Y"], "weights": [4, 3]},
            "srcF": {"vars": ["x", "y", "z"], "weights": [1, 3, 2]},
            "tgtF": {"vars": ["X", "Y", "Z"], "weights": [4, 3, 2]},
            "tgtA2": {"vars": ["X", "Y", "Z"], "weights": [8, 6, 2]},
            "tgtA3": {"vars": ["X", "Y", "Z"], "weights": [12, 9, 2]},
            "srcA2": {"vars": ["x", "y", "z"], "weights": [2, 6, 2]},
            "srcA3": {"vars": ["x", "y", "z"], "weights": [3, 9, 2]},
            "tgtAF2": {"vars": ["X", "Y", "Z", "Mu"]},
            "tgtAF3": {"vars": ["X", "Y", "Z", "Mu"]},
        },
        "maps": {
            "f": {"source": "srcf", "target": "tgt2",
                  "components": ["x^4 + y*x", "y"]},
            "F": {"source": "srcF", "target": "tgtF",
                  "components": ["x^4 + y*x + z*x^2", "y", "z"]},
            "A2f": {"source": "srcA2", "target": "tgtA2",
                    "components": ["x^4 + y*x + z^2*x^2", "y", "z"]},
            "A3f": {"source": "srcA3", "target": "tgtA3",
                    "components": ["x^4 + y*x + z^3*x^2", "y", "z"]},
        },
        "unfoldings": {
            "F_unf": {"map": "F", "source_params": ["z"],
                      "target_params": ["Z"], "core": "f"},
        },
        "fields": {
            "etas": {"ring": "tgtF", "elements": etas_table()},
            "etas_tilde_k1": {"ring": "tgtF", "elements": etas_tilde_table(1)},
            "etas_tilde_k2": {"ring": "tgtA2", "elements": etas_tilde_table(2)},
            "etas_tilde_k3": {"ring": "tgtA3", "elements": etas_tilde_table(3)},
            "euler_H": {"ring": "tgtF", "elements": [["4*X", "3*Y", "2*Z"]]},
            "af_trivial_k2": {"ring": "tgtAF2",
                              "elements": [["0", "0", "1", "-2*Z"]]},
            "af_trivial_k3": {"ring": "tgtAF3",
                              "elements": [["0", "0", "1", "-3*Z^2"]]},
        },
        "divisors": {
            "H": {"ring": "tgtF", "equation": h_equation(1),
                  "weights": [4, 3, 2]},
            "h_k2": {"ring": "tgtA2", "equation": h_equation(2),
                     "weights": [8, 6, 2]},
            "h_k3": {"ring": "tgtA3", "equation": h_equation(3),
                     "weights": [12, 9, 2]},
            "disc_f": {"ring": "tgt2", "equation": "256*X^3 + 27*Y^4",
                       "weights": [4, 3]},
        },
        "augmentations": {
            "quartic": {
                "unfolding": "F_unf",
                "discriminant": "H",
                "lift_fields": "etas",
                "instances": {
                    "1": {"ring": "tgtF", "divisor": "H",
                          "tilde_fields": "etas_tilde_k1", "recipes": recipes(1)},
                    "2": {"ring": "tgtA2", "divisor": "h_k2",
                          "tilde_fields": "etas_tilde_k2", "recipes": recipes(2)},
                    "3": {"ring": "tgtA3", "divisor": "h_k3",
                          "tilde_fields": "etas_tilde_k3", "recipes": recipes(3)},
                },
            }
        },
        "tasks": [
            {"id": "aug.disc_F", "op": "discriminant", "map": "F",
             "expect_divisor": "H"},
            {"id": "aug.disc_f", "op": "discriminant", "map": "f",
             "expect_divisor": "disc_f"},
            {"id": "aug.disc_k2", "op": "discriminant", "map": "A2f",
             "expect_divisor": "h_k2"},
            {"id": "aug.disc_k3", "op": "discriminant", "map": "A3f",
             "expect_divisor": "h_k3"},
            {"id": "aug.derlog_H", "op": "derlog", "divisor": "H",
             "mode": "delta", "expect": "etas"},
            {"id": "aug.derlog_k2", "op": "derlog", "divisor": "h_k2",
             "mode": "delta", "expect": "etas_tilde_k2"},
            {"id": "aug.derlog_k3", "op": "derlog", "divisor": "h_k3",
             "mode": "delta", "expect": "etas_tilde_k3"},
            {"id": "aug.euler", "op": "euler", "divisor": "H", "degree": 12,
             "expect": "euler_H"},
            {"id": "aug.tilde_k2", "op": "augment_tilde",
             "augmentation": "quartic", "k": 2},
            {"id": "aug.tilde_k3", "op": "augment_tilde",
             "augmentation": "quartic", "k": 3},
            {"id": "aug.pi2_k2", "op": "augment_pi2",
             "augmentation": "quartic", "k": 2, "expect_ideal": ["X", "Y"]},
            {"id": "aug.pi2_k3", "op": "augment_pi2",
             "augmentation": "quartic", "k": 3, "expect_ideal": ["X", "Y"]},
            {"id": "aug.descend_k1", "op": "augment_descend",
             "augmentation": "quartic", "k": 1},
            {"id": "aug.descend_k2", "op": "augment_descend",
             "augmentation": "quartic", "k": 2},
            {"id": "aug.descend_k3", "op": "augment_descend",
             "augmentation": "quartic", "k": 3},
            {"id": "aug.pipeline_f", "op": "pipeline_vs_derlog",
             "unfolding": "F_unf", "fields": "etas", "divisor": "disc_f"},
            {"id": "aug.tau_AF_k2", "op": "augment_tau",
             "augmentation": "quartic", "k": 2, "field": "af_trivial_k2"},
            {"id": "aug.tau_AF_k3", "op": "augment_tau",
             "augmentation": "quartic", "k": 3, "field": "af_trivial_k3"},
        ],
    }
    return m


def fixture_texts():
    """{file name: text} of every bundled fixture, as written by main()."""
    files = {"hk.manifest.json": hk_manifest(2), "augment.manifest.json": augment_manifest()}
    for k in (3, 4, 5):
        files[f"hk_k{k}.manifest.json"] = hk_manifest(k)
    return {name: json.dumps(data, indent=2, sort_keys=True) + "\n"
            for name, data in files.items()}


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, text in fixture_texts().items():
        path = os.path.join(OUT, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", os.path.normpath(path))


if __name__ == "__main__":
    main()
