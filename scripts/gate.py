#!/usr/bin/env python3
"""Checks JSON result files against a gate table: scripts/gate.py TABLE FILE...

Each FILE is checked against the TABLE rows whose file column is its base
name (format: bench/gates.tsv). A missing key, an empty '*' array, a
non-number or a FILE without rows fails. Exits with the failure count.
"""
import json, operator, os, sys

OPS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


def resolve(node, keys, where):
    if not keys:
        yield where, node
    elif keys[0] == "*" and isinstance(node, list) and node:
        for i, item in enumerate(node):
            yield from resolve(item, keys[1:], f"{where}[{i}]")
    elif isinstance(node, dict) and keys[0] in node:
        yield from resolve(node[keys[0]], keys[1:], f"{where}.{keys[0]}")
    else:
        yield f"{where}.{keys[0]}", "<missing>"


def main(table, *files):
    with open(table) as f:
        rows = [l.rstrip("\n").split("\t") for l in f if l.strip() and not l.startswith("#")]
    failures = []
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        mine = [r for r in rows if r[0] == os.path.basename(path)]
        failures += [] if mine else [f"{path}: no rows in {table}"]
        for name, keys, op, bound, reason in mine:
            for where, value in resolve(doc, keys.split("."), name):
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (number and op in OPS and OPS[op](value, float(bound))):
                    failures.append(f"{where} = {value}, want {op} {bound}: {reason}")
    for failure in failures:
        print("FAIL", failure)
    print(f"gate: {len(files)} file(s), {len(failures)} failed check(s)")
    return min(len(failures), 99)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
