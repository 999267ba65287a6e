#!/usr/bin/env python3
"""Compare fresh BENCH_*.json artifacts against committed baselines.

Every bench binary writes a BENCH_<name>.json (tables of stringly-typed
cells plus a provenance stamp). This tool keeps those artifacts honest
across commits:

  * STRUCTURE — a fresh artifact must have the same tables, the same
    headers, and the same row keys (first-column values, in order) as its
    committed baseline in bench/baselines/. A renamed column or a silently
    dropped experiment row fails the comparison even if nobody pinned a
    number on it.
  * SIZES — bench/baselines/manifest.json records, per bench, the run
    sizes its baseline was generated at ("sizes": {"rows": n, ...}); the
    bench stamps the sizes it ran at into its artifact's provenance. A run
    at other sizes is refused ("size mismatch: run at N rows, baseline at
    M") and none of its cells are compared: a cell measured on another
    table size is not a regression signal.
  * PINNED METRICS — the manifest's "pins" list the cells whose VALUES are
    stable by design (deterministic seeds, fixed row counts) and the
    tolerance each is held to. Everything not pinned is structural only:
    wall-clock columns vary by machine and are meaningless to diff.

Tolerances (per pinned metric, first match wins):
  {"exact": true}     string-equal after strip
  {"pp": 2.0}         percent cells ("97.50%"), absolute percentage points
  {"rel": 0.1}        numeric cells, relative |fresh-base| / max(|base|, eps)
  {"abs": 5.0}        numeric cells, absolute difference

Usage:
  tools/bench_compare.py [--baselines bench/baselines] [--fresh DIR] [name...]

With no names, every BENCH_*.json found in --fresh that has a baseline is
compared; names restrict the set (and then a MISSING fresh artifact fails).
Exit 0 when everything matches, 1 otherwise.
"""

import argparse
import json
import os
import re
import sys

NUM_RE = re.compile(r"^-?\d+(?:\.\d+)?%?$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def table_index(doc):
    return {t["name"]: t for t in doc.get("tables", [])}


def row_key(table, row):
    head = table["headers"][0]
    return str(row.get(head, ""))


def parse_number(cell):
    """Returns (value, is_percent) or None when the cell is not numeric."""
    cell = str(cell).strip()
    if not NUM_RE.match(cell):
        return None
    if cell.endswith("%"):
        return float(cell[:-1]), True
    return float(cell), False


def check_structure(name, fresh, base, problems):
    fresh_tables, base_tables = table_index(fresh), table_index(base)
    for tname, btab in base_tables.items():
        ftab = fresh_tables.get(tname)
        if ftab is None:
            problems.append(f"{name}: table '{tname}' missing from fresh run")
            continue
        if ftab["headers"] != btab["headers"]:
            problems.append(
                f"{name}/{tname}: headers changed "
                f"{btab['headers']} -> {ftab['headers']}")
            continue
        fkeys = [row_key(ftab, r) for r in ftab["rows"]]
        bkeys = [row_key(btab, r) for r in btab["rows"]]
        if fkeys != bkeys:
            problems.append(
                f"{name}/{tname}: row keys changed {bkeys} -> {fkeys}")
    for tname in fresh_tables:
        if tname not in base_tables:
            problems.append(
                f"{name}: new table '{tname}' absent from the baseline — "
                f"regenerate the baseline to adopt it")


def find_cell(doc, tname, rkey, metric):
    tab = table_index(doc).get(tname)
    if tab is None:
        return None
    for row in tab["rows"]:
        if row_key(tab, row) == rkey:
            return row.get(metric)
    return None


def check_sizes(name, sizes, fresh, problems):
    """True when the fresh run's stamped sizes are the baseline's."""
    stamped = fresh.get("provenance", {}).get("sizes", {})
    ok = True
    for key, want in sizes.items():
        got = stamped.get(key)
        if got is None:
            problems.append(f"{name}: fresh artifact does not stamp its "
                            f"'{key}' size; the baseline is at {want} {key}")
            ok = False
        elif got != want:
            problems.append(f"{name}: size mismatch: run at {got} {key}, "
                            f"baseline at {want}")
            ok = False
    return ok


def check_metric(name, pin, fresh, base, problems, report):
    tname, rkey, metric = pin["table"], pin["row"], pin["metric"]
    where = f"{name}/{tname}[{rkey}].{metric}"
    fcell = find_cell(fresh, tname, rkey, metric)
    bcell = find_cell(base, tname, rkey, metric)
    if fcell is None or bcell is None:
        problems.append(f"{where}: cell missing "
                        f"(fresh={fcell!r}, baseline={bcell!r})")
        return

    if pin.get("exact"):
        ok = str(fcell).strip() == str(bcell).strip()
        report.append((where, str(bcell), str(fcell), "exact", ok))
        if not ok:
            problems.append(f"{where}: {bcell!r} -> {fcell!r} (pinned exact)")
        return

    fnum, bnum = parse_number(fcell), parse_number(bcell)
    if fnum is None or bnum is None:
        problems.append(f"{where}: non-numeric cell under numeric tolerance "
                        f"(fresh={fcell!r}, baseline={bcell!r})")
        return
    (fval, fpct), (bval, _) = fnum, bnum

    if "pp" in pin:
        if not fpct:
            problems.append(f"{where}: 'pp' tolerance on non-percent cell "
                            f"{fcell!r}")
            return
        diff = abs(fval - bval)
        ok = diff <= pin["pp"]
        report.append((where, str(bcell), str(fcell),
                       f"±{pin['pp']}pp", ok))
        if not ok:
            problems.append(
                f"{where}: {bval}% -> {fval}% ({diff:.2f}pp > {pin['pp']}pp)")
    elif "rel" in pin:
        denom = max(abs(bval), 1e-12)
        rel = abs(fval - bval) / denom
        ok = rel <= pin["rel"]
        report.append((where, str(bcell), str(fcell),
                       f"±{pin['rel'] * 100:.0f}%", ok))
        if not ok:
            problems.append(
                f"{where}: {bval} -> {fval} ({rel * 100:.1f}% > "
                f"{pin['rel'] * 100:.0f}%)")
    elif "abs" in pin:
        diff = abs(fval - bval)
        ok = diff <= pin["abs"]
        report.append((where, str(bcell), str(fcell), f"±{pin['abs']}", ok))
        if not ok:
            problems.append(
                f"{where}: {bval} -> {fval} (|diff| {diff} > {pin['abs']})")
    else:
        problems.append(f"{where}: pin has no tolerance "
                        f"(need exact/pp/rel/abs)")


def main():
    ap = argparse.ArgumentParser(
        description="Diff fresh BENCH_*.json against committed baselines.")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--fresh", default=".",
                    help="directory holding the fresh BENCH_*.json files")
    ap.add_argument("names", nargs="*",
                    help="bench names (e.g. e17_drift_monitor); default: "
                         "every fresh artifact that has a baseline")
    args = ap.parse_args()

    manifest_path = os.path.join(args.baselines, "manifest.json")
    manifest = load(manifest_path) if os.path.exists(manifest_path) else {}
    pins = manifest.get("benches", {})

    if args.names:
        names = args.names
    else:
        names = sorted(
            m.group(1)
            for f in os.listdir(args.baselines)
            for m in [re.match(r"BENCH_(.+)\.json$", f)] if m)

    problems, report, compared = [], [], 0
    for name in names:
        fresh_path = os.path.join(args.fresh, f"BENCH_{name}.json")
        base_path = os.path.join(args.baselines, f"BENCH_{name}.json")
        if not os.path.exists(base_path):
            problems.append(f"{name}: no baseline at {base_path}")
            continue
        if not os.path.exists(fresh_path):
            if args.names:
                problems.append(f"{name}: no fresh artifact at {fresh_path}")
            continue
        fresh, base = load(fresh_path), load(base_path)
        entry = pins.get(name, {})
        if not check_sizes(name, entry.get("sizes", {}), fresh, problems):
            continue
        compared += 1
        check_structure(name, fresh, base, problems)
        for pin in entry.get("pins", []):
            check_metric(name, pin, fresh, base, problems, report)

    if report:
        wide = max(len(r[0]) for r in report)
        print(f"{'pinned metric'.ljust(wide)}  baseline -> fresh  (tolerance)")
        for where, bcell, fcell, tol, ok in report:
            mark = "ok " if ok else "FAIL"
            print(f"{where.ljust(wide)}  {bcell} -> {fcell}  ({tol}) {mark}")
    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    if compared == 0:
        print("nothing compared: no fresh artifacts matched a baseline",
              file=sys.stderr)
        return 1
    print(f"\nOK: {compared} bench artifact(s) match their baselines "
          f"({len(report)} pinned metrics).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
