#!/usr/bin/env python3
"""Golden-results drift check for the scenario CSVs.

Usage:
    scripts/check_figures.py [--goldens goldens] [--results results] \
        [--rel-tolerance 1e-9] [--abs-tolerance 1e-9] \
        [--column-tolerance COLUMN=REL ...]

Every *.csv under --goldens (the paper's figures and tables, and the
ext_membackends envelope table) is diffed cell-by-cell against the
same file under --results (freshly regenerated by build/bench/uvolt).
Numeric cells compare within a relative OR absolute tolerance — the
simulator is seeded and deterministic, so the default tolerances are
tight; columns that legitimately wobble (wall-clock timings) can be
loosened per column name with --column-tolerance.
Non-numeric cells must match exactly. Mismatches are reported with
file:line context and the gate exits 1; a golden whose fresh
counterpart is missing is an error too (run build/bench/uvolt first).
"""

import argparse
import glob
import os
import sys


def split_csv(line):
    """Split one CSV line honoring the repo's quoting (RFC-4180-ish)."""
    fields, field, quoted = [], [], False
    i = 0
    while i < len(line):
        ch = line[i]
        if quoted:
            if ch == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    field.append('"')
                    i += 1
                else:
                    quoted = False
            else:
                field.append(ch)
        elif ch == '"':
            quoted = True
        elif ch == ",":
            fields.append("".join(field))
            field = []
        else:
            field.append(ch)
        i += 1
    fields.append("".join(field))
    return fields


def as_number(text):
    """Float value of a cell, tolerating % / V / x suffixes; else None."""
    stripped = text.strip().rstrip("%Vx")
    if not stripped:
        return None
    try:
        return float(stripped)
    except ValueError:
        return None


def cells_match(golden, fresh, rel, abs_tol):
    if golden == fresh:
        return True
    g, f = as_number(golden), as_number(fresh)
    if g is None or f is None:
        return False
    return abs(f - g) <= max(abs_tol, rel * abs(g))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--goldens", default="goldens",
                        help="directory of committed reference CSVs")
    parser.add_argument("--results", default="results",
                        help="directory of freshly generated CSVs")
    parser.add_argument("--rel-tolerance", type=float, default=1e-9,
                        help="default relative tolerance per cell")
    parser.add_argument("--abs-tolerance", type=float, default=1e-9,
                        help="default absolute tolerance per cell")
    parser.add_argument("--column-tolerance", action="append",
                        default=[], metavar="COLUMN=REL",
                        help="looser relative tolerance for one column "
                             "name (repeatable)")
    args = parser.parse_args()

    column_tolerance = {}
    for item in args.column_tolerance:
        name, _, rel = item.partition("=")
        if not rel:
            sys.exit(f"error: malformed --column-tolerance {item!r}")
        column_tolerance[name] = float(rel)

    goldens = sorted(glob.glob(os.path.join(args.goldens, "*.csv")))
    if not goldens:
        sys.exit(f"error: no *.csv goldens under '{args.goldens}'")

    mismatches = 0
    checked = 0
    for golden_path in goldens:
        name = os.path.basename(golden_path)
        fresh_path = os.path.join(args.results, name)
        if not os.path.exists(fresh_path):
            print(f"{fresh_path}: MISSING (regenerate with "
                  f"build/bench/uvolt)", file=sys.stderr)
            mismatches += 1
            continue
        with open(golden_path, encoding="utf-8") as handle:
            golden_lines = handle.read().splitlines()
        with open(fresh_path, encoding="utf-8") as handle:
            fresh_lines = handle.read().splitlines()
        header = split_csv(golden_lines[0]) if golden_lines else []
        if len(golden_lines) != len(fresh_lines):
            print(f"{fresh_path}: {len(fresh_lines)} line(s), golden "
                  f"has {len(golden_lines)}", file=sys.stderr)
            mismatches += 1
            continue
        file_ok = True
        for lineno, (gline, fline) in enumerate(
                zip(golden_lines, fresh_lines), start=1):
            gcells, fcells = split_csv(gline), split_csv(fline)
            if len(gcells) != len(fcells):
                print(f"{fresh_path}:{lineno}: {len(fcells)} field(s), "
                      f"golden has {len(gcells)}", file=sys.stderr)
                file_ok = False
                continue
            for col, (gcell, fcell) in enumerate(zip(gcells, fcells)):
                column = header[col] if col < len(header) else ""
                rel = column_tolerance.get(column, args.rel_tolerance)
                if not cells_match(gcell, fcell, rel,
                                   args.abs_tolerance):
                    print(f"{fresh_path}:{lineno}: column "
                          f"'{column or col}' is {fcell!r}, golden "
                          f"{golden_path}:{lineno} has {gcell!r}",
                          file=sys.stderr)
                    file_ok = False
        checked += 1
        if not file_ok:
            mismatches += 1

    if mismatches:
        print(f"{mismatches} file(s) drifted from the goldens",
              file=sys.stderr)
        return 1
    print(f"all {checked} golden file(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
