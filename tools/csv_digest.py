"""Digest of the CLI's CSVs on the acceptance-11 config.

Runs ``cli.run`` on the config of ``tests/test_acceptance.py::
test_11_reproducibility_across_threads`` in the modes reflected, oracle,
penalized, norms and verify-all, in that order, and prints the sha256 of
the concatenated ``reproducibility_view`` of each mode's CSVs, taken in
file name order. The verify-all battery runs at the config's p and seed;
its summary goes to stderr, so stdout holds the digest alone. Two trees
that print the same digest write the same numbers (wall-clock columns
aside). The value depends on the BLAS build, so it is compared between
trees on one machine, not against a stored constant.

    PYTHONPATH=src python tools/csv_digest.py [--keep DIR]
    PYTHONPATH=src python tools/csv_digest.py --drift DIR_A DIR_B

``--keep DIR`` writes each mode's CSVs under ``DIR/<mode>/`` instead of a
temporary directory. ``--drift`` reads two such directories, one per tree,
and prints how far the numbers moved: per CSV and column, the largest
absolute and relative difference of the ``reproducibility_view`` cells.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import math
import sys
import tempfile
from pathlib import Path

from rbsdej import cli

CONFIG = """\
[problem]
name = american_put_jumps

[grid]
horizon = 1.0
steps = 12

[mc]
paths = 8192
seed = 23

[basis]
degree = 3

[exponents]
p = 1.5
beta = auto
eps = 0.01

[schedule]
n0 = 1.0
levels = 4
stop_tol = 1e-9

[run]
mode = reflected
"""

MODES = ("reflected", "oracle", "penalized", "norms", "verify-all")


def digest(keep: Path | None = None) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.ini"
        config.write_text(CONFIG)
        for mode in MODES:
            out = (keep or Path(tmp)) / mode
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.run(config, out_dir=out, mode_override=mode)
            if code != cli.EXIT_OK:
                raise SystemExit(f"mode {mode} exited with {code}")
            for path in sorted(out.glob("*.csv")):
                h.update(cli.reproducibility_view(path.read_text()).encode())
    return h.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    return list(csv.reader(cli.reproducibility_view(path.read_text()).splitlines()))


def drift(a: Path, b: Path) -> list[str]:
    """One line per CSV column whose cells differ between the kept outputs
    ``a`` and ``b``: the largest absolute and relative difference over its
    numeric cells, and the count of other cells that differ."""
    lines = []
    for path in sorted(a.glob("*/*.csv")):
        name = path.relative_to(a).as_posix()
        other = b / name
        if not other.exists():
            lines.append(f"{name}: missing in {b}")
            continue
        rows_a, rows_b = _rows(path), _rows(other)
        if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
            lines.append(f"{name}: header or row count differs")
            continue
        for k, column in enumerate(rows_a[0] if rows_a else []):
            abs_d = rel_d = 0.0
            text_d = 0
            for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
                if row_a[k] == row_b[k]:
                    continue
                try:
                    x, y = float(row_a[k]), float(row_b[k])
                except ValueError:
                    text_d += 1
                    continue
                d = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
                abs_d = max(abs_d, d)
                rel_d = max(rel_d, d / max(abs(x), abs(y)))
            if abs_d or text_d:
                lines.append(f"{name} {column}: max abs {abs_d:.3g}, max rel {rel_d:.3g}"
                             + (f", {text_d} other cells differ" if text_d else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, help="write each mode's CSVs under KEEP/<mode>/")
    parser.add_argument("--drift", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="print the per-column drift between two --keep directories")
    args = parser.parse_args(argv)
    if args.drift:
        print("\n".join(drift(*args.drift)) or "no cell differs")
    else:
        print(digest(args.keep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
