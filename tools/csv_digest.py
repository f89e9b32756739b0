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

    PYTHONPATH=src python tools/csv_digest.py
"""
from __future__ import annotations

import contextlib
import hashlib
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


def digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.ini"
        config.write_text(CONFIG)
        for mode in MODES:
            out = Path(tmp) / mode
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.run(config, out_dir=out, mode_override=mode)
            if code != cli.EXIT_OK:
                raise SystemExit(f"mode {mode} exited with {code}")
            for path in sorted(out.glob("*.csv")):
                h.update(cli.reproducibility_view(path.read_text()).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
