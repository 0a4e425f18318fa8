"""Run every bundled config into one directory and print a digest per file.

Usage: ``python3 tools/output_digests.py DIR``

Runs ``dbgd run`` on ``toy.json``, ``matfac.json``, ``matfac-log.json`` and
``matfac.json --iterations 100000``, ``dbgd casestudy`` on
``casestudy.json`` and ``dbgd rates`` on both rates configs, each into its
own subdirectory of ``DIR``, with the ``dbgd`` package of the checkout this
script sits in.  It then prints one ``sha256  relative/path`` line per file
under ``DIR``, sorted by path, so that two checkouts write byte-identical
outputs exactly when ``diff`` of their printouts is empty.  It writes
nothing outside ``DIR``; the command's own messages go to standard error.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dbgd import cli  # noqa: E402

CONFIGS = ROOT / "src" / "dbgd" / "configs"

#: (output name, dbgd arguments before the output flag)
RUNS = (
    ("toy", ["run", "toy.json"]),
    ("matfac", ["run", "matfac.json"]),
    ("matfac-log", ["run", "matfac-log.json"]),
    ("matfac-1e5", ["run", "matfac.json", "--iterations", "100000"]),
    ("casestudy", ["casestudy", "casestudy.json"]),
    ("rates-toy.json", ["rates", "rates-toy.json"]),
    ("rates-quadratic.json", ["rates", "rates-quadratic.json"]),
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digests.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    for name, (command, config, *rest) in RUNS:
        with redirect_stdout(sys.stderr):
            status = cli.main([command, str(CONFIGS / config), *rest, "--output", str(out / name)])
        if status != 0:
            print(f"dbgd {command} {config} exited {status}", file=sys.stderr)
            return status
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
