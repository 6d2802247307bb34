#!/usr/bin/env python3
"""Rebuild every golden file from manifest.json.

Run from anywhere: python3 docs/goldens/regenerate.py
It imports su11 from this checkout's src, ahead of any installed copy.
Each manifest entry pins --dim explicitly so SU11_DEFAULT_DIM cannot
change the output.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from su11.cli import main  # noqa: E402


def run() -> int:
    manifest = json.loads((HERE / "manifest.json").read_text())
    for name, argv in manifest.items():
        code = main(list(argv) + ["--out", str(HERE / name)])
        if code != 0:
            print(f"regeneration failed for {name} (exit {code})", file=sys.stderr)
            return code
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
