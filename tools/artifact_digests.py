"""Digest the artifacts of ``nsfarfield all`` and compare two digest files.

Run every given config through ``nsfarfield all`` in a fresh interpreter
(with ``PYTHONPATH`` set to the ``src`` directory of the checkout this
script sits in) and write the sha256 of each artifact except ``run.log``:

    python3 tools/artifact_digests.py --out DIR configs/*.cfg

writes ``DIR/<config stem>/...`` (the artifacts) and ``DIR/digests.json``,
which maps each config stem to its exit code and ``{path: sha256}``.

    python3 tools/artifact_digests.py --compare A/digests.json B/digests.json

prints the files whose digest differs, or that only one side has, and the
configs whose exit code differs; it exits 1 when anything differs, else 0.
For a JSON or CSV artifact that differs and sits next to both digest files
(``A/<config stem>/<path>``), the line adds the largest relative change
|a - b| / max(|a|, |b|) among the numeric fields both sides hold, and where.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_SKIPPED = {"run.log"}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_tree(root: str) -> dict:
    """sha256 of every file under ``root`` except ``run.log``, keyed by the
    path relative to ``root`` with ``/`` separators."""
    out = {}
    for parent, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name in _SKIPPED:
                continue
            path = os.path.join(parent, name)
            out[os.path.relpath(path, root).replace(os.sep, "/")] = _sha256(path)
    return out


def run_configs(configs, out_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NSFF_")}
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = {}
    for cfg in configs:
        stem = os.path.splitext(os.path.basename(cfg))[0]
        target = os.path.join(out_dir, stem)
        proc = subprocess.run([sys.executable, "-m", "nsfarfield.cli", "all",
                               "--config", cfg, "--out", target],
                              env=env, stdout=subprocess.DEVNULL)
        result[stem] = {"exit": proc.returncode, "files": digest_tree(target)}
        print(f"{stem}: exit {proc.returncode}, {len(result[stem]['files'])} files")
    with open(os.path.join(out_dir, "digests.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def numeric_fields(path: str) -> dict:
    """Every number in a JSON or CSV file, keyed by where it sits: a JSON
    path such as ``fits.0_2.fitted`` or ``radii[3]``, or ``column[row]``."""
    out = {}
    if path.endswith(".json"):
        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, f"{key}[{i}]")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                out[key] = float(node)

        with open(path) as fh:
            walk(json.load(fh), "")
        return out
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    for i, row in enumerate(rows):
        for name, cell in zip(header, row):
            try:
                out[f"{name}[{i}]"] = float(cell)
            except ValueError:
                pass
    return out


def largest_change(a: dict, b: dict) -> tuple:
    """(relative change, field) of the field of both ``numeric_fields``
    results that moved most; (0.0, "") when none moved."""
    best = (0.0, "")
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        best = max(best, (abs(x - y) / scale if math.isfinite(scale) else math.inf, key))
    return best


def _moved(roots, stem: str, path: str) -> str:
    """The change note of a differing artifact's line, or "" when it is not
    a JSON or CSV file next to both digest files."""
    files = [os.path.join(root, stem, *path.split("/")) for root in roots or ()]
    if not path.endswith((".json", ".csv")) or not files or not all(map(os.path.isfile, files)):
        return ""
    rel, key = largest_change(*map(numeric_fields, files))
    return f", largest relative change {rel:.2g} at {key}" if key else ", no number moved"


def compare(a: dict, b: dict, roots=None) -> list:
    """Lines naming every difference between two ``digests.json`` contents;
    ``roots``, the directories of the two digest files, adds to each
    differing JSON or CSV artifact the largest relative change of a number."""
    lines = []
    for stem in sorted(set(a) | set(b)):
        if stem not in a or stem not in b:
            lines.append(f"{stem}: only in {'B' if stem not in a else 'A'}")
            continue
        if a[stem]["exit"] != b[stem]["exit"]:
            lines.append(f"{stem}: exit {a[stem]['exit']} -> {b[stem]['exit']}")
        fa, fb = a[stem]["files"], b[stem]["files"]
        for path in sorted(set(fa) | set(fb)):
            if path not in fa or path not in fb:
                lines.append(f"{stem}/{path}: only in {'B' if path not in fa else 'A'}")
            elif fa[path] != fb[path]:
                lines.append(f"{stem}/{path}: differs{_moved(roots, stem, path)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="directory for the artifacts and digests.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two digests.json files to compare")
    parser.add_argument("configs", nargs="*", help="config files to run")
    args = parser.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as fh:
                loaded.append(json.load(fh))
        lines = compare(*loaded, roots=[os.path.dirname(os.path.abspath(p))
                                        for p in args.compare])
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    if not args.out or not args.configs:
        parser.error("give --out and at least one config, or --compare A B")
    os.makedirs(args.out, exist_ok=True)
    run_configs(args.configs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
