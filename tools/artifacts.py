"""Byte identity of the CLI artifacts, within a tree and across commits.

    python3 tools/artifacts.py                   # manifest of this tree
    python3 tools/artifacts.py --against HEAD~1  # ... and diff with a commit

Runs a fixed set of 20 fixture commands (the criterion-12 table of
``tests/test_acceptance.py`` plus ``assemble`` on three closed curves,
``minimality patch_flat`` and ``build-ruled ruled_circle``), each in a
fresh interpreter with numpy's thread pools held to one thread, and
writes a manifest: sha256 per artifact file, exit code, stdout and
stderr hashes, and wall time per command.

``--against REV`` unpacks ``git archive REV`` into a temporary directory
outside the repository, runs the same commands on the same fixtures with
that tree's ``src/``, prints every difference (files, their hashes, exit
codes, stdout and stderr; wall times are not compared) and exits 1 on
any.  The temporary directory is removed afterwards.  Hashes depend on
the host's libm, so a manifest compares only with one made on the same
machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

COMMANDS = (
    ("good_curve", "plateau-scan"),
    ("bad_curve", "phi-continue"),
    ("complicated_curve", "plateau-scan"),
    ("nonlegendrian_curve", "plateau-scan"),
    ("planar_circle", "plateau-scan"),
    ("ruled_line", "char-locus"),
    ("ruled_circle", "char-locus"),
    ("ruled_ellipse_arc", "char-locus"),
    ("ruled_spiral_arc", "char-locus"),
    ("ruled_spline", "char-locus"),
    ("glue_example", "glue-check"),
    ("persistent_quadratic", "persistent"),
    ("persistent_helicoid", "persistent"),
    ("patch_flat", "gauss-scan"),
    ("flow_rotation", "flow-trace"),
    ("good_curve", "assemble"),
    ("bad_curve", "assemble"),
    ("planar_circle", "assemble"),
    ("patch_flat", "minimality"),
    ("ruled_circle", "build-ruled"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(src: Path, work: Path) -> dict:
    """Run every command on the package in ``src``; outputs go to ``work``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    runs = {}
    for name, command in COMMANDS:
        key = f"{command} {name}"
        out = work / f"{command}-{name}"
        argv = [sys.executable, "-m", "heisminimal", command,
                "--input", str(FIXTURES / f"{name}.json"), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=work, capture_output=True)
        wall = time.perf_counter() - t0
        files = {}
        if out.is_dir():
            files = {p.name: _sha(p.read_bytes())
                     for p in sorted(out.iterdir()) if p.is_file()}
        runs[key] = {"exit": proc.returncode, "stdout": _sha(proc.stdout),
                     "stderr": _sha(proc.stderr), "files": files,
                     "wall_s": round(wall, 4)}
    return runs


def differences(ours: dict, theirs: dict) -> list[str]:
    """One line per difference between two manifests, wall times aside."""
    out = []
    for key in ours:
        a, b = ours[key], theirs[key]
        for field in ("exit", "stdout", "stderr"):
            if a[field] != b[field]:
                out.append(f"{key}: {field} differs ({b[field]} -> {a[field]})")
        for fname in sorted(set(a["files"]) | set(b["files"])):
            ha, hb = a["files"].get(fname), b["files"].get(fname)
            if ha != hb:
                what = ("only here" if hb is None else "only there"
                        if ha is None else "content differs")
                out.append(f"{key}: {fname} {what}")
    return out


def _unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV",
                    help="also run the commands on this commit and diff")
    ap.add_argument("--manifest", type=Path,
                    default=ROOT / "build" / "artifacts" / "manifest.json",
                    help="where to write this tree's manifest")
    args = ap.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="heisminimal-artifacts-"))
    try:
        (tmp / "here").mkdir()
        ours = manifest(ROOT / "src", tmp / "here")
        args.manifest.parent.mkdir(parents=True, exist_ok=True)
        args.manifest.write_text(json.dumps(ours, indent=2, sort_keys=True)
                                 + "\n")
        total = sum(r["wall_s"] for r in ours.values())
        print(f"{len(ours)} commands, "
              f"{sum(len(r['files']) for r in ours.values())} files, "
              f"{total:.2f} s; manifest {args.manifest}")
        if args.against is None:
            return 0
        tree = tmp / "tree"
        tree.mkdir()
        (tmp / "there").mkdir()
        _unpack(args.against, tree)
        theirs = manifest(tree / "src", tmp / "there")
        diff = differences(ours, theirs)
        for line in diff:
            print(line)
        print(f"{len(diff)} differences against {args.against}")
        return 1 if diff else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
