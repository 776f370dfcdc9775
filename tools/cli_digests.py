"""Digest the output of a fixed list of hardyz CLI calls.

    python3 tools/cli_digests.py CHECKOUT

runs each call below in a fresh interpreter with PYTHONPATH=CHECKOUT/src
and PYTHONDONTWRITEBYTECODE=1, from an empty temporary directory, and
prints one line per call: the arguments, the exit code, and the sha256 of
stdout and of stderr (and of the written file, for calls with --out).  Two
checkouts print identical lines exactly when every call gives the same
bytes, so `diff` of two runs lists each call whose output moved.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "{out}"


def calls() -> list[list[str]]:
    """The call list: catalog, then each subcommand for zeta and chi4 at k = 0..2."""
    out = [["catalog"], ["catalog", "--experimental"]]
    for datum in ("zeta", "chi4"):
        for k in ("0", "1", "2"):
            common = ["--datum", datum, "--k", k]
            sample = ["sample", *common, "--t0", "14", "--t1", "15", "--step", "0.25"]
            out += [
                ["eval", *common, "--t", "25.0"],
                ["eval", *common, "--s", "0.3,20.0"],
                ["zeros", *common, "--t0", "10", "--t1", "40"],
                ["zeros", *common, "--t0", "10", "--t1", "40", "--format", "json"],
                ["interlace", *common, "--t0", "30", "--t1", "60"],
                ["count", *common, "--T", "50"],
                ["contour", *common, "--rect=-2,3,20,40"],
                ["mirror", *common, "--t", "100", "--window", "10"],
                sample,
                [*sample, "--format", "json"],
            ]
    common = ["--datum", "zeta", "--k", "0"]
    out += [
        ["zeros", *common, "--t0", "10", "--t1", "40", "--out", OUT],
        ["interlace", *common, "--t0", "30", "--t1", "60", "--out", OUT],
        ["count", *common, "--T", "50", "--out", OUT],
        ["mirror", *common, "--t", "100", "--window", "10", "--out", OUT],
        ["sample", *common, "--t0", "14", "--t1", "15", "--step", "0.25", "--format", "json",
         "--out", OUT],
    ]
    return out


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_digests.py CHECKOUT", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for args in calls():
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "out.txt")
            run = [path if a == OUT else a for a in args]
            proc = subprocess.run([sys.executable, "-m", "hardyz.cli", *run], cwd=work, env=env,
                                  capture_output=True, check=False)
            line = f"{' '.join(args)} | rc={proc.returncode} | out={sha(proc.stdout)} | err={sha(proc.stderr)}"
            if OUT in args:
                line += f" | file={sha(Path(path).read_bytes()) if os.path.exists(path) else '-'}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
