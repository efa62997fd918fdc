"""Prints the run metadata every benchmark result records, as one JSON line.

    python3 perfbench/probe.py ROOT

Exits 1 when the importable toriclat is not the one under ROOT/src, so
that a run never measures an installed copy by mistake.  Also warms the
bytecode cache before anything is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import util
from pathlib import Path


def src_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():  # never look above the checkout
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(root: Path) -> int:
    src = (root / "src").resolve()
    import toriclat
    from toriclat import kernels
    location = Path(toriclat.__file__).resolve()
    if src not in location.parents:
        sys.stderr.write(f"error: toriclat imports from {location}, "
                         f"not from {src}\n")
        return 1
    numpy = None
    if util.find_spec("numpy") is not None:
        import numpy as np
        numpy = np.__version__
    print(json.dumps({
        "backend": getattr(kernels, "BACKEND", None),
        "backends_importable": sorted(
            name for name, attr in (("python", "pure"), ("c", "compiled"))
            if getattr(kernels, attr, None) is not None),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(root),
        "src_sha256": src_digest(src),
        "platform": platform.platform(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
