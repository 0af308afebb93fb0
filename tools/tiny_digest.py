"""Run the whole command chain on the tiny test config and print one
``sha256 path`` line per file the chain writes under the run root.

    python tools/tiny_digest.py SRC ROOT

SRC is the ``src`` directory of the voxmix tree to run (so one copy of this
script can digest two checkouts), ROOT an empty directory for the run.  The
chain is gen-data, build-priors, pretrain-gt, train --all, eval,
analyze-latent, proximity, alpha-sweep --alphas 0.4,1.0 and mix-preview, on
``tests/conftest.py``'s ``TINY_OVERRIDES``.  Diffing the output of two trees
shows whether a change keeps every artifact byte-identical.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

CHAIN = (("gen-data",), ("build-priors",), ("pretrain-gt",), ("train", "--all"),
         ("eval",), ("analyze-latent",), ("proximity",),
         ("alpha-sweep", "--alphas", "0.4,1.0"), ("mix-preview",))


def main(src: str, root: str) -> int:
    sys.path[:0] = [src, str(Path(__file__).resolve().parents[1] / "tests")]
    from conftest import TinyRun
    from voxmix.config import dump_config

    run = TinyRun(Path(root).resolve())
    run.root.mkdir(parents=True, exist_ok=True)
    config_file = run.root / "tiny.cfg"
    config_file.write_text(dump_config(run.config), encoding="utf-8")
    for command, *extra in CHAIN:
        with contextlib.redirect_stdout(sys.stderr):
            code = run.voxmix(command, *extra)
        if code != 0:
            print(f"{command} exited {code}", file=sys.stderr)
            return code
    for path in sorted(p for p in run.root.rglob("*")
                       if p.is_file() and p != config_file):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(run.root)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
