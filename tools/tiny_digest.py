"""Run the whole command chain on the tiny test config and print one
``sha256 path`` line per file the chain writes under the run root.

    python tools/tiny_digest.py SRC ROOT [KEY=VALUE ...]

SRC is the ``src`` directory of the voxmix tree to run, ROOT an empty
directory for the run.  The chain is gen-data, build-priors, pretrain-gt,
train --all, eval --dump-predictions, train --pipeline P --alphas 0.4,1.0
for P input_mix and latent_mix, and tools/mix_preview.py, on the tiny
config of ``tests/conftest.py``; each KEY=VALUE is one more ``-o``
override to every command (``prior.mode=none`` runs the no-prior chain),
except the evaluation-only ``prior.mode=corrupted``, which only eval gets:
that chain trains under the correct priors and evaluates each sample
under another class's prior.
Each archive (``*.ckpt``, ``*.npz``) also gets one ``sha256 path [entry]``
line per array entry, every entry but ``meta``, in name order, so a change
to an archive's metadata alone shows as exactly that, and a change to its
arrays names the entry that moved.  Diffing the output of two trees shows
whether a change keeps every artifact byte-identical.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np

CHAIN = (("gen-data",), ("build-priors",), ("pretrain-gt",), ("train", "--all"),
         ("eval", "--dump-predictions"),
         *(("train", "--pipeline", pipeline, "--alphas", "0.4,1.0")
           for pipeline in ("input_mix", "latent_mix")), ("mix_preview",))
# Overrides that `train` refuses, given to eval alone.
EVAL_ONLY = ("prior.mode=corrupted",)


def entry_digests(path: Path) -> list[tuple[str, str]]:
    """(entry, sha256 over its name, dtype, shape and bytes) of every array
    of an archive but its metadata, in name order."""
    digests = []
    with np.load(path, allow_pickle=False) as archive:
        for name in sorted(n for n in archive.files if n != "meta"):
            array = archive[name]
            digest = hashlib.sha256(
                f"{name} {array.dtype.str} {array.shape}\n".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
            digests.append((name, digest.hexdigest()))
    return digests


def main(src: str, root: str, *overrides: str) -> int:
    sys.path[:0] = [src, str(Path(__file__).resolve().parents[1] / "tests")]
    from conftest import TinyRun

    run = TinyRun(Path(root).resolve())
    run.write_config()
    for command, *extra in CHAIN:
        options = [item for override in overrides
                   if command == "eval" or override not in EVAL_ONLY
                   for item in ("-o", override)]
        with contextlib.redirect_stdout(sys.stderr):
            code = run.mix_preview(*extra, *options) if command == "mix_preview" \
                else run.voxmix(command, *extra, *options)
        if code != 0:
            print(f"{command} exited {code}", file=sys.stderr)
            return code
    for path in sorted(p for p in run.root.rglob("*")
                       if p.is_file() and p != run.config_file):
        name = path.relative_to(run.root)
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
        if path.suffix in (".ckpt", ".npz"):
            for entry, digest in entry_digests(path):
                print(f"{digest}  {name} [{entry}]")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3 or any("=" not in arg for arg in sys.argv[3:]):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
