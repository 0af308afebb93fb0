"""`tools/tiny_digest.py`, the byte-identity check for refactors, run as
its users run it."""

import re
import subprocess
import sys
from pathlib import Path

import voxmix

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tiny_digest.py"
SRC = Path(voxmix.__file__).resolve().parents[1]


def _digest(root: Path) -> list[str]:
    done = subprocess.run([sys.executable, str(TOOL), str(SRC), str(root)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_the_command_chain_writes_the_same_bytes_in_two_fresh_roots(tmp_path):
    first = _digest(tmp_path / "a")
    assert _digest(tmp_path / "b") == first
    names = [re.fullmatch(r"[0-9a-f]{64}  (.+)", line).group(1)
             for line in first]
    written = sorted(str(p.relative_to(tmp_path / "a")) for p in
                     (tmp_path / "a").rglob("*")
                     if p.is_file() and p.name != "tiny.cfg")
    entries = [name for name in names if name.endswith("]")]
    assert sorted(n for n in names if n not in entries) == written
    archives = [k for k, name in enumerate(names)
                if name.endswith((".ckpt", ".npz"))]
    assert {"tiny/dataset.npz", "tiny/priors.npz",
            "tiny/reports/mix_preview/pairs.npz",
            "tiny/reports/dual_mix_predictions.npz",
            "tiny/checkpoints/gt_encoder.ckpt"} <= {names[k] for k in archives}
    for k in archives:
        assert re.fullmatch(rf"{re.escape(names[k])} \[[^]]+\]", names[k + 1])
    assert "tiny/checkpoints/gt_encoder.ckpt [params]" in entries
    assert len(names) == len(written) + len(entries)
