"""The output digest's per-op records, on a small stand-in workload."""

import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pulseforge.cli  # noqa: F401  (the digest runs ops through it)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("output_digest", output_digest)
_SPEC.loader.exec_module(output_digest)


class _MissingSchedule:
    """Two ops: verify a schedule that is not there (exit 2), then write a file."""

    pool = 2

    def __init__(self, root, seed):
        self.outputs = root / "out"
        self.outputs.mkdir()
        self.digest = hashlib.sha256(str(seed).encode())

    def setup(self, main):
        pass

    def warmup_op(self):
        return 0

    def clear(self, i):
        for path in self.outputs.iterdir():
            path.unlink()

    def op(self, i):
        if i == 0:
            return [["verify", "--schedule", str(self.outputs / "missing.csv")]]
        (self.outputs / "note.txt").write_text("written")
        return []


def test_records_name_every_op_and_leave_the_digest_as_it_is():
    workloads = {"missing": _MissingSchedule}
    records = io.StringIO()
    assert output_digest.digest(workloads, records) == output_digest.digest(workloads)
    lines = [json.loads(line) for line in records.getvalue().splitlines()]
    assert [(r["seed"], r["op"]) for r in lines] == [(s, i) for s in output_digest.SEEDS for i in (0, 1)]
    verify, written = lines[0], lines[1]
    [command] = verify["commands"]
    assert command["argv"] == ["verify", "--schedule", f"{output_digest.MASK}/out/missing.csv"]
    assert command["code"] == 2 and "missing.csv" in command["stderr"] and command["stdout"] == ""
    assert verify["files"] == {}
    assert written["files"] == {"note.txt": hashlib.sha256(b"written").hexdigest()}
