"""One digest of everything the benchmark's operations print and write.

Usage::

    python tools/output_digest.py SRC_DIR

``SRC_DIR`` is the directory that holds the ``pulseforge`` package (``src``
of a checkout).  The ops are those of the three workload generators in
``perfbench/workloads.py`` (imported, never changed) at seeds 1-3: every op
of each generator's pool plus simulate's warm-up op, run in process through
``pulseforge.cli.main`` in a temporary directory.  Each op contributes its
argv, exit code, stdout and stderr (the temporary root masked), and the name
and bytes of every file it leaves in the output directory; each generator
adds its input digest, which covers the schedule its set-up synthesizes.

Prints ``<ops> <sha256>``.  Two checkouts whose outputs are byte-identical
print the same line.  Nothing is written outside the temporary directory,
and no bytecode is cached.

``--records PATH`` also writes one JSON line per op, in digest order: its
workload, seed and index, each command's argv, exit code, stdout and stderr
(masked as in the digest), and the sha256 of each file it left.  When two
checkouts' digests differ, comparing their records names the ops that
differ::

    python tools/output_digest.py /tmp/parent/src --records /tmp/parent.jsonl
    python tools/output_digest.py src --records /tmp/change.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
MASK = "<root>"


def _update(h, data: str | bytes) -> None:
    """Feed one length-prefixed field, so field boundaries cannot shift."""
    if isinstance(data, str):
        data = data.encode()
    h.update(len(data).to_bytes(8, "little") + data)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["pulseforge.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def digest(workloads, records=None) -> tuple[int, str]:
    """Number of ops and the sha256 of their outputs.

    Each op's record is written to the text file ``records`` as a JSON line
    when it is given."""
    h = hashlib.sha256()
    n_ops = 0
    for seed in SEEDS:
        for name, cls in workloads.items():
            with tempfile.TemporaryDirectory() as d:
                root = Path(d)
                w = cls(root, seed)
                w.setup(lambda argv: _run(argv)[:2])
                _update(h, f"{name}:{seed}:{w.digest.hexdigest()}")
                warmup = w.warmup_op()
                for i in ([warmup] if warmup not in range(w.pool) else []) + list(range(w.pool)):
                    w.clear(i)
                    commands = []
                    for argv in w.op(i):
                        code, out, err = _run(argv)
                        fields = [f.replace(str(root), MASK) for f in (json.dumps(argv), str(code), out, err)]
                        for field in fields:
                            _update(h, field)
                        commands.append(
                            {"argv": json.loads(fields[0]), "code": code, "stdout": fields[2], "stderr": fields[3]}
                        )
                        if code != 0:
                            break
                    files = {}
                    for path in sorted(p for p in w.outputs.rglob("*") if p.is_file()):
                        data = path.read_bytes()
                        _update(h, str(path.relative_to(w.outputs)))
                        _update(h, data)
                        files[str(path.relative_to(w.outputs))] = hashlib.sha256(data).hexdigest()
                    if records is not None:
                        record = {"workload": name, "seed": seed, "op": i, "commands": commands, "files": files}
                        records.write(json.dumps(record) + "\n")
                    n_ops += 1
    return n_ops, h.hexdigest()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", help="directory holding the pulseforge package")
    p.add_argument("--records", type=Path, help="write each op's record to this file as JSON lines")
    args = p.parse_args()
    src = Path(args.src_dir).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1] / "perfbench")]
    import pulseforge.cli  # noqa: F401
    from workloads import WORKLOADS

    if src not in Path(sys.modules["pulseforge"].__file__).resolve().parents:
        print(f"pulseforge was imported from outside {src}", file=sys.stderr)
        return 1
    with args.records.open("w") if args.records else contextlib.nullcontext() as records:
        n_ops, sha = digest(WORKLOADS, records)
    print(n_ops, sha)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
