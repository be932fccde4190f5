"""Mutation check of the test suite: every mutant must make its tests fail.

Usage::

    python tools/mutants.py

Each mutant replaces one exact piece of source text, found exactly once in
its file, in a temporary copy of the tree (``src``, ``tests`` and
``pyproject.toml``), and runs its test subset there with pytest.  The tool
prints one verdict a mutant:

- ``killed``: the subset failed, so some test sees the edit;
- ``survived``: the subset passed, so no test sees it;
- ``error``: the text was not found exactly once, or pytest could not run
  the subset (a usage error, or no test collected).

It exits 1 when a mutant survived or erred, and 0 otherwise.  A surviving
mutant is a missing test: add the test, and never weaken or drop the
mutant.  A change to a checked code path adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "pyproject.toml")

CLI = "src/pulseforge/cli.py"
DQD = "src/pulseforge/dqd.py"
IO = "src/pulseforge/io.py"
PROPAGATE = "src/pulseforge/propagate.py"
SYNTH = "src/pulseforge/synth.py"

# pytest arguments, run in the copy's root
SUBSETS = {
    "chain": ("tests/test_cli.py", "tests/test_exit_contract.py", "-k", "chain"),
    "dqd": ("tests/test_dqd.py",),
    "exit-contract": ("tests/test_exit_contract.py",),
    "io": ("tests/test_io.py",),
    "propagate": ("tests/test_propagate.py",),
    "steps": ("tests/test_steps.py",),
    "synthesis-limits": ("tests/test_cli.py", "-k", "phase_resolution or 2_to_the_53"),
}


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the tree's root
    old: str
    new: str
    subset: tuple[str, ...]


MUTANTS = (
    Mutant(
        "hand-over-swaps-the-spins", CLI,
        "np.array([psi[1], (0.0, 0.0), (0.0, 0.0), psi[2]]",
        "np.array([psi[2], (0.0, 0.0), (0.0, 0.0), psi[1]]",
        SUBSETS["chain"],
    ),
    Mutant(
        "stage-boundary-misses-value-errors", CLI,
        "except (PulseforgeError, ValueError) as exc:\n            exc.args",
        "except PulseforgeError as exc:\n            exc.args",
        SUBSETS["chain"],
    ),
    Mutant(
        "carried-state-renormalized", CLI,
        "_integrate_columns(schedule, psi[:, 1:], grid)",
        "_integrate_columns(schedule, psi[:, 1:] / np.linalg.norm(psi[:, 1:]), grid)",
        SUBSETS["chain"],
    ),
    Mutant(
        "stage-prefix-drops-attributes", CLI,
        'exc.args = (f"stage {index} ({stage.gate}): {exc}",)\n            raise',
        'raise type(exc)(f"stage {index} ({stage.gate}): {exc}") from exc',
        SUBSETS["chain"],
    ),
    Mutant(
        "inherited-qubit-unchecked", CLI,
        "if declared is not None and abs(declared - derived) > 1e-9:",
        "if False:",
        SUBSETS["chain"],
    ),
    Mutant(
        "nan-drift-passes", PROPAGATE,
        "if not drift <= NORM_DRIFT_LIMIT:",
        "if drift > NORM_DRIFT_LIMIT:",
        SUBSETS["propagate"],
    ),
    Mutant(
        "sector-map-flips-the-sign-of-3", PROPAGATE,
        "np.subtract(x[3], x[2], out=out[1, 0])",
        "np.add(x[3], x[2], out=out[1, 0])",
        SUBSETS["propagate"],
    ),
    Mutant(
        "quadratic-form-drops-the-sector-factor-2", PROPAGATE,
        "return 2.0 * (w.reshape(8, -1).T @ gram.reshape(8, -1))",
        "return w.reshape(8, -1).T @ gram.reshape(8, -1)",
        SUBSETS["propagate"],
    ),
    Mutant(
        "drift-read-on-the-two-columns", PROPAGATE,
        "np.sqrt(_probe_norms_sq(w, probes))",
        "np.sqrt(_probe_norms_sq(w, _COLUMNS))",
        SUBSETS["propagate"],
    ),
    Mutant(
        "gap-over-the-first-probe-only", PROPAGATE,
        "np.max(_probe_norms_sq(gap, probes))",
        "np.max(_probe_norms_sq(gap, probes[:, :1]))",
        SUBSETS["propagate"],
    ),
    Mutant(
        "operator-gap-takes-the-smaller-eigenvalue", PROPAGATE,
        "+ np.sqrt(",
        "- np.sqrt(",
        SUBSETS["propagate"],
    ),
    Mutant(
        "unitarity-residual-keeps-the-identity", PROPAGATE,
        "gram -= _EYE",
        "gram -= 0.0",
        SUBSETS["propagate"],
    ),
    Mutant(
        "one-evaluation-skips-the-drift-check", PROPAGATE,
        "    _check_drift(drift)\n    probe_gap = ",
        "    probe_gap = ",
        SUBSETS["propagate"],
    ),
    Mutant(
        "operator-gap-read-from-w", PROPAGATE,
        "g00, g11, re, im = gap.transpose(1, 0, 2)",
        "g00, g11, re, im = w.transpose(1, 0, 2)",
        SUBSETS["propagate"],
    ),
    Mutant(
        "closed-form-swaps-ct-and-st-in-2-3", DQD,
        "u[2, 3] = u[3, 2] = -1j * e * ct * s",
        "u[2, 3] = u[3, 2] = -1j * e * st * s",
        SUBSETS["dqd"],
    ),
    Mutant(
        "bad-row-numbered-from-the-column-line", IO,
        "enumerate(body, first + 1)",
        "enumerate(body, first)",
        SUBSETS["io"],
    ),
    Mutant(
        "bad-cell-message-drops-the-column", IO,
        'to float64 in column {name}"',
        'to float64"',
        SUBSETS["io"],
    ),
    Mutant(
        "bad-row-width-unchecked", IO,
        "if row.shape[1] != 4:",
        "if False:",
        SUBSETS["io"],
    ),
    Mutant(
        "csv-row-ends-every-ncol-plus-1-th-comma", IO,
        'buf[ends[ncol - 1::ncol]] = ord("\\n")',
        'buf[ends[ncol - 1::ncol + 1]] = ord("\\n")',
        SUBSETS["io"],
    ),
    Mutant(
        "three-digit-exponents-from-1e101", IO,
        "_PLUS_FROM, _THREE_DIGITS_FROM = 1e16, 1e100",
        "_PLUS_FROM, _THREE_DIGITS_FROM = 1e16, 1e101",
        SUBSETS["io"],
    ),
    Mutant(
        "one-digit-exponents-from-1e-10", IO,
        "_ONE_DIGIT_FROM, _BAND_FROM, _BAND_TO = 1e-9,",
        "_ONE_DIGIT_FROM, _BAND_FROM, _BAND_TO = 1e-10,",
        SUBSETS["io"],
    ),
    Mutant(
        "fixes-placed-without-the-earlier-ones", IO,
        "at += np.arange(len(at))",
        "at += 0",
        SUBSETS["io"],
    ),
    Mutant(
        "json-row-end-one-byte-late", IO,
        "ends[ncol - 1::ncol] -= 6",
        "ends[ncol - 1::ncol] -= 5",
        SUBSETS["io"],
    ),
    Mutant(
        "sample-budget-unchecked", IO,
        "if _body_lines(raw) > SAMPLE_BUDGET:",
        "if False:",
        SUBSETS["io"],
    ),
    Mutant(
        "verify-ignores-the-sample-gap", CLI,
        "ok = ok and schedule.sample_gap <= args.tol",
        "ok = ok",
        SUBSETS["exit-contract"],
    ),
    Mutant(
        "non-finite-controls-integrated", PROPAGATE,
        "if not finite.all():",
        "if False:",
        SUBSETS["io"],
    ),
    Mutant(
        "sample-gap-drops-its-non-finite-guard", SYNTH,
        "if angles is None or not (np.isfinite(self.tau).all() and np.isfinite(self.alpha).all()):",
        "if angles is None:",
        SUBSETS["propagate"],
    ),
    Mutant(
        "derived-steps-meet-tol-not-a-tenth", PROPAGATE,
        "(120.0 * (tol / 10.0))",
        "(120.0 * tol)",
        SUBSETS["steps"],
    ),
    Mutant(
        "derived-steps-linear-in-the-pulse", PROPAGATE,
        "x ** 1.25",
        "x ** 1.0",
        SUBSETS["steps"],
    ),
    Mutant(
        "interpolated-samples-lose-the-step-floor", PROPAGATE,
        "return n if ramp is not None else max(n, DEFAULT_N_STEPS)",
        "return n",
        SUBSETS["steps"],
    ),
    Mutant(
        "derived-steps-drop-the-knot-term", PROPAGATE,
        "jumps = 0.0 if ramp is None else ramp.knot_jump",
        "jumps = 0.0",
        SUBSETS["steps"],
    ),
    Mutant(
        "knot-term-takes-a-tenth-of-simpsons-error", PROPAGATE,
        "(jumps / (324.0 * (tol / 10.0)))",
        "(jumps / (3240.0 * (tol / 10.0)))",
        SUBSETS["steps"],
    ),
    Mutant(
        "zeeman-phase-past-2-to-the-53-lifted", SYNTH,
        "if delta * duration > _ZEEMAN_PHASE_LIMIT:",
        "if False:",
        SUBSETS["synthesis-limits"],
    ),
    Mutant(
        "sample-gap-ends-left-unpinned", SYNTH,
        "gdot[[0, -1]] = 0.0",
        "pass",
        SUBSETS["steps"],
    ),
)


def run(mutant: Mutant) -> str:
    """The mutant's verdict: ``killed``, ``survived`` or ``error``."""
    with tempfile.TemporaryDirectory() as d:
        copy = Path(d)
        for name in TREE:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.subset],
            cwd=copy, env=env, capture_output=True,
        )
    # pytest exits 0 when every test passed and 1 when one failed
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main() -> int:
    verdicts = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        verdicts.append(verdict)
        print(f"{verdict:9} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    bad = sum(v != "killed" for v in verdicts)
    print(f"{len(verdicts)} mutant(s), {len(verdicts) - bad} killed, {bad} survived or erred")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
