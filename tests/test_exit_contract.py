"""Properties of the exit-code contract: an edited schedule never verifies,
and a mutated plan ends in 0/2/3/4 without a traceback or a warning."""

import contextlib
import copy
import functools
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseforge import AnsatzSpec, NotGateSpec, PhaseGateSpec, PrepareSpec, SystemParams, TransportSpec
from pulseforge import synthesize_gate
from pulseforge.cli import main
from pulseforge.io import write_schedule
from conftest import REF_DELTA

_S = np.linspace(0.0, 1.0, 6)
SAMPLED = {"family": "sampled", "profile": (_S, 0.5 * math.pi * _S * _S * (3.0 - 2.0 * _S))}

SPECS = {
    "prepare": PrepareSpec(b2=0.6, b3=0.8j),
    "not": NotGateSpec(chi=0.3, mu=0.2),
    "phase": PhaseGateSpec(chi=0.3, mu=0.2, phase_shift=0.7),
    "transport": TransportSpec(chi=0.8, mu=0.3, a=0.6, b=0.8, lam=1.9),
    # theta ~ 1.5e-3: the alpha column peaks three decades below tau
    "weak-alpha": TransportSpec(chi=0.8, mu=0.3, a=math.cos(0.8) + 1e-3,
                                b=math.sqrt(1.0 - (math.cos(0.8) + 1e-3) ** 2), lam=1.0),
}


@functools.lru_cache(maxsize=None)
def _schedule_lines(gate: str, family: str, n_samples: int) -> tuple[str, ...]:
    ansatz = AnsatzSpec(n_samples=n_samples, **(SAMPLED if family == "sampled" else {}))
    schedule = synthesize_gate(SPECS[gate], SystemParams(delta=REF_DELTA), ansatz)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.csv"
        write_schedule(path, schedule)
        return tuple(path.read_text().splitlines())


@settings(deadline=None, max_examples=40)
@given(
    gate=st.sampled_from(sorted(SPECS)),
    family=st.sampled_from(["cosine", "sampled"]),
    # 8000 samples interpolate closely enough that an edit barely moves the states
    n_samples=st.sampled_from([2000, 8000]),
    column=st.sampled_from(["tau", "alpha"]),
    pick=st.floats(0.0, 1.0),
    eps=st.floats(1e-3, 1.0),
)
def test_an_edited_sample_never_verifies(gate, family, n_samples, column, pick, eps):
    lines = list(_schedule_lines(gate, family, n_samples))
    body = lines.index("t,tau,re_alpha,im_alpha") + 1
    table = np.array([[float(x) for x in line.split(",")] for line in lines[body:]])
    values = table[:, 1] if column == "tau" else table[:, 2] + 1j * table[:, 3]
    peak = float(np.max(np.abs(values)))
    cells = np.flatnonzero((np.abs(values) >= 1e-3 * peak) & (values != 0))
    if cells.size == 0:
        # a phase gate's alpha is zero throughout: scaling it edits nothing
        return
    row = int(cells[min(int(pick * cells.size), cells.size - 1)])
    cols = [1] if column == "tau" else [2, 3]
    parts = lines[body + row].split(",")
    for c in cols:
        parts[c] = repr(float(parts[c]) * (1.0 + eps))
    lines[body + row] = ",".join(parts)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(["verify", "--schedule", str(path)])
    out = stdout.getvalue()
    assert code == 4
    assert "-> FAIL" in out and "PASS" not in out


# ----------------------------------------------------------------- plans

PLANS = [
    ("prepare", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{
            "gate": "prepare",
            "target": {"b2": {"abs": 0.6, "phase": "0.25pi"}, "b3": 0.8},
            "ansatz": {"gamma_final": "0.5pi", "family": "cosine", "n_samples": 300, "T": 1e-9, "t_max": 1e-8},
            "branch": 1,
        }],
        "io": {"out_dir": "out"},
    }),
    ("gate", {
        "system": {"b_field_mT": 100.0, "g_factor": 2.0},
        "stages": [{
            "gate": "not", "chi": 0.3, "mu": 0.2, "branch": "min-theta",
            "ansatz": {"family": "sampled", "n_samples": 300,
                       "profile": {"s": [0.0, 0.3, 0.7, 1.0], "gamma": [0.0, 0.3, 1.2, "0.5pi"]}},
        }],
    }),
    ("gate", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "transport", "chi": 0.8, "mu": 0.3, "A": 0.6, "B": 0.8, "lambda": 1.9,
                    "ansatz": {"n_samples": 300}}],
    }),
    ("gate", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "phase", "chi": 0.3, "mu": 0.2, "phase_shift": 0.7, "ansatz": {"n_samples": 300}}],
    }),
    ("chain", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [
            {"gate": "prepare", "target": {"b2": 0.5, "b3": {"abs": math.sqrt(3.0) / 2.0, "phase": "0.5pi"}}},
            {"gate": "phase", "phase_shift": "pi/4"},
            {"gate": "not", "chi": "pi/3"},
            {"gate": "transport", "A": 0.6, "B": 0.8, "lambda": 0.4},
        ],
        "io": {"out_dir": "out"},
    }),
]

MUTANTS = [None, "nan", "inf", "text", [1.0], 1e300]


def _fields(node, prefix=()):
    """Path of every key and list item of a plan document, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _fields(value, prefix + (key,))


MUTATIONS = [
    (p, field, value)
    for p, (_, plan) in enumerate(PLANS)
    for field in _fields(plan)
    for value in MUTANTS
    # a huge sample count would allocate gigabytes before anything rejects it
    if not (field[-1] == "n_samples" and value == 1e300)
]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(MUTATIONS))
def test_a_mutated_plan_keeps_the_exit_contract(mutation):
    p, field, value = mutation
    command, plan = PLANS[p]
    doc = copy.deepcopy(plan)
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    cwd = os.getcwd()
    with (
        tempfile.TemporaryDirectory() as d,
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        warnings.simplefilter("always")
        # a mutated io.out_dir is a relative path; keep it inside the scratch directory
        os.chdir(d)
        try:
            Path("plan.json").write_text(json.dumps(doc))
            code = main([command, "--plan", "plan.json", "--steps", "500"] if command == "chain"
                        else [command, "--plan", "plan.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
