"""Seeded in-spec fuzzing of the run contract.

Each draw is one in-spec configuration, run in-process through ``run_experiment`` with RuntimeWarning an error:
- a Hamiltonian of 1 to 6 qubits and 1 to 32 distinct words, with random signs and coefficient magnitudes between
  5e-324 and 1e300, within a window of up to 30 decades whose top lies above the parser's 1e-15 threshold in nine
  instances of ten (a smaller coefficient is a parse error, exit 2);
- a time from 0 to 1e300, any method in any of its modes, step counts from 1 to 10^6 by ``n``, ``sweep`` or
  ``epsilon``, 1 to 100 shots in sampled mode, and now and then a basis state as psi0.

Every draw must end in a result or in a ``ZenosimError`` whose exit code the README documents (1 to 3); anything
else, a RuntimeWarning included, fails the draw. A result must satisfy every bound (exit 0, not 4). Draw ``i``
reads ``numpy.random.default_rng(i)`` only, so a failing draw fails on every run; the draws that read a false exit 4
are strict xfails naming the item that fixes them.
"""

import math

import numpy as np
import pytest

from zenosim.errors import ZenosimError
from zenosim.experiments import MAX_STEPS, METHODS, ExperimentConfig, run_experiment
from zenosim.hamiltonian import COEFFICIENT_THRESHOLD

DRAWS = 500  # about 10 s on 2 vCPUs
TIMES = (0.0, 5e-324, 1e-300, 1e-12, 1e-4, 0.37, 1.0, 3.0, 1e6, 1e150, 1e300)
LOG_TINY, LOG_HUGE = math.log10(5e-324), 300.0  # the coefficient magnitudes' range, in decades
LOG_FLOOR = math.log10(COEFFICIENT_THRESHOLD)  # smaller magnitudes are a parse error (exit 2)


def _log_uniform_count(rng, top: int) -> int:
    return min(top, int(10 ** rng.uniform(0.0, math.log10(top + 1))))


def _draw(seed: int) -> tuple[str, dict]:
    """Draw ``seed``'s Hamiltonian text and ``ExperimentConfig`` fields (all but the file path)."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(1, 7))
    words = rng.choice(4**num_qubits, int(rng.integers(1, min(32, 4**num_qubits) + 1)), replace=False)
    high = rng.uniform(LOG_TINY if rng.random() < 0.1 else LOG_FLOOR, LOG_HUGE)
    low = max(LOG_TINY, high - rng.uniform(0.0, 30.0))
    terms = []
    for word in words:
        letters = "".join("IXYZ"[(int(word) >> (2 * q)) & 3] for q in range(num_qubits))
        magnitude = min(max(10.0 ** rng.uniform(low, high), 5e-324), 1e300)
        terms.append(f"{'-' if rng.random() < 0.5 else ''}{magnitude!r}*{letters}")
    method = str(rng.choice(list(METHODS)))
    modes = METHODS[method][0]
    fields = {"method": method, "mode": modes[int(rng.integers(len(modes)))], "t": TIMES[int(rng.integers(len(TIMES)))]}
    steps = int(rng.integers(3))
    if steps == 0:
        fields["n"] = _log_uniform_count(rng, MAX_STEPS)
    elif steps == 1:
        fields["sweep"] = tuple(_log_uniform_count(rng, MAX_STEPS) for _ in range(int(rng.integers(1, 5))))
    else:
        fields["epsilon"] = 10 ** rng.uniform(-12.0, 0.0)
    if fields["mode"] == "sampled":
        fields["shots"] = int(rng.integers(1, 101))
    if rng.random() < 0.25:
        fields["psi0"] = int(rng.integers(2**num_qubits))
    return " + ".join(terms), fields


def _item(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {reason}")


MUB_ROUNDOFF = _item("item 3, mub slice: binary powering of mub's step leaves up to 2.2e-10 at large N, and for odd "
                     "n_a its step at t = 0 is (1 - 2.2e-16) I; against a bound of (nearly) 0 that is a false exit 4")
QDRIFT_ROUNDOFF = _item("item 3, qdrift slice: the step's PTM at t = 0 or tiny t is not exactly I, and its power "
                        "reads up to 2.1e-10 against a bound of (nearly) 0: a false exit 4")
FALSE_EXIT_4 = {**dict.fromkeys((36, 136, 182, 276, 278), MUB_ROUNDOFF),
                **dict.fromkeys((253, 280, 417, 497), QDRIFT_ROUNDOFF)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=[FALSE_EXIT_4[seed]] if seed in FALSE_EXIT_4 else [], id=f"{seed:03d}")
    for seed in range(DRAWS)
])
def test_draw_ends_in_a_documented_exit(seed, tmp_path):
    text, fields = _draw(seed)
    path = tmp_path / "h.txt"
    path.write_text(text + "\n", encoding="utf-8")
    try:
        result = run_experiment(ExperimentConfig(hamiltonian_path=str(path), **fields))
    except ZenosimError as exc:
        if exc.exit_code not in (1, 2, 3):
            pytest.fail(f"undocumented exit {exc.exit_code}: {exc!r}")
        return
    assert result.all_bounds_satisfied, [p for p in result.points if not p.bound_satisfied]
