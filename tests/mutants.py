"""Mutation audit of the checker's guards: each mutant must fail the test named beside it.

A guard is code that keeps a reading from being low or a verdict honest: a slack, a clamp, a cancellation-free
regrouping, a residual term. Each entry below changes one guard by replacing an exact text, which must occur once in
its file, and names the test node that must kill the mutant, or says ``equivalent:`` with a reason a reader can
check. The script copies ``src/`` to a temporary directory, applies one mutant there (never to the working tree),
runs its node with ``pytest -x`` against that copy and reports each mutant as killed, survived or equivalent. It
exits 1 when a mutant that is not equivalent survives, and 2 when an entry's text no longer occurs once or its test
cannot run; a change to a guarded line updates its entry in the same change.

Run from anywhere, with numpy, pytest and hypothesis installed: ``python tests/mutants.py [name ...]``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/zenosim
    old: str
    new: str
    kill: str  # the test node that must fail, or "equivalent: <reason>"


SURVIVAL = """\
    totals = np.exp(np.multiply.outer(np.arange(max(start, 1), stop + 1), log_r - top)) @ weights
    if start == 0:
        totals = np.concatenate(([weights.sum()], totals))
    return math.exp(top) * totals[1:] / totals[:-1]
"""

MUTANTS = [
    Mutant("error-slack", "bounds.py",
           "self.epsilon_measured <= self.epsilon_bound + 1e-12", "self.epsilon_measured <= self.epsilon_bound + 1e-9",
           "tests/test_zeno.py::TestRunZeno::test_bound_satisfied_rule"),
    Mutant("success-slack", "bounds.py",
           "self.p_succ_exact >= self.p_succ_bound - 1e-12", "self.p_succ_exact >= self.p_succ_bound - 1e-9",
           "tests/test_zeno.py::TestRunZeno::test_bound_satisfied_rule"),
    Mutant("success-bound-clamp", "bounds.py",
           "return error, max(0.0, success)", "return error, success",
           "tests/test_bounds.py::TestFirstOrder::test_success_examples"),
    Mutant("steps-for-precision-offset", "bounds.py",
           "return 1 + bisect.bisect_left(", "return bisect.bisect_left(",
           "tests/test_bounds.py::TestStepFormulas::test_steps_for_precision_examples"),
    Mutant("is-real-bool-rule", "bounds.py",
           "isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)",
           "isinstance(value, Real) and math.isfinite(value)",
           "tests/test_bounds.py::TestStepTime::test_is_real_is_the_finite_real_rule"),
    Mutant("lanczos-stop", "channels.py",
           "rho <= max(1e-8 * theta,", "rho <= max(1e-6 * theta,",
           "tests/test_channels.py::TestQdriftPoint::test_bit_equal_to_diamond_lower_bound"),
    Mutant("kato-temple-term", "channels.py",
           "(rho * rho / max(theta, rho) if rho else 0.0)", "0.0",
           "tests/test_channels.py::TestQdriftPoint::test_floor_reading_keeps_the_kato_temple_term"),
    Mutant("second-orthogonalisation", "channels.py",
           "        v -= q.T @ (q.conj() @ v)  # full reorthogonalisation: twice is enough\n", "",
           "tests/test_channels.py::TestQdriftPoint::test_exhausted_krylov_run_keeps_its_basis_orthogonal"),
    Mutant("spectral-exp-identity", "linalg.py",
           "return np.eye(len(u), dtype=complex) if theta == 0 else (u *", "return (u *",
           "tests/test_channels.py::TestQdriftPoint::test_time_zero_reads_zero"),
    Mutant("sine-gap-series", "zeno.py",
           "for k in range(1, 11):", "for k in range(1, 6):",
           "tests/test_corners.py::test_kicks_corner_matches_reference"),
    Mutant("phase-regrouping", "zeno.py",
           "im = _sine_gap(a, gap, theta) - drop * sin_at + 2.0 * a * sin_t * np.sin(a * theta / 2.0) ** 2",
           "im = (1.0 - drop) * sin_at - a * sin_t * np.cos(a * theta)",
           "tests/test_bounds.py::TestWholeSpectrum::test_row_bounds_every_eigenvalue"),
    Mutant("gap-clamp", "zeno.py",
           "np.maximum(0.0, (1.0 - a) * (1.0 + a))", "(1.0 - a) * (1.0 + a)",
           "tests/test_zeno.py::TestSpectralForm::test_step_stays_a_contraction_where_eigh_rounds_beyond_lam"),
    Mutant("kicks-hypot", "zeno.py",
           "kappa = np.hypot(c, s * np.sqrt(gap))", "kappa = np.sqrt(1.0 - (s * a) ** 2)",
           "tests/test_zeno.py::TestRunKicks::test_quarter_turn_matches_full_register"),
    Mutant("mub-exact-weights", "zeno.py",
           "weights = np.full(ancilla_dim, 1.0 / ancilla_dim)",
           "weights = np.full(ancilla_dim, 1.0 / math.sqrt(ancilla_dim)) ** 2",
           "tests/test_corners.py::test_time_zero_error_is_exactly_zero"),
    Mutant("success-weight-sum", "zeno.py",
           "min(float(survival / np.dot(weights, np.ones_like(weights))), 1.0)", "min(float(survival), 1.0)",
           "tests/test_corners.py::test_time_zero_success_is_exactly_one"),
    Mutant("success-clamp", "zeno.py",
           "min(float(survival / np.dot(weights, np.ones_like(weights))), 1.0)",
           "float(survival / np.dot(weights, np.ones_like(weights)))",
           "tests/test_zeno.py::TestSpectralForm::test_single_term_mub_success_is_one"),
    Mutant("step-success-clamp", "zeno.py",
           "float(min(np.linalg.norm(_corner(sys, delta_t) @ psi) ** 2, 1.0))",
           "float(np.linalg.norm(_corner(sys, delta_t) @ psi) ** 2)",
           "tests/test_zeno.py::TestStepSuccessProbability::test_nearly_normalized_state_reads_at_most_one"),
    Mutant("survival-top-rate-shift", "zeno.py",
           SURVIVAL, SURVIVAL.replace("log_r - top", "log_r").replace("math.exp(top) * ", ""),
           "tests/test_corners.py::test_corner_holds_every_bound"),
    Mutant("sampler-bias", "zeno.py",
           "return math.exp(top) * totals[1:] / totals[:-1]\n",
           "return math.exp(top) * totals[1:] / totals[:-1] * (1.0 - 1e-5)\n",
           "tests/test_sampled_law.py::test_true_sampler_is_not_flagged"),
    Mutant("cancellation-rule", "hamiltonian.py",
           "if abs(value) <= COEFFICIENT_THRESHOLD * largest:", "if value == 0:",
           "tests/test_hamiltonian.py::TestParseErrors::test_roundoff_residue_of_a_merge_is_cancellation"),
    Mutant("sampler-draw-comparison", "zeno.py",
           "rng.random(len(q)) < q", "rng.random(len(q)) <= q",
           "equivalent: rng.random returns multiples of 2^-53, so u <= q differs from u < q only when a draw equals "
           "q exactly, which has probability at most 2^-53 per draw; a command-line run draws at most "
           "MAX_SHOT_STEPS = 10^9 uniforms, so it changes a run's success count with probability below 1.2e-7"),
]


def fail(message: str):
    """Stop with exit code 2: an entry is stale or its test cannot run, so no verdict can be given."""
    print(message, file=sys.stderr)
    sys.exit(2)


def mutated_copy(mutant: Mutant, tmp: Path) -> Path:
    """``src/`` copied under ``tmp`` with ``mutant`` applied; the copy's path. Exits 2 on a stale entry."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "zenosim" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        fail(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def verdict(mutant: Mutant) -> str:
    """killed, survived or equivalent; exits 2 when the test cannot run or the copy is not what it imports."""
    with tempfile.TemporaryDirectory() as tmp:
        src = mutated_copy(mutant, Path(tmp))
        if mutant.kill.startswith("equivalent:"):
            return "equivalent"
        env = os.environ | {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = subprocess.run([sys.executable, "-c", "import zenosim; print(zenosim.__file__)"], env=env,
                                  capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(src)):
            fail(f"{mutant.name}: the tests would import zenosim from {imported or 'nowhere'}, not the copy")
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.kill],
                             cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 1: a test failed; anything else means the node did not run
        fail(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return "killed" if run.returncode == 1 else "survived"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        fail(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        result = verdict(mutant)
        print(f"{result:<10} {mutant.name:<28} {mutant.kill}", flush=True)
        survivors += [mutant.name] if result == "survived" else []
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
