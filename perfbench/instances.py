"""Seeded Hamiltonian instances for the benchmark.

The base panel follows the recipe of ``tests/conftest.py:random_hamiltonian``:
distinct non-identity Pauli words, weights U(0.1, 1) printed with six
decimals, random signs, words in sorted order. Each base instance is drawn
from ``numpy.random.default_rng(panel_seed)``.

A run's ``--seed`` does not redraw the weights. It draws a random qubit
permutation and, per qubit, one of the four single-qubit Cliffords that fix
X (so Y and Z are swapped or negated), and rewrites every term through them.
The result is a different text, with different Pauli words and signs, for a
Hamiltonian unitarily equivalent to the base one: same weights, same term
order, same spectrum. The conjugating unitary also fixes the uniform
superposition that the program's power iteration starts from, so its
iterates are conjugated too. Every error, every bound and every
convergence failure or under-report of the program is therefore the same
for every seed, while the program still parses and computes on new input.
Redrawing the weights, or using all Cliffords, changes which points fail
at each seed, so run-to-run spread would measure the instance lottery
rather than the program.
"""

from __future__ import annotations

from functools import reduce
from pathlib import Path

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_SQRT_X = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2.0


class Instance:
    """A Pauli-sum Hamiltonian as ``(coefficient text, sign, word)`` terms."""

    def __init__(self, terms):
        self.terms = tuple(terms)
        self.num_qubits = len(self.terms[0][2])

    @classmethod
    def parse(cls, text: str) -> "Instance":
        terms = []
        for part in text.split(" + "):
            coef, word = part.strip().split("*")
            sign = -1 if coef.startswith("-") else 1
            terms.append((coef.lstrip("-"), sign, word))
        return cls(terms)

    def text(self) -> str:
        return " + ".join(f"{'-' if s < 0 else ''}{c}*{w}" for c, s, w in self.terms)

    @property
    def coefficients(self) -> list[float]:
        return [float(c) for c, _, _ in self.terms]

    @property
    def lam(self) -> float:
        return float(sum(self.coefficients))

    @property
    def h_max(self) -> float:
        return float(max(self.coefficients))

    def paulis(self) -> list[np.ndarray]:
        """Dense signed Pauli strings, first letter the most significant qubit."""
        return [s * reduce(np.kron, [_PAULI[c] for c in w]) for _, s, w in self.terms]

    def matrix(self) -> np.ndarray:
        return sum(h * p for h, p in zip(self.coefficients, self.paulis()))


def conftest_instance(rng: np.random.Generator, num_terms: int, num_qubits: int) -> Instance:
    """The test suite's random-instance recipe."""
    words: set[str] = set()
    while len(words) < num_terms:
        word = "".join(rng.choice(list("IXYZ")) for _ in range(num_qubits))
        if word != "I" * num_qubits:
            words.add(word)
    terms = []
    for word in sorted(words):
        coeff = float(rng.uniform(0.1, 1.0))
        sign = -1 if rng.random() < 0.5 else 1
        terms.append((f"{coeff:.6f}", sign, word))
    return Instance(terms)


def base_panel(panel_seed: int, shapes: dict) -> dict[str, Instance]:
    """One base instance per name in ``shapes`` ({name: {"qubits", "terms"}})."""
    return {
        name: conftest_instance(np.random.default_rng(panel_seed), s["terms"], s["qubits"])
        for name, s in shapes.items()
    }


def _clifford_table(rng: np.random.Generator) -> dict[str, tuple[int, str]]:
    """Map each Pauli letter to (sign, letter) under a random Clifford fixing X."""
    c = np.eye(2, dtype=complex)
    for _ in range(8):
        c = (_PAULI["X"] if rng.random() < 0.5 else _SQRT_X) @ c
    table = {"I": (1, "I")}
    for a in "XYZ":
        image = c @ _PAULI[a] @ c.conj().T
        for b in "XYZ":
            for sign in (1, -1):
                if np.allclose(image, sign * _PAULI[b]):
                    table[a] = (sign, b)
    return table


def relabel(instance: Instance, seed: int) -> Instance:
    """Conjugate by a seeded qubit permutation and X-fixing local Clifford; keep term order."""
    rng = np.random.default_rng(seed)
    n = instance.num_qubits
    perm = rng.permutation(n)
    tables = [_clifford_table(rng) for _ in range(n)]
    terms = []
    for coef, sign, word in instance.terms:
        letters = [""] * n
        for i, letter in enumerate(word):
            s, image = tables[i][letter]
            sign *= s
            letters[perm[i]] = image
        terms.append((coef, sign, "".join(letters)))
    return Instance(terms)


def write_instances(panel: dict[str, Instance], seed: int, directory: Path) -> dict[str, tuple[Instance, Path]]:
    """Relabel every base instance for ``seed`` and write it as a CLI input file."""
    out = {}
    for name, base in panel.items():
        inst = relabel(base, seed)
        path = Path(directory) / f"{name}.txt"
        path.write_text(inst.text() + "\n", encoding="utf-8")
        out[name] = (inst, path)
    return out
