"""Pauli-string Hamiltonian model and its text format.

A Hamiltonian is a weighted sum of signed Pauli strings with strictly
positive weights: every input coefficient's sign is folded into the
operator, so each stored term is ``coefficient * sign * (Pauli word)`` with
``coefficient > 0`` and the operator part having spectral norm exactly 1.

Text grammar (whitespace is insignificant):

    expression :=  term (('+' | '-') term)*
    term       :=  [decimal '*'] pauli-word
    pauli-word :=  one or more of I, X, Y, Z  (one letter per qubit)

A leading '-' on the expression, a '-' separator, or a negative decimal all
negate the term's sign. Terms with identical Pauli words are merged by
signed summation; a merged magnitude at or below 1e-15 is reported as a
cancellation error rather than silently dropped. A coefficient that is not
finite, as written (``1e400``) or after merging, is a parse error.

File format: UTF-8 text holding one expression; ``#`` starts a comment that
runs to end of line; blank lines are ignored; several files are joined into
one expression with '+'.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import CancellationError, HamiltonianParseError

PAULI_AXES = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

COEFFICIENT_THRESHOLD = 1e-15

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"(?P<sep>[+-])?(?:(?P<coef>-?{_FLOAT})\*)?(?P<word>[IXYZ]+)")


@dataclass(frozen=True)
class PauliTerm:
    """One signed Pauli-string term, ``coefficient * sign * word``."""

    coefficient: float
    sign: int
    axes: str

    def __post_init__(self):
        if not self.coefficient > 0:
            raise ValueError(f"coefficient must be strictly positive, got {self.coefficient}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.axes or any(c not in PAULI_AXES for c in self.axes):
            raise ValueError(f"axes must be a nonempty word over {PAULI_AXES}, got {self.axes!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.axes)

    def matrix(self) -> np.ndarray:
        return term_matrix(self)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Sum of PauliTerm objects acting on a fixed number of qubits."""

    num_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a Hamiltonian needs at least one term")
        for term in self.terms:
            if term.num_qubits != self.num_qubits:
                raise ValueError(
                    f"term {term.axes!r} acts on {term.num_qubits} qubits, "
                    f"expected {self.num_qubits}"
                )
        words = [t.axes for t in self.terms]
        if len(set(words)) != len(words):
            raise ValueError("duplicate Pauli words must be merged before construction")

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def lam(self) -> float:
        """Coefficient 1-norm, the sum of all (positive) term coefficients."""
        return float(sum(t.coefficient for t in self.terms))

    @property
    def h_max(self) -> float:
        """Largest single term coefficient."""
        return float(max(t.coefficient for t in self.terms))

    def matrix(self) -> np.ndarray:
        return hamiltonian_matrix(self)

    def to_text(self) -> str:
        return to_text(self)


def term_matrix(term: PauliTerm) -> np.ndarray:
    """Dense matrix of the signed Pauli string (spectral norm 1)."""
    mats = [PAULI_MATRICES[c] for c in term.axes]
    return term.sign * reduce(np.kron, mats)


def hamiltonian_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of the full weighted sum."""
    dim = 2**h.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        out += term.coefficient * term_matrix(term)
    return out


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse one Hamiltonian expression.

    Duplicate Pauli words are merged by signed summation and keep their
    first-appearance position. Raises HamiltonianParseError on grammar
    violations and CancellationError when a merge cancels a term.
    """
    if text is None or not text.strip():
        raise HamiltonianParseError("empty Hamiltonian expression")
    compact = re.sub(r"\s+", "", text)

    raw_terms: list[tuple[float, str]] = []
    pos = 0
    first = True
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None:
            raise HamiltonianParseError(
                f"invalid character or malformed term at position {pos}: {compact[pos:pos + 12]!r}"
            )
        if not first and m.group("sep") is None:
            raise HamiltonianParseError(
                f"missing '+' or '-' between terms at position {pos}: {compact[pos:pos + 12]!r}"
            )
        signed = -1.0 if m.group("sep") == "-" else 1.0
        coef_text = m.group("coef")
        magnitude = 1.0 if coef_text is None else float(coef_text)
        value = signed * magnitude
        if not math.isfinite(value):
            raise HamiltonianParseError(f"coefficient {coef_text} for term {m.group('word')!r} is not finite")
        if abs(value) <= COEFFICIENT_THRESHOLD:
            raise HamiltonianParseError(
                f"coefficient magnitude {abs(value):g} for term {m.group('word')!r} "
                f"is at or below the threshold {COEFFICIENT_THRESHOLD:g}"
            )
        raw_terms.append((value, m.group("word")))
        pos = m.end()
        first = False

    num_qubits = len(raw_terms[0][1])
    for _, word in raw_terms:
        if len(word) != num_qubits:
            raise HamiltonianParseError(
                f"mixed pauli-word lengths: expected {num_qubits} qubits, got {word!r}"
            )

    merged: dict[str, float] = {}
    for value, word in raw_terms:
        merged[word] = merged.get(word, 0.0) + value

    terms = []
    for word, value in merged.items():
        if not math.isfinite(value):
            raise HamiltonianParseError(f"terms with word {word!r} sum to a non-finite coefficient")
        if abs(value) <= COEFFICIENT_THRESHOLD:
            raise CancellationError(
                f"terms with word {word!r} cancel to {value:g}; remove them explicitly"
            )
        sign = 1 if value > 0 else -1
        terms.append(PauliTerm(coefficient=abs(value), sign=sign, axes=word))
    return PauliHamiltonian(num_qubits=num_qubits, terms=tuple(terms))


def to_text(h: PauliHamiltonian) -> str:
    """Render to the text format; parsing the result reproduces ``h`` exactly."""
    parts = []
    for i, term in enumerate(h.terms):
        body = f"{term.coefficient!r}*{term.axes}"
        if i == 0:
            parts.append(body if term.sign > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if term.sign > 0 else '-'} {body}")
    return " ".join(parts)


def load_hamiltonian(*paths) -> PauliHamiltonian:
    """Load and parse one or more Hamiltonian files (joined by '+')."""
    if not paths:
        raise HamiltonianParseError("no Hamiltonian file given")
    expressions = []
    for path in paths:
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise HamiltonianParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
        lines = [line.split("#", 1)[0] for line in raw.splitlines()]
        body = " ".join(line for line in lines if line.strip())
        if not body.strip():
            raise HamiltonianParseError(f"{path}: no Hamiltonian expression found")
        expressions.append(body)
    return parse_hamiltonian(" + ".join(expressions))
