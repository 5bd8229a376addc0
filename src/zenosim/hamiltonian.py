"""Pauli-string Hamiltonian model and its text format.

A Hamiltonian is a weighted sum of signed Pauli strings with strictly positive weights: every input coefficient's
sign is folded into the operator, so each stored term is ``coefficient * sign * (Pauli word)`` with
``coefficient > 0`` and the operator part having spectral norm exactly 1. Every Pauli word is read through one
convention, ``pauli_tables``, by its (x, z) bit masks (``PauliTerm.masks``).

Text grammar (whitespace is insignificant):

    expression :=  term (('+' | '-') term)*
    term       :=  [decimal '*'] pauli-word
    pauli-word :=  one or more of I, X, Y, Z  (one letter per qubit)

A leading '-' on the expression, a '-' separator, or a negative decimal all
negate the term's sign. The absolute threshold 1e-15 applies twice: a
coefficient written at or below it (``1e-16*X``) is a parse error, and terms
with identical Pauli words are merged by signed summation, a merged magnitude
at or below it being reported as a cancellation error rather than silently
dropped. A coefficient that is not finite, as written (``1e400``) or after
merging, is a parse error.

File format: UTF-8 text, at most ``MAX_FILE_BYTES`` bytes, holding one
expression; ``#`` starts a comment that runs to end of line; blank lines are
ignored. ``load_hamiltonian`` reads one such file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .bounds import is_real
from .errors import CancellationError, ConfigError, HamiltonianParseError, LimitExceededError
from .linalg import hermitian_eigen, spectral_exp

PAULI_AXES = "IXYZ"

COEFFICIENT_THRESHOLD = 1e-15
MAX_FILE_BYTES = 64 * 1024  # a 6-qubit, 32-term expression takes under 2 KB

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"(?P<sep>[+-])?(?:(?P<coef>-?{_FLOAT})\*)?(?P<word>[IXYZ]+)")


@dataclass(frozen=True)
class PauliTerm:
    """One signed Pauli-string term, ``coefficient * sign * word``."""

    coefficient: float
    sign: int
    axes: str

    def __post_init__(self):
        if not (is_real(self.coefficient) and self.coefficient > 0):
            raise ValueError(f"coefficient must be finite and strictly positive, got {self.coefficient!r}")
        if isinstance(self.sign, bool) or self.sign not in (1, -1):  # True == 1, but a bool is no sign
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.axes or any(c not in PAULI_AXES for c in self.axes):
            raise ValueError(f"axes must be a nonempty word over {PAULI_AXES}, got {self.axes!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.axes)

    @property
    def masks(self) -> tuple[int, int]:
        """The word's (x, z) bit masks of ``pauli_tables``, qubit 0 the top bit: I, X, Y, Z set x bits 0110, z 0011."""
        return tuple(int(self.axes.translate(str.maketrans("IXYZ", bits)), 2) for bits in ("0110", "0011"))


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
        if not is_real(self.lam):
            raise LimitExceededError(f"coefficient 1-norm {self.lam:g} is not finite")

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

    @property
    def n_ancilla(self) -> int:
        """Ancilla qubits that label every term, the register padded to a power of two."""
        return (self.num_terms - 1).bit_length()

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of H, taken on first use and kept: one ``eigh`` per Hamiltonian."""
        return hermitian_eigen(hamiltonian_matrix(self))


@cache
def pauli_tables(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The one Pauli convention: read-only (phase, sign) tables over the (x, z) masks of n qubits.

    Per qubit I, X, Y, Z are (x, z) = (0,0), (1,0), (1,1), (0,1), qubit 0 the top bit, and with d = 2^n
    sigma_(x,z)[r, r ^ x] = phase[x, z] sign[r, z], where phase[x, z] = (-i)^|x & z| and sign[r, z] = (-1)^|r & z|.
    """
    z, x = np.arange(2**num_qubits), np.arange(2**num_qubits)[:, None]
    overlap = sum(((x & z) >> bit) & 1 for bit in range(num_qubits))
    tables = ((-1j) ** overlap, (-1.0) ** overlap)
    for table in tables:
        table.setflags(write=False)
    return tables


def term_matrix(term: PauliTerm) -> np.ndarray:
    """Dense matrix of the signed Pauli string (spectral norm 1), scattered from ``pauli_tables``."""
    (x, z), (phase, sign) = term.masks, pauli_tables(term.num_qubits)
    r, out = np.arange(len(sign)), np.zeros(sign.shape, dtype=complex)
    out[r, r ^ x] = term.sign * phase[x, z] * sign[:, z]
    return out


def hamiltonian_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of the full weighted sum."""
    return sum(term.coefficient * term_matrix(term) for term in h.terms)


def exact_evolution(h: PauliHamiltonian, t: float) -> np.ndarray:
    """The target unitary exp(-i * t * H) that every method is measured against, from ``h.spectrum``."""
    return spectral_exp(*h.spectrum, t)


def pauli_rotations(h: PauliHamiltonian, thetas) -> np.ndarray:
    """Rotations exp(-i theta_j H_j) = cos(theta_j) 1 - i sin(theta_j) H_j, stacked as (L, d, d).

    H_j is term j's signed Pauli string; the Zeno select blocks, qdrift samples and Trotter factors are these.
    """
    theta = np.asarray(thetas, dtype=float)[:, None, None]
    paulis = np.array([term_matrix(term) for term in h.terms])
    eye = np.eye(2**h.num_qubits, dtype=complex)
    return np.cos(theta) * eye - 1j * np.sin(theta) * paulis


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse one Hamiltonian expression.

    Each term is checked and merged as it is read: duplicate Pauli words are
    summed with their signs and keep their first-appearance position. Raises
    HamiltonianParseError on the first grammar violation and CancellationError
    when a merge cancels a term.
    """
    if text is None or not text.strip():
        raise HamiltonianParseError("empty Hamiltonian expression")
    compact = re.sub(r"\s+", "", text)

    merged: dict[str, float] = {}
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None:
            raise HamiltonianParseError(
                f"invalid character or malformed term at position {pos}: {compact[pos:pos + 12]!r}"
            )
        sep, coef_text, word = m.group("sep", "coef", "word")
        if not pos:
            num_qubits = len(word)
        elif sep is None:
            raise HamiltonianParseError(
                f"missing '+' or '-' between terms at position {pos}: {compact[pos:pos + 12]!r}"
            )
        value = (-1.0 if sep == "-" else 1.0) * (1.0 if coef_text is None else float(coef_text))
        if not math.isfinite(value):
            raise HamiltonianParseError(f"coefficient {coef_text} for term {word!r} is not finite")
        if abs(value) <= COEFFICIENT_THRESHOLD:
            raise HamiltonianParseError(
                f"coefficient magnitude {abs(value):g} for term {word!r} "
                f"is at or below the threshold {COEFFICIENT_THRESHOLD:g}"
            )
        if len(word) != num_qubits:
            raise HamiltonianParseError(f"mixed pauli-word lengths: expected {num_qubits} qubits, got {word!r}")
        merged[word] = merged.get(word, 0.0) + value
        pos = m.end()

    terms = []
    for word, value in merged.items():
        if not math.isfinite(value):
            raise HamiltonianParseError(f"terms with word {word!r} sum to a non-finite coefficient")
        if abs(value) <= COEFFICIENT_THRESHOLD:
            raise CancellationError(
                f"terms with word {word!r} cancel to {value:g}; remove them explicitly"
            )
        terms.append(PauliTerm(coefficient=abs(value), sign=1 if value > 0 else -1, axes=word))
    return PauliHamiltonian(num_qubits=num_qubits, terms=tuple(terms))


def to_text(h: PauliHamiltonian) -> str:
    """Render to the text format; parsing the result reproduces ``h`` exactly when ``h`` is what
    ``parse_hamiltonian`` returns. A term built directly with a coefficient at or below 1e-15 renders as text the
    parser rejects."""
    parts = []
    for i, term in enumerate(h.terms):
        body = f"{term.coefficient!r}*{term.axes}"
        if i == 0:
            parts.append(body if term.sign > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if term.sign > 0 else '-'} {body}")
    return " ".join(parts)


def load_hamiltonian(path) -> PauliHamiltonian:
    """Load and parse one Hamiltonian file; an unreadable path raises ConfigError."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_FILE_BYTES + 1)  # one byte over the cap marks a larger file
        if len(data) > MAX_FILE_BYTES:
            raise LimitExceededError(f"{path}: file exceeds the cap of {MAX_FILE_BYTES} bytes")
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HamiltonianParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {exc.filename or path}") from exc
    except IsADirectoryError as exc:
        raise ConfigError(f"is a directory, not a file: {exc.filename or path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {exc.filename or path}: {exc.strerror}") from exc
    body = " ".join(line.split("#", 1)[0] for line in raw.splitlines())
    if not body.strip():
        raise HamiltonianParseError(f"{path}: no Hamiltonian expression found")
    return parse_hamiltonian(body)
