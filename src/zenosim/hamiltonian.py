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
negate the term's sign. Terms with identical Pauli words are merged by signed
summation, and one scale-free rule applies: a merged coefficient whose
magnitude is at most ``COEFFICIENT_THRESHOLD`` (1e-15) times the largest
magnitude written for its word is a cancellation error rather than a silently
dropped term. So a single written term is rejected only when it is 0, any
nonzero finite magnitude (``5e-324*X``) parses, and a merge whose result rests
on the order of summation (``1e20*X - 1e20*X + 1*X``) is rejected. A
coefficient that is not finite, as written (``1e400``) or after merging, is a
parse error, and so is a written one with a nonzero digit that rounds to 0
(``1e-400``).

File format: UTF-8 text, at most ``MAX_FILE_BYTES`` bytes, holding one
expression; ``#`` starts a comment that runs to end of line; blank lines are
ignored. ``load_hamiltonian`` reads one such file.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .bounds import is_real
from .errors import CancellationError, ConfigError, HamiltonianParseError, LimitExceededError
from .linalg import hermitian_eigen, spectral_exp

PAULI_AXES = "IXYZ"

COEFFICIENT_THRESHOLD = 1e-15  # a merged coefficient at most this times its largest written magnitude has cancelled
MAX_FILE_BYTES = 64 * 1024  # a 6-qubit, 32-term expression takes under 2 KB

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"(?P<sep>[+-])?(?:(?P<coef>-?{_FLOAT})\*)?(?P<word>[IXYZ]+)")


@dataclass(frozen=True)
class PauliTerm:
    """One signed Pauli-string term, ``coefficient * sign * word``; the coefficient is kept as a float."""

    coefficient: float
    sign: int
    axes: str

    def __post_init__(self):
        if not (is_real(self.coefficient) and self.coefficient > 0):
            raise ValueError(f"coefficient must be finite and strictly positive, got {self.coefficient!r}")
        object.__setattr__(self, "coefficient", float(self.coefficient))
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
    """Sum of PauliTerm objects acting on a fixed number of qubits: the first term's, which every term must share."""

    num_qubits: int = field(init=False)
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a Hamiltonian needs at least one term")
        object.__setattr__(self, "num_qubits", self.terms[0].num_qubits)
        for term in self.terms[1:]:
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
    when a word's coefficients cancel (a lone 0 included), by the module's rule.
    """
    if text is None or not text.strip():
        raise HamiltonianParseError("empty Hamiltonian expression")
    compact = re.sub(r"\s+", "", text)

    merged: dict[str, tuple[float, float]] = {}  # word -> (signed sum, largest written magnitude)
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
        if not math.isfinite(value) or not value and re.match(r"-?[0.]*[1-9]", coef_text):  # a nonzero digit read as 0
            reading = "is not finite" if value else "rounds to 0"
            raise HamiltonianParseError(f"coefficient {coef_text} for term {word!r} {reading}")
        if len(word) != num_qubits:
            raise HamiltonianParseError(f"mixed pauli-word lengths: expected {num_qubits} qubits, got {word!r}")
        total, largest = merged.get(word, (0.0, 0.0))
        merged[word] = (total + value, max(largest, abs(value)))
        pos = m.end()

    terms = []
    for word, (value, largest) in merged.items():
        if not math.isfinite(value):
            raise HamiltonianParseError(f"terms with word {word!r} sum to a non-finite coefficient")
        if abs(value) <= COEFFICIENT_THRESHOLD * largest:
            raise CancellationError(
                f"terms with word {word!r} cancel to {value:g}, at most {COEFFICIENT_THRESHOLD:g} times their largest "
                f"magnitude {largest:g}; remove them explicitly"
            )
        terms.append(PauliTerm(coefficient=abs(value), sign=1 if value > 0 else -1, axes=word))
    return PauliHamiltonian(tuple(terms))


def to_text(h: PauliHamiltonian) -> str:
    """Render to the text format; parsing the result reproduces ``h`` exactly (``repr`` round-trips every float)."""
    text = " ".join(f"{'+' if term.sign > 0 else '-'} {term.coefficient!r}*{term.axes}" for term in h.terms)
    return text[2:] if text[0] == "+" else f"-{text[2:]}"  # the first sign binds to its term: "-0.5*Z + 1.0*X"


def path_text(path) -> str:
    """A str, bytes or ``os.PathLike`` path as a str; anything else (a file descriptor included) is a ConfigError."""
    try:
        return os.fsdecode(path)
    except TypeError as exc:
        raise ConfigError(f"a Hamiltonian path is a str, bytes or os.PathLike, not {path!r}") from exc


def load_hamiltonian(path) -> PauliHamiltonian:
    """Load and parse one Hamiltonian file; a path ``path_text`` rejects or one that cannot be read is a ConfigError."""
    path = path_text(path)
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_FILE_BYTES + 1)  # one byte over the cap marks a larger file
        if len(data) > MAX_FILE_BYTES:
            raise LimitExceededError(f"{path}: file exceeds the cap of {MAX_FILE_BYTES} bytes")
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HamiltonianParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except IsADirectoryError as exc:
        raise ConfigError(f"is a directory, not a file: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    body = " ".join(line.split("#", 1)[0] for line in raw.splitlines())
    if not body.strip():
        raise HamiltonianParseError(f"{path}: no Hamiltonian expression found")
    return parse_hamiltonian(body)
