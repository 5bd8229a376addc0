import numpy as np
import pytest
from ceiling import FILES as CEILING_FILES

from zenosim import build_extended, hamiltonian_matrix, load_hamiltonian, parse_hamiltonian

TWO_TERM = "0.6*X + 0.4*Z"
THREE_TERM = "0.5*X + 0.3*Z + 0.2*Y"
TWO_QUBIT = "0.5*XZ + 0.3*ZI + 0.2*IY"
SINGLE_TERM = "0.7*Z"


@pytest.fixture(scope="session")
def h2():
    return parse_hamiltonian(TWO_TERM)


@pytest.fixture(scope="session")
def h3():
    return parse_hamiltonian(THREE_TERM)


@pytest.fixture(scope="session")
def h2q():
    return parse_hamiltonian(TWO_QUBIT)


@pytest.fixture(scope="session")
def h1():
    return parse_hamiltonian(SINGLE_TERM)


@pytest.fixture(scope="session")
def sys2(h2):
    return build_extended(h2)


@pytest.fixture(scope="session")
def sys3_mub(h3):
    return build_extended(h3, "mub")


def eigh_calls_on(monkeypatch, h):
    """A list that gains one entry for each numpy.linalg.eigh call on the matrix of ``h``, wherever it is made."""
    matrix, eigh, calls = hamiltonian_matrix(h), np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        if np.shape(a) == matrix.shape and np.array_equal(a, matrix):
            calls.append(matrix.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def hfile(tmp_path):
    """Write a Hamiltonian expression to a temp file and return its path."""

    def write(text, name="h.txt"):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return write


def ceiling_hamiltonian(name):
    """The ceiling instance ``name`` of ``tests/ceiling.json``, loaded afresh so no two callers share a spectrum."""
    return load_hamiltonian(CEILING_FILES[name])


def random_hamiltonian(rng, num_terms, num_qubits):
    """Random instance with positive weights and distinct signed Pauli words."""
    if num_terms > 4**num_qubits - 1:
        raise ValueError(f"only {4**num_qubits - 1} distinct words exist on {num_qubits} qubits")
    words = set()
    while len(words) < num_terms:
        word = "".join(rng.choice(list("IXYZ")) for _ in range(num_qubits))
        if word != "I" * num_qubits:
            words.add(word)
    parts = []
    for word in sorted(words):
        coeff = float(rng.uniform(0.1, 1.0))
        sign = "-" if rng.random() < 0.5 else ""
        parts.append(f"{sign}{coeff:.6f}*{word}")
    return parse_hamiltonian(" + ".join(parts))
