"""Parser grammar, term algebra, and the dense Hamiltonian builder."""

import functools
import itertools
import math

import numpy as np
import pytest
from conftest import ceiling_hamiltonian, random_hamiltonian

from zenosim import (
    CancellationError,
    HamiltonianParseError,
    LimitExceededError,
    hamiltonian_matrix,
    load_hamiltonian,
    matexp_hermitian,
    parse_hamiltonian,
    spectral_norm,
    term_matrix,
    to_text,
)
from zenosim.hamiltonian import PauliHamiltonian, PauliTerm, pauli_rotations, pauli_tables

# The 2 x 2 Paulis as literals, independent of the package's (x, z) tables.
PAULIS = {"I": [[1, 0], [0, 1]], "X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}


def pauli_word_by_kron(word, sign):
    """Oracle: the kron of the literal 2 x 2 Paulis, first letter the most significant qubit."""
    return sign * functools.reduce(np.kron, [np.array(PAULIS[c], dtype=complex) for c in word])


def pauli_word_oracle(word, sign):
    """Independent dense Pauli-string builder using bit arithmetic.

    Qubit 0 is the leftmost letter and the most significant bit. Each row
    has exactly one nonzero entry, at the column obtained by flipping the
    X/Y bits, with a phase accumulated per letter.
    """
    n = len(word)
    dim = 2**n
    flip = 0
    for q, c in enumerate(word):
        if c in "XY":
            flip |= 1 << (n - 1 - q)
    mat = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        amp = complex(sign)
        for q, c in enumerate(word):
            bit = (row >> (n - 1 - q)) & 1
            if c == "Y":
                amp *= 1j * (2 * bit - 1)
            elif c == "Z":
                amp *= 1 - 2 * bit
        mat[row, row ^ flip] = amp
    return mat


class TestParseExamples:
    def test_single_term(self):
        h = parse_hamiltonian("0.5*Z")
        assert h.num_terms == 1
        assert h.num_qubits == 1
        assert h.terms[0].coefficient == 0.5
        assert h.terms[0].sign == 1
        assert h.lam == 0.5

    def test_two_qubit_sum(self):
        h = parse_hamiltonian("0.6*XI + 0.4*IZ")
        assert h.num_terms == 2
        assert h.num_qubits == 2
        assert h.lam == pytest.approx(1.0)

    def test_negative_coefficient_folds_into_sign(self):
        h = parse_hamiltonian("-0.3*Y")
        term = h.terms[0]
        assert term.coefficient == 0.3
        assert term.sign == -1
        assert h.lam == 0.3

    def test_mixed_word_lengths_rejected(self):
        with pytest.raises(HamiltonianParseError, match="mixed"):
            parse_hamiltonian("0.5*XZ + 0.2*X")

    def test_bare_word_coefficient_one(self):
        h = parse_hamiltonian("X + Z")
        assert [t.coefficient for t in h.terms] == [1.0, 1.0]

    def test_whitespace_insignificant(self):
        a = parse_hamiltonian("0.5 * X Z\t+ 0.5*ZX")
        b = parse_hamiltonian("0.5*XZ+0.5*ZX")
        assert a == b

    def test_negative_decimal_after_separator(self):
        h = parse_hamiltonian("0.5*X + -0.3*Y")
        assert h.terms[1].sign == -1
        assert h.terms[1].coefficient == 0.3

    def test_scientific_notation(self):
        h = parse_hamiltonian("2.5e-1*X")
        assert h.terms[0].coefficient == 0.25


class TestParseErrors:
    @pytest.mark.parametrize("text", ["", "   ", "\n\t"])
    def test_empty_input(self, text):
        with pytest.raises(HamiltonianParseError, match="empty"):
            parse_hamiltonian(text)

    @pytest.mark.parametrize("text", ["0.5*A", "0.5*XQ", "0.5X", "0.5*", "*X", "0.5**X"])
    def test_invalid_syntax(self, text):
        with pytest.raises(HamiltonianParseError):
            parse_hamiltonian(text)

    def test_missing_separator(self):
        with pytest.raises(HamiltonianParseError, match="missing"):
            parse_hamiltonian("0.5*X 0.4*Z")

    @pytest.mark.parametrize("text", ["0.0*X", "1e-20*X", "0*X + 0.5*Z", "1e-16*X + 1e-16*Z"])
    def test_subthreshold_coefficient(self, text):
        with pytest.raises(HamiltonianParseError, match="threshold"):
            parse_hamiltonian(text)

    @pytest.mark.parametrize("text", ["1e400*X + 0.5*Z", "1e308*X + 1e308*X + 0.5*Z"])
    def test_non_finite_coefficient(self, text):
        with pytest.raises(HamiltonianParseError, match="finite"):
            parse_hamiltonian(text)

    def test_coefficient_one_norm_must_be_finite(self):
        # Each coefficient is finite, but lam = 2e308 is not; before, run_zeno and run_kicks on it ended in
        # "math domain error".
        with pytest.raises(LimitExceededError, match="^coefficient 1-norm inf is not finite$") as caught:
            parse_hamiltonian("1e308*X + 1e308*Z")
        assert isinstance(caught.value, ValueError)

    def test_exact_cancellation_is_distinct_error(self):
        with pytest.raises(CancellationError):
            parse_hamiltonian("0.5*X - 0.5*X")

    def test_cancellation_is_a_parse_error_subclass(self):
        with pytest.raises(HamiltonianParseError):
            parse_hamiltonian("0.5*XZ - 0.5*XZ + 0.1*II")


class TestConstructorChecks:
    @pytest.mark.parametrize("coefficient", [0.0, -0.5, math.nan, math.inf, True])
    def test_term_coefficient_must_be_finite_and_positive(self, coefficient):
        # Before, inf and True built a term.
        with pytest.raises(ValueError, match="^coefficient must be finite and strictly positive"):
            PauliTerm(coefficient, 1, "X")

    @pytest.mark.parametrize("sign", [0, 2, -1.5, True])
    def test_term_sign_must_be_plus_or_minus_one(self, sign):
        # Before, True built a term: True == 1.
        with pytest.raises(ValueError, match="^sign must be \\+1 or -1"):
            PauliTerm(1.0, sign, "X")

    @pytest.mark.parametrize("axes", ["", "XA", "x"])
    def test_term_word_must_be_a_pauli_word(self, axes):
        with pytest.raises(ValueError, match="^axes must be a nonempty word over IXYZ"):
            PauliTerm(1.0, 1, axes)

    @pytest.mark.parametrize("num_qubits,words,message", [
        (1, [], "^a Hamiltonian needs at least one term$"),
        (1, ["X", "XZ"], "^term 'XZ' acts on 2 qubits, expected 1$"),
        (1, ["X", "X"], "^duplicate Pauli words must be merged before construction$"),
    ])
    def test_hamiltonian_terms_checked(self, num_qubits, words, message):
        with pytest.raises(ValueError, match=message):
            PauliHamiltonian(num_qubits, tuple(PauliTerm(0.5, 1, word) for word in words))


class TestMerging:
    def test_same_sign_duplicates_sum(self):
        h = parse_hamiltonian("0.3*X + 0.4*X")
        assert h.num_terms == 1
        assert h.terms[0].coefficient == pytest.approx(0.7)

    def test_opposite_sign_partial_cancellation(self):
        h = parse_hamiltonian("0.5*X - 0.2*X")
        assert h.terms[0].coefficient == pytest.approx(0.3)
        assert h.terms[0].sign == 1

    def test_merge_can_flip_sign(self):
        h = parse_hamiltonian("0.2*X - 0.5*X")
        assert h.terms[0].coefficient == pytest.approx(0.3)
        assert h.terms[0].sign == -1

    def test_first_appearance_order_kept(self):
        h = parse_hamiltonian("0.1*Z + 0.2*X + 0.3*Z")
        assert [t.axes for t in h.terms] == ["Z", "X"]


class TestTermMatrix:
    def test_z(self):
        term = PauliTerm(coefficient=1.0, sign=1, axes="Z")
        assert np.array_equal(term_matrix(term), np.diag([1.0, -1.0]).astype(complex))

    def test_negative_x(self):
        term = PauliTerm(coefficient=1.0, sign=-1, axes="X")
        assert np.array_equal(term_matrix(term), np.array([[0, -1], [-1, 0]], dtype=complex))

    def test_xz_kronecker(self):
        term = PauliTerm(coefficient=1.0, sign=1, axes="XZ")
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1.0, -1.0])
        assert np.array_equal(term_matrix(term), np.kron(x, z).astype(complex))

    @pytest.mark.parametrize("word", ["X", "Y", "ZZ", "XY", "IZX", "YXZI"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_against_bit_oracle(self, word, sign):
        term = PauliTerm(coefficient=1.0, sign=sign, axes=word)
        np.testing.assert_allclose(term_matrix(term), pauli_word_oracle(word, sign), atol=1e-15)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_every_word_equals_kron_of_literal_paulis(self, num_qubits):
        for word in map("".join, itertools.product("IXYZ", repeat=num_qubits)):
            for sign in (1, -1):
                term = PauliTerm(coefficient=1.0, sign=sign, axes=word)
                assert np.array_equal(term_matrix(term), pauli_word_by_kron(word, sign)), (word, sign)

    def test_ceiling_words_equal_kron_of_literal_paulis(self):
        h = ceiling_hamiltonian("ceiling_6q32")
        assert h.num_terms == 32
        for term in h.terms:
            assert np.array_equal(term_matrix(term), pauli_word_by_kron(term.axes, term.sign)), term.axes

    def test_involution_and_hermiticity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            sign = int(rng.choice([1, -1]))
            m = term_matrix(PauliTerm(coefficient=1.0, sign=sign, axes=word))
            assert np.max(np.abs(m - m.conj().T)) < 1e-14
            assert np.max(np.abs(m @ m - np.eye(2**n))) < 1e-14


class TestPauliTables:
    @pytest.mark.parametrize("num_qubits", [1, 3])
    def test_every_table_rejects_writes(self, num_qubits):
        for table in pauli_tables(num_qubits):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = table[0, 1]

    def test_tables_are_built_once_per_size(self):
        assert pauli_tables(2) is pauli_tables(2)

    def test_masks_put_qubit_0_on_the_top_bit(self):
        assert PauliTerm(coefficient=1.0, sign=1, axes="XIZY").masks == (0b1001, 0b0011)
        assert PauliTerm(coefficient=1.0, sign=1, axes="IIII").masks == (0, 0)


class TestPauliRotations:
    def test_each_slice_is_the_term_exponential(self):
        h = random_hamiltonian(np.random.default_rng(3), 6, 3)
        thetas = np.random.default_rng(4).uniform(-2.0, 2.0, h.num_terms)
        rotations = pauli_rotations(h, thetas)
        assert rotations.shape == (h.num_terms, 8, 8)
        for term, theta, rotation in zip(h.terms, thetas, rotations):
            expected = matexp_hermitian(theta * term_matrix(term), 1.0)
            assert np.max(np.abs(rotation - expected)) < 1e-12

    def test_zero_angle_is_identity(self):
        h = parse_hamiltonian("0.4*XZ - 0.35*YI + 0.25*ZY")
        for rotation in pauli_rotations(h, np.zeros(h.num_terms)):
            np.testing.assert_array_equal(rotation, np.eye(4))


class TestHamiltonianMatrix:
    def test_half_z(self):
        h = parse_hamiltonian("0.5*Z")
        np.testing.assert_allclose(hamiltonian_matrix(h), np.diag([0.5, -0.5]), atol=1e-15)

    def test_x_plus_z(self):
        h = parse_hamiltonian("0.5*X + 0.5*Z")
        np.testing.assert_allclose(
            hamiltonian_matrix(h), np.array([[0.5, 0.5], [0.5, -0.5]]), atol=1e-15
        )

    def test_random_instance_matches_resummation_oracle(self):
        h = parse_hamiltonian("0.4*XZ - 0.35*YI + 0.25*ZY")
        expected = (
            0.4 * pauli_word_oracle("XZ", 1)
            - 0.35 * pauli_word_oracle("YI", 1)
            + 0.25 * pauli_word_oracle("ZY", 1)
        )
        np.testing.assert_allclose(hamiltonian_matrix(h), expected, atol=1e-14)

    def test_norm_at_most_lam(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hamiltonian(rng, int(rng.integers(1, 6)), 2)
            assert spectral_norm(hamiltonian_matrix(h)) <= h.lam + 1e-10


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "0.5*Z",
            "0.6*XI + 0.4*IZ - 0.1*YY",
            "-0.3*Y + 0.7*X",
            "1e-3*XX + 0.999*ZZ",
        ],
    )
    def test_serialize_then_parse_is_identity(self, text):
        h = parse_hamiltonian(text)
        assert parse_hamiltonian(to_text(h)) == h

    def test_subthreshold_term_built_directly_does_not_round_trip(self):
        # The round trip holds for what the parser returns; a term it would reject renders as text it rejects.
        h = PauliHamiltonian(1, (PauliTerm(1e-20, 1, "X"),))
        with pytest.raises(HamiltonianParseError, match="threshold"):
            parse_hamiltonian(to_text(h))


class TestFileLoading:
    def test_comments_and_blank_lines(self, hfile):
        path = hfile("# two-term instance\n0.6*X +  # inline note\n\n0.4*Z\n")
        h = load_hamiltonian(path)
        assert h.num_terms == 2
        assert h.lam == pytest.approx(1.0)

    @pytest.mark.parametrize("text", ["-Z", "-0.5*Z + X"])
    def test_leading_minus_loads_as_its_text(self, hfile, text):
        assert load_hamiltonian(hfile(text)) == parse_hamiltonian(text)

    def test_comment_only_file_rejected(self, hfile):
        path = hfile("# nothing here\n\n")
        with pytest.raises(HamiltonianParseError, match="no Hamiltonian"):
            load_hamiltonian(path)
