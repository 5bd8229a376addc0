"""High-precision references for the standard-projector sequences (tests only).

For the standard projector the step A(dt) = cos(theta) - i sin(theta) H / lam
is a function of H (theta = lam dt), so on the eigenvector psi_j of H it is
the scalar mu_j = cos(theta) - i a_j sin(theta) with a_j = E_j / lam (zeno1),
or 2 A(dt/2)^2 - A(dt), which is 1 - a_j^2 (1 - cos(theta)) - i a_j sin(theta)
(zeno2). The step is normal, so

    error   = max_j |mu_j^N - exp(-i E_j t)|,
    p_succ  = sum_j |<psi_j|psi0>|^2 |mu_j|^(2N).

This module evaluates both in 40-digit mpmath arithmetic, with the spectrum
of H from ``mpmath.eighe`` and lam the exact sum of the parsed (binary)
coefficients. ``python tests/zeno_references.py`` (with ``src`` on
PYTHONPATH) rewrites ``zeno_references.json``: the golden zeno1/zeno2 points
and the 6-qubit, 32-term zeno2 point at the step cap. The tests read the
JSON, so they need no mpmath.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "zeno_references.json"
GOLDEN_INSTANCES = ("two_term", "three_term", "tfim_three_qubit")
GOLDEN_STEPS = (10, 20, 40, 80, 100, 160, 1000)  # the JSON sweeps, and the sampled and compare step counts
DIGITS = 40


def _hamiltonian_matrix(h, mp):
    """H as an mpmath matrix, each coefficient taken exactly from its binary value."""
    paulis = {
        "I": [[1, 0], [0, 1]],
        "X": [[0, 1], [1, 0]],
        "Y": [[0, -1j], [1j, 0]],
        "Z": [[1, 0], [0, -1]],
    }
    dim = 2**h.num_qubits
    out = mp.zeros(dim, dim)
    for term in h.terms:
        weight = mp.mpf(term.coefficient) * term.sign
        for row in range(dim):
            for col in range(dim):
                entry = mp.mpc(1)
                for q, axis in enumerate(term.axes):
                    shift = h.num_qubits - 1 - q
                    entry *= paulis[axis][(row >> shift) & 1][(col >> shift) & 1]
                    if entry == 0:
                        break
                out[row, col] += weight * entry
    return out


def reference(h, order, t, n, psi_indices=(0,)):
    """(error, [p_succ for each basis state in psi_indices]) as mpmath numbers."""
    import mpmath as mp

    mp.mp.dps = DIGITS
    energies, vectors = mp.eighe(_hamiltonian_matrix(h, mp))
    lam = mp.fsum(mp.mpf(term.coefficient) for term in h.terms)
    t = mp.mpf(t)
    theta = lam * t / n
    mus = []
    for energy in energies:
        a = energy / lam
        if order == 1:
            mus.append(mp.cos(theta) - 1j * a * mp.sin(theta))
        else:
            mus.append(1 - a * a * (1 - mp.cos(theta)) - 1j * a * mp.sin(theta))
    error = max(abs(mu**n - mp.expj(-energy * t)) for mu, energy in zip(mus, energies))
    successes = [
        mp.fsum(abs(vectors[index, j]) ** 2 * abs(mu) ** (2 * n) for j, mu in enumerate(mus))
        for index in psi_indices
    ]
    return error, successes


def main():
    import mpmath as mp
    from conftest import ceiling_hamiltonian

    from zenosim import load_hamiltonian

    table = {}
    for name in GOLDEN_INSTANCES:
        h = load_hamiltonian(HERE.parent / "demos" / "hamiltonians" / f"{name}.txt")
        for order in (1, 2):
            for n in GOLDEN_STEPS:
                error, successes = reference(h, order, 1, n, psi_indices=(0, 1))
                table[f"{name} zeno{order} {n}"] = {
                    "epsilon": mp.nstr(error, 20, min_fixed=1, max_fixed=0),
                    "p_succ": [mp.nstr(p, 20, min_fixed=1, max_fixed=0) for p in successes],
                }
    error, successes = reference(ceiling_hamiltonian("ceiling_6q32"), 2, 1, 10**6)
    table["ceiling_6q32 zeno2 1000000"] = {
        "epsilon": mp.nstr(error, 20, min_fixed=1, max_fixed=0),
        "p_succ": [mp.nstr(successes[0], 20, min_fixed=1, max_fixed=0)],
    }
    REFERENCES.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
