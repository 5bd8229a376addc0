"""The ceiling runner's verdicts on tiny children, and the checked-in ceiling instances."""

import sys

import numpy as np
import pytest
from ceiling import run
from conftest import ceiling_hamiltonian, random_hamiltonian


@pytest.mark.parametrize("code,exit_code,touch_mib,rss_mib,passed", [
    pytest.param(0, 0, 0, 100, True, id="clean"),
    pytest.param(4, 4, 0, None, True, id="expected-exit-4"),
    pytest.param(3, 0, 0, None, False, id="wrong-exit"),
    pytest.param(0, 0, 64, 40, False, id="over-rss-limit"),
])
def test_verdict(code, exit_code, touch_mib, rss_mib, passed):
    # The child writes every byte of a touch_mib buffer, so its pages count in its resident peak.
    argv = [sys.executable, "-c", f"import sys; b = b'x' * ({touch_mib} * 2**20); sys.exit({code})"]
    assert run(argv, exit_code, rss_mib)[0] is passed


@pytest.mark.parametrize("name,num_qubits", [("ceiling_5q32", 5), ("ceiling_6q32", 6)])
def test_checked_in_instance_is_the_generated_one(name, num_qubits):
    # Generator seed 0 at 32 terms made both files; every reference and tolerance in the tests was set on it.
    assert ceiling_hamiltonian(name).terms == random_hamiltonian(np.random.default_rng(0), 32, num_qubits).terms
