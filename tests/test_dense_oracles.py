"""Dense matrices exist only as test oracles.

The package source is scanned for calls to the dense oracles, H_f
(``effective_channel_filtered``, and ``effective_channel``, which
dispatches to it) among them.  An oracle may call another
(``filter_matrix`` builds on ``block_toeplitz``, ``mmse`` solves
through ``_solve_spd``), but no other function, and no module-level
statement, may call one.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "afbm"

ORACLES = frozenset({
    "modulation_matrix", "filter_matrix", "channel_matrix",
    "block_toeplitz", "single_symbol_matrix", "mapping_matrix",
    "expansion_matrix", "mmse", "delta_matrix", "equalize_and_detect",
    "sir_conditioned", "_solve_spd", "effective_channel",
    "effective_channel_filtered",
})

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def oracle_calls(text: str) -> list[tuple[int, str, str]]:
    """(line, caller, oracle) of every oracle call in ``text`` outside
    an oracle's body; the caller of a module-level call is <module>."""
    found = []

    def visit(node, callers):
        if isinstance(node, FUNCTIONS):
            callers = callers + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ORACLES and ORACLES.isdisjoint(callers):
                found.append((node.lineno, callers[-1] if callers
                              else "<module>", name))
        for child in ast.iter_child_nodes(node):
            visit(child, callers)

    visit(ast.parse(text), ())
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_fast_path_calls_a_dense_oracle(path):
    assert oracle_calls(path.read_text()) == []


def test_the_scan_flags_a_caller_outside_the_oracles():
    text = (
        "def sir_waveform(modem):\n"
        "    S = modem.modulation_matrix()\n"
        "    return S\n"
        "def filter_matrix(self):\n"
        "    return block_toeplitz(self._taps, 16, 2)\n"
        "def outer():\n"
        "    def mmse(h):\n"
        "        return _solve_spd(h)\n"
        "    return mmse\n"
        "GRAM = channel_matrix(None)\n")
    assert oracle_calls(text) == [(2, "sir_waveform", "modulation_matrix"),
                                  (10, "<module>", "channel_matrix")]
