"""Each module is its own public API: the names it documents are defined there,
and the package itself re-exports none of them."""

import importlib

import pytest

import omegalab

PUBLIC = {
    "elegant": ("CompressionReport", "ElegantVerdict", "compression_report", "find_elegant"),
    "enumerator": (
        "EnumState", "Extension", "HaltRecord", "Tally", "enumerate_programs", "extend", "load",
        "refine", "save", "tally",
    ),
    "omega": ("OmegaBound", "binary_expansion", "from_state", "from_tally"),
    "reals": (
        "CoverReport", "DiagonalReal", "DigitStream", "borel_cover", "borel_report",
        "borel_strings", "diagonal", "digit_at",
    ),
    "theory": (
        "Proof", "Statement", "Theory", "Unprovable", "certify_run_axioms", "check_proof",
        "elegance_frontier", "parse_statement", "prove",
    ),
    "vm": (
        "Halted", "Instruction", "InvalidProgram", "LoopCert", "Op", "Program", "Running",
        "decode", "gamma_encode", "literal_program", "run",
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_modules_own_object(module, name):
    home = importlib.import_module(f"omegalab.{module}")
    assert getattr(home, name).__module__ == home.__name__
    assert not hasattr(omegalab, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        omegalab.nonsense
    assert not hasattr(omegalab, "_scan_chunk")
    assert omegalab.__version__ == "0.1.0"
