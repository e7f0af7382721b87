"""The package's public names, each loaded from its module on first use."""

import importlib

import pytest

import omegalab

PUBLIC = {
    "elegant": ("CompressionReport", "ElegantVerdict", "compression_report", "find_elegant"),
    "enumerator": (
        "EnumState", "HaltRecord", "enumerate_programs", "extend", "load", "refine", "save",
    ),
    "omega": ("OmegaBound", "binary_expansion", "from_state", "kraft_check"),
    "reals": (
        "CoverReport", "DiagonalReal", "DigitStream", "borel_cover", "borel_strings",
        "diagonal", "digit_at",
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


def test_all_lists_the_public_names():
    assert len(NAMES) == 42
    assert sorted(omegalab.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_modules_own_object(module, name):
    home = importlib.import_module(f"omegalab.{module}")
    assert getattr(omegalab, name) is getattr(home, name)
    assert name in dir(omegalab)


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from omegalab import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(omegalab.__all__)
    assert namespace["run"] is omegalab.vm.run


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        omegalab.nonsense
    assert not hasattr(omegalab, "_scan_chunk")
    assert omegalab.__version__ == "0.1.0"
