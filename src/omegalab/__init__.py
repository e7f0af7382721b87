"""omegalab: program-size experiments on a fixed prefix-free toy machine.

One bit-exact machine, and on top of it: exhaustive program enumeration
with resumable checkpoints, exact lower bounds on the machine's halting
probability, search for size-minimal (elegant) programs, a toy formal
theory measured in bits, and computable-real demonstrations (diagonal
reals, measure-zero covers, oracle digits over a question language).

The public names below are imported from their modules on first use
(PEP 562), so importing the package, and `python -m omegalab`, loads no
layer that the caller does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "elegant": "CompressionReport ElegantVerdict compression_report find_elegant",
    "enumerator": "EnumState HaltRecord enumerate_programs extend load refine save",
    "omega": "OmegaBound binary_expansion from_state kraft_check",
    "reals": "CoverReport DiagonalReal DigitStream borel_cover borel_strings diagonal digit_at",
    "theory": "Proof Statement Theory Unprovable certify_run_axioms check_proof"
    " elegance_frontier parse_statement prove",
    "vm": "Halted Instruction InvalidProgram LoopCert Op Program Running decode gamma_encode"
    " literal_program run",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
