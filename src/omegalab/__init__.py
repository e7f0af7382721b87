"""omegalab: program-size experiments on a fixed prefix-free toy machine.

One bit-exact machine, and on top of it: exhaustive program enumeration
with resumable checkpoints, exact lower bounds on the machine's halting
probability, search for size-minimal (elegant) programs, a toy formal
theory measured in bits, and computable-real demonstrations (diagonal
reals, measure-zero covers, oracle digits over a question language).
"""

from .elegant import CompressionReport, ElegantVerdict, compression_report, find_elegant
from .enumerator import (
    EnumState,
    HaltRecord,
    enumerate_programs,
    extend,
    load,
    refine,
    save,
)
from .omega import OmegaBound, binary_expansion, from_state, kraft_check
from .reals import (
    CoverReport,
    DiagonalReal,
    DigitStream,
    borel_cover,
    borel_strings,
    diagonal,
    digit_at,
)
from .theory import (
    Proof,
    Statement,
    Theory,
    Unprovable,
    certify_run_axioms,
    check_proof,
    elegance_frontier,
    parse_statement,
    prove,
)
from .vm import (
    Halted,
    Instruction,
    InvalidProgram,
    LoopCert,
    Op,
    Program,
    Running,
    decode,
    gamma_encode,
    literal_program,
    run,
)

__version__ = "0.1.0"
