"""omegalab: program-size experiments on a fixed prefix-free toy machine.

One bit-exact machine, and on top of it: exhaustive program enumeration
with resumable checkpoints, exact lower bounds on the machine's halting
probability, search for size-minimal (elegant) programs, a toy formal
theory measured in bits, and computable-real demonstrations (diagonal
reals, measure-zero covers, oracle digits over a question language).

Each module is its own API (`vm`, `enumerator`, `omega`, `elegant`,
`theory`, `reals`, `cli`), as in ``from omegalab.vm import run, classify``.
Importing the package loads none of them; a CLI call loads those it runs.
"""

__version__ = "0.1.0"
