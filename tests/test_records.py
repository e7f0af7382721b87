"""Value semantics of every record type in the package.

Each record is an immutable value: it equals only an instance of its own
class with equal fields (never a tuple of them), hashes like its fields,
refuses assignment, prints as Class(field=value, ...) and survives a
pickle round trip. Defaults and constructor validation are checked too.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from omegalab.elegant import CompressionReport, ElegantVerdict
from omegalab.enumerator import EnumState, HaltRecord
from omegalab.omega import OmegaBound
from omegalab.reals import CoverInterval, CoverReport, DiagonalReal, DigitStream
from omegalab.theory import CheckResult, FrontierReport, Proof, Statement, Theory, Unprovable
from omegalab.vm import Halted, Instruction, InvalidProgram, LoopCert, Op, Program, Running

HALTS = Statement("halts", "1")
ELEGANT = Statement("elegant", "1")
INTERVAL = CoverInterval(1, Fraction(1, 2), Fraction(1, 8))

# Each record class with the field names and values of one instance, and
# another value for its first field.
RECORDS = [
    (Instruction, {"op": Op.DJZA, "offset": -2}, Op.DJZB),
    (Program, {"bits": "01001", "instructions": (Instruction(Op.EMIT0),)}, "01101"),
    (Halted, {"output": "", "steps": 0}, "0"),
    (Running, {"budget": 25}, 26),
    (LoopCert, {"program": "0101110010", "revisit_step": 2, "state": (0, 1, 0)}, "1"),
    (HaltRecord, {"program": "1", "output": "", "steps": 0}, "01001"),
    (
        EnumState,
        {
            "max_len_done": 1,
            "budget": 10,
            "records": (HaltRecord("1", "", 0),),
            "pending": (),
        },
        2,
    ),
    (OmegaBound, {"value": Fraction(1, 2), "source": (1, 10)}, Fraction(1, 4)),
    (
        ElegantVerdict,
        {
            "target": "0",
            "witnesses": ("01001",),
            "certified": False,
            "search_bounds": (5, 10),
            "unresolved": ("0101110010",),
        },
        "1",
    ),
    (
        CompressionReport,
        {
            "facts": "0",
            "baseline_bits": 5,
            "best_bits": 5,
            "ratio": Fraction(1),
            "best_program": "01001",
        },
        "1",
    ),
    (DigitStream, {"program": "1"}, "01001"),
    (DiagonalReal, {"digits": (5, 6), "verified": (True, False)}, (6, 6)),
    (
        CoverInterval,
        {"index": 1, "center": Fraction(1, 2), "halfwidth": Fraction(1, 8)},
        2,
    ),
    (
        CoverReport,
        {"epsilon": Fraction(1, 4), "intervals": (INTERVAL,), "total_length": Fraction(1, 8)},
        Fraction(1, 2),
    ),
    (Statement, {"kind": "halts", "program": "01001", "output": None}, "loops"),
    (Theory, {"facts": (HALTS,)}, ()),
    (Proof, {"goal": HALTS, "rule": "FACT", "premises": ()}, ELEGANT),
    (Unprovable, {"goal": ELEGANT, "missing": ("1",)}, HALTS),
    (CheckResult, {"ok": False, "reason": "unknown rule 'X'"}, True),
    (FrontierReport, {"theory_bits": 8, "frontier": 1, "proven": ("1",)}, 16),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def both(cls, fields):
    """Two distinct but equal instances, one built by position, one by keyword."""
    return cls(*fields.values()), cls(**fields)


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(cls, fields, other):
    a, b = both(cls, fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert b in frozenset({a}) and b in {a: 1}


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_a_record_equals_no_tuple_and_no_other_class(cls, fields, other):
    a, _ = both(cls, fields)
    values = tuple(fields.values())
    assert a != values and values != a
    if len(values) == 1:
        assert a != values[0]
    subclass = type("Lookalike", (cls,), {})
    assert a != subclass(*values) and subclass(*values) != a


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_a_different_field_makes_a_different_record(cls, fields, other):
    a, _ = both(cls, fields)
    first = next(iter(fields))
    changed = cls(**{**fields, first: other})
    assert changed != a and a != changed
    assert changed not in frozenset({a})


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, other):
    a, _ = both(cls, fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, other):
    a, _ = both(cls, fields)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_records_pickle_and_copy(cls, fields, other):
    a, _ = both(cls, fields)
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a


def test_defaults():
    assert Instruction(Op.HALT).offset is None
    assert ElegantVerdict("0", ("01001",), True, (5, 10)).unresolved == ()
    assert CheckResult(True).reason is None
    assert Theory().facts == ()
    assert Statement("halts", "1").output is None


def test_equality_is_not_tuple_equality():
    assert Halted("", 0) != ("", 0)
    assert HaltRecord("1", "", 0) != ("1", "", 0)
    assert Running(25) != 25
    assert Halted("", 0) != Running(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Instruction(Op.HALT, 1),
        lambda: Instruction(Op.DJZB),
        lambda: Statement("sings", "1"),
        lambda: Statement("halts", ""),
        lambda: Statement("halts", "12"),
        lambda: Statement("halts", "1", "0"),
        lambda: Statement("outputs", "1"),
        lambda: Statement("outputs", "1", "2"),
        lambda: DigitStream("10"),
    ],
)
def test_constructors_validate(build):
    with pytest.raises(ValueError):
        build()


def test_digit_stream_rejects_a_non_program_with_its_reason():
    with pytest.raises(InvalidProgram, match="Leftover"):
        DigitStream("10")


def test_constructors_take_only_their_fields():
    with pytest.raises(TypeError):
        Halted("")
    with pytest.raises(TypeError):
        Halted("", 0, 1)
    with pytest.raises(TypeError):
        Running(budget=1, steps=2)
