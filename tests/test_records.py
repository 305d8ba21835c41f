"""The public record types: keyword construction, equality, hashing,
immutability and repr, field by field in constructor order."""

from fractions import Fraction as F

import pytest

from momentkit.alternating import CABackwardResult, CAExtensionVerdict, CAMeasure
from momentkit.backward import ExtensionClass, ExtensionVerdict
from momentkit.completion import (CompletionCertificate, FlatnessVerdict, ProbeReport,
                                  SolveOutcome, SolveStatus)
from momentkit.extremal import ExtremalBounds
from momentkit.measure import AtomicMeasure, MomentSequence
from momentkit.numeric import Polynomial
from momentkit.oracle import OracleConfig
from momentkit.positivity import (Compact, HalfOpen, PositivityClass, PositivityVerdict, Ray,
                                  StampfliVerdict)
from momentkit.principal import MinimalRayFamily
from momentkit.tree import (BoundednessVerdict, BranchClass, FullBranch, FullWeights, ListTail,
                            PartialWeights, TreeShape)

# field values as the constructor stores them, so that the repr reads them back
_MU = AtomicMeasure([(F(1, 2), F(3))])
_BRANCH = BranchClass(first_mass=F(1, 2), tail_sq=(F(2),), count=1)
_PARTIAL = PartialWeights(trunk_sq=(F(2),), classes=(_BRANCH,), p=2)
_FULL = FullWeights(trunk_sq=(F(2),), classes=(FullBranch(F(1, 2), ListTail([F(2)]), 1),))

#: (class, its fields by keyword in constructor order, frozen)
RECORDS = [
    (Polynomial, {"coeffs": (F(-1), F(1))}, True),
    (AtomicMeasure, {"atoms": ((F(1, 2), F(3)),), "exact": True}, True),
    (MomentSequence, {"first_index": -1, "values": (F(1), F(2))}, True),
    (Compact, {"a": F(1, 2), "b": 4}, True),
    (Ray, {}, True),
    (HalfOpen, {}, True),
    (PositivityVerdict, {"kind": PositivityClass.SINGULARLY_POSITIVE, "interval": (1, 2),
                         "support": Polynomial([-1, 1])}, True),
    (StampfliVerdict, {"holds": True, "lhs": F(5), "rhs": F(4)}, True),
    (MinimalRayFamily, {"sequence": (1, 2, 5, 14)}, False),
    (ExtremalBounds, {"t_lo": F(1), "t_hi": F(2), "attained_lo": _MU, "attained_hi": None},
     True),
    (ExtensionVerdict, {"kind": ExtensionClass.SINGULAR, "threshold": F(2), "measure": _MU},
     True),
    (CAMeasure, {"zero_mass": F(1, 2), "positive": _MU}, True),
    (CAExtensionVerdict, {"has_extension": True, "measure": CAMeasure(0, _MU),
                          "increment_class": PositivityClass.STRICTLY_POSITIVE,
                          "poly": Polynomial([F(-1, 2), 1])}, True),
    (CABackwardResult, {"ok": False, "rho": None, "violated": "increments"}, True),
    (TreeShape, {"eta": 2, "kappa": 1}, True),
    (BranchClass, {"first_mass": F(1, 2), "tail_sq": (F(2),), "count": None}, True),
    (PartialWeights, {"trunk_sq": (F(2),), "classes": (_BRANCH,), "p": 2}, True),
    (FullBranch, {"first_mass": F(1, 2), "generator": ListTail([F(2)]), "count": 1}, True),
    (FullWeights, {"trunk_sq": (F(2),), "classes": _FULL.classes, "kappa_infinite": True},
     True),
    (BoundednessVerdict, {"bounded": True, "norm_sq_bound": F(3)}, True),
    (CompletionCertificate, {"kind": "subnormal", "partial": _PARTIAL, "K": (2,),
                             "sequences": (), "measures": (_MU,), "full": _FULL,
                             "norm_sq": F(3), "root_measure": None}, False),
    (SolveOutcome, {"status": SolveStatus.INFEASIBLE, "certificate": None,
                    "reason": "level 0", "details": {"levels": 1}}, False),
    (ProbeReport, {"verdict": "Infeasible", "per_kappa": ((0, "Infeasible", None),),
                   "uniform_norm_sq": None, "stopped_at": 0}, False),
    (FlatnessVerdict, {"two_flat": False, "witness": (2, 3, F(1), F(2))}, True),
    (OracleConfig, {"trials": 3, "atoms_min": 1, "atoms_max": 2, "position_num_max": 5,
                    "position_den_max": 3, "mass_num_max": 4, "mass_den_max": 2, "seed": 7,
                    "resolution": 90, "grid_q": 4, "half_open": True}, True),
]


@pytest.mark.parametrize("cls, fields, frozen", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_behaviour(cls, fields, frozen):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    if frozen:
        assert hash(cls(**fields)) == hash(record)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    else:
        with pytest.raises(TypeError):
            hash(record)
        name = next(iter(fields))
        setattr(record, name, None)
        assert getattr(record, name) is None and record != cls(**fields)


def test_records_of_different_classes_or_fields_differ():
    assert Ray() != HalfOpen() and Ray() == Ray() and hash(Ray()) == hash(Ray())
    assert Compact(1, 2) != Compact(1, 3)
    assert PositivityVerdict(PositivityClass.STRICTLY_POSITIVE) != PositivityVerdict(
        PositivityClass.STRICTLY_POSITIVE, (1, 2))


def test_defaults():
    assert PositivityVerdict(PositivityClass.NOT_POSITIVE) == PositivityVerdict(
        PositivityClass.NOT_POSITIVE, None, None)
    assert AtomicMeasure([]).exact is True and BranchClass(1).count == 1
    assert FullWeights((), ()).kappa_infinite is False
    assert OracleConfig() == OracleConfig(100, 1, 4, 24, 12, 12, 8, 0, 900, 10, False)
    # every outcome gets its own details dict
    first, second = SolveOutcome(SolveStatus.UNKNOWN), SolveOutcome(SolveStatus.UNKNOWN)
    assert first.details == {} and first.details is not second.details


def test_first_mass_total_is_read_once_and_is_no_field():
    assert _PARTIAL.first_mass_total == F(1, 2) and _FULL.first_mass_total == F(1, 2)
    with pytest.raises(AttributeError):
        _PARTIAL.first_mass_total = 0
    assert "first_mass_total" not in repr(_PARTIAL) + repr(_FULL)
