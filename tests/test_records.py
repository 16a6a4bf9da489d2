"""Field names, defaults, construction and equality of the library's records.

The validation errors of each record are tested next to the layer that
defines it (tests/test_qseries.py, tests/test_arith.py).
"""

import dataclasses

import pytest
from mpmath import mpf, mpc

import lambertq
from lambertq import identities
from lambertq.arith import ArithTable, FunctionId
from lambertq.identities import IdentityRecord, IdentityReport, LimitReport
from lambertq.qseries import KernelForm, QPoint, SeriesValue

_MOB = FunctionId("mobius")

# (record type, required fields with values in field order, defaulted fields
# with their defaults in field order, one field changed to a different value)
RECORDS = [
    (FunctionId, {"tag": "mobius"}, {"params": ()}, {"tag": "totient"}),
    (ArithTable, {"fid": _MOB, "N": 3, "values": [0, 1, -1, -1],
                  "growth": (1, 0), "exact": True}, {}, {"values": [0, 1, -1, 0]}),
    (QPoint, {"q": mpf("0.5"), "z": mpc(1, "0.5")}, {}, {"z": mpf(2)}),
    (KernelForm, {}, {"kernel": "minus", "weight": "over_n"}, {"kernel": "plus"}),
    (SeriesValue, {"value": mpf(1), "err_bound": mpf("1e-30"), "terms_used": 7}, {},
     {"terms_used": 8}),
    (IdentityRecord,
     {"id": "X", "description": "d", "lhs_spec": "l", "rhs_spec": "r",
      "domain": "0<q<1", "kind": "qz"},
     {"g_key": "", "f_key": "", "form": "A", "weight": "over_n", "f_weight": "",
      "rhs_sign": -1, "closed_rhs": None, "value_space": False, "z_fixed": None,
      "exact_check": None},
     {"form": "B"}),
    (IdentityReport,
     {"id": "X", "q": mpf("0.5"), "z": mpf(1), "params": {}, "lhs_value": mpf(1),
      "rhs_value": mpf(1), "abs_diff": mpf(0), "error_budget": mpf("1e-30"),
      "passed": True, "terms_used": 9},
     {"note": ""}, {"passed": False}),
    (LimitReport,
     {"id": "X", "q_grid": [mpf("0.5")], "raw_values": [mpf(2)], "estimate": mpf(2),
      "target_value": mpf(2), "rel_err": mpf(0), "err_estimate": mpf("1e-9"),
      "passed": True, "mode": "extrapolation"},
     {"note": ""}, {"mode": "bracket"}),
    (identities.LimitTarget, {"id": "X", "description": "d", "expression": "e"},
     {"f_key": "", "form": "A", "sign": -1, "verdict": "", "target_fn": None,
      "sing": ()},
     {"sign": 1}),
]


@pytest.mark.parametrize("cls, required, defaults, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_defaults_and_equality(cls, required, defaults, other):
    fields = {**required, **defaults}
    rec = cls(**required)
    assert {k: getattr(rec, k) for k in fields} == fields
    assert cls(*fields.values()) == rec  # positional, in field order
    assert cls(**fields) == rec
    assert cls(**{**fields, **other}) != rec
    assert repr(rec).startswith(cls.__name__ + "(")


@pytest.mark.parametrize("cls", [FunctionId, QPoint, KernelForm, SeriesValue,
                                 IdentityRecord])
def test_frozen_records_reject_assignment(cls):
    required, defaults = next((r, d) for c, r, d, _ in RECORDS if c is cls)
    rec = cls(**required)
    with pytest.raises(AttributeError):
        rec.x = 1
    with pytest.raises(AttributeError):
        setattr(rec, next(iter({**required, **defaults})), 1)


def test_function_id_is_a_dict_key():
    seen = {FunctionId("mobius"): 1, FunctionId("sigma", (1,)): 2}
    assert seen[FunctionId.parse("mobius")] == 1
    assert seen[FunctionId.parse("sigma:1")] == 2
    assert FunctionId("sigma", (2,)) not in seen
    assert len({FunctionId("mobius"), FunctionId.parse("mobius")}) == 1


def test_table_stays_mutable_and_unhashable():
    tab = ArithTable(_MOB, 1, [0, 1], (1, 0), True)
    tab.fid = FunctionId("custom", ("relabelled",))
    assert str(tab.fid) == "custom:relabelled"
    with pytest.raises(TypeError):
        hash(tab)


def test_limit_target_is_the_same_lazily_loaded_dataclass():
    assert lambertq.LimitTarget is identities.LimitTarget
    assert dataclasses.is_dataclass(identities.LimitTarget)
    assert all(isinstance(r, identities.LimitTarget) for r in identities.limit_targets())
    with pytest.raises(AttributeError):
        identities.NoSuchName
