"""One display for every refused value: each refusal that shows a caller's
value shows it through ``errors.shown``.  A huge int, a long list or a long
text is refused with a ValidationError of one short line, never echoed
whole and never a bare ValueError from converting an int past Python's
4300-digit limit to text; a short value reads as ``repr`` shows it.  Every
domain, an ``(ok, rule)`` pair, refuses as "<what> must <rule>, got <value>"."""

import json
import math
import sys

import numpy as np
import pytest

from failsafekit import (BaselineSpec, GeneratorSpec, GridPolicy, Preorder, SemiParamModel,
                         SystemSpec, ValidationError, classify, holds, lower_bound_plarger,
                         schur_condition_probe, sp_survival)
from failsafekit.cli import _parse_subsets, atomic_write, load_dataset_csv, main, read_json
from failsafekit.errors import real_array, real_number, shown, whole_number
from failsafekit.fitlab import (LifetimeDataset, empirical_copula, fit_copula,
                                fixed_shape_weibull_scale, frank_tau)
from failsafekit.mcsim import check_seed
from failsafekit.models import survival_shape
from failsafekit.ordering import verify

HUGE = 10 ** 5000  # str() refuses it: "Exceeds the limit (4300 digits)"

MALFORMED = {
    "huge int": HUGE,
    "huge int in a tuple": (HUGE,),
    "long list": [1.0] * 10 ** 4,
    "long text": "x" * 10 ** 5,
}
ALL = tuple(MALFORMED)
TEXT = ("long text",)

_MODEL = SemiParamModel("scale", BaselineSpec("weibull", (1.0, 2.0)))
_GEN = GeneratorSpec("clayton", 2.0)
_WIRES = {"w1", "w2", "w3"}
_SYS = SystemSpec(2, _MODEL, (1.0, 2.0), _GEN)
#: A valid spec whose theta no log-parameter rule takes.
_LOCATION_SYS = SystemSpec(2, SemiParamModel("location", _MODEL.baseline), (-1.0, 2.0), _GEN)
#: The huge int, and its negative, as a refusal shows them.
_INT, _NEG = shown(HUGE), shown(-HUGE)


def _csv(tmp_path, text):
    """The dataset of CSV text, as the fit subcommand reads it."""
    path = tmp_path / "data.csv"
    path.write_text(text)
    return load_dataset_csv(str(path))


def _cells(v) -> str:
    """v as CSV cells: the entries of a list, else one cell."""
    return ",".join(map(str, v)) if isinstance(v, list) else v


#: site: (a call that refuses the malformed value v, the values the site can receive[,
#: the exact refusal of its first value]).  A domain site has that refusal, and its
#: call negates v (``np.negative``, entrywise for a list) where v would pass.
#: CSV cells and --subsets names are text, so the CLI sites receive text and
#: long rows only.
SITES = {
    "real_number": (lambda v, tmp: real_number(v, "x"), ALL[1:]),
    "real_array ragged": (
        lambda v, tmp: real_array([np.ones((2, 3)), np.ones((2, 4)), [[v] * 3] * 2], "x"), ALL),
    "whole_number integer": (lambda v, tmp: whole_number(v, "n", 2), ALL[1:]),
    "whole_number minimum": (lambda v, tmp: whole_number(-v, "n", 2), ("huge int",)),
    "whole_number maximum": (lambda v, tmp: whole_number(v, "n", 2, 10), ("huge int",)),
    "check_seed": (lambda v, tmp: check_seed(v), ALL),
    "SystemSpec n": (lambda v, tmp: SystemSpec(v, _MODEL, (1.0, 2.0), _GEN), ALL),
    "SystemSpec model": (lambda v, tmp: SystemSpec(2, v, (1.0, 2.0), _GEN), ALL),
    "SystemSpec generator": (lambda v, tmp: SystemSpec(2, _MODEL, (1.0, 2.0), v), ALL),
    "SystemSpec theta": (lambda v, tmp: SystemSpec(2, _MODEL, v, _GEN), ALL),
    "BaselineSpec family": (lambda v, tmp: BaselineSpec(v, (1.0,)), ALL),
    "BaselineSpec params": (lambda v, tmp: BaselineSpec("weibull", v), ALL,
                            "weibull parameter must be positive and finite, got inf"),
    "SemiParamModel kind": (lambda v, tmp: SemiParamModel(v, _MODEL.baseline), ALL),
    "SemiParamModel baseline": (lambda v, tmp: SemiParamModel("scale", v), ALL),
    "SemiParamModel alpha": (lambda v, tmp: SemiParamModel("mphrs", _MODEL.baseline, v, 1.0), ALL,
                             f"mphrs alpha must be positive and finite, got {_INT}"),
    "SemiParamModel lambda": (lambda v, tmp: SemiParamModel("ls", _MODEL.baseline, lam=v), ALL,
                              f"ls lambda must be finite, got {_INT}"),
    "SemiParamModel no fixed": (lambda v, tmp: SemiParamModel("scale", _MODEL.baseline, v), ALL,
                                f"scale takes no fixed alpha, got {_INT}"),
    "model theta": (lambda v, tmp: sp_survival(_MODEL, 1.0, np.negative(v)), ALL[::2],
                    "scale theta must be positive and finite, got -inf"),
    "survival_shape tol": (
        lambda v, tmp: survival_shape(_MODEL, "nonincreasing", None, np.negative(v)), ALL[::2],
        f"tol must be nonnegative, got {_NEG}"),
    "GeneratorSpec family": (lambda v, tmp: GeneratorSpec(v, 2.0), ALL),
    "GeneratorSpec theta": (lambda v, tmp: GeneratorSpec("clayton", v), ALL,
                            f"clayton theta must lie in (0, inf), got {_INT}"),
    "preorder kind": (lambda v, tmp: holds(v, [1.0, 2.0], [1.5, 1.5]), ALL),
    "holds tol": (lambda v, tmp: holds(Preorder.MAJORIZE, [1.0, 2.0], [1.5, 1.5], np.negative(v)),
                  ALL[::2], f"tol must be nonnegative, got {_NEG}"),
    "classify tol": (lambda v, tmp: classify([1.0, 2.0], [1.5, 1.5], np.negative(v)), ALL[::2],
                     f"tol must be nonnegative, got {_NEG}"),
    "GridPolicy dominance_tol": (lambda v, tmp: GridPolicy(dominance_tol=np.negative(v)), ALL[::2],
                                 f"dominance_tol must be nonnegative, got {_NEG}"),
    "GridPolicy crossing_gap": (lambda v, tmp: GridPolicy(crossing_gap=np.negative(v)), ALL[::2],
                                f"crossing_gap must be nonnegative, got {_NEG}"),
    "schur_condition_probe step": (
        lambda v, tmp: schur_condition_probe(_SYS, np.negative(v)), ALL[::2],
        f"step must be finite and at least 1e-9, got {_NEG}"),
    # a theta its spec took, refused before the points v are read
    "schur_condition_probe theta": (
        lambda v, tmp: schur_condition_probe(_LOCATION_SYS, xs=v), ALL[::2],
        "log-parameter probe theta must be positive and finite, got -1.0"),
    "homogeneous bound theta": (lambda v, tmp: lower_bound_plarger(_LOCATION_SYS, v), ALL[::2],
                                "p-larger bound theta must be positive and finite, got -1.0"),
    "strength data": (lambda v, tmp: fixed_shape_weibull_scale(np.negative(v), 2.0), ALL[::2],
                      "data entry must be positive and finite, got -inf"),
    "weibull shape": (lambda v, tmp: fixed_shape_weibull_scale([1.0, 2.0], v), ALL,
                      f"shape must be positive and finite, got {_INT}"),
    "frank_tau": (lambda v, tmp: frank_tau(np.negative(v)), ALL[::2],
                  f"frank theta must be positive, got {_NEG}"),
    "fit_copula": (lambda v, tmp: fit_copula("clayton", v), ALL[::2],
                   "pseudo-observation must lie in (0, 1), got inf"),
    "empirical_copula": (lambda v, tmp: empirical_copula(np.multiply(v, math.nan)), ("long list",),
                         "pseudo-observation must not be NaN, got nan"),
    # str() of a huge int raised Python's bare ValueError
    "dataset label": (lambda v, tmp: LifetimeDataset({v: [1.0]}), ("huge int", "long text")),
    # a bare KeyError echoed the route whole, or raised in its own str, or
    # a TypeError named a list unhashable
    "verify route": (lambda v, tmp: verify(v, _SYS, _SYS), ALL),
    "CSV header": (lambda v, tmp: _csv(tmp, f"{v},{v}\n1,2\n3,4\n"), TEXT),
    "CSV long-format row": (
        lambda v, tmp: _csv(tmp, f"cable,wire,strength\n1,w1,2\n1,w2,x,{_cells(v)}\n"),
        ("long list", "long text")),
    "CSV wide row": (lambda v, tmp: _csv(tmp, f"w1,w2\n1,2\n{_cells(v)}\n"),
                     ("long list", "long text")),
    "CSV cell": (lambda v, tmp: _csv(tmp, f"w1,w2\n1,2\n3,{v}\n"), TEXT),
    "subset component": (lambda v, tmp: _parse_subsets(f"{v},w1;w2,w3", _WIRES), TEXT),
    "subset dataset labels": (
        lambda v, tmp: _parse_subsets("nope,w1;w2,w3", {f"w{i}" for i in range(len(v))}),
        ("long list",)),
    "subset label": (
        lambda v, tmp: _parse_subsets(",".join(["w1"] * len(v)) + ";w2,w3", _WIRES),
        ("long list", "long text")),
    # an OSError's own text echoed the path whole
    "file written": (lambda v, tmp: atomic_write(str(tmp / v), ""), TEXT),
    "file read": (lambda v, tmp: read_json(str(tmp / v), "system spec"), TEXT),
}

CASES = [(site, value) for site, (_, values, *_) in SITES.items() for value in values]


@pytest.mark.parametrize("site, value", CASES, ids=[f"{s}-{v}" for s, v in CASES])
def test_every_display_site_refuses_a_malformed_value_in_one_short_line(tmp_path, site, value):
    call = SITES[site][0]
    with pytest.raises(ValidationError) as err:
        call(MALFORMED[value], tmp_path)
    assert len(str(err.value)) < 200, (len(str(err.value)), str(err.value)[:300])


@pytest.mark.parametrize("site", [site for site, row in SITES.items() if len(row) == 3])
def test_every_domain_site_refuses_by_its_rule(tmp_path, site):
    call, values, message = SITES[site]
    with pytest.raises(ValidationError) as err:
        call(MALFORMED[values[0]], tmp_path)
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: GeneratorSpec("foo"), "unknown generator family 'foo'"),
    (lambda: GeneratorSpec("amh", 2), "amh theta must lie in [-1, 1), got 2"),
    (lambda: BaselineSpec(["weibull"], (1.0,)), "unknown baseline family ['weibull']"),
    (lambda: SemiParamModel("frailty", _MODEL.baseline), "unknown model kind 'frailty'"),
    (lambda: holds("p_larger", [1.0], [1.0]), "unknown preorder 'p_larger'"),
    (lambda: verify("t1", _SYS, _SYS),
     "unknown route 't1', not one of theorem1, theorem2, prop_mphrs, prop_ls"),
    (lambda: SystemSpec(3, _MODEL, (1.0, 2.0), _GEN),
     "system theta must be 3 numbers, got (1.0, 2.0)"),
    (lambda: check_seed([1, 2]), "seed must be an integer, got [1, 2]"),
    (lambda: check_seed(np.int64(-1)), "seed must lie in [0, 2**64), got -1"),
    (lambda: _parse_subsets("w1,w1;w2,w3", _WIRES), "subset '{w1,w1}' names a component twice"),
    (lambda: _parse_subsets("w4,w1;w2,w3", _WIRES),
     "subset component 'w4' not in dataset ['w1', 'w2', 'w3']"),
], ids=["generator-family", "generator-range", "baseline-family", "model-kind", "preorder-kind",
        "verify-route", "theta-shape", "seed-type", "seed-range", "subset-label", "subset-component"])
def test_a_short_refused_value_reads_as_repr_shows_it(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("value, want", [
    (HUGE, "<int of 16610 bits>"),
    (-HUGE, "<negative int of 16610 bits>"),
    ((HUGE, 1), "(<int of 16610 bits>, 1)"),
    (10 ** 50, "100000000000000000...0000000000000000000"),
    ("x" * 10 ** 5, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ([1.0] * 10 ** 4, "[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...]"),
], ids=["huge-int", "huge-negative-int", "huge-int-in-a-tuple", "long-int", "long-text",
        "long-list"])
def test_shown_bounds_each_kind_of_value(value, want):
    assert shown(value) == want


def test_shown_bounds_a_deeply_nested_value_as_a_whole():
    # reprlib bounds each level to six entries, so eight levels of ten still
    # made a 391 907-character text
    value = 1.0
    for _ in range(8):
        value = [value] * 10
    text = shown(value)
    assert len(text) == 120 and text.startswith("[[[[[[[...], ") and text.endswith("...], ...]")


def test_shown_reads_ints_below_any_str_limit_python_allows():
    # the lowest limit sys.set_int_max_str_digits takes is 640 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert shown(10 ** 600) == "100000000000000000...0000000000000000000"
        assert shown(10 ** 700) == f"<int of {(10 ** 700).bit_length()} bits>"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("conf", [{"copula_method": "x" * 10 ** 5},
                                  {"copulas": "x" * 10 ** 5},
                                  {"copulas": ["clayton", "x" * 10 ** 5]}],
                         ids=["choice", "list-flag-text", "list-flag-entry"])
def test_a_long_config_value_outside_its_choices_is_shown_cut_short(tmp_path, capsys, conf):
    # argparse's refusal, and the nonempty-list one, echoed the value whole;
    # the config is refused before the dataset is read
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "fit", str(tmp_path / "unread.csv")])
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith("failsafekit fit: error: argument --copula") and len(message) < 200
