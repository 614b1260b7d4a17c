import json

import numpy as np
import pytest

from failsafekit import Preorder, ValidationError, classify, holds, preorders


# ---------------------------------------------------------------- oracle
def brute_holds(kind, a, b):
    """Direct re-evaluation of the prefix-inequality definitions."""
    sa, sb = sorted(a), sorted(b)
    n = len(sa)
    if kind == "majorize":
        for i in range(1, n):
            if sum(sa[:i]) > sum(sb[:i]) + 1e-12:
                return False
        return abs(sum(sa) - sum(sb)) <= 1e-12
    if kind == "weak_super":
        return all(sum(sa[:i]) <= sum(sb[:i]) + 1e-12 for i in range(1, n + 1))
    if kind == "weak_sub":
        return all(sum(sa[:i]) >= sum(sb[:i]) - 1e-12 for i in range(1, n + 1))
    if kind == "p_larger":
        prod = lambda xs: float(np.prod(xs))
        return all(prod(sa[:i]) <= prod(sb[:i]) + 1e-12 for i in range(1, n + 1))
    if kind == "reciprocal_majorize":
        rec = lambda xs: sum(1.0 / x for x in xs)
        return all(rec(sa[:i]) >= rec(sb[:i]) - 1e-12 for i in range(1, n + 1))
    raise AssertionError(kind)


# ------------------------------------------------------------- examples
def test_p_larger_first_demo_vectors():
    a = (0.12, 0.28, 0.51, 0.62, 0.73)
    b = (0.21, 0.42, 0.73, 0.89, 0.92)
    assert holds(Preorder.P_LARGER, a, b)
    assert not holds(Preorder.P_LARGER, b, a)


def test_p_larger_second_demo_vectors():
    a = (0.13, 0.31, 0.49, 0.61, 0.72)
    b = (0.22, 0.41, 0.71, 0.88, 0.92)
    rep = classify(a, b)
    assert rep.forward[Preorder.P_LARGER] is True


@pytest.mark.parametrize("kind", list(Preorder))
def test_reflexive(kind):
    v = (0.5, 1.5, 2.5)
    assert holds(kind, v, v)


def test_majorize_simple():
    assert holds(Preorder.MAJORIZE, (1.0, 3.0), (2.0, 2.0))
    assert not holds(Preorder.MAJORIZE, (2.0, 2.0), (1.0, 3.0))
    # unequal totals fail majorization but not weak super-majorization
    assert not holds(Preorder.MAJORIZE, (1.0, 2.0), (2.0, 2.0))
    assert holds(Preorder.WEAK_SUPER, (1.0, 2.0), (2.0, 2.0))


def test_reciprocal_majorize_simple():
    assert holds(Preorder.RECIPROCAL_MAJORIZE, (1.0, 4.0), (2.0, 2.0))
    assert not holds(Preorder.RECIPROCAL_MAJORIZE, (2.0, 2.0), (1.0, 4.0))


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 7)
        a = rng.uniform(0.1, 5.0, n)
        b = rng.uniform(0.1, 5.0, n)
        for kind in Preorder:
            expected = holds(kind, a, b)
            assert holds(kind, rng.permutation(a), rng.permutation(b)) == expected


def test_classify_matches_brute_force():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.05, 4.0, n)
        b = rng.uniform(0.05, 4.0, n)
        rep = classify(a, b)
        for kind in Preorder:
            assert rep.forward[kind] == brute_holds(kind.value, a, b), (kind, a, b)
            assert rep.reverse[kind] == brute_holds(kind.value, b, a), (kind, a, b)


def test_classify_equal_vectors_all_true():
    v = (0.4, 1.1, 2.2)
    rep = classify(v, v)
    for kind in Preorder:
        assert rep.forward[kind] is True
        assert rep.reverse[kind] is True
    assert rep.skipped == ()


def test_classify_skips_positive_only_relations():
    rep = classify((-1.0, 2.0), (0.5, 0.5))
    assert rep.forward[Preorder.P_LARGER] is None
    assert rep.forward[Preorder.RECIPROCAL_MAJORIZE] is None
    assert set(rep.skipped) == {"p_larger", "reciprocal_majorize"}
    assert rep.forward[Preorder.MAJORIZE] is not None


# ------------------------------------------------- implication chain
def majorizing_pair(rng, n):
    """b is an average of permutations of a, so a majorizes b."""
    a = rng.uniform(0.1, 5.0, n)
    weights = rng.dirichlet(np.ones(4))
    b = np.zeros(n)
    for w in weights:
        b += w * rng.permutation(a)
    return a, b


def test_chain_on_constructed_pairs():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        a, b = majorizing_pair(rng, n)
        assert holds(Preorder.MAJORIZE, a, b)
        assert holds(Preorder.WEAK_SUPER, a, b)
        assert holds(Preorder.P_LARGER, a, b)
        assert holds(Preorder.RECIPROCAL_MAJORIZE, a, b)
        # shrinking entries of a preserves weak super-majorization
        a2 = a * rng.uniform(0.5, 1.0, n)
        assert holds(Preorder.WEAK_SUPER, a2, b)
        assert holds(Preorder.P_LARGER, a2, b)
        assert holds(Preorder.RECIPROCAL_MAJORIZE, a2, b)
        checked += 1
    assert checked == 2000


def test_chain_on_random_pairs():
    # conditional form: wherever a premise happens to hold, the rest follow
    rng = np.random.default_rng(4242)
    premises = 0
    for _ in range(3000):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.1, 3.0, n)
        b = rng.uniform(0.1, 3.0, n)
        if holds(Preorder.WEAK_SUPER, a, b):
            premises += 1
            assert holds(Preorder.P_LARGER, a, b)
            assert holds(Preorder.RECIPROCAL_MAJORIZE, a, b)
        if holds(Preorder.P_LARGER, a, b):
            assert holds(Preorder.RECIPROCAL_MAJORIZE, a, b)
    assert premises > 100  # the conditional test is not vacuous


def test_p_larger_equals_weak_super_of_logs():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 5.0, n)
        b = rng.uniform(0.1, 5.0, n)
        assert holds(Preorder.P_LARGER, a, b) == holds(
            Preorder.WEAK_SUPER, np.log(a), np.log(b)
        )


def mix(rng, v):
    weights = rng.dirichlet(np.ones(3))
    out = np.zeros_like(v)
    for w in weights:
        out += w * rng.permutation(v)
    return out


def chain_triple(kind, rng, n):
    """(a, b, c) with kind(a, b) and kind(b, c) true by construction."""
    a = rng.uniform(0.2, 3.0, n)
    if kind is Preorder.MAJORIZE:
        b = mix(rng, a)
        c = mix(rng, b)
    elif kind in (Preorder.WEAK_SUPER, Preorder.WEAK_SUB):
        b = mix(rng, a) * rng.uniform(1.0, 1.3)
        c = mix(rng, b) * rng.uniform(1.0, 1.3)
        if kind is Preorder.WEAK_SUB:
            a, c = c, a  # weak_sub(x, y) == weak_super(y, x)
    else:  # p-larger and reciprocal majorization via weak-super of logs
        b = np.exp(mix(rng, np.log(a)) + rng.uniform(0.0, 0.3))
        c = np.exp(mix(rng, np.log(b)) + rng.uniform(0.0, 0.3))
    return a, b, c


def test_transitivity_on_constructed_triples():
    rng = np.random.default_rng(314)
    for kind in Preorder:
        for _ in range(500):
            n = int(rng.integers(2, 6))
            a, b, c = chain_triple(kind, rng, n)
            assert holds(kind, a, b, tol=1e-9), (kind, a, b)
            assert holds(kind, b, c, tol=1e-9), (kind, b, c)
            assert holds(kind, a, c, tol=1e-8), (kind, a, b, c)


# ---------------------------------------------------------------- errors
def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        holds(Preorder.MAJORIZE, (1.0, 2.0), (1.0, 2.0, 3.0))


def test_nan_rejected():
    with pytest.raises(ValidationError):
        holds(Preorder.WEAK_SUB, (1.0, np.nan), (1.0, 2.0))


@pytest.mark.parametrize("kind", [Preorder.P_LARGER, Preorder.RECIPROCAL_MAJORIZE])
def test_nonpositive_rejected_for_positive_relations(kind):
    with pytest.raises(ValidationError):
        holds(kind, (0.0, 1.0), (1.0, 1.0))


def test_negative_tol_rejected():
    with pytest.raises(ValidationError):
        holds(Preorder.MAJORIZE, (1.0,), (1.0,), tol=-1e-3)


def test_report_json_shape():
    rep = classify((1.0, 3.0), (2.0, 2.0))
    blob = rep.to_json()
    assert set(blob["relations"]) == {k.value for k in Preorder}
    assert blob["relations"]["majorize"]["a_over_b"] is True
    assert blob["ascending_a"] == [1.0, 3.0]


# ------------------------------------------------- numpy reference form
def numpy_holds(kind, a, b, tol):
    """The relations in numpy: prefix sums and products of np.sort by
    np.cumsum and np.cumprod.  holds works on Python floats and must give
    the same answer everywhere, at the tolerance edge too."""
    sa, sb = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    if kind is Preorder.MAJORIZE:
        ca, cb = np.cumsum(sa), np.cumsum(sb)
        return bool(np.all(ca[:-1] <= cb[:-1] + tol) and abs(ca[-1] - cb[-1]) <= tol)
    if kind is Preorder.WEAK_SUPER:
        return bool(np.all(np.cumsum(sa) <= np.cumsum(sb) + tol))
    if kind is Preorder.WEAK_SUB:
        return bool(np.all(np.cumsum(sa) >= np.cumsum(sb) - tol))
    if kind is Preorder.P_LARGER:
        return bool(np.all(np.cumprod(sa) <= np.cumprod(sb) + tol))
    return bool(np.all(np.cumsum(1.0 / sa) >= np.cumsum(1.0 / sb) - tol))


def _reference_pairs(seed=11, count=90):
    """Independent log-uniform pairs, and permutations scaled entry by
    entry by 1 +- 1e-13 or 1 +- 1e-12, which sit on the tolerance edges."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 9))
        a = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        if i % 3 == 0:
            b = np.exp(rng.uniform(np.log(0.1), np.log(3.0), n))
        else:
            rel = 1e-13 if i % 3 == 1 else 1e-12
            b = rng.permutation(a) * (1.0 + rel * rng.choice([-1.0, 1.0], n))
        yield a, b


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
def test_holds_matches_the_numpy_reference(tol):
    answers = set()
    for a, b in _reference_pairs():
        for kind in Preorder:
            for x, y in ((a, b), (b, a)):
                got = holds(kind, x, y, tol)
                assert type(got) is bool
                assert got == numpy_holds(kind, x, y, tol), (kind, x.tolist(), y.tolist(), tol)
                answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
def test_classify_matches_the_numpy_reference(tol):
    for a, b in _reference_pairs(seed=12, count=40):
        rep = classify(a, b, tol)
        assert rep.ascending_a == tuple(np.sort(a).tolist())
        assert rep.ascending_b == tuple(np.sort(b).tolist())
        assert all(type(v) is float for v in rep.ascending_a + rep.ascending_b)
        for kind in Preorder:
            assert rep.forward[kind] == numpy_holds(kind, a, b, tol)
            assert rep.reverse[kind] == numpy_holds(kind, b, a, tol)


def test_long_vectors_match_the_numpy_reference():
    rng = np.random.default_rng(13)
    a = rng.uniform(0.5, 2.0, 2000)
    b = rng.permutation(a) * (1.0 + rng.uniform(-1e-13, 1e-13, a.size))
    for kind in Preorder:
        for tol in (0.0, 1e-12):
            assert holds(kind, a, b, tol) == numpy_holds(kind, a, b, tol)
            assert holds(kind, b, a, tol) == numpy_holds(kind, b, a, tol)


_ONES = (1.0, 1.0)


@pytest.mark.parametrize("kind, a, b, tol, message", [
    (Preorder.MAJORIZE, [[1.0, 2.0]], [1.0, 2.0], 0.0, "a must be a non-empty 1-d vector"),
    (Preorder.MAJORIZE, 1.0, [1.0], 0.0, "a must be a non-empty 1-d vector"),
    (Preorder.WEAK_SUB, [1.0], [], 0.0, "b must be a non-empty 1-d vector"),
    (Preorder.WEAK_SUB, (1.0, np.nan), _ONES, 0.0, "a contains non-finite entries"),
    (Preorder.WEAK_SUPER, _ONES, (np.inf, 1.0), 0.0, "b contains non-finite entries"),
    (Preorder.WEAK_SUPER, (-np.inf, 1.0), _ONES, 0.0, "a contains non-finite entries"),
    (Preorder.MAJORIZE, (1.0, 2.0), (1.0, 2.0, 3.0), 0.0, "length mismatch: 2 != 3"),
    (Preorder.P_LARGER, (0.0, 1.0), _ONES, 0.0, "p_larger requires strictly positive entries"),
    (Preorder.RECIPROCAL_MAJORIZE, _ONES, (-1.0, 1.0), 0.0,
     "reciprocal_majorize requires strictly positive entries"),
    (Preorder.MAJORIZE, _ONES, _ONES, -1e-3, "tol must be nonnegative, got -0.001"),
    (Preorder.MAJORIZE, _ONES, _ONES, np.nan, "tol must be nonnegative, got nan"),
    # a bool tol ran as 1.0 and a string one raised a bare TypeError
    (Preorder.MAJORIZE, _ONES, _ONES, True, "tol must be a number, got True"),
    (Preorder.MAJORIZE, _ONES, _ONES, "1", "tol must be a number, got '1'"),
], ids=["2-d", "0-d", "empty", "nan", "inf", "-inf", "length", "p-larger-zero",
        "rm-negative", "negative-tol", "nan-tol", "bool-tol", "string-tol"])
def test_holds_error_messages(kind, a, b, tol, message):
    with pytest.raises(ValidationError) as err:
        holds(kind, a, b, tol)
    assert str(err.value) == message


@pytest.mark.parametrize("a, b, tol, message", [
    ([[1.0, 2.0]], [1.0, 2.0], 0.0, "a must be a non-empty 1-d vector"),
    ([1.0], [], 0.0, "b must be a non-empty 1-d vector"),
    ((1.0, np.nan), _ONES, 0.0, "a contains non-finite entries"),
    (_ONES, (np.inf, 1.0), 0.0, "b contains non-finite entries"),
    ((1.0, 2.0), (1.0, 2.0, 3.0), 0.0, "length mismatch: 2 != 3"),
    (_ONES, _ONES, -1e-3, "tol must be nonnegative, got -0.001"),
    (_ONES, _ONES, np.nan, "tol must be nonnegative, got nan"),
    (_ONES, _ONES, True, "tol must be a number, got True"),
    (_ONES, _ONES, "1", "tol must be a number, got '1'"),
], ids=["2-d", "empty", "nan", "inf", "length", "negative-tol", "nan-tol", "bool-tol",
        "string-tol"])
def test_classify_error_messages(a, b, tol, message):
    with pytest.raises(ValidationError) as err:
        classify(a, b, tol)
    assert str(err.value) == message


def test_classify_checks_each_vector_and_tol_once(monkeypatch):
    names = []
    ascending = preorders._ascending
    monkeypatch.setattr(preorders, "_ascending",
                        lambda v, name: names.append(name) or ascending(v, name))
    report = classify([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], tol=np.float32(1e-12))
    assert names == ["a", "b"]  # not again in each of the ten relations
    # the checked tol is a Python float, which json writes
    assert type(report.tol) is float and report.tol == float(np.float32(1e-12))
    assert json.loads(json.dumps(report.to_json()))["tol"] == report.tol
