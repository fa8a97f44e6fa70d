import time

import pytest
from hypothesis import given

from superbc.partitions import (
    HookParams,
    NotAHook,
    Partition,
    enumerate_hooks,
    lambda_natural,
    partitions_of,
    sort_key,
)

from .strategies import partitions


def brute_partitions(d):
    """Independent generator: weakly increasing parts, reversed at the end."""
    acc = []

    def rec(remaining, minpart, prefix):
        if remaining == 0:
            acc.append(tuple(reversed(prefix)))
            return
        v = minpart
        while v <= remaining:
            rec(remaining - v, v, prefix + [v])
            v += 1

    rec(d, 1, [])
    return acc


def test_normalization_and_validation():
    assert Partition.of(3, 1, 0, 0) == Partition.of(3, 1)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition.of(1, 2)
    with pytest.raises(ValueError):
        Partition.of(-1)


def test_parse_and_str_round_trip():
    assert Partition.parse("3,1") == Partition.of(3, 1)
    assert Partition.parse("") == Partition()
    assert Partition.parse("∅") == Partition()
    assert str(Partition.of(3, 1)) == "3,1"
    assert str(Partition()) == "∅"
    for lam in [Partition(), Partition.of(5), Partition.of(2, 2, 1)]:
        assert Partition.parse(str(lam)) == lam


def test_transpose_examples():
    assert Partition().transpose() == Partition()
    assert Partition.of(3, 1).transpose() == Partition.of(2, 1, 1)
    assert Partition.of(2, 1).transpose() == Partition.of(2, 1)


@given(partitions(max_part=8, max_length=8))
def test_transpose_involution(lam):
    assert lam.transpose().transpose() == lam
    assert lam.transpose().size == lam.size


def test_contains_examples():
    assert Partition.of(2, 1).contains(Partition.of(1, 1))
    assert not Partition.of(2).contains(Partition.of(1, 1))
    for lam in [Partition(), Partition.of(3, 2)]:
        assert lam.contains(Partition())


def test_is_hook_examples():
    assert Partition.of(3, 1).is_hook(HookParams(1, 1))
    assert not Partition.of(2, 2).is_hook(HookParams(1, 1))
    for lam in [Partition.of(9), Partition.of(4, 4)]:
        assert lam.is_hook(HookParams(2, 1))  # length <= p


def test_hook_transpose_duality_exhaustive():
    for p in range(1, 4):
        for q in range(1, 4):
            hp, tp = HookParams(p, q), HookParams(q, p)
            for d in range(9):
                for lam in partitions_of(d):
                    assert lam.is_hook(hp) == lam.transpose().is_hook(tp)


def test_enumerate_hooks_examples():
    hp = HookParams(1, 1)
    assert enumerate_hooks(hp, 2, "exact") == [Partition.of(2), Partition.of(1, 1)]
    upto = enumerate_hooks(hp, 2, "upto")
    assert upto == [Partition(), Partition.of(1), Partition.of(2), Partition.of(1, 1)]
    assert enumerate_hooks(hp, 3, "exact") == [
        Partition.of(3),
        Partition.of(2, 1),
        Partition.of(1, 1, 1),
    ]


def test_enumerate_hooks_against_brute_force():
    for p in range(1, 4):
        for q in range(1, 4):
            hp = HookParams(p, q)
            for d in range(11):
                exact = enumerate_hooks(hp, d, "exact")
                brute = {
                    lam
                    for t in brute_partitions(d)
                    for lam in [Partition(t)]
                    if lam.is_hook(hp)
                }
                assert set(exact) == brute
                assert len(exact) == len(set(exact))
                upto = enumerate_hooks(hp, d, "upto")
                assert len(upto) == sum(len(enumerate_hooks(hp, e, "exact")) for e in range(d + 1))
                assert upto == sorted(upto, key=sort_key)


def test_enumerate_hooks_prunes_non_hooks():
    # p(60) is about a million partitions; a (1, 1) hook enumeration that
    # builds them all and filters takes seconds, the pruned one milliseconds.
    start = time.perf_counter()
    hooks = enumerate_hooks(HookParams(1, 1), 60)
    elapsed = time.perf_counter() - start
    assert len(hooks) == 60
    assert hooks[0] == Partition.of(60) and hooks[-1] == Partition((1,) * 60)
    assert elapsed < 1.0


def test_containment_partial_order():
    pool = enumerate_hooks(HookParams(2, 2), 5, "upto")
    for a in pool:
        assert a.contains(a)
        for b in pool:
            if a.contains(b) and b.contains(a):
                assert a == b
            for c in pool:
                if a.contains(b) and b.contains(c):
                    assert a.contains(c)


def test_lambda_natural_examples():
    assert lambda_natural(Partition.of(3, 1), 1, 2) == (3, 1, 0)
    assert lambda_natural(Partition.of(1, 1, 1), 1, 1) == (1, 2)
    assert lambda_natural(Partition(), 2, 3) == (0, 0, 0, 0, 0)
    with pytest.raises(NotAHook):
        lambda_natural(Partition.of(2, 2), 1, 1)


def test_hook_params_validation():
    with pytest.raises(ValueError):
        HookParams(0, 1)
    with pytest.raises(ValueError):
        HookParams(1, -1)
