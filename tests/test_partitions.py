import copy
import pickle
import re
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
    # the namedtuple helpers rebuild through the same checks
    for build in (
        lambda: Partition.of(1, 2),
        lambda: Partition._make([(1, 2)]),
        lambda: Partition.of(3)._replace(parts=(1, 2)),
    ):
        with pytest.raises(ValueError, match=re.escape("parts not weakly decreasing: (1, 2)")):
            build()
    with pytest.raises(ValueError, match=re.escape("negative part in (-1,)")):
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
    for build in (lambda: HookParams(0, 1), lambda: HookParams(1, 1)._replace(p=0)):
        with pytest.raises(ValueError, match=re.escape("hook parameters must be positive, got (0, 1)")):
            build()
    for build in (lambda: HookParams(1, -1), lambda: HookParams._make((1, -1))):
        with pytest.raises(ValueError, match=re.escape("hook parameters must be positive, got (1, -1)")):
            build()
    assert HookParams(2, 1)._replace(q=3) == HookParams(2, 3)
    assert HookParams._make([1, 2]) == HookParams(1, 2)


# -- record semantics -----------------------------------------------------------


def test_records_repr_and_hash():
    mu, hp = Partition.of(2, 1), HookParams(2, 1)
    assert repr(mu) == "Partition(parts=(2, 1))"
    assert repr(Partition()) == "Partition(parts=())"
    assert repr(hp) == "HookParams(p=2, q=1)"
    # the hash of the field tuple, so set and dict orders follow the values
    assert hash(mu) == hash(((2, 1),))
    assert hash(hp) == hash((2, 1))


def test_records_are_immutable():
    mu, hp = Partition.of(2, 1), HookParams(2, 1)
    for obj, name in ((mu, "parts"), (hp, "p"), (hp, "q"), (mu, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 3)
    assert mu == Partition.of(2, 1) and hp == HookParams(2, 1)


def test_partition_iterates_over_its_parts():
    mu = Partition.of(3, 1, 1)
    assert Partition(mu) == mu  # the Jack cache load rebuilds its keys so
    assert list(mu) == [3, 1, 1] and len(mu) == 3
    assert 1 in mu and 2 not in mu
    assert list(Partition()) == [] and not Partition()
    # the namedtuple helpers see the one field, not the parts
    assert mu._asdict() == {"parts": (3, 1, 1)}
    assert mu._replace() == mu and Partition._make([(3, 1, 1)]) == mu


def test_records_copy_and_pickle():
    for obj in (Partition.of(3, 1, 1), Partition(), HookParams(2, 3)):
        twins = [copy.copy(obj), copy.deepcopy(obj)]
        twins += [pickle.loads(pickle.dumps(obj, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == obj and type(twin) is type(obj) and hash(twin) == hash(obj)
    # the J_mu records hold a SparsePoly, whose __slots__ once kept them from
    # pickling at protocols 0 and 1; polynomials are not hashable
    from superbc.exactalg import THETA, SparsePoly
    from superbc.interpbc import interpolation_J, shimura_image

    hp, mu = HookParams(2, 1), Partition.of(2, 1)
    objs = (interpolation_J(mu, hp), shimura_image(mu, hp), SparsePoly(("x", "y"), {(1, 0): THETA, (0, 2): 3}))
    for obj in objs:
        twins = [copy.copy(obj), copy.deepcopy(obj)]
        twins += [pickle.loads(pickle.dumps(obj, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == obj and type(twin) is type(obj)
