"""Package surface: the names ``weylharm`` exports and its value classes."""

import copy
import functools
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import weylharm
from weylharm import weyl
from weylharm.numerics import QuadratureSpec
from weylharm.ordering import OrderingContext
from weylharm.radial import RadialContext, eta, g_poly_symmetric, omega
from weylharm.specfun import continuous_hahn_poly
from weylharm.verify import suite_all


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from weylharm import *", namespace)
    for name in weylharm.__all__:
        assert namespace[name] is getattr(weylharm, name)


def test_every_memo_is_registered_and_cleared():
    # every lru_cache in the package goes through weyl._memo, so
    # clear_caches reaches it, and values do not depend on a warm memo
    memos = set()
    for info in pkgutil.iter_modules(weylharm.__path__):
        module = importlib.import_module(f"weylharm.{info.name}")
        memos.update(v for v in vars(module).values()
                     if isinstance(v, functools._lru_cache_wrapper))
    assert memos == set(weyl._MEMOS) and len(memos) == 10

    def values():
        ctx = RadialContext(2, Fraction(1, 3))
        return (omega(ctx, 6), eta(ctx, 3), g_poly_symmetric(2, 5), weyl.contractions(2, 3, 1),
                continuous_hahn_poly(5, Fraction(1, 2), 1, Fraction(1, 2), 1))

    suite_all(seed=1, quick=True)
    warm = values()
    assert all(memo.cache_info().currsize for memo in memos)
    weylharm.clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    assert values() == warm


@pytest.mark.parametrize("value, text", [
    (OrderingContext(2, Fraction(1, 2)), "OrderingContext(d=2, q=Fraction(1, 2))"),
    (RadialContext(d=3, q=Fraction(-2, 3)), "RadialContext(d=3, q=Fraction(-2, 3))"),
    (QuadratureSpec(40.0, panel_count=160),
     "QuadratureSpec(half_width=40.0, panel_count=160)"),
])
def test_value_class_semantics(value, text):
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    # named tuples: equal to, and hashed like, their plain field tuple
    again = type(value)(*value)
    assert again == value == tuple(value)
    assert hash(again) == hash(value)
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)


@pytest.mark.parametrize("make, message", [
    (lambda: OrderingContext(0, 1), "mode count d must be >= 1"),
    (lambda: RadialContext(d=-1, q=Fraction(1, 2)), "mode count d must be >= 1"),
    (lambda: QuadratureSpec(0.0, 4), "need positive half_width and panel_count"),
    (lambda: QuadratureSpec(-1.0, 4), "need positive half_width and panel_count"),
    (lambda: QuadratureSpec(1.0, 0), "need positive half_width and panel_count"),
])
def test_value_class_validation(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("cls", [OrderingContext, RadialContext])
@pytest.mark.parametrize("q, expected", [("1/2", Fraction(1, 2)), (1, Fraction(1))])
def test_context_q_is_a_fraction(cls, q, expected):
    for ctx in (cls(1, q), cls(d=1, q=q)):
        assert type(ctx.q) is Fraction and ctx.q == expected
