"""Every exported name resolves, and deleted names stay unexported."""

import importlib
import pkgutil

import qfmax

# names of the former second model form, folded into the tableau row, of the
# former second value accessor, climb and minimum search, folded into
# SequenceOracle and find_maximum, and of the former per-axis box forms,
# folded into one half width through _box_max, and of the former quantile
# record, now a float at theta = 1/4
DELETED = (
    "TaylorModel",
    "taylor_model",
    "local_max_taylor",
    "local_max_values",
    "find_minimum",
    "_ValueTable",
    "_boosted_climb",
    "_linear_box_max",
    "_quad_eval_2d",
    "ErrorQuantile",
)


def test_every_exported_name_resolves_and_no_deleted_name_is_exported():
    modules = [qfmax] + [
        importlib.import_module(f"qfmax.{info.name}")
        for info in pkgutil.iter_modules(qfmax.__path__)
        if info.name != "__main__"  # importing it runs the command line tool
    ]
    for module in modules:
        exported = getattr(module, "__all__", ())
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in DELETED:
            assert name not in exported and not hasattr(module, name)
    assert set(qfmax.__all__) >= {"eval_taylor", "local_max_at", "taylor_tableau"}
