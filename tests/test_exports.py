"""Every exported name resolves, and deleted names, methods and parameters stay deleted."""

import importlib
import inspect
import pkgutil

import qfmax
from qfmax.holder import BumpFamily
from qfmax.reduction import or_trial

# names of the former second model form, folded into the tableau row, of the
# former second value accessor, climb and minimum search, folded into
# SequenceOracle and find_maximum, and of the former per-axis box forms,
# folded into one half width through _box_max, of the former quantile
# record, now a float at theta = 1/4, of the former power table and
# monomial sum, folded into eval_taylor, and of the former settable
# model-error constant, config file reader and second experiment catalogue
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
    "_power_table",
    "_monomial_sum",
    "_check_h_conf",
    "read_config",
    "_parse",
    "DESCRIPTORS",
    "write_plot_data",
    "_BENCH_COMMANDS",
    "_SCALING_KINDS",
    "_add_search",
    "_add_experiment",
    "_add_class",
    "_int_list",
    "_float_list",
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


def test_deleted_methods_and_parameters_stay_deleted():
    # bits become a function only through reduction.embed_bits
    assert not hasattr(BumpFamily, "member")
    # or_trial's accuracy is fixed at epsilon1 / 4: it takes search settings, not MaximizerParams
    params = tuple(inspect.signature(or_trial).parameters)
    assert params == ("bits", "epsilon1", "search", "rng", "d", "r", "rho")
