"""The package namespace: ``maxwit`` exports its modules' public names."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import maxwit
from maxwit import boolmat, graphs, qsim, witness


def test_all_is_the_modules_all():
    names = maxwit.__all__
    assert names == ["__version__", *boolmat.__all__, *graphs.__all__, *qsim.__all__, *witness.__all__]
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(maxwit, name) is not None


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from maxwit import *", ns)
    assert set(ns) - {"__builtins__"} == set(maxwit.__all__)
    for mod in (boolmat, graphs, qsim, witness):
        for name in mod.__all__:
            assert ns[name] is getattr(mod, name)


def test_only_boolmat_binds_the_word_layout_helpers():
    """The bit readers of the packed words stay private to boolmat: every
    other module reads witnesses through its kernels."""
    from maxwit import cli, io

    layout = {"_top_bit", "_TOP_BIT", "_LOW_BITS", "_int_of"}
    for mod in (qsim, witness, graphs, io, cli):
        assert not layout & set(vars(mod)), mod.__name__


def test_every_traced_name_resolves():
    """The benchmark's tracer looks each ``TRACED`` name up in its owner's own
    namespace, so a deleted or renamed function would fail every traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_job.py"
    spec = importlib.util.spec_from_file_location("trace_job", path)
    trace_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_job)
    assert trace_job.TRACED
    missing = [name for name, (owner, attr) in trace_job.TRACED.items() if attr not in owner.__dict__]
    assert not missing, missing
