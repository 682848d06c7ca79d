"""The sapsim names the benchmark harness in ``bench/`` relies on.

The harness wraps the functions listed in ``bench/tracer.py`` by name and
reads the matrix of ``hamiltonian_at`` for its reference solve. Its own
tests run apart from this suite, so these checks keep a change that drops
or renames one of those names from passing here and failing only there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sapsim import hamiltonian_at

from conftest import LAM0

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "sapsim" or name.startswith("sapsim.")
            for attr, value in vars(module).items()}


def test_traced_names_resolve():
    tracer = _tracer()
    for table in (tracer.SPANNED, tracer.COUNTED):
        for module, names in table.items():
            module = importlib.import_module(f"sapsim.{module}")
            for name in names:
                assert callable(getattr(module, name)), (module, name)


def test_tracer_install_and_uninstall_restore_every_binding():
    tracer = _tracer()
    for module in tracer.SPANNED.keys() | tracer.COUNTED.keys():
        importlib.import_module(f"sapsim.{module}")
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {key for key, value in _bindings().items()
                   if value is not before[key]}
        assert {f"{module}.{fn}" for (module, fn) in wrapped} >= {
            f"sapsim.{name}" for name in tracer.SPAN_NAMES + tracer.COUNT_NAMES}
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_hamiltonian_matrix(folded5_ref, model_ref):
    H = hamiltonian_at(folded5_ref, model_ref, 0.0, LAM0).matrix
    assert H.shape == (5, 5) and np.array_equal(H, H.T)


def test_hamiltonian_matrix_is_the_full_folded5_matrix(folded5_ref,
                                                      model_ref):
    # The benchmark's reference solve integrates this matrix, so it must
    # stay the full 5 x 5 H built from the public coupling law, apart from
    # the three-level block the batched route solves: tridiagonal, with
    # kappa(separation of guides i and i + 1) off the diagonal and the
    # detuning on the inclined guides 2 and 4.
    model = model_ref._replace(detuning=0.3)
    for z in np.linspace(0.0, folded5_ref.z_end_um, 7):
        H = hamiltonian_at(folded5_ref, model, z, 1600.0).matrix
        k = [model.kappa(folded5_ref.separation(i, i + 1, z), 1600.0)
             for i in range(1, 5)]
        expected = (np.diag(k, 1) + np.diag(k, -1)
                    + np.diag([0.0, 0.3, 0.0, 0.3, 0.0]))
        assert np.array_equal(H == 0.0, expected == 0.0)
        assert np.allclose(H, expected, rtol=1e-12, atol=0.0)
