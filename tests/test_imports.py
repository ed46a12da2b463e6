import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import volterra_fbm


def test_package_import_stays_light():
    # the FFT quadrature uses numpy.fft; scipy.signal alone would add
    # over a second and tens of MB to every process importing the package
    src = str(Path(volterra_fbm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, volterra_fbm; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_scripts_import():
    # every script imports cleanly without running its __main__ block, so
    # a package name that a script still uses cannot vanish unnoticed
    root = Path(volterra_fbm.__file__).resolve().parents[2]
    scripts = sorted(str(p) for p in (root / "scripts").glob("*.py"))
    assert scripts
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import importlib.util, sys\n"
        "for i, path in enumerate(sys.argv[1:]):\n"
        "    spec = importlib.util.spec_from_file_location(f'script_{i}', path)\n"
        "    spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe, *scripts], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_perfbench_layers_resolve():
    # every (module, function) the benchmark's tracer wraps resolves in
    # the package, so a fold or a rename cannot silently turn a traced
    # layer into trace.absent_functions
    root = Path(volterra_fbm.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYER_FUNCTIONS
    missing = [f"{mod}.{fn}" for mod, fn in tracer.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"volterra_fbm.{mod}"), fn, None))]
    assert missing == []


def test_perfbench_workloads_run(tmp_path, monkeypatch):
    # the benchmark drives the package through its public API
    # (HolderParams(T=...), .values.values, SuiteConfig().grid_n, the
    # CLI); one tiny setup, op and check per workload keeps that API
    # working, and the checks compare against the recorded fingerprints
    root = Path(volterra_fbm.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        w = workload(tiny=True)
        inputs = w.setup(1, tmp_path / name)
        outcome = w.op(inputs)
        ok, details = w.check(inputs, [outcome])
        assert outcome.ok and ok, (name, details)


def test_module_exports_resolve():
    # every name in each module's __all__ exists, so a deleted function
    # cannot linger as an export
    missing = []
    for info in pkgutil.iter_modules(volterra_fbm.__path__):
        mod = importlib.import_module(f"volterra_fbm.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_one_csv_writer():
    # report.write_csv is the package's only CSV formatter: no other
    # module formats full-precision floats or imports csv
    root = Path(volterra_fbm.__file__).resolve().parent
    found = sorted(
        f"{path.name}: {needle}"
        for path in root.glob("*.py")
        for needle in (".17g", "import csv")
        if path.name != "report.py" and needle in path.read_text()
    )
    assert found == []
