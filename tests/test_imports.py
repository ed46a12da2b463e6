import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import volterra_fbm


def test_package_import_stays_light(tmp_path):
    # the package needs numpy alone: the FFT quadrature uses numpy.fft and
    # the Gamma normalizations fraccalc's own log-Gamma.  Importing scipy
    # (scipy.special about 0.2 s and 20 MB, scipy.signal over a second)
    # would add to the start-up of every process, so a fresh interpreter
    # that imports the package and runs every subcommand (and young_frac,
    # the one route no subcommand takes) loads no scipy module
    src = str(Path(volterra_fbm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys\n"
        "import volterra_fbm as vf\n"
        "from volterra_fbm.cli import main\n"
        "runs = [['solve', '--n', '16', '--paths', '2'],\n"
        "        ['moments', '--coeffs', 'bounded-growth', '--n', '16', '--paths', '4'],\n"
        "        ['verify', '--cases', '2'],\n"
        "        ['sample', '--n', '8', '--paths', '64', '--emit-paths', '1'],\n"
        "        ['convergence', '--n', '16']]\n"
        "codes = [main(argv + ['--out', f'{sys.argv[1]}/{argv[0]}']) for argv in runs]\n"
        "g = vf.fbm.sample_davies_harte(vf.build_grid(1.0, 8), 0.75, 1, vf.Seed(1), 0)\n"
        "f = vf.BivariateKernelValues(g.grid, g.values[None, :, 0].repeat(9, 0))\n"
        "vf.integrals.young_frac(f, g, 0.2)\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


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
