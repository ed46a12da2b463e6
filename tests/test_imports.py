import os
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
