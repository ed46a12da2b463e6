#!/usr/bin/env python3
"""Run the full inequality-verification suite and write the JSON
reports to out/verify; exits nonzero on any failure (CI entry point).

Runs `volterra-fbm verify --cases 1000 --seed 20260301`: the CLI's
default case count, but the seed of `verify.SuiteConfig`, not the CLI's
default seed 1. So its reports are those of the library's
`run_suite()` with default settings, and differ from a plain
`volterra-fbm verify`.
"""

import sys

from volterra_fbm.cli import main

if __name__ == "__main__":
    sys.exit(main(["verify", "--cases", "1000", "--seed", "20260301", "--out", "out/verify"]))
