"""Set-up probe: the work every `tracker` command does before its experiment.

    python3 perfbench/probe.py CONFIG_JSON

Imports quadtrack, validates the config and builds its scenario, then
prints one JSON line describing the environment this child saw: library
versions, the BLAS build, the thread settings and whether bytecode
caching is off.
"""

import json
import os
import platform
import sys


def main(config_path: str) -> int:
    import numpy
    import scipy

    from quadtrack.config import build_scenario, parse_config

    build_scenario(parse_config(config_path).scenario)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    settings = ("TRACKER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "env": {name: os.environ.get(name) for name in settings},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
