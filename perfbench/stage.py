"""Run one trafgen CLI stage in this process, optionally traced.

    python3 stage.py --src SRC [--trace FILE --stage ID] -- ARGS...
    python3 stage.py --src SRC --probe

The process first bounds its own address space to ``MEM_BOUND_MB`` so that
memory exhaustion fails this stage and not the machine, then imports
trafgen from ``SRC`` and calls its real entry point with ``ARGS``. With
``--trace`` the public functions listed in ``tracer.WRAPPED`` are wrapped
before the stage runs and their spans are written to FILE when it ends.
``--probe`` prints the program's environment as JSON instead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
from pathlib import Path

MEM_BOUND_MB = 2048


def _blas_facts() -> dict:
    """Library, thread count and build of the OpenBLAS this process loaded."""
    facts = {"library": None, "threads": None, "config": None}
    maps = Path("/proc/self/maps").read_text()
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"library": Path(path).name, "threads": int(get_threads()),
                        "config": get_config().decode()}
    return facts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--stage")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    limit = MEM_BOUND_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import trafgen.cli

    if src not in Path(trafgen.__file__).resolve().parents:
        print(f"trafgen was imported from {trafgen.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.probe:
        import numpy
        import scipy
        print(json.dumps({"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "blas": _blas_facts()}))
        return 0

    sys.argv = ["trafgen", *args.cli_args]
    tracer = None
    if args.trace is not None:
        from tracer import Tracer
        tracer = Tracer(args.stage)
        tracer.install()
    try:
        trafgen.cli.main()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
