"""Time one workload's set-up in a fresh interpreter; print the seconds.

Usage: ``python3 perfbench/probe_setup.py <workload> <seed> <scale>``.
Set-up is what a user pays before the first epoch: imports, configs,
checkpoint loads and env/trainer construction. Only a fresh process
pays the imports, so ``run.py`` starts this script several times and
reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from bootstrap import pin_threads, put_sources_on_path  # noqa: E402

pin_threads()


def main(argv: list[str]) -> int:
    name, seed, scale = argv[0], int(argv[1]), argv[2]
    if not put_sources_on_path():
        print("probe_setup: src/repro not found", file=sys.stderr)
        return 2
    import workloads

    workloads.WORKLOADS[name].setup(seed, workloads.SCALES[scale][name])
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
