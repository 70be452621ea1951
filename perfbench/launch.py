"""Run one coarse-kit CLI command as the console script does, and stamp it.

    python3 perfbench/launch.py <coarse-kit arguments...>

Environment:
  PERFBENCH_STAMP  JSON file written at exit: the CLOCK_MONOTONIC time at
                   which cli.main was entered, the host-speed timings taken
                   while the command ran (speed.py), plus spans when tracing.
  PERFBENCH_TRACE  comma-separated "module.function" names to trace.
  PERFBENCH_PROBE  "1": stop at the entry into cli.main (set-up only).
"""

import json
import os
import sys
import time

from speed import Sampler


def main():
    sampler = Sampler().start()
    from coarse_kit import cli

    stamp = {"main_entry": time.monotonic()}
    tracer = None
    functions = os.environ.get("PERFBENCH_TRACE")
    if functions:
        from tracing import Tracer

        tracer = Tracer()
        stamp["bindings"] = tracer.install(functions.split(","))
    try:
        if os.environ.get("PERFBENCH_PROBE") == "1":
            return 0
        return cli.main(sys.argv[1:])
    finally:
        stamp["speed"] = sampler.stop()
        if tracer is not None:
            stamp["spans"] = tracer.spans
        with open(os.environ["PERFBENCH_STAMP"], "w") as fp:
            json.dump(stamp, fp)


if __name__ == "__main__":
    sys.exit(main())
