"""Time one cold start of sparsetrace: import plus config build and validation.

Run in a fresh interpreter with src on the path; the workload's CLI
arguments follow on the command line.  Prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
from sparsetrace.harness import parse_cli  # noqa: E402

parse_cli(sys.argv[1:])
print(repr(time.perf_counter() - start))
