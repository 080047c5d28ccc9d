"""Run a command and print its peak resident memory in KiB as the last line
of stdout, after the command's own output.

    python3 perfbench/spawn.py PROGRAM [ARG...]

A child's `ru_maxrss` keeps the peak of the process image it was spawned
from, so a child of the benchmark process would report at least the
benchmark's own size.  Spawned from this small interpreter instead, the
figure is the command's own peak.  Exits with the command's exit code.
"""

import os
import sys

pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
sys.stdout.flush()
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
