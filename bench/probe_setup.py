"""Set-up probe: import the package, load and warm one workload, then print "ready".

``run.py`` starts this script several times and times each from process start
to the "ready" line; the median is the ``setup_s`` metric.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.Prepared(workloads.WORKLOADS[sys.argv[1]])
    print("ready", flush=True)
