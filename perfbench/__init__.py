"""Control-loop epoch benchmark for the MegaTE reproduction.

Runs the TE control loop epoch by epoch on named workloads, times every
layer from outside through its public calls, checks every solve, and
prints end-to-end metrics (untraced run) or per-layer metrics (traced
run).  ``python3 perfbench/run.py --help`` from the repository root;
see ``perfbench/README.md`` for the workloads and the metric map.
"""
