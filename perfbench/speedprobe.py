"""Run one ``hallbases`` CLI command while sampling the machine's speed.

The benchmark runs each timed command, and each set-up import, as

    python perfbench/speedprobe.py PROBE.json -- <hallbases cli arguments>
    python perfbench/speedprobe.py PROBE.json --import-only

with ``src`` on ``PYTHONPATH``.  Every ``PERIOD_S`` of wall time a signal
handler in the command's own process times one fixed piece of reference
work (``reference_chunk``), so the samples come from the same processor at
the same moments as the command's own work.  The reference work never
touches ``hallbases``, so a change to the program moves the command's time
and not the samples'.  PROBE.json gets the sample times and the wall and
CPU time the handler spent, which the benchmark subtracts from the
command's times.  stdout carries the unchanged report.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from fractions import Fraction

PERIOD_S = 0.025


def reference_chunk(n=16, p=7):
    """About a millisecond of work like the program's inner loops: GF(p)
    row reduction of an n x n matrix, tuple-keyed dict counts and Fraction
    sums."""
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2147483648
            row.append(x % p)
        rows.append(row)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    counts = {}
    for i in range(n):
        for j in range(n):
            key = (i % 7, j % 5, rows[i][j])
            counts[key] = counts.get(key, 0) + 1
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(k % 13 + 1, k + 7)
    return r, len(counts), s


class Probe:
    def __init__(self):
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False

    def sample(self, *_):
        # a tick that arrives during a stalled sample is dropped, so that no
        # time is counted twice
        if self._busy:
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        reference_chunk()
        w1, c1 = time.perf_counter(), time.process_time()
        self.samples.append(w1 - w0)
        self.spent_wall += w1 - w0
        self.spent_cpu += c1 - c0
        self._busy = False


def run_probed(probe_path, cli_argv):
    """Run one CLI command (None: only import the CLI) under sampling."""
    probe = Probe()
    probe.sample()
    signal.signal(signal.SIGALRM, probe.sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        import hallbases.cli
        return 0 if cli_argv is None else hallbases.cli.main(cli_argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probe.sample()
        sys.stdout.flush()
        with open(probe_path, "w", encoding="utf-8") as fh:
            json.dump({"samples": probe.samples, "spent_wall": probe.spent_wall,
                       "spent_cpu": probe.spent_cpu}, fh)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[2] == "--import-only":
        sys.exit(run_probed(sys.argv[1], None))
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: speedprobe.py PROBE.json (-- <hallbases cli arguments> "
                 "| --import-only)")
    sys.exit(run_probed(sys.argv[1], sys.argv[3:]))
