#!/usr/bin/env python3
"""Per-thread CPU split of one perfbench run.

    scripts/thread_cpu_split.py <domino_perfbench binary> [workload seed seconds]

Defaults: dist_tcp, seed 1, 20 s.  Runs the benchmark binary (build it
first with perfbench/run.py; it lands in .bench_build/perfbench/), reads
every thread's CPU time and voluntary context switches from
/proc/<pid>/task/ at 2 s and at (seconds - 2) s, and prints each thread's
share of the process CPU in that window, that share times the run's
cpu_ns_per_frame, and its voluntary context switches in the window.  The
first thread listed is the main thread (for dist_tcp, the front tier).
"""
import json
import os
import subprocess
import sys
import time


def sample(pid):
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                stat = f.read()
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                status = f.read()
        except OSError:
            continue  # the thread exited between listdir and open
        fields = stat[stat.rindex(")") + 2:].split()
        cpu = (int(fields[11]) + int(fields[12])) / tick  # utime + stime
        vcs = next(int(line.split()[1]) for line in status.splitlines()
                   if line.startswith("voluntary_ctxt_switches"))
        out[int(tid)] = (cpu, vcs)
    return out


def main():
    if not 2 <= len(sys.argv) <= 5:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    binary = sys.argv[1]
    workload = sys.argv[2] if len(sys.argv) > 2 else "dist_tcp"
    seed = sys.argv[3] if len(sys.argv) > 3 else "1"
    seconds = int(sys.argv[4]) if len(sys.argv) > 4 else 20
    if seconds < 5:
        print("seconds must be at least 5", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary, "--workload", workload, "--seed", seed,
                             "--seconds", str(seconds), "--trace", "0"],
                            stdout=subprocess.PIPE, text=True)
    time.sleep(2)
    first = sample(proc.pid)
    time.sleep(seconds - 4)
    last = sample(proc.pid)
    result = json.loads(proc.communicate()[0].strip().splitlines()[-1])
    ns = result["metrics"]["cpu_ns_per_frame"]["value"]
    tids = sorted(t for t in last if t in first)
    total = sum(last[t][0] - first[t][0] for t in tids)
    print(f"cpu_ns_per_frame={ns:.0f} failed={result['failed']}")
    for t in tids:
        cpu = last[t][0] - first[t][0]
        if cpu <= 0 or total <= 0:
            continue
        print(f"  tid {t}: share={cpu / total:.3f} ns/frame={ns * cpu / total:.0f}"
              f" voluntary_ctxt_switches={last[t][1] - first[t][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
