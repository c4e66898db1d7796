#!/usr/bin/env python3
"""Soak `h2h serve` with fresh scenario keys and check that memory levels off.

    python3 ci/serve_soak.py [--h2h build/tools/h2h] [--requests 2000]

Runs N requests through one `h2h serve --threads 2` on stdin, then 4N
through another, one request outstanding at a time. Every request carries a
scenario key the server has not seen before:

  - mocap and cnn-lstm summary plans at fresh bandwidths, half of them
    spelled as a uniform "links" object
  - two-tenant co-maps at fresh bandwidths
  - plan -> acc_lost -> acc_returned repair chains on fresh keys

After the last answer, and before closing stdin, it reads the server's
VmHWM from /proc/<pid>/status. (The server's ru_maxrss would also count the
resident memory of the process that spawned it.) It exits 1 when any answer
is not ok, or when the 4N run's peak exceeds the N run's by more than 15%:
the server's scenario state is bounded, so its memory must not grow with
the number of keys it has seen.
"""
import argparse
import json
import subprocess
import sys
import time

GROWTH_LIMIT = 1.15


def summary_plan(model, gbps, links):
    req = {"schema_version": 1, "model": model}
    if links:
        req["links"] = {"shape": "uniform", "bw_gbps": gbps}
    else:
        req["bw_gbps"] = gbps
    req["emit"] = {"mapping": False, "steps": False, "timing": False}
    return req


def tenants(gbps):
    return {"schema_version": 1,
            "tenants": [{"name": "a", "model": "mocap", "slo_s": 0.01},
                        {"name": "b", "model": "cnn-lstm", "slo_s": 0.01}],
            "bw_gbps": gbps,
            "emit": {"mapping": False}}


def repair(model, gbps, event):
    return {"schema_version": 1, "model": model, "bw_gbps": gbps,
            "repair": {"event": event, "acc": 0},
            "emit": {"mapping": False, "timing": False}}


def stream(count):
    """The first `count` requests of the soak mix, every key fresh."""
    requests = []
    key = 0

    def fresh():
        nonlocal key
        key += 1
        return 0.1 + key * 1e-5

    while len(requests) < count:
        chain = fresh()
        requests += [
            summary_plan("mocap", fresh(), links=False),
            summary_plan("cnn-lstm", fresh(), links=True),
            tenants(fresh()),
            summary_plan("mocap", chain, links=False),
            repair("mocap", chain, "acc_lost"),
            repair("mocap", chain, "acc_returned"),
            summary_plan("mocap", fresh(), links=True),
            summary_plan("cnn-lstm", fresh(), links=False),
        ]
    for i, req in enumerate(requests[:count]):
        req["id"] = "s%d" % i
    return requests[:count]


def vm_hwm_kib(pid):
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/%d/status" % pid)


def soak(h2h, count):
    """Serves `count` requests; returns (peak KiB, seconds, failures)."""
    server = subprocess.Popen([h2h, "serve", "--threads", "2"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, bufsize=1)
    failures = []
    start = time.monotonic()
    try:
        for req in stream(count):
            server.stdin.write(json.dumps(req, separators=(",", ":")) + "\n")
            server.stdin.flush()
            line = server.stdout.readline()
            answer = json.loads(line) if line else {}
            if answer.get("ok") is not True or answer.get("id") != req["id"]:
                failures.append(line.strip() or "no answer to " + req["id"])
        peak = vm_hwm_kib(server.pid)
    finally:
        server.stdin.close()
        server.stdout.close()
        code = server.wait()
    seconds = time.monotonic() - start
    if code != 0:
        failures.append("h2h serve exited %d" % code)
    return peak, seconds, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--h2h", default="build/tools/h2h")
    parser.add_argument("--requests", type=int, default=2000)
    args = parser.parse_args()

    peaks = []
    ok = True
    for count in (args.requests, 4 * args.requests):
        peak, seconds, failures = soak(args.h2h, count)
        peaks.append(peak)
        print("%6d requests: VmHWM %.1f MiB, %.1f s, %d not ok"
              % (count, peak / 1024, seconds, len(failures)))
        for failure in failures[:5]:
            print("  " + failure[:300])
        ok = ok and not failures
    growth = peaks[1] / peaks[0]
    print("peak growth %.3fx (limit %.2fx)" % (growth, GROWTH_LIMIT))
    if growth > GROWTH_LIMIT:
        print("h2h serve's memory grows with the keys it has seen")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
