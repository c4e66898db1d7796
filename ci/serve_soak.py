#!/usr/bin/env python3
"""Soak `h2h serve` with many scenario keys and check that memory levels off.

    python3 ci/serve_soak.py [--h2h build/tools/h2h] [--requests 2000]

Runs two legs. Each leg sends N requests through one `h2h serve --threads 2`
on stdin, then 4N through another, one request outstanding at a time.

  - fresh keys: every request carries a scenario key the server has not
    seen before: mocap and cnn-lstm summary plans at fresh bandwidths, half
    of them spelled as a uniform "links" object; two-tenant co-maps at
    fresh bandwidths; and plan -> acc_lost -> acc_returned repair chains on
    fresh keys.
  - co-map keys: single-tenant co-maps (max_rounds 0, no steal round) over
    64 (model, caps) keys x 64 bandwidths, bandwidths cycling fastest. Each
    bandwidth meets many tenant models and masks, which is what a cache per
    bandwidth, each with its own session bound, would multiply.

After the last answer of a run, and before closing stdin, it reads the
server's VmHWM from /proc/<pid>/status. (The server's ru_maxrss would also
count the resident memory of the process that spawned it.) It exits 1 when
any answer is not ok, or when a leg's 4N run peaks more than 15% above its
N run: everything the server keeps between requests lives in one bounded
session cache, so its memory must not grow with the keys it has seen.
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


def fresh_key_stream(count):
    """The first `count` requests of the fresh-key mix, every key fresh."""
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
    return requests[:count]


MODELS = ["mocap", "cnn-lstm", "vfs", "facebag"]
# The capability masks every zoo model can be placed under.
BASE_CAPS = ["none", "conv", "fc", "conv+fc", "lstm", "conv+lstm", "fc+lstm",
             "conv+fc+lstm"]
CAPS = (BASE_CAPS
        + ["bigmem" if c == "none" else c + "+bigmem" for c in BASE_CAPS]
        + ["fastmem", "bigmem+fastmem"])
# (model, caps) keys interleaved by model, and 64 bandwidths.
COMAP_KEYS = [(m, c) for c in CAPS for m in MODELS][:64]
COMAP_BWS = [round(0.1 + 0.025 * i, 3) for i in range(64)]


def comap_key_stream(count):
    """`count` single-tenant co-maps, bandwidths cycling fastest."""
    requests = []
    for i in range(count):
        model, caps = COMAP_KEYS[(i // len(COMAP_BWS)) % len(COMAP_KEYS)]
        requests.append({
            "schema_version": 1,
            "tenants": [{"name": "t", "model": model, "caps": caps}],
            "bw_gbps": COMAP_BWS[i % len(COMAP_BWS)],
            "max_rounds": 0,
            "steal_round": False,
            "emit": {"mapping": False}})
    return requests


LEGS = [("fresh keys", fresh_key_stream), ("co-map keys", comap_key_stream)]


def vm_hwm_kib(pid):
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/%d/status" % pid)


def soak(h2h, requests):
    """Serves `requests`; returns (peak KiB, seconds, failures)."""
    for i, req in enumerate(requests):
        req["id"] = "s%d" % i
    server = subprocess.Popen([h2h, "serve", "--threads", "2"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, bufsize=1)
    failures = []
    start = time.monotonic()
    try:
        for req in requests:
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

    ok = True
    for name, stream in LEGS:
        peaks = []
        for count in (args.requests, 4 * args.requests):
            peak, seconds, failures = soak(args.h2h, stream(count))
            peaks.append(peak)
            print("%-11s %6d requests: VmHWM %.1f MiB, %.1f s, %d not ok"
                  % (name, count, peak / 1024, seconds, len(failures)))
            for failure in failures[:5]:
                print("  " + failure[:300])
            ok = ok and not failures
        growth = peaks[1] / peaks[0]
        print("%-11s peak growth %.3fx (limit %.2fx)"
              % (name, growth, GROWTH_LIMIT))
        if growth > GROWTH_LIMIT:
            print("h2h serve's memory grows with the keys it has seen")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
