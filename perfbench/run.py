#!/usr/bin/env python3
"""End-to-end benchmark of the LRP simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload udp_overload --seed 7 --seconds 15 --trace 0

It builds perfbench/lrpbench.exe with dune, then runs the workload as a
series of fresh processes (one per receiver architecture, or several
sharded cluster runs), each given an equal share of --seconds for its
timed window.  It prints a table of metrics with units and the correctness
verdicts, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 repeats each run
untraced, then traced over the same simulated slices, and reports the
per-layer metrics (see perfbench/README.md).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "lrpbench.exe")
EVENTS_DIR = os.path.join(".bench_build", "events")
RUN_WINDOW = 170  # seconds after the build by which every run has ended
MIN_SETUPS = 15  # setup_s is the median of at least this many fresh set-ups

ALL_ARCHS = ["bsd", "soft-lrp", "ni-lrp", "early-demux", "napi", "napi-gro", "rss"]
LRP_ARCHS = ["soft-lrp", "ni-lrp"]

# Each workload: the runs it is made of (arch, index), extra process args,
# and per arch the simulated slices one nominal-speed second covers (see
# perfbench/speed.ml).  A run's slice count is its share of --seconds
# times that rate: fixed work for a given --seconds, whatever the host's
# momentary speed, so every count repeats exactly for a seed.
WORKLOADS = {
    "udp_overload": {
        "runs": [(a, i) for i, a in enumerate(ALL_ARCHS)],
        "args": [],
        "rate": {"bsd": 1100, "soft-lrp": 825, "ni-lrp": 840, "early-demux": 1075,
                 "napi": 1600, "napi-gro": 1075, "rss": 1650},
    },
    "http_synflood": {
        "runs": [(a, i) for i, a in enumerate(["bsd", "soft-lrp", "ni-lrp", "napi"])],
        "args": [],
        "rate": {"bsd": 975, "soft-lrp": 540, "ni-lrp": 820, "napi": 825},
    },
    "cluster_8x8": {
        "runs": [("soft-lrp", i) for i in range(5)],
        "args": ["--shards", "2"],
        "rate": {"soft-lrp": 400},
    },
}

END_TO_END = [
    ("sim_pkts_per_s", "1/s"),
    ("minor_words_per_pkt", "words"),
    ("peak_heap_mb", "MB"),
    ("slice_wall_ms_p50", "ms"),
    ("slice_wall_ms_p99", "ms"),
    ("setup_s", "s"),
]

# Per-layer metrics; those in PER_ARCH are also reported per arch on
# udp_overload with an ".<arch>" suffix.
PER_LAYER = [
    ("engine.events_per_pkt", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.self_ns_per_event", "ns"),
    ("engine.cancelled_per_pkt", "count"),
    ("engine.wheel_share", "ratio"),
    ("shardsim.epochs", "count"),
    ("shardsim.events_per_epoch", "count"),
    ("shardsim.messages_per_pkt", "count"),
    ("shardsim.speedup_available", "ratio"),
    ("nic.tx_ns_per_pkt", "ns"),
    ("nic.tx_words_per_pkt", "words"),
    ("fabric.forward_ns_per_pkt", "ns"),
    ("fabric.forward_words_per_pkt", "words"),
    ("nic.rx_ns_per_frame", "ns"),
    ("nic.rx_words_per_frame", "words"),
    ("nic.kick_ns", "ns"),
    ("nic.kicks_per_frame", "count"),
    ("nic.rxq_drops", "count"),
    ("fabric.uplink_sent_per_pkt", "count"),
    ("channel.discard_ratio", "ratio"),
    ("channel.hwm", "count"),
    ("chantab.unmatched", "count"),
    ("kernel.delivery_ratio", "ratio"),
    ("ip.ipq_drops_per_pkt", "count"),
    ("tcp.segments_per_request", "count"),
    ("tcp.rsts_sent", "count"),
    ("kernel.unaccounted_pkts", "count"),
    ("cpu.ctx_switches_per_pkt", "count"),
    ("cpu.hardirq_per_pkt", "count"),
    ("cpu.softirq_per_pkt", "count"),
    ("host.self_ns_per_pkt", "ns"),
    ("gc.minor_words_per_pkt", "words"),
    ("gc.promoted_words_per_pkt", "words"),
    ("gc.minor_collections", "count"),
    ("gc.major_slices", "count"),
    ("gc.pause_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
]

PER_ARCH = [
    "engine.events_per_pkt",
    "engine.ns_per_event",
    "nic.rx_ns_per_frame",
    "nic.rx_words_per_frame",
    "nic.kicks_per_frame",
    "channel.discard_ratio",
    "kernel.delivery_ratio",
    "host.self_ns_per_pkt",
]

UNITS = dict(PER_LAYER)
PER_LAYER_NAMES = [n for n, _ in PER_LAYER] + [
    "%s.%s" % (m, a) for a in ALL_ARCHS for m in PER_ARCH
]

# Named drop counters: every place a packet can die with a reason.
DROPS = [
    "nic_tx_drops", "fabric_drops", "rxq_drops", "ipq_drops", "mbuf_drops",
    "no_port_drops", "demux_drops", "edemux_early_drops", "csum_drops",
    "chan_discards", "sockq_drops", "uplink_dropped",
]


DEADLINE = [0.0]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Build the benchmark program from source; False when that fails."""
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/lrpbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed:", e)
        return False
    if r.returncode != 0 or not os.path.isfile(EXE):
        log(r.stdout.decode(errors="replace")[-4000:])
        return False
    return True


def run_proc(workload, arch, index, seed, extra, slices, trace=False, shards=None):
    """One fresh benchmark process.  Returns its parsed report, or None."""
    args = [EXE, "--workload", workload, "--arch", arch, "--seed", str(seed),
            "--index", str(index), "--trace", "1" if trace else "0",
            "--slices", str(slices)] + extra
    if shards is not None:
        args += ["--shards", str(shards)]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(EVENTS_DIR))
    t0 = time.time()
    try:
        r = subprocess.run(args + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, env=env,
                           timeout=max(1.0, DEADLINE[0] - t0))
    except subprocess.TimeoutExpired:
        log("run timed out:", " ".join(args))
        return None
    if r.returncode != 0:
        log("run failed (%d): %s\n%s" % (r.returncode, " ".join(args),
                                         r.stderr.decode(errors="replace")[-2000:]))
        return None
    try:
        return json.loads(r.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("unreadable report:", " ".join(args))
        return None


def quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def geomean(xs):
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def speed(rep):
    """The run's nominal-speed scale (perfbench/speed.ml), for span times."""
    return ratio(rep["wall_s"], rep["raw_wall_s"]) or 1.0


def unaccounted(rep):
    """Packet-conservation remainder at the end of a run."""
    f = rep["final"]
    drops = sum(f[k] for k in DROPS)
    if f["sent"] > 0:  # UDP worlds: the benchmark's sources
        return f["sent"] - f["received"] - drops - f["queued"]
    # TCP world: frames the NICs received that were neither fed to a
    # protocol, dropped for a named reason, nor are still queued.
    rx_drops = drops - f["nic_tx_drops"] - f["fabric_drops"] - f["uplink_dropped"]
    return f["frames"] - f["udp_delivered"] - f["tcp_delivered"] - rx_drops - f["queued"]


# --- end-to-end ---------------------------------------------------------------

def end_to_end(reps, setups):
    frames = sum(r["window"]["frames"] for r in reps)
    wall = sum(r["wall_s"] for r in reps)
    # Slice percentiles are taken per run (at --seconds 15 every run has
    # at least 1200 slices, so at least ten beyond its p99) and combined
    # over the workload's runs by geometric mean: each arch's tail counts
    # alike.
    per_run = [sorted(r["slice_ms"]) for r in reps]
    m = {
        "sim_pkts_per_s": ratio(frames, wall),
        "minor_words_per_pkt": ratio(sum(r["words_all"] for r in reps), frames),
        "peak_heap_mb": max(r["top_heap_mb"] for r in reps),
        "slice_wall_ms_p50": geomean(quantile(x, 0.50) for x in per_run),
        "slice_wall_ms_p99": geomean(quantile(x, 0.99) for x in per_run),
        "setup_s": statistics.median(setups),
    }
    return m, min(len(x) for x in per_run)


# --- per-layer ----------------------------------------------------------------

def layer_metrics(reps, untraced_wall, traced_wall):
    """Per-layer metrics over traced reports (one workload, or one arch)."""
    W = {k: sum(r["window"][k] for r in reps) for k in reps[0]["window"]}
    S = {k: {f: sum(r["spans"][k][f] * (speed(r) if f.endswith("_ns") else 1)
                    for r in reps)
             for f in reps[0]["spans"][k]}
         for k in reps[0]["spans"]}
    Z = {k: sum(r["shardsim"][k] for r in reps) for k in reps[0]["shardsim"]}
    F, E = W["frames"], W["events"]
    dispatch = sum(r["dispatch_ns"] * speed(r) * r["window"]["events"] for r in reps)
    per = lambda k: ratio(S[k]["incl_ns"], S[k]["count"])
    words = lambda k: ratio(S[k]["words"], S[k]["count"])
    return {
        "engine.events_per_pkt": ratio(E, F),
        "engine.ns_per_event": ratio(S["slice"]["incl_ns"], E),
        "engine.self_ns_per_event": ratio(dispatch, E),
        "engine.cancelled_per_pkt": ratio(W["timers_cancelled"], F),
        "engine.wheel_share": ratio(W["timers_wheel"], W["timers_wheel"] + W["timers_heap"]),
        "shardsim.epochs": Z["epochs"],
        "shardsim.events_per_epoch": ratio(Z["events_total"], Z["epochs"]),
        "shardsim.messages_per_pkt": ratio(Z["messages"], F),
        "shardsim.speedup_available": ratio(Z["events_total"], Z["events_critical"]),
        "nic.tx_ns_per_pkt": per("nic.transmit"),
        "nic.tx_words_per_pkt": words("nic.transmit"),
        "fabric.forward_ns_per_pkt": per("nic.deliver"),
        "fabric.forward_words_per_pkt": words("nic.deliver"),
        "nic.rx_ns_per_frame": per("nic.rx_handler"),
        "nic.rx_words_per_frame": words("nic.rx_handler"),
        "nic.kick_ns": per("nic.rx_kick"),
        "nic.kicks_per_frame": ratio(S["nic.rx_kick"]["count"], F),
        "nic.rxq_drops": W["rxq_drops"],
        "fabric.uplink_sent_per_pkt": ratio(W["uplink_sent"], F),
        "channel.discard_ratio": ratio(W["chan_discards"], F),
        "channel.hwm": max(r["final"]["channel_hwm"] for r in reps),
        "chantab.unmatched": W["chantab_unmatched"],
        "kernel.delivery_ratio": ratio(W["udp_delivered"] + W["tcp_delivered"], F),
        "ip.ipq_drops_per_pkt": ratio(W["ipq_drops"], F),
        "tcp.segments_per_request": ratio(W["tcp_delivered"], W["http_completed"]),
        "tcp.rsts_sent": W["rsts_sent"],
        "kernel.unaccounted_pkts": sum(unaccounted(r) for r in reps),
        "cpu.ctx_switches_per_pkt": ratio(W["ctx_switches"], F),
        "cpu.hardirq_per_pkt": ratio(W["hardirqs"], F),
        "cpu.softirq_per_pkt": ratio(W["softirqs"], F),
        # The slice's self time (slice minus every wrapped span) minus the
        # engine's calibrated dispatch share: work Cpu runs inside
        # simulated processes.
        "host.self_ns_per_pkt": ratio(S["slice"]["self_ns"] - dispatch, F),
        "gc.minor_words_per_pkt": ratio(sum(r["words_all"] for r in reps), F),
        "gc.promoted_words_per_pkt": ratio(sum(r["promoted_all"] for r in reps), F),
        "gc.minor_collections": sum(r["minor_collections"] for r in reps),
        "gc.major_slices": sum(r["major_slices"] for r in reps),
        "gc.pause_ms_p99": max(r["gc_pause_ms_p99"] for r in reps),
        "trace.overhead_pct": 100.0 * ratio(traced_wall - untraced_wall, untraced_wall),
    }


# --- the run ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not build():
        log("error: cannot build the benchmark (is this a checkout of the repo?)")
        return 2
    DEADLINE[0] = time.time() + RUN_WINDOW
    os.makedirs(EVENTS_DIR, exist_ok=True)

    wl = WORKLOADS[a.workload]
    runs = wl["runs"]
    # A traced run repeats every run two or three times, so it gives each
    # half the share to stay well inside the time limit.
    budget = a.seconds / len(runs) / (2 if a.trace else 1)
    failures = []  # (run label, reason)
    attempted = 0
    print("machine: %d cores, %s, OCaml %s" % (
        os.cpu_count() or 0, platform.machine(), ocaml_version()))
    print("workload %s, seed %d, %d runs of %.2f s each%s" % (
        a.workload, a.seed, len(runs), budget, ", traced" if a.trace else ""))

    reps = {}      # label -> untraced run report
    traced = {}    # label -> traced report over the same slices
    walls = {}     # label -> (untraced wall, traced wall) over those slices
    for arch, idx in runs:
        label = arch if a.workload != "cluster_8x8" else "run%d" % idx
        attempted += 1
        slices = max(10, round(budget * wl["rate"][arch]))
        rep = run_proc(a.workload, arch, idx, a.seed, wl["args"], slices)
        if rep is None:
            failures.append((label, "process failed"))
            continue
        reps[label] = rep
        problem = check_run(a.workload, rep)
        if a.trace and not problem:
            problem = traced_checks(a, wl, arch, idx, rep, label, traced, walls)
        if problem:
            failures.append((label, problem))

    # Extra set-up-only processes (no timed slices), so setup_s is a
    # median over several fresh set-ups on every workload.
    setups = [r["setup_s"] for r in reps.values()]
    for j in range(0 if a.trace else max(0, MIN_SETUPS - len(runs))):
        arch, idx = runs[j % len(runs)]
        rep = run_proc(a.workload, arch, idx, a.seed, wl["args"], 0)
        attempted += 1
        if rep is None:
            failures.append(("setup%d" % j, "process failed"))
        else:
            setups.append(rep["setup_s"])

    good = {k: v for k, v in reps.items() if k not in dict(failures)}
    if a.workload == "udp_overload" and "bsd" in good:
        bsd = delivery(good["bsd"])
        for lrp in LRP_ARCHS:
            if lrp in good and not bsd < delivery(good[lrp]):
                failures.append(("bsd", "BSD delivers %.3f, not less than %s's %.3f"
                                 % (bsd, lrp, delivery(good[lrp]))))
                break

    failed_labels = set(l for l, _ in failures)
    ok_reps = [r for l, r in reps.items() if l not in failed_labels]
    metrics = {}
    if ok_reps and not a.trace:
        e2e, nslices = end_to_end(ok_reps, setups)
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}
        print("at least %d slices per run of %.0f us simulated; setup_s median of %d set-ups"
              % (nslices, ok_reps[0]["sim_window_us"] / max(1, ok_reps[0]["slices"]),
            len(setups)))
    elif a.trace and traced:
        ok = [l for l in traced if l not in failed_labels]
        if ok:
            agg = layer_metrics([traced[l] for l in ok],
                                sum(walls[l][0] for l in ok), sum(walls[l][1] for l in ok))
            vals = {n: agg[n] for n, _ in PER_LAYER}
            for l in ok:
                if a.workload == "udp_overload":
                    one = layer_metrics([traced[l]], *walls[l])
                    for m in PER_ARCH:
                        vals["%s.%s" % (m, l)] = one[m]
            for n in PER_LAYER_NAMES:
                unit = UNITS.get(n) or UNITS[n.rsplit(".", 1)[0]]
                metrics[n] = {"value": vals.get(n, 0), "unit": unit}
            identity(a.workload, [traced[l] for l in ok])

    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for label, why in failures:
        print("  FAILED %s: %s" % (label, why))
    if not failures:
        print("checks: every run passed%s" % (
            " (repeat, traced-equals-untraced, span balance%s)" % (
                ", shard invariance" if a.workload == "cluster_8x8" else "")
            if a.trace else ""))
    failed = len(failed_labels)
    print("failed_run_ratio %d/%d = %.3f" % (failed, attempted, ratio(failed, attempted)))
    need = END_TO_END if not a.trace else [(n, None) for n in PER_LAYER_NAMES]
    correct = failed == 0 and all(n in metrics for n, _ in need)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30).stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def delivery(rep):
    w = rep["window"]
    return ratio(w["received"], w["sent"])


def check_run(workload, rep):
    """Checks on one untraced run's simulated outputs; a reason, or None."""
    w = rep["window"]
    if w["frames"] <= 0 or rep["slices"] <= 0:
        return "no frames in the timed window"
    if rep["rtev_lost"]:
        return "runtime event ring lost %d events" % rep["rtev_lost"]
    if workload == "http_synflood" and w["http_completed"] <= 0:
        return "no HTTP request completed"
    if workload == "http_synflood" and w["syn_sent"] <= 0:
        return "SYN flood sent nothing"
    if workload == "cluster_8x8" and w["received"] <= 0.9 * w["sent"]:
        return "cluster below saturation delivered only %d of %d" % (w["received"], w["sent"])
    return None


def traced_checks(a, wl, arch, idx, rep, label, traced, walls):
    """The traced run's extra runs and checks for one untraced run."""
    common = (a.workload, arch, idx, a.seed, wl["args"], rep["slices"])
    cluster = a.workload == "cluster_8x8"
    if not cluster:
        # Self-test: a second untraced run of the same seed and slices
        # repeats every deterministic count, minor words included.
        again = run_proc(*common)
        if again is None:
            return "repeat run failed"
        for k in ("events", "frames", "received", "http_completed"):
            if again["window"][k] != rep["window"][k]:
                return "repeat run differs in %s" % k
        if again["words_self"] != rep["words_self"]:
            return "repeat run differs in minor words (%r vs %r)" % (
                again["words_self"], rep["words_self"])
        base = again
    else:
        base = rep
    tr = run_proc(*common, trace=True)
    if tr is None:
        return "traced run failed"
    if tr["digest"] != rep["digest"]:
        return "traced run's simulated outputs differ from the untraced run's"
    if tr["spans_unbalanced"]:
        return "%d unbalanced spans" % tr["spans_unbalanced"]
    traced[label] = tr
    walls[label] = (base["wall_s"], tr["wall_s"])
    if cluster and idx == 0:
        # Shard-count invariance, checked on the first run.
        one = run_proc(*common, shards=1)
        if one is None:
            return "1-shard run failed"
        if one["digest"] != rep["digest"]:
            return "1-shard digest %s differs from 2-shard %s" % (one["digest"], rep["digest"])
        w1 = one["words_all"] / one["window"]["frames"]
        w2 = rep["words_all"] / rep["window"]["frames"]
        if abs(w1 - w2) > 0.02 * w1:
            return "minor words per pkt disagree: %.2f at 1 shard, %.2f at 2" % (w1, w2)
        print("  %s: 1 shard %.2f, 2 shards %.2f minor words/pkt; digest %s" % (
            label, w1, w2, rep["digest"]))
    return None


def identity(workload, reps):
    """Print the slice-time split: engine + wrapped spans + host = slice."""
    slice_ns = sum(r["spans"]["slice"]["incl_ns"] * speed(r) for r in reps)
    wrapped = slice_ns - sum(r["spans"]["slice"]["self_ns"] * speed(r) for r in reps)
    engine = sum(r["dispatch_ns"] * speed(r) * r["window"]["events"] for r in reps)
    host = slice_ns - wrapped - engine
    print("  slice split (%s): engine %.1f%% + wrapped spans %.1f%% + host %.1f%% of %.3f s"
          % (workload, 100 * ratio(engine, slice_ns), 100 * ratio(wrapped, slice_ns),
             100 * ratio(host, slice_ns), slice_ns / 1e9))


if __name__ == "__main__":
    sys.exit(main())
