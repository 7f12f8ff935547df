#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload, checks it, and prints one JSON result line.

    python3 perfbench/run.py --workload sim_write|sim_reconfig|real_3proc \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds a Release tree of the program
(the recraft library and the recraftd daemon) plus the perfbench measuring
binary under .bench_build/, and keeps every file it writes there.

  * sim_write, sim_reconfig: the perfbench binary runs the deterministic
    simulator; see src/sim_workloads.cpp.
  * real_3proc: this script starts three recraftd daemons on loopback UDP,
    each with a FileDisk WAL in a fresh directory, and the perfbench load
    process drives them with closed-loop net::KvClient threads; see
    src/real_load.cpp. Daemon CPU, wake-ups, peak RSS and WAL growth are
    read from /proc and the data directories around the measured window.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Metrics a workload's layers do no work for read 0 (METRICS.md says which).
"""

import argparse
import fcntl
import json
import os
import queue
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"

WORKLOADS = ("sim_write", "sim_reconfig", "real_3proc")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_us": "us",
    "lat_p99_us": "us",
    "rss_mb": "MB",
}

PER_LAYER = {
    "sim.events_per_op": "events/op",
    "sim.ns_per_event": "ns",
    "sim.msgs_per_op": "msgs/op",
    "sim.bytes_per_op": "B/op",
    "sim.ops_per_sim_s": "1/s",
    "kv.apply_ns_p50": "ns",
    "kv.query_ns_p50": "ns",
    "kv.busy_frac": "frac",
    "kv.snapshot_bytes_per_action": "B",
    "kv.snapshot_ns": "ns",
    "storage.fsyncs_per_op": "fsyncs/op",
    "storage.bytes_per_op": "B/op",
    "storage.io_busy_us_per_op": "us/op",
    "storage.fdatasync_us_p50": "us",
    "core.elections": "count",
    "core.election_ms": "ms",
    "core.catchup_ms": "ms",
    "core.read_rounds_per_read": "rounds/read",
    "core.split_ms": "ms",
    "core.merge_ms": "ms",
    "core.exchange_ms": "ms",
    "harness.retries_per_op": "retries/op",
    "harness.wrong_shard_per_op": "retries/op",
    "shard.refetches_per_action": "count",
    "net.rtt_p50_us": "us",
    "net.encode_ns": "ns",
    "net.decode_ns": "ns",
    "proc.leader_cpu_us_per_op": "us/op",
    "proc.follower_cpu_us_per_op": "us/op",
    "proc.sys_frac": "frac",
    "proc.leader_wakeups_per_op": "count/op",
    "proc.wal_bytes_per_op": "B/op",
    "budget.residual_us": "us",
    "trace.overhead_frac": "frac",
    "failover_ms": "ms",
    "reconfig_ms": "ms",
    "blocked_ms": "ms",
    "real.setup_s": "s",
    "real.ops_per_s": "1/s",
    "real.lat_p50_us": "us",
    "real.lat_p99_us": "us",
    "real.rss_mb": "MB",
}

# The real-process path rides along in sim_write's traced run (see main()):
# these are the names it contributes there.
REAL_LAYER = [n for n in PER_LAYER if n.startswith(("proc.", "budget."))]

# real_3proc shape.
DAEMONS = (1, 2, 3)
SETUP_SAMPLES = 5          # clusters started per run; the last is measured
# Sim set-up takes milliseconds, and how fast one process does it varies
# with where it lands, so each sample is a fresh process (with its own seed
# drawn from --seed, since the first elections' length depends on it). The
# machine's speed drifts over seconds, so half the samples are taken before
# the measured run and half after it.
SIM_SETUP_SAMPLES = 50     # per burst; two bursts
CHILD_TIMEOUT_S = 150      # every run ends well inside 180 s


class BenchError(Exception):
    """A failed check or a failed step: the run prints no metrics."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------


def build():
    """Configures and builds the Release tree; returns (perfbench, recraftd)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(
            "perfbench: the program's sources (CMakeLists.txt, src/) are not "
            "beside perfbench/; run from a full checkout"
        )
    bdir = WORK / "cmake"
    bdir.mkdir(parents=True, exist_ok=True)
    build_log = WORK / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(WORK / "build.lock", "w") as lock, open(build_log, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", *gen, "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                      "recraftd", "-j", jobs])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=850).returncode
            if rc != 0:
                raise SystemExit(f"perfbench: build failed ({' '.join(cmd)}); "
                                 f"see {build_log}")
    return bdir / "perfbench", bdir / "recraft" / "tools" / "recraftd" / "recraftd"


# --- sim workloads ------------------------------------------------------------


def last_json_line(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"{what} printed nothing")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError as e:
        raise BenchError(f"{what}: bad result line: {e}") from e


def sim_setup_samples(exe, args, first):
    samples = []
    for k in range(first, first + SIM_SETUP_SAMPLES):
        proc = subprocess.run(
            [str(exe), "setup", "--workload", args.workload, "--seed",
             str(args.seed * 1000 + k)],
            capture_output=True, text=True, timeout=30)
        res, _ = last_json_line(proc.stdout, f"{args.workload} set-up")
        if proc.returncode != 0 or not res["correct"]:
            raise BenchError(f"{args.workload} set-up failed: {res['error']}")
        samples.append(res["metrics"]["setup_s"]["value"])
    return samples


def run_sim(exe, args, run_dir):
    cmd = [str(exe), "sim", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--tmp", str(run_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args.workload} did not finish in "
                         f"{CHILD_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    res, chatter = last_json_line(proc.stdout, args.workload)
    for line in chatter:
        print(line)
    if proc.returncode != 0 or not res["correct"]:
        raise BenchError(f"{args.workload} failed its checks: {res['error']}")
    return res


# --- real_3proc -----------------------------------------------------------------


def free_udp_ports(n):
    """Ports the kernel hands out to bound probes, released just before use."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def write_checked(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
        with open(path) as f:
            if f.read() != text:
                raise BenchError(f"{path} did not read back as written")
    except OSError as e:
        raise BenchError(f"cannot write {path}: {e}") from e


class Cluster:
    """Three recraftd daemons; killed and reaped on every exit path."""

    def __init__(self, daemon, workdir, seed):
        self.daemon = daemon
        self.dir = workdir
        self.seed = seed
        self.procs = {}
        self.logs = []
        self.hosts = workdir / "hosts.txt"
        self.t_spawn_ns = 0

    def __enter__(self):
        self.dir.mkdir(parents=True)
        ports = free_udp_ports(len(DAEMONS))
        write_checked(self.hosts, "".join(
            f"{i} 127.0.0.1:{p}\n" for i, p in zip(DAEMONS, ports)))
        self.t_spawn_ns = time.monotonic_ns()
        try:
            for i in DAEMONS:
                logf = open(self.dir / f"n{i}.log", "w")
                self.logs.append(logf)
                self.procs[i] = subprocess.Popen(
                    [str(self.daemon), "--id", str(i), "--hosts",
                     str(self.hosts), "--data", str(self.dir / f"n{i}"),
                     "--cluster", ",".join(map(str, DAEMONS)),
                     "--seed", str(self.seed)],
                    stdout=logf, stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def check_alive(self):
        for i, p in self.procs.items():
            if p.poll() is not None:
                raise BenchError(f"daemon {i} exited with {p.returncode}; "
                                 f"log: {self.dir / f'n{i}.log'}")

    def data_bytes(self):
        total = 0
        for i in DAEMONS:
            for dirpath, _, files in os.walk(self.dir / f"n{i}"):
                for f in files:
                    try:
                        total += os.path.getsize(os.path.join(dirpath, f))
                    except OSError:
                        pass
        return total

    def __exit__(self, *exc):
        for p in self.procs.values():
            if p.poll() is None:
                p.kill()
        for p in self.procs.values():
            p.wait(timeout=30)
        for f in self.logs:
            f.close()
        return False


def proc_sample(pid):
    """utime, stime (s), voluntary context switches and VmHWM (MiB)."""
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    fields = stat[stat.rfind(")") + 2:].split()
    tck = os.sysconf("SC_CLK_TCK")
    sample = {"utime": int(fields[11]) / tck, "stime": int(fields[12]) / tck}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("voluntary_ctxt_switches:"):
                sample["vcsw"] = int(line.split()[1])
            elif line.startswith("VmHWM:"):
                sample["hwm_mb"] = int(line.split()[1]) / 1024.0
    return sample


def run_load(exe, cluster, args, seconds, trace, run_dir):
    """Runs the load process against `cluster`; returns (first_ack_ns,
    result, samples) where samples hold /proc readings at the window edges."""
    cmd = [str(exe), "load", "--hosts", str(cluster.hosts), "--seed",
           str(args.seed), "--seconds", str(seconds), "--trace",
           str(int(trace)), "--tmp", str(run_dir)]
    err_path = cluster.dir / "load.log"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, text=True)
        lines = queue.Queue()

        def pump():
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        deadline = time.monotonic() + seconds + 60
        first_ack = None
        samples = {}
        out = []
        try:
            while True:
                try:
                    line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
                except queue.Empty:
                    raise BenchError(f"load process timed out; log: {err_path}")
                if line is None:
                    break
                word = line.split()
                if word and word[0] == "FIRST_ACK":
                    first_ack = int(word[1])
                elif word and word[0] in ("WINDOW_START", "WINDOW_END"):
                    cluster.check_alive()
                    snap = {i: proc_sample(p.pid) for i, p in cluster.procs.items()}
                    snap["data_bytes"] = cluster.data_bytes()
                    if word[0] == "WINDOW_END":
                        snap["leader"] = int(word[1])
                    samples[word[0]] = snap
                else:
                    out.append(line)
            rc = proc.wait(timeout=max(1, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join(timeout=5)
    if first_ack is None:
        raise BenchError(f"no leader answered (load exit {proc.returncode}); "
                         f"logs in {cluster.dir}")
    result = None
    if seconds > 0:
        result, chatter = last_json_line("".join(out), "load process")
        for line in chatter:
            print(line)
        if rc != 0 or not result["correct"]:
            raise BenchError(f"real_3proc failed its checks: {result['error']}")
        if "WINDOW_END" not in samples:
            raise BenchError("load process never closed its window")
    return first_ack, result, samples


def run_real(exe, daemon, args, run_dir):
    setups = []
    for k in range(SETUP_SAMPLES):
        measured = k == SETUP_SAMPLES - 1
        with Cluster(daemon, run_dir / f"cluster{k}", args.seed + k) as c:
            first_ack, res, samples = run_load(
                exe, c, args, args.seconds if measured else 0,
                measured and args.trace == 1, run_dir)
            setups.append((first_ack - c.t_spawn_ns) / 1e9)
            if measured:
                c.check_alive()
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    ops = max(1, res["attempted"])
    start, end = samples["WINDOW_START"], samples["WINDOW_END"]
    metrics["setup_s"] = statistics.median(setups)
    metrics["rss_mb"] = sum(end[i]["hwm_mb"] for i in DAEMONS)
    if args.trace == 1:
        leader = end["leader"]
        if leader not in DAEMONS:
            raise BenchError("the load process saw no leader")
        cpu = {i: (end[i]["utime"] + end[i]["stime"]) -
               (start[i]["utime"] + start[i]["stime"]) for i in DAEMONS}
        sys_s = sum(end[i]["stime"] - start[i]["stime"] for i in DAEMONS)
        followers = [i for i in DAEMONS if i != leader]
        metrics["proc.leader_cpu_us_per_op"] = cpu[leader] * 1e6 / ops
        metrics["proc.follower_cpu_us_per_op"] = (
            statistics.mean(cpu[i] for i in followers) * 1e6 / ops)
        metrics["proc.sys_frac"] = sys_s / max(1e-9, sum(cpu.values()))
        metrics["proc.leader_wakeups_per_op"] = (
            (end[leader]["vcsw"] - start[leader]["vcsw"]) / ops)
        metrics["proc.wal_bytes_per_op"] = (
            (end["data_bytes"] - start["data_bytes"]) / ops)
        # The blocking steps of one put, from the probes: client<->leader
        # RTT, the slower of the leader's fdatasync and a follower's RTT plus
        # fdatasync, wire encode/decode, and apply.
        rtt = metrics["net.rtt_p50_us"]
        fsync = metrics["storage.fdatasync_us_p50"]
        steps = (rtt + max(fsync, rtt + fsync) +
                 (metrics["net.encode_ns"] + metrics["net.decode_ns"] +
                  metrics["kv.apply_ns_p50"]) / 1000.0)
        metrics["budget.residual_us"] = metrics["lat_p50_us"] - steps
    return {"correct": True, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


# --- main ---------------------------------------------------------------------


def finish(args, res):
    wanted = PER_LAYER if args.trace == 1 else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        value = res["metrics"].get(name, 0)
        if isinstance(value, dict):
            value = value["value"]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:>18.6f} {unit}")
    print(json.dumps({"correct": True, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}),
          flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seconds > 60:
        ap.error("--seconds must be in (0, 60]")

    # SIGTERM unwinds like an exception, so every daemon is still reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    exe, daemon = build()
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ok = False
    try:
        if args.workload == "real_3proc":
            res = run_real(exe, daemon, args, run_dir)
        else:
            setups = sim_setup_samples(exe, args, 0) if args.trace == 0 else []
            res = run_sim(exe, args, run_dir)
            if args.trace == 0:
                setups += sim_setup_samples(exe, args, SIM_SETUP_SAMPLES)
                res["metrics"]["setup_s"] = statistics.median(setups)
        if args.workload == "sim_write" and args.trace == 1:
            # The real-process layers (UDP links, FileDisk fdatasync, the
            # daemon poll loop) do no work in the simulator. Their wall-clock
            # figures spread too far run to run on a shared machine to carry
            # a bound, so they are measured here, as per-layer figures.
            real = run_real(exe, daemon, args, run_dir)["metrics"]
            for name in REAL_LAYER:
                res["metrics"][name] = real[name]
            for name in END_TO_END:
                res["metrics"]["real." + name] = real[name]
        ok = True
    except BenchError as e:
        log(f"FAILED: {e}")
    finally:
        if ok:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            log(f"kept the run directory (daemon logs, hosts file): {run_dir}")
    if not ok:
        return 1
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    finish(args, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
