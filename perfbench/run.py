#!/usr/bin/env python3
"""MATEX benchmark: time-to-waveform, set-up time and campaign throughput
on seeded n >= 10k RLC power grids, driven through matex_cli.

    python3 perfbench/run.py --workload deck_dist|campaign \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
product (Release) and perfbench_tool under .bench_build/.

--trace 0 times the CLI with tracing off and prints every end-to-end
metric of BENCHMARK.json. --trace 1 replays the workload in-process
through perfbench_tool, which records spans around the calls into each
module, and prints every per-layer metric. Both check every waveform the
program writes against a reference (one R-MATEX system at Krylov
tolerance 1e-10, cross-checked against trapezoidal at tstep) and byte for
byte against the first run of the same deck; a violation counts as a
failed operation. The last line of stdout is the JSON result.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from array import array

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
CLI = os.path.join(BUILD, "cmake", "matex", "matex_cli")
TOOL = os.path.join(BUILD, "cmake", "perfbench_tool")

# Largest deviation of any probe sample from the reference, in volts, per
# workload. MATEX is exact for PWL inputs up to the Krylov tolerance.
ACCURACY_BOUND_V = {"deck_dist": 1e-6, "campaign": 1e-6}
SETUP_REPEATS = 3      # set-up invocations per run; setup_s is their median
MIN_INVOCATIONS = 3    # timed invocations per run, at least
TSTEP = "10p"          # the CLI default output step
RUN_LIMIT_S = 165      # everything after the build ends within this

# The program sees only the deck and these flags. Deck and output names
# are relative to WORK and the same on every run and every seed:
# runtime::scenario_fingerprint hashes the deck label, so the path string
# decides shard placement.
WORKLOADS = {
    "deck_dist": {"deck": "pdn_t6.sp",
                  "flags": ["--method", "dist", "--threads", "4"]},
    "campaign": {"deck": "pdn_t4.sp",
                 "flags": ["--batch", "--shards", "2", "--threads", "2",
                           "--checkpoint", "campaign.jsonl",
                           "--store", "campaign.store"]},
}
CAMPAIGN_SCENARIOS = 6  # R-MATEX 2 gamma x 2 tol, I-MATEX 2 tol


class BenchError(Exception):
    pass


class Deadline:
    """Time left for the run once the build is done. A process still
    running when it is up is killed with its whole process group."""
    end = None

    @classmethod
    def start(cls):
        cls.end = time.monotonic() + RUN_LIMIT_S

    @classmethod
    def left(cls):
        return max(1.0, cls.end - time.monotonic())


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no MATEX sources here; run from the repo root")
    os.makedirs(BUILD, exist_ok=True)
    cmake_dir = os.path.join(BUILD, "cmake")
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j",
                      str(min(4, os.cpu_count() or 1)),
                      "--target", "matex_cli", "perfbench_tool"])
        for argv in steps:
            if subprocess.run(argv, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"build failed, see {out.name}")


def tool(*argv):
    try:
        p = subprocess.run([TOOL, *argv], cwd=WORK, capture_output=True,
                           text=True, timeout=Deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench_tool {argv[0]} ran out of time")
    if p.returncode != 0:
        raise BenchError(f"perfbench_tool {argv[0]} failed: {p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- inputs

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_inputs(workload, seed):
    """Writes the seeded deck, returns (traffic properties, deck digest,
    reference table). The reference is built once per deck, untimed."""
    os.makedirs(WORK, exist_ok=True)
    deck = WORKLOADS[workload]["deck"]
    props = tool("gen", "--workload", workload, "--seed", str(seed),
                 "--out", deck)
    digest = sha256_file(os.path.join(WORK, deck))
    ref_dir = os.path.join(BUILD, "ref")
    os.makedirs(ref_dir, exist_ok=True)
    ref_path = os.path.join(ref_dir, f"{deck}-{digest[:16]}.txt")
    if not os.path.isfile(ref_path):
        probes = [a for p in props["probes"] for a in ("--probe", p)]
        t0 = time.perf_counter()
        made = tool("ref", "--deck", deck, "--out", ref_path + ".tmp",
                    *probes)
        os.replace(ref_path + ".tmp", ref_path)
        log(f"reference for {deck} built in "
            f"{time.perf_counter() - t0:.1f} s, "
            f"{made['tr_gap_v']:.3g} V from trapezoidal at tstep")
    return props, digest, read_table(ref_path)


# ------------------------------------------------------------- checking

def read_table(path):
    """Parses a matex waveform table: (probe names, times, columns)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines()
                 if ln and not ln.startswith("*")]
    header = lines[0].split()
    if header[0] != "time":
        raise ValueError(f"{path}: no table header")
    rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged table")
    cols = list(zip(*rows))
    return header[1:], list(cols[0]), [list(c) for c in cols[1:]]


def max_error(names, times, cols, ref):
    ref_names, ref_times, ref_cols = ref
    if names != ref_names:
        raise ValueError("probe names differ from the reference")
    if len(times) != len(ref_times) or any(
            abs(a - b) > 1e-18 for a, b in zip(times, ref_times)):
        raise ValueError("time axis differs from the reference")
    return max(abs(a - b) for c, rc in zip(cols, ref_cols)
               for a, b in zip(c, rc))


# The store writer seeds FNV-1a with 1469598103934665603, one digit short
# of the standard offset basis 14695981039346656037 that docs/FORMATS.md
# gives. The checker follows the bytes the program writes.
STORE_FNV_OFFSET = 1469598103934665603


def fnv1a(data):
    h = STORE_FNV_OFFSET
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def read_store(path):
    """Reads a binary waveform store (docs/FORMATS.md) through its footer
    index, verifying every checksum. Returns chunks in campaign order as
    (scenario_index, name, probe names, times, columns)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"MATEXWF1" or struct.unpack_from("<I", data, 8)[0] != 1:
        raise ValueError("not a version-1 waveform store")
    footer, magic, count = struct.unpack_from("<QII", data, len(data) - 16)
    if magic != 0x54464D57:
        raise ValueError("store trailer missing")
    fmagic, fcount = struct.unpack_from("<II", data, footer)
    entries = data[footer + 8:footer + 8 + 24 * count]
    (fsum,) = struct.unpack_from("<Q", data, footer + 8 + 24 * count)
    if fmagic != 0x58444946 or fcount != count or fnv1a(entries) != fsum:
        raise ValueError("store footer corrupt")
    chunks = []
    for e in range(count):
        offset, _fp, index, _ = struct.unpack_from("<QQII", entries, 24 * e)
        (cmagic, cindex, _fp2, name_bytes, probe_count, samples, payload,
         csum) = struct.unpack_from("<IIQIIQQQ", data, offset)
        body = data[offset + 48:offset + 48 + payload]
        if cmagic != 0x4B4E4843 or cindex != index or fnv1a(body) != csum:
            raise ValueError(f"store chunk {index} corrupt")
        pos = name_bytes
        name = body[:pos].decode()
        probes = []
        for _ in range(probe_count):
            (n,) = struct.unpack_from("<I", body, pos)
            probes.append(body[pos + 4:pos + 4 + n].decode())
            pos += 4 + n
        pos = (pos + 7) & ~7
        values = array("d")
        values.frombytes(body[pos:pos + 8 * samples * (1 + probe_count)])
        cols = [list(values[k * samples:(k + 1) * samples])
                for k in range(1 + probe_count)]
        chunks.append((index, name, probes, cols[0], cols[1:]))
    return chunks


class Checker:
    """Counts operations and failures. An operation is one deck run or one
    campaign scenario; it fails on a non-zero exit, a missing or
    unreadable output, a store that lacks a chunk, an error above the
    workload's ACCURACY_BOUND_V, or output bytes that differ from the
    first run of the same deck."""

    def __init__(self, workload, deck_digest, ref):
        self.ref = ref
        self.bound = ACCURACY_BOUND_V[workload]
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.digest_path = os.path.join(
            BUILD, "digest", f"{workload}-{deck_digest[:16]}.sha256")

    def fail(self, count, why):
        self.failed += count
        log(f"FAILED ({count} operation(s)): {why}")

    def check_error(self, names, times, cols):
        """Raises ValueError when a sample is over the accuracy bound."""
        err = max_error(names, times, cols, self.ref)
        self.max_err = max(self.max_err, err)
        if err > self.bound:
            raise ValueError(f"max error {err:.3e} V over the bound")

    def same_bytes(self, path):
        """Determinism: the output must match the first run's bytes."""
        digest = sha256_file(path)
        if not os.path.isfile(self.digest_path):
            os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
            with open(self.digest_path, "w") as f:
                f.write(digest)
            return True
        with open(self.digest_path) as f:
            return f.read().strip() == digest

    def table(self, code, path):
        self.attempted += 1
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            self.check_error(*read_table(path))
            if not self.same_bytes(path):
                raise ValueError("waveform table differs from the first run")
        except (OSError, ValueError) as e:
            self.fail(1, f"{os.path.basename(path)}: {e}")

    def store(self, code, path, stderr, fresh_expected=CAMPAIGN_SCENARIOS):
        """Checks a campaign: its store, and that the workers simulated
        fresh_expected scenarios in this run (all of them from an empty
        journal: none restored from a stale one)."""
        self.attempted += CAMPAIGN_SCENARIOS
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            chunks = read_store(path)
        except (OSError, ValueError) as e:
            self.fail(CAMPAIGN_SCENARIOS, f"campaign store: {e}")
            return 0
        status = [ln.rsplit("  ", 1)[-1] for ln in stderr.splitlines()
                  if ln.startswith(WORKLOADS["campaign"]["deck"] + "/")]
        fresh = status.count("ok")
        if fresh != fresh_expected:
            self.fail(CAMPAIGN_SCENARIOS,
                      f"{fresh} scenarios simulated fresh by the workers, "
                      f"expected {fresh_expected}")
            return 0
        ok = 0
        for index in range(CAMPAIGN_SCENARIOS):
            found = [c for c in chunks if c[0] == index]
            try:
                if not found:
                    raise ValueError("store lacks the chunk")
                _, _, probes, times, cols = found[0]
                self.check_error(probes, times, cols)
                ok += 1
            except ValueError as e:
                self.fail(1, f"scenario {index}: {e}")
        if ok == CAMPAIGN_SCENARIOS and not self.same_bytes(path):
            self.fail(ok, "campaign store differs from the first run")
            ok = 0
        return ok


# ------------------------------------------------------------ invocations

def invoke(argv):
    """Runs one CLI invocation in WORK. Returns wall time (exec to exit),
    user+sys CPU and peak RSS of the process and every child it waited
    for, exit code and stderr."""
    err_path = os.path.join(BUILD, "cli.stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=WORK, stdout=subprocess.DEVNULL,
                             stderr=err, start_new_session=True)
        watchdog = threading.Timer(Deadline.left(), os.killpg,
                                   (p.pid, signal.SIGKILL))
        watchdog.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": p.returncode,
            "stderr": stderr}


def clean_campaign_state():
    """Deletes the journal, the shard journals and the store: every
    campaign run starts from an empty journal."""
    for name in os.listdir(WORK):
        if name.startswith(("campaign.jsonl", "campaign.store")):
            os.remove(os.path.join(WORK, name))


def cli_argv(workload, probes, extra=()):
    argv = [CLI, WORKLOADS[workload]["deck"], *WORKLOADS[workload]["flags"]]
    argv += [a for p in probes for a in ("--probe", p)]
    if workload != "campaign":
        argv += ["--out", "out.txt"]
    return argv + list(extra)


def run_checked(workload, probes, checker, extra=(), clean=True):
    """One checked CLI invocation. Returns the invocation record with the
    number of operations that completed correctly."""
    if workload == "campaign":
        if clean:
            clean_campaign_state()
        r = invoke(cli_argv(workload, probes, extra))
        r["ok"] = checker.store(
            r["code"], os.path.join(WORK, "campaign.store"), r["stderr"],
            CAMPAIGN_SCENARIOS if clean else 0)
    else:
        out = os.path.join(WORK, "out.txt")
        if os.path.exists(out):
            os.remove(out)
        r = invoke(cli_argv(workload, probes, extra))
        before = checker.failed
        checker.table(r["code"], out)
        r["ok"] = 1 if checker.failed == before else 0
    if r["code"] != 0:
        log(f"CLI exit {r['code']}: {r['stderr'][-2000:]}")
    return r


def measure_setup(workload, probes):
    """setup_s: the same invocation cut to one output step."""
    walls = []
    for _ in range(SETUP_REPEATS):
        if workload == "campaign":
            clean_campaign_state()
        r = invoke(cli_argv(workload, probes, ["--tstop", TSTEP]))
        if r["code"] != 0:
            raise BenchError(f"set-up invocation failed: {r['stderr']}")
        walls.append(r["wall"])
    return statistics.median(walls)


def shard_counts():
    counts = []
    for k in range(2):
        path = os.path.join(WORK, f"campaign.jsonl.shard{k}")
        with open(path, "rb") as f:
            counts.append(sum(1 for ln in f if ln.strip()))
    return counts


# ------------------------------------------------------------------- runs

def untraced(workload, probes, checker, seconds):
    setup = measure_setup(workload, probes)
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        runs.append(run_checked(workload, probes, checker))
        if runs[-1]["code"] != 0 or Deadline.left() < 2 * runs[-1]["wall"]:
            break
    extra = {"walls": [round(r["wall"], 3) for r in runs]}
    if workload == "campaign":
        extra["scenarios_per_shard"] = shard_counts()
    med = lambda key: statistics.median(r[key] for r in runs)
    return {
        "wall_s": med("wall"),
        "setup_s": setup,
        "cpu_s": med("cpu"),
        "peak_rss_mb": med("rss_mb"),
        "scenarios_per_s": statistics.median(r["ok"] / r["wall"]
                                             for r in runs),
    }, extra


def traced(workload, seed, probes, checker):
    extra = {}
    spans = []
    # The untraced invocation the root span is reported beside.
    t0 = time.perf_counter()
    r = run_checked(workload, probes, checker)
    spans.append({"name": "cli.invoke", "start": 0.0,
                  "end": time.perf_counter() - t0})
    metrics = {"trace.wall_s": r["wall"]}
    if workload == "campaign":
        counts = shard_counts()
        extra["scenarios_per_shard"] = counts
        metrics["runtime.shard_imbalance"] = max(counts) / (sum(counts) / 2)
        # Rerun over the complete shard journals: spawn, merge, restore
        # and store with no simulation. Its store must match byte for byte.
        t1 = time.perf_counter()
        rr = run_checked(workload, probes, checker, clean=False)
        spans.append({"name": "runtime.shard_rerun", "start": t1 - t0,
                      "end": time.perf_counter() - t0})
        metrics["runtime.shard_rerun_s"] = rr["wall"]
        clean_campaign_state()

    run_id = f"{workload}-s{seed}-{time.time_ns()}"
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    spans_path = os.path.join(trace_dir, f"{run_id}.json")
    deck = WORKLOADS[workload]["deck"]
    args = ["trace", "--workload", workload, "--deck", deck,
            "--run-id", run_id, "--spans", spans_path, "--out", "replay.txt",
            "--journal", "replay.jsonl", "--store", "replay.store"]
    for name in os.listdir(WORK):
        if name.startswith("replay."):
            os.remove(os.path.join(WORK, name))
    measured = tool(*args, *[a for p in probes for a in ("--probe", p)])
    metrics.update(measured)

    # The replay's waveforms face the same reference.
    outs = ([f"replay.txt.{i}" for i in range(CAMPAIGN_SCENARIOS)]
            if workload == "campaign" else ["replay.txt"])
    checker.attempted += len(outs)
    for out in outs:
        try:
            checker.check_error(*read_table(os.path.join(WORK, out)))
        except (OSError, ValueError) as e:
            checker.fail(1, f"replay {out}: {e}")

    metrics["max_err_v"] = checker.max_err

    # Python-side spans join the tool's spans file, on their own timeline.
    with open(spans_path) as f:
        all_spans = json.load(f)
    for s in spans:
        s.update({"parent": None, "workload": workload, "run_id": run_id,
                  "timeline": "run.py"})
        all_spans.append(s)
    with open(spans_path, "w") as f:
        json.dump(all_spans, f, indent=1)
    extra["spans"] = os.path.relpath(spans_path, ROOT)
    return metrics, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        Deadline.start()
        props, deck_digest, ref = make_inputs(args.workload, args.seed)
        probes = props.pop("probes")
        checker = Checker(args.workload, deck_digest, ref)
        if args.trace:
            values, extra = traced(args.workload, args.seed, probes, checker)
            wanted = spec["per_layer"]
        else:
            values, extra = untraced(args.workload, probes, checker,
                                     args.seconds)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)

    traffic = {"workload": args.workload, "seed": args.seed, **props,
               "probes": len(probes), **extra}
    if args.workload == "campaign":
        traffic["scenarios"] = CAMPAIGN_SCENARIOS
    print("traffic " + json.dumps(traffic))
    metrics = {}
    for m in wanted:
        # A layer a workload never calls (runtime on deck_dist, say) reads 0.
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:28s} {value:14.6g} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
