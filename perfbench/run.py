#!/usr/bin/env python3
"""The repository benchmark: `omn` wall time end to end, layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Builds bin/omn.exe and perfbench/layers.exe from the source tree it sits
in (into .bench_build/), generates the workload's inputs from --seed,
then either times the workload's `omn` command as a single-client closed
loop for --seconds (--trace 0, end-to-end metrics) or runs the traced
replay (--trace 1, per-layer metrics). Every output is checked; the last
stdout line is one JSON object {correct, attempted, failed, metrics}.
See perfbench/README.md for the workloads, metrics and how to read them.
"""

import argparse
import ctypes
import hashlib
import json
import math
import multiprocessing
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OMN = os.path.join(ROOT, BUILD_DIR, "default", "bin", "omn.exe")
LAYERS = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "layers.exe")

RUN_DEADLINE_S = 170.0  # every run must exit within 180 s
MIN_SOLVES = 3
SETUP_MIN_REPS = 3  # set up at least this many times ...
SETUP_MIN_S = 2.0  # ... and until this much time has gone into set-ups
TRACED_PASSES = 3
SHARD_KEY = "perfbench-preshared-key"

# --seed relabels the nodes of one fixed preset instance
# (BASE_SEED): every seed poses the same problem in different bytes, so
# differences between seeds measure the program rather than the input
# draw. HELD_OUT_SEED is a second instance, with its own pinned answers,
# for re-checking a claim on inputs its author did not tune on.
BASE_SEED = 1
HELD_OUT_SEED = 2

CURVE_KEYS = ["grid", "hop_success", "hop_success_inf", "flood_success",
              "flood_success_inf", "max_rounds_used"]

# Why each workload exists is in README.md. `pinned` is the diameter
# of each preset instance; the fleet workload is pinned through its
# reference run (the rm-ckpt-2d command on the same input).
WORKLOADS = {
    "i05-exact": {
        "kind": "exact",
        "gen": ["--preset", "infocom05"],
        "file": "trace.omn",
        "cmd": ["diameter", "{input}", "--domains", "1"],
        "layers": [],
        "pinned": {BASE_SEED: 6, HELD_OUT_SEED: 6},
    },
    "rm-ckpt-2d": {
        "kind": "ckpt",
        "gen": ["--preset", "reality"],
        "file": "trace.omn",
        "cmd": ["diameter", "{input}", "--domains", "2", "--checkpoint", "{work}/run.ckpt",
                "--checkpoint-every", "8"],
        "layers": ["--domains", "2", "--checkpoint-every", "8"],
        "pinned": {BASE_SEED: 7, HELD_OUT_SEED: 7},
    },
    "conf200-stream-sampled": {
        "kind": "sampled",
        "gen": ["--preset", "conference", "--nodes", "200", "--hours", "16", "--shards", "4"],
        "file": "trace.idx",
        "cmd": ["diameter", "{input}", "--stream", "--sample", "4", "--ci-width", "20"],
        "layers": ["--sample", "4", "--ci-width", "20"],
        "sample": 4,
        "pinned": {BASE_SEED: 4, HELD_OUT_SEED: 4},
    },
    "rm-fleet-tcp": {
        "kind": "fleet",
        "gen": ["--preset", "reality"],
        "file": "trace.omn",
        "cmd": ["delay-cdf", "{input}", "--workers", "2", "--listen", "127.0.0.1:0"],
        "layers": ["--workers", "2"],
        "env": {"OMN_SHARD_KEY": SHARD_KEY},
        "reference": "rm-ckpt-2d",
    },
}

# Shrunken inputs for --self-test: same commands, seconds-scale inputs.
# Their diameters are measured by the self-test itself.
SMALL = {
    "i05-exact": ["--preset", "random", "--nodes", "30", "--hours", "12", "--lambda", "20"],
    "rm-ckpt-2d": ["--preset", "random", "--nodes", "32", "--hours", "12", "--lambda", "20"],
    "conf200-stream-sampled": ["--preset", "conference", "--nodes", "40", "--hours", "14",
                               "--shards", "2"],
    "rm-fleet-tcp": ["--preset", "random", "--nodes", "32", "--hours", "12", "--lambda", "20"],
}

END_TO_END = [("solve_s", "s"), ("pairs_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

# Per-layer metrics, printed on every workload (0 where the workload
# bypasses the layer). Units as in README.md.
PER_LAYER = [
    ("ingest.parse_s", "s"), ("ingest.mb_per_s", "MB/s"), ("ingest.minor_words", "words"),
    ("index.create_s", "s"), ("index.minor_words", "words"),
    ("journey.self_s", "s"), ("journey.rounds", "count"), ("journey.contacts_scanned", "count"),
    ("journey.delta_descriptors", "count"), ("journey.changed_node_frac", "ratio"),
    ("journey.source_p50_s", "s"), ("journey.source_p90_s", "s"), ("journey.source_max_s", "s"),
    ("journey.minor_words", "words"),
    ("frontier.points_kept", "count"), ("frontier.points_pruned", "count"),
    ("frontier.keep_ratio", "ratio"), ("frontier.mean_size", "count"),
    ("delay_cdf.accumulate_s", "s"), ("delay_cdf.descriptors_added", "count"),
    ("merge.s", "s"), ("codec.encode_s", "s"), ("codec.decode_s", "s"),
    ("codec.partial_bytes", "bytes"),
    ("diameter.of_curves_s", "s"), ("diameter_est.bootstrap_s", "s"),
    ("diameter_est.sampled", "count"), ("diameter_est.rounds", "count"),
    ("pool.busy_s", "s"), ("pool.idle_frac", "ratio"), ("pool.tasks_stolen", "count"),
    ("pool.queue_wait_s", "s"),
    ("checkpoint.writes", "count"), ("checkpoint.bytes", "bytes"), ("checkpoint.s", "s"),
    ("shard.ready_s", "s"), ("shard.worker_compute_s", "s"), ("shard.idle_frac", "ratio"),
    ("shard.trace_ship_bytes", "bytes"), ("shard.merge_tail_s", "s"),
    ("cli.overhead_s", "s"), ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
]

# Counts that must repeat exactly between the traced passes of one input.
EXACT = ["journey.rounds", "journey.contacts_scanned", "journey.delta_descriptors",
         "frontier.points_kept", "frontier.points_pruned", "delay_cdf.descriptors_added",
         "codec.partial_bytes", "checkpoint.writes", "checkpoint.bytes",
         "shard.trace_ship_bytes"]
EXACT_WORDS = ["ingest.minor_words", "index.minor_words", "journey.minor_words"]

# The span names of layers.ml; each is the layer its self time is charged to.
LAYER_SPANS = {"ingest", "index", "journey", "delay_cdf.accumulate", "merge", "codec.encode",
               "codec.decode", "diameter.of_curves", "diameter_est", "pool", "checkpoint",
               "shard"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot produce a result (build or set-up failure)."""


# --- processes ---------------------------------------------------------

def become_subreaper():
    # Orphaned descendants (shard workers whose coordinator died) are
    # re-parented to this process, so every one is reaped and its peak
    # RSS counted.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class Spawner:
    """Runs every measured process tree from a helper forked at start-up.

    A child's max-RSS starts at its spawner's peak RSS (Linux carries the
    spawner's high-water mark across vfork and exec), so spawning from
    this process after it has held a large input would inflate
    `peak_rss_mb`. The helper stays at its start-up size (~14 MB), which
    is the floor of every reading."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=self._loop, args=(child,))
        self.proc.start()

    @staticmethod
    def _loop(conn):
        become_subreaper()
        while True:
            req = conn.recv()
            if req is None:
                return
            try:
                conn.send(("ok", run_tree(**req)))
            except OSError as e:
                conn.send(("error", str(e)))

    def run(self, cmd, **kw):
        self.conn.send(dict(kw, cmd=cmd))
        status, value = self.conn.recv()
        if status != "ok":
            raise OSError(value)
        return value

    def close(self):
        self.conn.send(None)
        self.proc.join()


SPAWNER = None


def run_tree(cmd, *, cwd, env, out, err, timeout):
    """Run one process tree to completion in its own session.

    Returns (exit code, wall seconds, largest max-RSS in MB over the tree).
    The tree is killed at `timeout`; stray descendants are killed and
    reaped before returning."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fo, stderr=fe,
                             start_new_session=True)
        killer = threading.Timer(timeout, lambda: _killpg(p.pid))
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    rss = ru.ru_maxrss
    grace = time.perf_counter() + 5.0
    while _group_alive(p.pid):
        if time.perf_counter() > grace:
            _killpg(p.pid)
        rss = max(rss, _reap_some())
        time.sleep(0.01)
    rss = max(rss, _reap_some())
    return p.returncode, wall, rss / 1024.0


def _killpg(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def _reap_some():
    rss = 0
    while True:
        try:
            pid, _, ru = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return rss
        if pid == 0:
            return rss
        rss = max(rss, ru.ru_maxrss)


# --- build, inputs, provenance -----------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "omn.ml"))):
        raise Fatal("no omn source tree next to perfbench/ (dune-project, bin/omn.ml)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
                        "--profile", "release", "-j", "2", "./bin/omn.exe",
                        "./perfbench/layers.exe"],
                       cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=880)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise Fatal("build failed")


def omn(args, cwd):
    r = subprocess.run([OMN] + args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=120)
    if r.returncode != 0:
        raise Fatal("omn %s failed: %s" % (" ".join(args), r.stderr.decode(errors="replace")))


def stride_prefix(n, k):
    """First k sources of Delay_cdf.uniform_order [0..n-1]: the sources a
    seed-0 sampled run computes."""
    if n <= 2:
        return list(range(min(n, k)))
    s = max(1, int(0.618 * n))
    while math.gcd(n, s) != 1:
        s += 1
    return [i * s % n for i in range(min(n, k))]


def trace_files(path):
    """The files holding a trace's records: itself, or a shard index's shards."""
    with open(path) as f:
        first = f.readline().strip()
        if first != "# omn-shards 1":
            return [path]
        d = os.path.dirname(path)
        return [os.path.join(d, line.strip()) for line in f
                if line.strip() and not line.startswith("#")]


def nodes_of(path):
    with open(trace_files(path)[0]) as f:
        for line in f:
            if line.startswith("# nodes "):
                return int(line.split()[2])
    raise Fatal("%s: no '# nodes' header" % path)


def relabel(path, seed, classes):
    """Rewrite the trace with its nodes permuted by a seeded permutation
    that maps each of `classes` (lists of nodes) onto itself and leaves
    every other node in place. Record order and times are untouched."""
    files = trace_files(path)
    perm = list(range(nodes_of(path)))
    rng = random.Random("perfbench:%d" % seed)
    for cls in classes:
        moved = list(cls)
        rng.shuffle(moved)
        for a, b in zip(cls, moved):
            perm[a] = b
    contacts = 0
    for fp in files:
        out = []
        with open(fp) as f:
            for line in f:
                if line.startswith("#") or not line.strip():
                    out.append(line)
                    continue
                a, b, rest = line.split(None, 2)
                a, b = perm[int(a)], perm[int(b)]
                if a > b:
                    a, b = b, a
                out.append("%d %d %s" % (a, b, rest))
                contacts += 1
        with open(fp, "w") as f:
            f.writelines(out)
    return len(perm), contacts, files


def relabel_classes(spec, n):
    """The node classes a seed may permute without changing the problem
    the workload's executor solves: the sampled sources stay the sampled
    sources, and every source stays on the shard worker it is dispatched
    to (so each worker's load is the same multiset of journeys)."""
    if "sample" in spec:
        fixed = set(stride_prefix(n, spec["sample"]))
        return [[v for v in range(n) if v not in fixed]]
    if spec["kind"] == "fleet":
        workers = spec["layers"][spec["layers"].index("--workers") + 1]
        r = subprocess.run([LAYERS, "ring", str(n), workers], stdout=subprocess.PIPE,
                           check=True, timeout=60)
        owner = [int(x) for x in r.stdout.split()]
        return [[v for v in range(n) if owner[v] == w] for w in sorted(set(owner))]
    return [list(range(n))]


def sha256_files(files):
    h = hashlib.sha256()
    size = 0
    for fp in files:
        with open(fp, "rb") as f:
            data = f.read()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def setup(spec, seed, base_seed, work):
    """Generate and relabel the inputs at least SETUP_MIN_REPS times and
    for at least SETUP_MIN_S (the set-up cost is the median); the last
    repetition's files are the run's inputs."""
    times = []
    d = None
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        if d is not None:
            shutil.rmtree(d)
        d = os.path.join(work, "input%d" % len(times))
        os.makedirs(d)
        t0 = time.perf_counter()
        path = os.path.join(d, spec["file"])
        omn(["gen"] + spec["gen"] + ["--seed", str(base_seed), "-o", path], cwd=d)
        n, contacts, files = relabel(path, seed, relabel_classes(spec, nodes_of(path)))
        times.append(time.perf_counter() - t0)
    sha, size = sha256_files(files)
    info = {"path": path, "nodes": n, "contacts": contacts, "bytes": size, "sha256": sha}
    return statistics.median(times), info


def tree_digest():
    """SHA-256 over the program's sources: provenance where git is absent."""
    h = hashlib.sha256()
    for top in ["dune-project", "bin", "lib", "perfbench"]:
        p = os.path.join(ROOT, top)
        paths = [p] if os.path.isfile(p) else sorted(
            os.path.join(dp, f) for dp, dn, fs in os.walk(p) for f in fs)
        for fp in paths:
            if fp.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(os.path.relpath(fp, ROOT).encode())
                with open(fp, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(workload, seed, base_seed, info):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               timeout=10)
            return r.stdout.decode().strip().splitlines()[0] if r.returncode == 0 else None
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return None

    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for i in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % i
        level, kind = read(base + "level"), read(base + "type")
        if level and kind != "Instruction":
            caches["L%s" % level] = read(base + "size")
    return {
        "workload": workload, "seed": seed, "base_seed": base_seed,
        "git": first_line(["git", "describe", "--always", "--dirty"]) or "not a git checkout",
        "tree_sha256": tree_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "ocaml": first_line(["ocamlfind", "ocamlopt", "-version"]),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "trace": {k: info[k] for k in ("sha256", "nodes", "contacts", "bytes")},
    }


# --- checks ------------------------------------------------------------

def curves_of(obj):
    return json.dumps({k: obj[k] for k in CURVE_KEYS}, sort_keys=True)


class Checks:
    """Named correctness checks; each failure is printed and counted."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, name, detail=""):
        if not ok:
            self.failures.append(name)
            log("CHECK FAILED %s %s" % (name, detail))
        return ok


def solve_cmd(spec, inp, work, out):
    args = [a.format(input=inp, work=work) for a in spec["cmd"]]
    return [OMN] + args + ["-o", out]


def child_env(spec, work):
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **spec.get("env", {}))


def solve(spec, inp, work, tag, deadline):
    """One timed `omn` run: (exit code, wall s, peak RSS MB, parsed output or None)."""
    out = os.path.join(work, "out-%s.json" % tag)
    rc, wall, rss = SPAWNER.run(solve_cmd(spec, inp, work, out), cwd=work,
                                env=child_env(spec, work),
                                out=os.path.join(work, "stdout-%s" % tag),
                                err=os.path.join(work, "stderr-%s" % tag),
                                timeout=max(1.0, deadline - time.perf_counter()))
    result = None
    if rc == 0:
        try:
            with open(out) as f:
                result = json.load(f)
        except (OSError, ValueError):
            result = None
    else:
        with open(os.path.join(work, "stderr-%s" % tag), errors="replace") as f:
            log(f.read()[-2000:])
    return rc, wall, rss, result


def check_solve(checks, spec, pinned, rc, result, first_curves, reference_curves):
    """Checks on one `omn` output; returns its curves digest (or None)."""
    if not checks.expect(rc == 0, "exit_status", "rc=%d" % rc):
        return None
    if not checks.expect(result is not None and all(k in result for k in CURVE_KEYS),
                         "output_parse"):
        return None
    c = curves_of(result)
    if spec["kind"] != "fleet":
        checks.expect(result.get("diameter") == pinned, "diameter_pinned",
                      "got %r, pinned %r" % (result.get("diameter"), pinned))
    if first_curves is not None:
        checks.expect(c == first_curves, "curves_identical_across_runs")
    if reference_curves is not None:
        checks.expect(c == reference_curves, "curves_match_reference",
                      "(%s curves differ from its reference run)" % spec["kind"])
    return c


def reference_run(spec, inp, work, deadline):
    """The fleet workload's reference: the rm-ckpt-2d command on the same
    input, whose diameter must be the pinned one."""
    ref = WORKLOADS[spec["reference"]]
    rc, wall, _, result = solve(ref, inp, work, "reference", deadline)
    if rc != 0 or result is None:
        raise Fatal("reference run failed (rc=%d)" % rc)
    if result.get("diameter") != spec["ref_pinned"]:
        raise Fatal("reference diameter %r, pinned %r" % (result.get("diameter"),
                                                           spec["ref_pinned"]))
    return curves_of(result), wall


def pairs_of(spec, info, result):
    n = info["nodes"]
    if spec["kind"] == "sampled":
        return result["sample"]["sampled"] * (n - 1)
    return n * (n - 1)


# --- timed run -----------------------------------------------------------

def timed(spec, info, work, seconds, pinned, reference, deadline):
    checks = Checks()
    walls, rsss, attempted, failed, pairs = [], [], 0, 0, None
    first = None
    t_end = time.perf_counter() + seconds
    while attempted < MIN_SOLVES or time.perf_counter() < t_end:
        if time.perf_counter() + max(walls, default=0.0) > deadline:
            break
        attempted += 1
        before = len(checks.failures)
        rc, wall, rss, result = solve(spec, info["path"], work, str(attempted), deadline)
        c = check_solve(checks, spec, pinned, rc, result, first, reference)
        if len(checks.failures) > before:
            failed += 1
            continue
        first = first or c
        pairs = pairs_of(spec, info, result)
        walls.append(wall)
        rsss.append(rss)
    return checks, attempted, failed, walls, rsss, pairs


# --- traced run ----------------------------------------------------------

def attribute(spans):
    """Self time per span, splitting every instant equally among the
    innermost spans running at it (so concurrent spans on two domains
    share the wall clock instead of double-counting it)."""
    by_id = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        events.append((s["t0"], 1, s["id"]))
        events.append((s["t1"], 0, s["id"]))
    events.sort()
    active_children = {s["id"]: 0 for s in spans}
    leaves, self_t = set(), {s["id"]: 0.0 for s in spans}
    last = events[0][0] if events else 0.0
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_t[leaf] += share
        last = t
        parent = by_id[sid]["parent"]
        if is_start:
            leaves.add(sid)
            if parent in by_id:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(sid)
            if parent in by_id:
                active_children[parent] -= 1
                if active_children[parent] == 0 and by_id[parent]["t0"] <= t < by_id[parent]["t1"]:
                    leaves.add(parent)
    return self_t


def layer_metrics(traced, input_bytes, domains):
    """Per-layer metrics of one traced pass (see README.md)."""
    spans = [dict(zip(["id", "name", "parent", "t0", "t1", "words", "dom"], s))
             for s in traced["spans"]]
    by_id = {s["id"]: s for s in spans}
    self_t = attribute(spans)
    child_words = {}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None and p["dom"] == s["dom"]:
            child_words[p["id"]] = child_words.get(p["id"], 0.0) + s["words"]
    t, words = {}, {}
    for s in spans:
        layer = s["name"]
        if layer in LAYER_SPANS:
            t[layer] = t.get(layer, 0.0) + self_t[s["id"]]
            words[layer] = words.get(layer, 0.0) + s["words"] - child_words.get(s["id"], 0.0)
    counts = traced["counts"]
    wall = traced["wall_s"]
    m = {k: 0 for k, _ in PER_LAYER}
    m.update({k: v for k, v in counts.items() if k in m})
    side_s, side_w = counts.get("index.side_s"), counts.get("index.side_words")
    if side_s is not None:
        m["index.create_s"], m["index.minor_words"] = side_s, side_w
        m["ingest.parse_s"] = max(0.0, t.get("ingest", 0.0) - side_s)
        m["ingest.minor_words"] = words.get("ingest", 0.0) - side_w
    else:
        m["index.create_s"], m["index.minor_words"] = t.get("index", 0.0), words.get("index", 0.0)
        m["ingest.parse_s"], m["ingest.minor_words"] = t.get("ingest", 0.0), words.get("ingest", 0.0)
    if m["ingest.parse_s"] > 0:
        m["ingest.mb_per_s"] = input_bytes / 1e6 / m["ingest.parse_s"]
    m["journey.self_s"] = t.get("journey", 0.0)
    m["journey.minor_words"] = words.get("journey", 0.0)
    per_source = sorted(s["t1"] - s["t0"] for s in spans if s["name"] == "journey")
    if per_source:
        m["journey.source_p50_s"] = statistics.median(per_source)
        m["journey.source_p90_s"] = per_source[min(len(per_source) - 1,
                                                   math.ceil(0.9 * len(per_source)) - 1)]
        m["journey.source_max_s"] = per_source[-1]
    m["delay_cdf.accumulate_s"] = t.get("delay_cdf.accumulate", 0.0)
    for layer, key in [("merge", "merge.s"), ("codec.encode", "codec.encode_s"),
                       ("codec.decode", "codec.decode_s")]:
        if key not in counts:
            m[key] = t.get(layer, 0.0)
    m["diameter.of_curves_s"] = t.get("diameter.of_curves", 0.0)
    m["diameter_est.bootstrap_s"] = t.get("diameter_est", 0.0)
    # Pool: busy = task spans under a Pool.map span; stolen = tasks run
    # on another domain than the submitter; queue wait = map start to
    # the first task a helper domain starts.
    maps = [s for s in spans if s["name"] == "pool"
            and any(c["parent"] == s["id"] for c in spans)]
    busy = stolen = capacity = wait = 0.0
    for p in maps:
        kids = [c for c in spans if c["parent"] == p["id"]]
        busy += sum(c["t1"] - c["t0"] for c in kids)
        stolen += sum(1 for c in kids if c["dom"] != p["dom"] and c["name"] == "journey")
        helper = [c["t0"] for c in kids if c["dom"] != p["dom"]]
        wait += (min(helper) - p["t0"]) if helper else 0.0
        capacity += domains * (p["t1"] - p["t0"])
    if maps:
        m["pool.busy_s"], m["pool.tasks_stolen"], m["pool.queue_wait_s"] = busy, stolen, wait
        m["pool.idle_frac"] = max(0.0, 1.0 - busy / capacity) if capacity > 0 else 0.0
    m["checkpoint.s"] = t.get("checkpoint", 0.0)
    root = next(s for s in spans if s["name"] == "run")
    m["trace.coverage"] = 1.0 - self_t[root["id"]] / wall if wall > 0 else 0.0
    return m


def run_layers(spec, info, work, tag, plain, deadline):
    out = os.path.join(work, "layers-%s.json" % tag)
    cmd = [LAYERS, spec["kind"], info["path"], out] + spec["layers"] + ["--workdir", work]
    if plain:
        cmd.append("--plain")
    rc, _, _ = SPAWNER.run(cmd, cwd=work, env=child_env(spec, work),
                         out=os.path.join(work, "stdout-%s" % tag),
                         err=os.path.join(work, "stderr-%s" % tag),
                         timeout=max(1.0, deadline - time.perf_counter()))
    if rc != 0:
        with open(os.path.join(work, "stderr-%s" % tag), errors="replace") as f:
            log(f.read()[-2000:])
        return rc, None
    with open(out) as f:
        return rc, json.load(f)


def compare_counts(a, b):
    """Names of the exact counts that differ between two traced passes."""
    keys = EXACT + (EXACT_WORDS if a["_domains"] == 1 else [])
    return [k for k in keys if a.get(k) != b.get(k)]


def traced(spec, info, work, pinned, reference, deadline):
    """TRACED_PASSES rounds of a plain pass, a traced pass and a timed
    `omn` run: per-layer metrics (medians over the traced passes),
    tracing overhead, CLI overhead, and the exact-count self-check
    between the traced passes."""
    checks = Checks()
    attempted = failed = 0
    plain_walls, solve_walls, passes = [], [], []
    first = None
    domains = 2 if spec["kind"] == "ckpt" else 1
    for i in range(TRACED_PASSES):
        attempted += 1
        rc, p = run_layers(spec, info, work, "plain%d" % i, True, deadline)
        if checks.expect(rc == 0 and p is not None, "plain_pass", "rc=%d" % rc):
            plain_walls.append(p["wall_s"])
        else:
            failed += 1
        attempted += 1
        before = len(checks.failures)
        rc, tr = run_layers(spec, info, work, "traced%d" % i, False, deadline)
        if checks.expect(rc == 0 and tr is not None, "traced_pass", "rc=%d" % rc):
            m = layer_metrics(tr, info["bytes"], domains)
            m["_domains"] = domains
            checks.expect(m["trace.coverage"] >= 0.95, "trace_coverage",
                          "%.4f < 0.95" % m["trace.coverage"])
            if spec["kind"] != "fleet" or spec.get("ref_pinned") is not None:
                want = pinned if spec["kind"] != "fleet" else spec["ref_pinned"]
                checks.expect(tr["diameter"] == want, "traced_diameter_pinned",
                              "got %r, pinned %r" % (tr["diameter"], want))
            passes.append((m, curves_of(tr["curves"]), tr["wall_s"]))
        if len(checks.failures) > before:
            failed += 1
        attempted += 1
        before = len(checks.failures)
        rc, wall, _, result = solve(spec, info["path"], work, "t%d" % i, deadline)
        c = check_solve(checks, spec, pinned, rc, result, first, reference)
        if len(checks.failures) > before:
            failed += 1
        else:
            first = first or c
            solve_walls.append(wall)
    for m, c, _ in passes:
        checks.expect(first is not None and c == first, "traced_curves_match_timed")
    for m, _, _ in passes[1:]:
        diff = compare_counts(passes[0][0], m)
        checks.expect(not diff, "exact_counts_repeat", ",".join(diff))
    metrics = {}
    if passes and plain_walls and solve_walls:
        for k, _ in PER_LAYER:
            metrics[k] = statistics.median(m[k] for m, _, _ in passes)
        plain = statistics.median(plain_walls)
        metrics["trace.overhead_frac"] = statistics.median(w for _, _, w in passes) / plain - 1.0
        metrics["cli.overhead_s"] = statistics.median(solve_walls) - plain
    return checks, attempted, failed, metrics


# --- main ------------------------------------------------------------------

def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units},
    })


def run_workload(name, seed, seconds, trace, held_out=False, spec_override=None):
    """Set up, run and check one workload. Returns (result dict, summary)."""
    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    spec = dict(WORKLOADS[name])
    if spec_override:
        spec.update(spec_override)
    base_seed = HELD_OUT_SEED if held_out else BASE_SEED
    if "reference" in spec:
        ref_pinned = dict(WORKLOADS[spec["reference"]]["pinned"])
        ref_pinned.update((spec_override or {}).get("ref_pinned_table", {}))
        spec["ref_pinned"] = ref_pinned[base_seed]
    pinned = spec.get("pinned", {}).get(base_seed)
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_s, info = setup(spec, seed, base_seed, work)
        reference = None
        if "reference" in spec:
            reference, ref_s = reference_run(spec, info["path"], work, deadline)
            setup_s += ref_s
        print("provenance " + json.dumps(provenance(name, seed, base_seed, info)), flush=True)
        if trace:
            checks, attempted, failed, metrics = traced(spec, info, work, pinned, reference,
                                                        deadline)
            correct = not checks.failures and bool(metrics)
            units = PER_LAYER
        else:
            checks, attempted, failed, walls, rsss, pairs = timed(
                spec, info, work, seconds, pinned, reference, deadline)
            correct = not checks.failures and bool(walls)
            metrics = {}
            if walls:
                solve_s = statistics.median(walls)
                metrics = {"solve_s": solve_s, "pairs_per_s": pairs / solve_s,
                           "setup_s": setup_s, "peak_rss_mb": statistics.median(rsss)}
            units = END_TO_END
            log("%s: %d solves, median %.4f s (min %.4f, max %.4f), peak RSS %s MB, "
                "failed_frac %g (%d/%d)" % (
                    name, len(walls), metrics.get("solve_s", float("nan")),
                    min(walls, default=float("nan")), max(walls, default=float("nan")),
                    " ".join("%.1f" % r for r in rsss), failed / attempted, failed, attempted))
        if not correct:
            log("%s: checks failed: %s" % (name, ", ".join(sorted(set(checks.failures)))))
        if not metrics:
            metrics = {k: 0.0 for k, _ in units}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics, "units": units, "failures": checks.failures}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def self_test():
    """Shrunken inputs through every workload's timed and traced path,
    plus negative cases that must be reported as failures."""
    # The diameters of the shrunken inputs are measured by a first timed
    # run, then pinned for the rest of the test: the test checks the
    # harness, not the diameters of these small traces.
    ok = True

    def report(what, good):
        nonlocal ok
        ok = ok and good
        log("self-test: %-58s %s" % (what, "ok" if good else "FAILED"))

    pinned = {}
    for name in ["i05-exact", "rm-ckpt-2d", "conf200-stream-sampled"]:
        over = {"gen": SMALL[name], "pinned": {BASE_SEED: "unknown"}}
        r = run_workload(name, 3, 0.1, 0, spec_override=over)
        report("%s: a wrong pinned diameter is a failure" % name,
               not r["correct"] and r["failed"] == r["attempted"]
               and set(r["failures"]) == {"diameter_pinned"})
    for name in ["i05-exact", "rm-ckpt-2d", "conf200-stream-sampled"]:
        spec = dict(WORKLOADS[name], gen=SMALL[name])
        work = os.path.join(ROOT, ".bench_work", "probe-%d" % os.getpid())
        os.makedirs(work, exist_ok=True)
        try:
            _, info = setup(spec, 3, BASE_SEED, work)
            _, _, _, res = solve(spec, info["path"], work, "probe", time.perf_counter() + 60)
            pinned[name] = res["diameter"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for name in WORKLOADS:
        over = {"gen": SMALL[name]}
        if name in pinned:
            over["pinned"] = {BASE_SEED: pinned[name]}
        else:
            over["ref_pinned_table"] = {BASE_SEED: pinned[WORKLOADS[name]["reference"]]}
        r = run_workload(name, 3, 0.1, 0, spec_override=over)
        report("%s: timed run passes its checks" % name, r["correct"] and r["failed"] == 0)
        r = run_workload(name, 3, 0.1, 1, spec_override=over)
        report("%s: traced run passes (coverage %.3f)" % (
            name, r["metrics"].get("trace.coverage", 0.0)), r["correct"] and r["failed"] == 0)
    a = {k: 1 for k in EXACT + EXACT_WORDS}
    a["_domains"] = 1
    b = dict(a, **{"journey.rounds": 2})
    report("a differing exact count is reported", compare_counts(a, b) == ["journey.rounds"])
    spans = [{"id": 0, "name": "run", "parent": -1, "t0": 0.0, "t1": 10.0},
             {"id": 1, "name": "pool", "parent": 0, "t0": 1.0, "t1": 9.0},
             {"id": 2, "name": "journey", "parent": 1, "t0": 1.0, "t1": 9.0},
             {"id": 3, "name": "journey", "parent": 1, "t0": 1.0, "t1": 5.0}]
    st = attribute(spans)
    report("concurrent spans share the wall clock",
           abs(st[0] - 2.0) < 1e-9 and abs(st[1]) < 1e-9 and abs(st[2] - 6.0) < 1e-9
           and abs(st[3] - 2.0) < 1e-9)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out preset instance instead of the tuning one")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("need --workload or --self-test")
    global SPAWNER
    SPAWNER = Spawner()
    try:
        build()
        if a.self_test:
            ok = self_test()
            print(json.dumps({"self_test": "ok" if ok else "FAILED"}))
            return 0 if ok else 1
        if a.workload == "all":
            bad = False
            for name in WORKLOADS:
                r = run_workload(name, a.seed, a.seconds, 0, a.held_out)
                bad = bad or not r["correct"]
                cells = ["%s %.4f %s" % (k, r["metrics"][k], u) for k, u in r["units"]]
                print("%-24s %s  failed_frac %g" % (name, "  ".join(cells),
                                                      r["failed"] / r["attempted"]), flush=True)
            return 1 if bad else 0
        r = run_workload(a.workload, a.seed, a.seconds, a.trace, a.held_out)
        print(result_line(r["correct"], r["attempted"], r["failed"], r["metrics"], r["units"]))
        return 0
    except (Fatal, subprocess.SubprocessError, OSError) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        SPAWNER.close()


if __name__ == "__main__":
    sys.exit(main())
