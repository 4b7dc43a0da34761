#!/usr/bin/env python3
"""Benchmark of the capsim campaign workloads, end to end and per layer.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Builds the release `capsim` binary and the `perfbench` helper from
source, runs one workload and prints, as the last line of stdout, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing; with `--trace 1` a separate traced run prints the per-layer
metrics. See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0x15CA1998
MANAGED_APP = "turb3d"
FIGURES_LEGS = 47

# Ops per run = seconds / nominal op time, never fewer than min_ops: a run
# ends after a fixed number of ops, so its length does not depend on how
# fast the program happens to be. managed-intervals and serve-warm hold at
# least 100 ops so that ten lie beyond their 90th percentile. serve-warm is
# not in BENCHMARK.json: its op time is a whole number of accept-poll ticks,
# so it jumps between ticks as the machine's speed drifts (see README.md).
WORKLOADS = {
    "sweep-cold": {"nominal_s": 3.0, "min_ops": 3},
    "managed-intervals": {"nominal_s": 0.3, "min_ops": 100},
    "serve-warm": {"nominal_s": 0.015, "min_ops": 100},
}
BATCH_CAMPAIGNS = {
    "sweep-cold": [["sweep", "all"]],
    "managed-intervals": [["compare-policies", MANAGED_APP], ["faults", MANAGED_APP]],
}
# Set-up is sampled between the ops, spread evenly across the whole run, and
# reported as the median: a shared VM's speed can drift within seconds, so
# samples taken together at the start would all see one moment of it. One
# batch sample is the fastest of SETUP_TRIES back-to-back dry runs, which
# drops the jitter of a ~2 ms process start.
SETUP_SAMPLES = 30  # set-up samples per batch run
SETUP_TRIES = 5
SERVE_SETUPS = 4  # server starts with a cold fill per serve-warm run, one per block of ops

# The op's time is gated as the fastest op of the run: a shared VM's speed
# changes in phases of seconds to minutes, every op of a workload is the
# same deterministic work, and no op can be faster than that work, so the
# minimum is the op time least moved by the host. The median op time and
# ops/s follow the phases and are printed in the facts line, ungated.
END_TO_END = {
    "op_min_ms": "ms",
    "setup_s": "s",
}
PER_LAYER = {
    "traced.op_ms": "ms",
    "traced.untraced_op_ms": "ms",
    "capsim.peak_rss_mb": "MB",
    "traced.uncovered_share": "fraction",
    **{f"ooo.core_minsts_per_s.w{w}": "Minst/s" for w in (16, 32, 48, 64, 80, 96, 112, 128)},
    "ooo.host_ns_per_sim_cycle": "ns",
    "trace.inst_gen_minsts_per_s": "Minst/s",
    "trace.ref_gen_mrefs_per_s": "Mref/s",
    "cache.stack_mrefs_per_s": "Mref/s",
    "cache.hier_mrefs_per_s": "Mref/s",
    "ooo.interval_us": "us",
    "cache.interval_us": "us",
    "timing.curve_eval_us": "us",
    **{f"core.policy.observe_ns.{p}": "ns" for p in ("process-level", "interval-greedy", "confidence", "hysteresis")},
    "par.cache.store_us": "us",
    "par.journal.append_us": "us",
    "par.journal.bytes_written": "bytes",
    "core.plan.cold_overhead_ms": "ms",
    "core.plan.resolve_ms": "ms",
    "core.plan.warm_run_ms": "ms",
    "serve.submit_rtt_ms": "ms",
    "serve.status_rtt_ms": "ms",
    "serve.overhead_ms": "ms",
    "trace.insts_generated": "count",
    "cache.refs_classified": "count",
    "cache.refs_simulated": "count",
    "ooo.sim_cycles": "count",
    "core.policy.observes": "count",
    "core.policy.switches": "count",
    "serve.legs_cache_hit": "count",
    "serve.legs_computed": "count",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


class Context:
    """Paths, the child environment and the scratch directories of one run."""

    def __init__(self, target, scale="default", seed=DEFAULT_SEED):
        self.capsim = os.path.join(target, "release", "capsim")
        self.helper = os.path.join(target, "release", "perfbench")
        self.scale = scale
        self.seed = seed
        self.nproc = len(os.sched_getaffinity(0))
        self.work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        self.next_dir = 0
        # The programs receive only the generated inputs: no inherited
        # CAP_* knob may change what a run means.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CAP_")}
        self.env["CAP_SCALE"] = scale
        self.procs = []

    def fresh(self, label):
        self.next_dir += 1
        path = os.path.join(self.work, f"{label}-{self.next_dir}")
        os.makedirs(path)
        return path

    def child_env(self, d):
        return dict(self.env, CAP_CACHE_DIR=os.path.join(d, "cache"), CAP_JOURNAL_DIR=os.path.join(d, "journal"))

    def close(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        shutil.rmtree(self.work, ignore_errors=True)


def build(target):
    """Builds capsim and the helper in release mode into `target`."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError(f"no Cargo.toml at {ROOT}: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "cap", "--bin", "capsim"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def timed_child(cmd, env, cwd, out_path):
    """Runs one child to completion: (wall seconds, exit code, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def capsim_stdout(ctx, args, d):
    """Runs capsim with its cache and journal under `d`; returns stdout bytes."""
    out = os.path.join(d, "stdout")
    _, code, _ = timed_child([ctx.capsim, *args], ctx.child_env(d), d, out)
    if code != 0:
        with open(out + ".err", "rb") as f:
            raise BenchError(f"capsim {' '.join(args)} exited {code}: {f.read().decode(errors='replace')}")
    with open(out, "rb") as f:
        return f.read()


def seed_args(ctx):
    return ["--seed", str(ctx.seed)]


def dry_run(ctx, campaigns):
    """Wall time of `capsim plan <campaign> --dry-run` in fresh directories."""
    d = ctx.fresh("setup")
    total = 0.0
    for c in campaigns:
        wall, code, _ = timed_child([ctx.capsim, "plan", *c, "--dry-run", *seed_args(ctx)], ctx.child_env(d), d,
                                    os.path.join(d, "stdout"))
        if code != 0:
            raise BenchError(f"capsim plan {' '.join(c)} --dry-run exited {code}")
        total += wall
    shutil.rmtree(d)
    return total


def batch_setup(ctx, campaigns, samples):
    """`samples` set-up samples, each the fastest of SETUP_TRIES dry runs."""
    return [min(dry_run(ctx, campaigns) for _ in range(SETUP_TRIES)) for _ in range(samples)]


def batch_references(ctx, campaigns):
    d = ctx.fresh("reference")
    refs = [capsim_stdout(ctx, ["plan", *c, "--jobs", str(ctx.nproc), *seed_args(ctx)], d) for c in campaigns]
    shutil.rmtree(d)
    return refs


def batch_ops(ctx, campaigns, references, n_ops, setup_samples=0):
    """One op = every campaign with --jobs 1 in one pair of fresh directories.
    The `setup_samples` set-up samples are spread evenly between the ops.

    Returns (op wall times of good ops, failed count, peak RSS KiB, set-up times)."""
    times, failed, peak, setup = [], 0, 0, []
    for i in range(n_ops):
        setup += batch_setup(ctx, campaigns, (i + 1) * setup_samples // n_ops - i * setup_samples // n_ops)
        d = ctx.fresh("op")
        env = ctx.child_env(d)
        total, ok = 0.0, True
        for i, (c, ref) in enumerate(zip(campaigns, references)):
            out = os.path.join(d, f"stdout-{i}")
            wall, code, rss = timed_child([ctx.capsim, *c, "--jobs", "1", *seed_args(ctx)], env, d, out)
            total += wall
            peak = max(peak, rss)
            with open(out, "rb") as f:
                ok = ok and code == 0 and f.read() == ref
        if ok:
            times.append(total)
        else:
            failed += 1
        shutil.rmtree(d)
    return times, failed, peak, setup


def serve_clients(ctx):
    """Client threads of the served loop: one per core, so the load
    measures the server rather than the host's scheduler."""
    return ctx.nproc


def start_server(ctx, d):
    addr_file = os.path.join(d, "addr")
    out = open(os.path.join(d, "serve.out"), "wb")
    proc = subprocess.Popen(
        [ctx.capsim, "serve", "--jobs", str(ctx.nproc), "--max-inflight", str(serve_clients(ctx)),
         "--addr", "127.0.0.1:0", "--addr-file", addr_file],
        stdout=out, stderr=subprocess.STDOUT, env=ctx.child_env(d), cwd=d)
    out.close()
    ctx.procs.append(proc)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"capsim serve exited {proc.returncode} before listening")
        try:
            with open(addr_file) as f:
                addr = f.read().strip()
            if addr:
                return proc, addr
        except FileNotFoundError:
            pass
        time.sleep(0.002)
    raise BenchError("capsim serve did not write its address within 30 s")


def stop_server(ctx, proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("capsim serve did not drain within 60 s of SIGTERM")
    ctx.procs.remove(proc)


def serve_load(ctx, addr, clients, ops, warmup=0, expect=None, hits=None):
    cmd = [ctx.helper, "serve-load", "--addr", addr, "--seed", str(ctx.seed), "--clients", str(clients),
           "--ops", str(ops), "--warmup", str(warmup)]
    if expect is not None:
        cmd += ["--expect", expect]
    if hits is not None:
        cmd += ["--hits", str(hits)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, env=ctx.env)
    if r.returncode != 0:
        raise BenchError(f"serve-load exited {r.returncode}")
    return json.loads(r.stdout)


def peak_rss_kib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


def serve_setup(ctx):
    """Starts a server on fresh directories and fills it cold; returns (proc, addr, seconds)."""
    d = ctx.fresh("serve")
    start = time.perf_counter()
    proc, addr = start_server(ctx, d)
    fill = serve_load(ctx, addr, clients=1, ops=1)
    wall = time.perf_counter() - start
    if fill["failed"] or fill["computed"] != FIGURES_LEGS:
        raise BenchError(f"cold fill did not compute {FIGURES_LEGS} legs: {fill}")
    return proc, addr, wall


def serve_reference(ctx):
    d = ctx.fresh("reference")
    path = os.path.join(ctx.work, "figures.ref")
    with open(path, "wb") as f:
        f.write(capsim_stdout(ctx, ["plan", "figures", "--jobs", str(ctx.nproc), *seed_args(ctx)], d))
    shutil.rmtree(d)
    return path


def serve_ops(ctx, addr, reference_path, n_ops, clients):
    """The timed closed loop; returns the helper's tally."""
    return serve_load(ctx, addr, clients=clients, ops=n_ops, warmup=2 * clients, expect=reference_path,
                      hits=FIGURES_LEGS)


def op_count(workload, seconds):
    spec = WORKLOADS[workload]
    return max(spec["min_ops"], round(seconds / spec["nominal_s"]))


def run_batch(ctx, workload, n_ops, setup_samples):
    campaigns = BATCH_CAMPAIGNS[workload]
    refs = batch_references(ctx, campaigns)
    times, failed, peak, setup = batch_ops(ctx, campaigns, refs, n_ops, setup_samples)
    return {"setup": setup, "times": times, "attempted": n_ops, "failed": failed, "wall": sum(times),
            "peak_kib": peak}


def run_serve(ctx, n_ops, setups):
    """`setups` blocks of ops, each on a server of its own, started and
    filled cold (the set-up sample) just before the block."""
    reference = serve_reference(ctx)
    r = {"setup": [], "times": [], "attempted": 0, "failed": 0, "wall": 0.0, "peak_kib": 0, "cache_hits": 0,
         "computed": 0}
    for block in range(setups):
        proc, addr, wall = serve_setup(ctx)
        try:
            tally = serve_ops(ctx, addr, reference, n_ops // setups + (block < n_ops % setups),
                              serve_clients(ctx))
            r["peak_kib"] = max(r["peak_kib"], peak_rss_kib(proc.pid))
        finally:
            stop_server(ctx, proc)
        r["setup"].append(wall)
        r["times"] += [ms / 1e3 for ms in tally["latencies_ms"]]
        for e in tally["errors"]:
            log(f"failed op: {e}")
        r["attempted"] += tally["attempted"]
        r["failed"] += tally["failed"]
        r["wall"] += tally["wall_s"]
        r["cache_hits"] += tally["cache_hits"]
        r["computed"] += tally["computed"]
    return r


def run_workload(ctx, workload, n_ops, setup_samples=SETUP_SAMPLES, serve_setups=SERVE_SETUPS):
    if workload == "serve-warm":
        return run_serve(ctx, n_ops, serve_setups)
    return run_batch(ctx, workload, n_ops, setup_samples)


def quantiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def summarize(workload, r):
    """Logs median, quartiles, the 90th percentile where it is backed, min and max."""
    t = sorted(x * 1e3 for x in r["times"])
    if not t:
        return
    q1, q2, q3 = quantiles(t)
    line = f"{workload}: {len(t)} good op(s) of {r['attempted']}; op ms median {q2:.3f} q1 {q1:.3f} q3 {q3:.3f}"
    if len(t) >= 100:
        line += f" p90 {statistics.quantiles(t, n=10)[-1]:.3f}"
    s = sorted(r["setup"])
    log(line + f" min {t[0]:.3f} max {t[-1]:.3f}; {len(s)} set-up(s), s median {statistics.median(s):.5f}"
        f" min {s[0]:.5f} max {s[-1]:.5f}")


def end_to_end_metrics(r):
    if not r["times"]:
        return {}
    return {
        "op_min_ms": min(r["times"]) * 1e3,
        "setup_s": statistics.median(r["setup"]),
    }


def ungated_metrics(r):
    """The median op time and the throughput, recorded in the facts line."""
    if not r["times"]:
        return {}
    return {"op_p50_ms": statistics.median(r["times"]) * 1e3, "ops_per_s": len(r["times"]) / r["wall"]}


def traced(ctx, workload, seconds):
    """The untraced op next to the traced run's per-layer metrics."""
    sample_ops = {"sweep-cold": 1, "managed-intervals": 10, "serve-warm": 40}[workload]
    sample = run_workload(ctx, workload, sample_ops, setup_samples=1, serve_setups=1)
    rounds = max(1, seconds // 10)
    trace_dir = os.path.join(ROOT, ".bench_work", "last-trace")
    os.makedirs(trace_dir, exist_ok=True)
    work = ctx.fresh("trace")
    cmd = [ctx.helper, "trace", "--workload", workload, "--seed", str(ctx.seed), "--rounds", str(rounds),
           "--capsim", ctx.capsim, "--work", work, "--jobs", str(ctx.nproc),
           "--spans", os.path.join(trace_dir, f"{workload}.spans.jsonl")]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, env=ctx.env)
    if r.returncode != 0:
        raise BenchError(f"traced run exited {r.returncode}")
    out = json.loads(r.stdout)
    for e in out["errors"]:
        log(f"traced run: {e}")
    metrics = out["metrics"]
    if sample["times"]:
        metrics["traced.untraced_op_ms"] = statistics.median(sample["times"]) * 1e3
    metrics["capsim.peak_rss_mb"] = sample["peak_kib"] / 1024
    log(f"{workload}: traced op {metrics.get('traced.op_ms', float('nan')):.3f} ms, "
        f"untraced op {metrics.get('traced.untraced_op_ms', float('nan')):.3f} ms")
    attempted = sample["attempted"] + rounds
    failed = sample["failed"] + min(rounds, len(out["errors"]))
    return attempted, failed, metrics


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    try:
        build(target)
        ctx = Context(target, seed=args.seed)
    except BenchError as e:
        log(str(e))
        return 2
    try:
        if args.trace:
            attempted, failed, values = traced(ctx, args.workload, args.seconds)
            units = PER_LAYER
        else:
            n_ops = op_count(args.workload, args.seconds)
            r = run_workload(ctx, args.workload, n_ops)
            summarize(args.workload, r)
            attempted, failed, values = r["attempted"], r["failed"], end_to_end_metrics(r)
            units = END_TO_END
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        ctx.close()
    missing = [m for m in units if not isinstance(values.get(m), (int, float))]
    if missing:
        log(f"missing metrics: {', '.join(missing)}")
    facts = {"workload": args.workload, "nproc": ctx.nproc, "scale": ctx.scale, "seed": args.seed,
             "git_rev": git_rev(), "ops": attempted, "samples": attempted - failed, "trace": args.trace}
    if not args.trace:
        facts["peak_rss_mb"] = r["peak_kib"] / 1024
        facts.update(ungated_metrics(r))
    print(json.dumps({"facts": facts}))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items() if m not in missing},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
