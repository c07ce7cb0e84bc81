#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, check it.

    python3 perfbench/run.py --workload tpcc-replicated --seed 7 \
        --seconds 20 --trace 0

Builds perfbench/ (and with it the simulator in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the
repository root. With --trace 0 it runs the untraced driver for the whole
window and reports the end-to-end metrics. With --trace 1 it splits the
window between the untraced and the traced driver, fails unless both
produce the same simulation (virtual-time results and sim_digest), and
reports the per-layer metrics.

Every metric is printed by name with its unit; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. The exit code
is non-zero on a usage error, a failed build, a driver failure or a failed
correctness check.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("tpcc-replicated", "destage-mixed", "conformance")
BREAKS = ("replica-log", "read-version", "conformance")

# BENCHMARK.json's end_to_end metrics with their units, and its per_layer
# metrics (units by unit_of), in the order printed.
END_TO_END = {"wall_s": "s", "setup_s": "s", "ops_per_wall_s": "ops/s",
              "peak_rss_mb": "MiB"}

PER_LAYER = (
    "sim.events", "sim.callback_s", "sim.kernel_s",
    "common.crc_calls", "common.crc_bytes", "common.crc_s",
    "db.populate_calls", "db.populate_s", "db.prepare_calls", "db.prepare_s",
    "db.commit_calls", "db.commit_s", "db.log_bytes",
    "host.append_calls", "host.append_s",
    "host.append_durable_calls", "host.append_durable_s",
    "nvme.read_calls", "nvme.read_s", "nvme.write_calls", "nvme.write_s",
    "pcie.host_write_calls", "pcie.host_write_s",
    "pcie.peer_write_calls", "pcie.peer_write_s", "pcie.wire_bytes",
    "ntb.mmio_write_calls", "ntb.mmio_write_s", "ntb.forwarded_wire_bytes",
    "core.build_calls", "core.build_s", "core.teardown_calls",
    "core.teardown_s", "core.destage_pages",
    "flash.programs", "flash.reads", "flash.erases",
    "flash.program_s", "flash.read_s",
    "ftl.write_calls", "ftl.write_s", "ftl.read_calls", "ftl.read_s",
    "ftl.gc_copies", "ftl.write_amp",
    "check.schedules", "check.generate_s", "check.run_s",
    "proc.user_s", "proc.sys_s", "proc.minflt",
    "vt.cmb_stage_us", "vt.replication_wait_us", "vt.ntb_link_us",
    "vt.destage_page_us", "vt.flash_program_us",
    "trace.overhead", "trace.unattributed_s", "trace.unattributed_share",
)

# Per-layer metrics that are ratios; the others take their unit from their
# name's suffix.
RATIOS = ("ftl.write_amp", "trace.overhead", "trace.unattributed_share")

# Virtual-time results per workload, printed with the end-to-end metrics
# (they are deterministic per seed, so they gate behaviour, not speed).
SIM_RESULTS = {
    "tpcc-replicated": ("sim_txn_per_s", "commit_p50_us", "commit_p999_us",
                        "commit_samples"),
    "destage-mixed": ("conv_mb_s", "fast_mb_s", "io_p50_us", "io_p999_us",
                      "io_samples", "io_refused"),
    "conformance": ("check.schedules", "check.divergences"),
}

# A p999 is reported only over at least this many samples (ten beyond it).
MIN_P999_SAMPLES = 10000


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def seed_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    # allow_abbrev=False: a misspelt flag is an error, never a prefix match.
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_int)
    parser.add_argument("--seconds", required=True, type=positive_int,
                        help="host-time window to fill with iterations")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--break", dest="break_check", choices=BREAKS,
                        help="corrupt one expectation; that check must fail")
    return parser.parse_args(argv)


def run_child(cmd, **kwargs):
    """subprocess.run in its own process group; on any interruption the
    whole group (the child and whatever it started) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            universal_newlines=True, **kwargs)
    try:
        stdout, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, stdout


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configure once, then build `target` incrementally; log to the build
    dir. The traced driver is built only when asked for, so a change that
    breaks one of its wrappers leaves the end-to-end metrics measurable."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, target + ".build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", target])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run_child(step, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return out


def run_driver(binary, args, seconds):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    if args.tiny:
        cmd.append("--tiny")
    if args.break_check:
        cmd += ["--break", args.break_check]
    env = dict(os.environ)
    env.pop("XSSD_SIM_SCHEDULER", None)  # the default serial scheduler
    code, stdout = run_child(cmd, stdout=subprocess.PIPE, env=env)
    sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write("perfbench: %s exited with %d\n" %
                         (os.path.basename(binary), code))
        return None
    return json.loads(lines[-1])


def flat(result):
    metrics = {}
    for group in ("host", "sim", "layers"):
        metrics.update(result[group])
    return metrics


def unit_of(name):
    """The unit BENCHMARK.json gives a per-layer metric."""
    if name in RATIOS:
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def check_p999(workload, sim, tiny, failures):
    names = {"tpcc-replicated": ("commit_p999_us", "commit_samples"),
             "destage-mixed": ("io_p999_us", "io_samples")}
    if workload not in names or tiny:
        return
    p999, samples = names[workload]
    if sim[samples]["value"] < MIN_P999_SAMPLES:
        failures.append("%s over %d samples: fewer than ten beyond it" %
                        (p999, sim[samples]["value"]))


def main(argv):
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the driver child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    targets = ["perfbench"] + (["perfbench_traced"] if args.trace else [])
    for target in targets:
        if build(target) is None:
            return 1
    plain_bin = os.path.join(build_dir(), "perfbench")
    traced_bin = os.path.join(build_dir(), "perfbench_traced")

    checks = []  # failures found here rather than by a driver
    if args.trace == 0:
        plain = run_driver(plain_bin, args, args.seconds)
        if plain is None:
            return 1
        results = [plain]
    else:
        half = args.seconds / 2.0
        plain = run_driver(plain_bin, args, half)
        traced = run_driver(traced_bin, args, half) if plain else None
        if plain is None or traced is None:
            return 1
        results = [plain, traced]
        # Zero perturbation: tracing must not move the simulation.
        if plain["sim_digest"] != traced["sim_digest"]:
            checks.append("sim_digest differs: untraced %s, traced %s" %
                          (plain["sim_digest"], traced["sim_digest"]))
        if plain["sim"] != traced["sim"]:
            checks.append("virtual-time results differ traced vs untraced")
    check_p999(args.workload, plain["sim"], args.tiny, checks)

    # Everything measured, by name with its unit.
    host = plain["host"]
    metrics = {}
    for name in END_TO_END:
        metrics[name] = host[name]
    for name in SIM_RESULTS[args.workload]:
        metrics[name] = plain["sim"][name]
    if args.trace == 1:
        layers = flat(traced)
        for name in ("proc.user_s", "proc.sys_s", "proc.minflt"):
            layers[name] = host[name]  # as the untraced run pays them
        traced_s = layers["trace.drive_s"]["value"]
        layers["trace.overhead"] = {
            "value": traced_s / host["driven_s"]["value"], "unit": "ratio"}
        for name in PER_LAYER:
            # A layer the workload never enters reports zero.
            metrics[name] = layers.get(name, {"value": 0,
                                              "unit": unit_of(name)})

    wanted = END_TO_END if args.trace == 0 else PER_LAYER
    for name in wanted:
        value = metrics[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            checks.append("metric %s is not a number" % name)
        unit = END_TO_END[name] if args.trace == 0 else unit_of(name)
        if metrics[name]["unit"] != unit:
            checks.append("metric %s is in %s, not %s" %
                          (name, metrics[name]["unit"], unit))

    attempted = plain["attempted"]
    failed = max(r["failed"] for r in results) + len(checks)
    failures = [f for r in results for f in r["failures"]] + checks
    metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    print("perfbench %s seed %d: %s" % (args.workload, args.seed,
                                        "correct" if not failures else
                                        "FAILED"))
    print("  sim_digest %s" % plain["sim_digest"])
    for name, metric in metrics.items():
        print("  %-28s %20.6f %s" % (name, metric["value"], metric["unit"]))
    for failure in failures:
        print("  FAILED: %s" % failure)
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
