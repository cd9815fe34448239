#!/usr/bin/env python3
"""Benchmark launcher for the TRPQ engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

The first call in a checkout builds the engine and the harness with sbt
(offline) and exports the runtime classpath to the build directory; every
later call starts the JVM straight from that classpath, so repeated runs pay
no sbt start-up and cannot recompile in the middle of a series. The exported
classpath is stamped with the checkout's root and a fingerprint of the sources
it was built from; when either differs, the next call builds again. The build
directory is $CARGO_TARGET_DIR when set, else .bench_build, relative to the
checkout root; all of the run's files (Spark's local directories, logs, results)
stay inside it.

The run's last line on standard output is one JSON object with the keys
correct, attempted, failed and metrics. The JVM's log goes to
<build>/logs/, and everything else the run measured (settings, every pass,
trace spans) to <build>/results/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
MAIN = "perfbench.Main"

RUN_LIMIT_S = 175        # a run must end within 180 s
BUILD_LIMIT_S = 840      # the first run in a checkout may take 900 s

# Module openings Spark needs on Java 17 (what spark-submit passes).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
        "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false",
     "-Dio.netty.tryReflectionSetAccessible=true"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def driver_heap_mb():
    """A quarter of physical memory, between 2 GiB and 6 GiB: the machine is
    shared, and the workloads' data is small."""
    total_kb = 8 * 1024 * 1024
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    total_kb = int(line.split()[1])
    except OSError:
        pass
    return max(2048, min(6144, total_kb // 1024 // 4))


def run_group(cmd, cwd, timeout, stdout, stderr, env=None):
    """Runs cmd in its own process group; on timeout or interrupt, kills the
    whole group and waits for it. Returns (exit code or None on timeout)."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr, env=env,
                         start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if p.poll() is None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        p.wait()
        try:  # children that outlived the group leader
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true",
                     "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    return env


# What the runtime classpath is compiled from, relative to the checkout root:
# the engine's and the harness's build definitions and main sources. Tests are
# left out; they are not on the runtime classpath.
SOURCES = ["build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project", "perfbench/src"]


def fingerprint():
    """SHA-256 over the path and content of every source file in SOURCES
    (build output under target/ excluded)."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x != "target")
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def usable(cp):
    """Whether every classpath entry exists and is either inside this
    checkout or a jar (the dependency cache and the Spark distribution);
    class directories of another checkout are refused."""
    root = os.path.realpath(ROOT)
    for e in cp.split(os.pathsep):
        real = os.path.realpath(e)
        inside = os.path.commonpath([root, real]) == root
        if not (os.path.exists(real) and (inside or real.endswith(".jar"))):
            return False
    return bool(cp)


def classpath(bdir, deadline):
    """The exported runtime classpath and the source fingerprint it was built
    from, building first if this checkout's sources have no export yet."""
    for f in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, f)):
            die(f"engine sources not found ({f} missing under {ROOT})")
    os.makedirs(bdir, exist_ok=True)
    fp = fingerprint()
    # One export per checkout root: a build directory shared by two
    # checkouts keeps both, and a checkout whose sources changed builds again.
    cp_file = os.path.join(
        bdir, "classpath-" + hashlib.sha256(ROOT.encode()).hexdigest()[:16] + ".json")
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(cp_file):
            with open(cp_file) as f:
                saved = json.load(f)
            if (saved.get("root") == ROOT and saved.get("fingerprint") == fp
                    and usable(saved.get("classpath", ""))):
                return saved["classpath"], fp
        log_path = os.path.join(bdir, "build.log")
        print("perfbench: building engine and harness (sbt, once per checkout)",
              file=sys.stderr)
        with open(log_path, "w") as log:
            rc = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true",
                            "export Runtime/fullClasspath"],
                           HERE, deadline - time.time(), log, subprocess.STDOUT,
                           env=sbt_env())
        with open(log_path) as f:
            lines = [l.strip() for l in f if l.strip()]
        if rc != 0:
            tail = "\n".join(lines[-20:])
            die(f"build failed (exit {rc}); see {log_path}\n{tail}", 3)
        cps = [l for l in lines if not l.startswith("[") and ".jar" in l]
        if not cps or not usable(cps[-1]):
            die(f"build printed no usable classpath; see {log_path}", 3)
        with open(cp_file, "w") as f:
            json.dump({"root": ROOT, "fingerprint": fp, "classpath": cps[-1]}, f)
        return cps[-1], fp


def java_cmd(cp, fp, bdir, args):
    java = "java"
    if os.environ.get("JAVA_HOME"):
        java = os.path.join(os.environ["JAVA_HOME"], "bin", "java")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    heap = driver_heap_mb()
    # A fixed-size heap and the throughput collector: no heap resizing and
    # no concurrent marking threads competing with the query for the cores.
    return [java, f"-Xms{heap}m", f"-Xmx{heap}m", "-XX:+UseParallelGC",
            "-XX:-UsePerfData", *JAVA_OPENS,
            f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-cp", cp, MAIN, *args, "--build", bdir, "--goldens", GOLDENS,
            "--fingerprint", fp]


def declared():
    """Metric names and units declared in BENCHMARK.json, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]},
            [w["name"] for w in b["workloads"]])


def check_result(line, trace):
    """Problems with a result line against the output contract."""
    try:
        r = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    errs = []
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        errs.append("attempted must be a whole number >= 1")
    if not isinstance(r["failed"], int) or r["failed"] < 0:
        errs.append("failed must be a whole number >= 0")
    d = declared()
    if d is not None:
        want = d[1] if trace else d[0]
        got = {k: v.get("unit") for k, v in r["metrics"].items()}
        if got != want:
            errs.append(f"metrics/units {sorted(got.items())} differ from "
                        f"BENCHMARK.json {sorted(want.items())}")
    for k, v in r["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            errs.append(f"metric {k} has no numeric value")
    return errs


def run_jvm(args, bdir, log_name, deadline):
    cp, fp = classpath(bdir, time.time() + BUILD_LIMIT_S)
    os.makedirs(os.path.join(bdir, "logs"), exist_ok=True)
    out_path = os.path.join(bdir, "logs", log_name + ".out")
    err_path = os.path.join(bdir, "logs", log_name + ".log")
    # The measured run gets its own limit once the build is done.
    deadline = max(deadline, time.time() + RUN_LIMIT_S)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        rc = run_group(java_cmd(cp, fp, bdir, args), ROOT, deadline - time.time(), out, err)
    with open(out_path) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    if rc != 0:
        with open(err_path) as f:
            tail = f.readlines()[-15:]
        die(f"JVM {'timed out' if rc is None else 'exited ' + str(rc)}; log {err_path}\n"
            + "\n".join(lines[-10:]) + "\n" + "".join(tail), 4)
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="check the harness itself (fast) and exit")
    ap.add_argument("--record-goldens", action="store_true",
                    help="record goldens.json from the engine at this commit")
    a = ap.parse_args()
    start = time.time()
    bdir = build_dir()

    if a.record_goldens:
        for l in run_jvm(["record-goldens"], bdir, "record-goldens", start + 3000):
            print(l)
        return
    if a.selfcheck:
        sys.exit(selfcheck(bdir, start))

    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    d = declared()
    if d is not None and a.workload not in d[2]:
        die(f"unknown workload {a.workload}; BENCHMARK.json lists {d[2]}")
    lines = run_jvm(["run", "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)],
                    bdir, f"{a.workload}-seed{a.seed}-trace{a.trace}",
                    start + RUN_LIMIT_S)
    if not lines:
        die("JVM printed nothing", 5)
    errs = check_result(lines[-1], a.trace == 1)
    for l in lines[:-1]:
        print(l)
    if errs:
        die("result line breaks the output contract: " + "; ".join(errs), 5)
    print(lines[-1])


def selfcheck(bdir, start):
    """Runs the JVM self-check, then checks every printed metric against the
    names and units BENCHMARK.json declares."""
    lines = run_jvm(["selfcheck"], bdir, "selfcheck", start + RUN_LIMIT_S)
    for l in lines[:-1]:
        print(l)
    report = json.loads(lines[-1])
    problems = list(report["problems"])
    d = declared()
    if d is None:
        problems.append("BENCHMARK.json not found")
    else:
        for res in report["results"]:
            errs = check_result(json.dumps(res["line"]), res["trace"])
            problems += [f"{res['workload']} trace={res['trace']}: {e}" for e in errs]
    for p in problems:
        print("SELFCHECK FAILED: " + p)
    print("selfcheck " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    main()
