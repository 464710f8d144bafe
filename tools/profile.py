#!/usr/bin/env python3
"""Sampling CPU profile of one perfbench workload, by function and by layer.

Usage, from the root of a checkout:

    python3 tools/profile.py --workload zipf_rw_churn_100k --seed 5 \\
        --seconds 10 --root ClosedLoop::run \\
        --exclude check_query --exclude check_conservation

Builds perfbench into .prof_build/ (Release, with frame pointers, linked
-no-pie; the flags go on the cmake command line, so perfbench/ is untouched)
and the SIGPROF sampler tools/sampler.cpp as an LD_PRELOAD library, runs the
workload's end-to-end mode once under the sampler, and symbolises the
samples with addr2line (inlined frames included).

The report covers the samples whose stack passes through a function
matching --root and through none matching --exclude (substring matches on
names without parameter lists or template arguments). For each function
below the root it prints the inclusive share (samples with the function on
the stack) and the self share (samples whose innermost frame it is), then
the same two shares rolled up by layer: the src/ directory the code lives
in (kautz, fissione, armada, sim, net, replica, rebalance, obs, ...).
Frames from system headers count toward the innermost src/ frame that
inlined or called them.

Exit status: 0 on success, 1 when the build or the run fails or fewer than
--min-samples samples land under the root, 2 on bad arguments.
"""

import argparse
import collections
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".prof_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SAMPLER_SRC = os.path.join(ROOT, "tools", "sampler.cpp")
SAMPLER_LIB = os.path.join(BUILD_DIR, "libsampler.so")
SAMPLES = os.path.join(BUILD_DIR, "samples.txt")
PROFILE_FLAGS = "-g -fno-omit-frame-pointer -mno-omit-leaf-frame-pointer"


def log(message):
    print(f"profile.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build perfbench and the sampler."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_CXX_FLAGS={PROFILE_FLAGS}",
                     "-DCMAKE_EXE_LINKER_FLAGS=-no-pie"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return False
    if (not os.path.exists(SAMPLER_LIB) or
            os.path.getmtime(SAMPLER_LIB) < os.path.getmtime(SAMPLER_SRC)):
        compiler = os.environ.get("CXX", "c++")
        cmd = [compiler, "-O2", "-shared", "-fPIC", "-o", SAMPLER_LIB,
               SAMPLER_SRC]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def short_name(name):
    """ns::Class::method: drop parameter lists and template arguments."""
    name = name.replace("(anonymous namespace)", "{anon}")
    out, depth, i = [], 0, 0
    while i < len(name):
        if depth == 0 and name.startswith("operator", i):
            m = re.match(r"operator(\(\)|\[\]|<=>|<<=?|>>=?|->|"
                         r"[-+*/%^&|~!=<>,]=?|\s+[\w:]+)", name[i:])
            if m:
                out.append(m.group(0))
                i += len(m.group(0))
                continue
        c = name[i]
        if c in "(<":
            depth += 1
        elif c in ")>":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(c)
        i += 1
    text = "".join(out).replace(" const", "").strip()
    return text[len("armada::"):] if text.startswith("armada::") else text


def layer_of(path):
    """The src/ directory a source file lives in, or None."""
    m = re.search(r"/src/([^/]+)/[^/]+:", path + ":")
    if m and os.path.isdir(os.path.join(ROOT, "src", m.group(1))):
        return m.group(1)
    return None


def symbolise(addresses):
    """address -> list of (name, layer), innermost inline first."""
    if not addresses:
        return {}
    ordered = sorted(addresses)
    proc = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", BINARY],
        input="".join(f"{a:x}\n" for a in ordered), stdout=subprocess.PIPE,
        text=True, check=True)
    frames = {}
    current = None
    pending = None
    for line in proc.stdout.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = int(line, 16)
            frames[current] = []
            pending = None
        elif pending is None:
            pending = line
        else:
            frames[current].append((short_name(pending), layer_of(line)))
            pending = None
    return frames


def load_stacks():
    """Each sample as a list of (name, layer), leaf first."""
    raw = []
    with open(SAMPLES) as f:
        for line in f:
            addrs = [int(x, 16) for x in line.split()]
            if addrs:
                # Return addresses point past the call: symbolise the call.
                raw.append([addrs[0]] + [a - 1 for a in addrs[1:]])
    table = symbolise({a for stack in raw for a in stack})
    stacks = []
    for addrs in raw:
        stack = []
        for a in addrs:
            stack.extend(table.get(a) or [("??", None)])
        stacks.append(stack)
    return stacks


def report(stacks, root, excludes, top):
    """Print the profile; returns the number of samples under the root."""
    kept = []
    for stack in stacks:
        names = [n for n, _ in stack]
        cut = next((i for i, n in enumerate(names) if root in n), None)
        if cut is None:
            continue
        if any(ex in n for n in names for ex in excludes):
            continue
        kept.append(stack[:cut + 1])
    total = len(kept)
    print(f"{len(stacks)} samples, {total} under {root!r}"
          + (f" excluding {excludes}" if excludes else ""))
    if total == 0:
        return 0

    incl = collections.Counter()
    self_ = collections.Counter()
    layer_incl = collections.Counter()
    layer_self = collections.Counter()
    for stack in kept:
        for name in {n for n, _ in stack}:
            incl[name] += 1
        self_[stack[0][0]] += 1
        layers = [l for _, l in stack if l is not None]
        for layer in set(layers):
            layer_incl[layer] += 1
        layer_self[layers[0] if layers else "(other)"] += 1

    def pct(n):
        return 100.0 * n / total

    print(f"\n{'incl%':>7} {'self%':>7}  function")
    for name, n in incl.most_common(top):
        print(f"{pct(n):7.1f} {pct(self_[name]):7.1f}  {name}")
    print(f"\n{'incl%':>7} {'self%':>7}  layer")
    for layer, n in sorted(layer_incl.items(), key=lambda kv: -kv[1]):
        print(f"{pct(n):7.1f} {pct(layer_self[layer]):7.1f}  {layer}")
    if layer_self["(other)"]:
        print(f"{'':7} {pct(layer_self['(other)']):7.1f}  (outside src/)")
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--peers", type=int)
    parser.add_argument("--objects", type=int)
    parser.add_argument("--root", default="ArmadaIndex::range_query",
                        help="function the shares are relative to")
    parser.add_argument("--exclude", action="append", default=[],
                        help="drop samples through this function "
                             "(repeatable)")
    parser.add_argument("--top", type=int, default=40,
                        help="functions listed")
    parser.add_argument("--min-samples", type=int, default=1,
                        help="fail when fewer samples land under the root")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.peers is not None:
        cmd += ["--peers", str(args.peers)]
    if args.objects is not None:
        cmd += ["--objects", str(args.objects)]
    env = dict(os.environ, LD_PRELOAD=SAMPLER_LIB, ARMADA_PROF_OUT=SAMPLES)
    if os.path.exists(SAMPLES):
        os.remove(SAMPLES)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not os.path.exists(SAMPLES):
        log(f"perfbench exited with status {proc.returncode}")
        return 1
    under = report(load_stacks(), args.root, args.exclude, args.top)
    if under < args.min_samples:
        log(f"{under} samples under the root, fewer than {args.min_samples}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
