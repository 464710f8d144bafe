#!/usr/bin/env python3
"""Byte-compare the deterministic outputs of two builds.

Usage: golden_diff.py <build_a> <build_b>

Each argument is a CMake build directory of this repository (for example
one built from the parent commit and one from the change).  In each build
the script runs every bench/bench_* program except bench_micro and
bench_scale, which print wall-clock numbers, with ARMADA_BENCH_SCALE=0.2
and ARMADA_BENCH_JSON pointing at a fresh temporary file, and every
examples/* program with no arguments.  Other ARMADA_* variables are
cleared, and each program runs in its own temporary directory.

For every program, the JSON records and stdout of the two builds must be
byte-identical and both runs must exit 0.  For stdout the script prints how
many lines differ and the first differing line.  For the JSON stream it
prints how many records differ and the dotted keys of those records that
are only in a, only in b, or hold different values.  Exits 1 on any
difference, 0 when every output matches.  Stdlib only.
"""

import json
import os
import subprocess
import sys
import tempfile

SCALE = '0.2'
# Benches whose output carries wall-clock measurements.
WALL_CLOCK = {'bench_micro', 'bench_scale'}


def programs(build):
    """Relative paths of the programs to compare, in a stable order."""
    found = []
    for subdir, prefix in (('bench', 'bench_'), ('examples', '')):
        directory = os.path.join(build, subdir)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if (name.startswith(prefix) and name not in WALL_CLOCK
                    and os.path.isfile(path) and os.access(path, os.X_OK)):
                found.append(os.path.join(subdir, name))
    return found


def run(build, program):
    """Runs one program; returns (exit code, stdout, JSON records)."""
    with tempfile.TemporaryDirectory() as tmp:
        records = os.path.join(tmp, 'records.jsonl')
        env = {k: v for k, v in os.environ.items()
               if not k.startswith('ARMADA_')}
        env['ARMADA_BENCH_SCALE'] = SCALE
        env['ARMADA_BENCH_JSON'] = records
        proc = subprocess.run([os.path.abspath(os.path.join(build, program))],
                              cwd=tmp, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        json_bytes = b''
        if os.path.exists(records):
            with open(records, 'rb') as f:
                json_bytes = f.read()
    return proc.returncode, proc.stdout, json_bytes


def line_pairs(a, b):
    """Lines of byte strings a and b side by side; None past either end."""
    lines_a = a.splitlines(keepends=True)
    lines_b = b.splitlines(keepends=True)
    return [(lines_a[i] if i < len(lines_a) else None,
             lines_b[i] if i < len(lines_b) else None)
            for i in range(max(len(lines_a), len(lines_b)))]


def show(line):
    if line is None:
        return '<end of output>'
    return line.decode('utf-8', 'replace').rstrip('\n')


def stdout_summary(a, b):
    """Count of differing lines and the first of them; None if equal."""
    pairs = line_pairs(a, b)
    differing = [i for i, (x, y) in enumerate(pairs) if x != y]
    if not differing:
        return None
    first = differing[0]
    line_a, line_b = pairs[first]
    return (f'{len(differing)} of {len(pairs)} lines differ, first at line '
            f'{first + 1}\n'
            f'    a: {show(line_a)}\n'
            f'    b: {show(line_b)}')


def leaves(record):
    """Dotted key -> value of every leaf of one JSON record line."""
    try:
        value = json.loads(record)
    except ValueError:
        return {'<record>': record}
    out = {}

    def walk(prefix, node):
        if isinstance(node, dict) and node:
            for key, child in node.items():
                walk(f'{prefix}.{key}' if prefix else key, child)
        else:
            out[prefix or '<record>'] = node
    walk('', value)
    return out


def json_summary(a, b):
    """Count of differing records and the dotted keys that differ in them;
    None if equal."""
    pairs = line_pairs(a, b)
    differing = [(x, y) for x, y in pairs if x != y]
    if not differing:
        return None
    only_a, only_b, changed = set(), set(), set()
    for x, y in differing:
        keys_a = leaves(x) if x is not None else {}
        keys_b = leaves(y) if y is not None else {}
        only_a |= keys_a.keys() - keys_b.keys()
        only_b |= keys_b.keys() - keys_a.keys()
        changed |= {k for k in keys_a.keys() & keys_b.keys()
                    if keys_a[k] != keys_b[k]}
    parts = [f'{len(differing)} of {len(pairs)} records differ']
    for label, keys in (('only in a', only_a), ('only in b', only_b),
                        ('different values', changed)):
        if keys:
            parts.append(f'{label}: ' + ', '.join(sorted(keys)))
    return '; '.join(parts)


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    build_a, build_b = argv[1], argv[2]
    progs_a = programs(build_a)
    progs_b = programs(build_b)
    if not progs_a and not progs_b:
        print(f'no bench or example programs in {build_a} or {build_b}')
        return 2
    differing = 0
    for program in sorted(set(progs_a) | set(progs_b)):
        if program not in progs_a or program not in progs_b:
            missing = build_a if program not in progs_a else build_b
            print(f'{program}: missing from {missing}')
            differing += 1
            continue
        rc_a, out_a, json_a = run(build_a, program)
        rc_b, out_b, json_b = run(build_b, program)
        problems = []
        if rc_a != 0 or rc_b != 0:
            problems.append(f'exit codes {rc_a} vs {rc_b}')
        for stream, summary in (('stdout', stdout_summary(out_a, out_b)),
                                ('json', json_summary(json_a, json_b))):
            if summary is not None:
                problems.append(f'{stream}: {summary}')
        if problems:
            differing += 1
            for p in problems:
                print(f'{program}: {p}')
        else:
            records = json_a.count(b'\n')
            print(f'{program}: identical ({len(out_a)} stdout bytes, '
                  f'{records} JSON records)')
    total = len(set(progs_a) | set(progs_b))
    print(f'{total} programs compared, {differing} differ')
    return 1 if differing else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
