#!/usr/bin/env python3
"""Byte-compare a build's deterministic outputs against goldens/.

Usage: golden_diff.py <build>            compare <build> against goldens/
       golden_diff.py --write <build>    regenerate goldens/ from <build>

<build> is a CMake build directory of this repository.  The script runs
every bench/bench_* program except bench_micro and bench_scale, which print
wall-clock numbers, with ARMADA_BENCH_SCALE=0.2 and ARMADA_BENCH_JSON
pointing at a fresh temporary file, and every examples/* program with no
arguments.  Other ARMADA_* variables are cleared, and each program runs in
its own temporary directory.  Every program must exit 0.

goldens/ (at the repository root) holds one <subdir>/<program>.stdout per
program and, for programs that write JSON records, <subdir>/<program>.jsonl.
In compare mode the stdout and JSON records of every program must be
byte-identical to those files.  For stdout the script prints how many lines
differ and the first differing line (a = golden, b = build).  For the JSON
stream it prints how many records differ and the dotted keys of those
records that are only in a, only in b, or hold different values.  Exits 1
on any difference, 0 when every output matches.

--write replaces goldens/ with the build's outputs; it writes nothing when
a program exits non-zero.  A change that moves a result regenerates
goldens/ in the same diff, so the moved numbers show up in review.
Stdlib only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

SCALE = '0.2'
# Benches whose output carries wall-clock measurements.
WALL_CLOCK = {'bench_micro', 'bench_scale'}
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       'goldens')


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


def golden_programs():
    """Relative paths of the programs goldens/ holds outputs for."""
    found = set()
    for subdir in ('bench', 'examples'):
        directory = os.path.join(GOLDENS, subdir)
        if not os.path.isdir(directory):
            continue
        for name in os.listdir(directory):
            stem, ext = os.path.splitext(name)
            if ext in ('.stdout', '.jsonl'):
                found.add(os.path.join(subdir, stem))
    return sorted(found)


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


def read_golden(program, ext):
    """Bytes of one golden file; empty when it does not exist."""
    path = os.path.join(GOLDENS, program + ext)
    if not os.path.exists(path):
        return b''
    with open(path, 'rb') as f:
        return f.read()


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


def write(build):
    progs = programs(build)
    if not progs:
        print(f'no bench or example programs in {build}')
        return 2
    outputs = {}
    for program in progs:
        rc, out, records = run(build, program)
        if rc != 0:
            print(f'{program}: exit code {rc}; goldens left unchanged')
            return 1
        outputs[program] = (out, records)
    shutil.rmtree(GOLDENS, ignore_errors=True)
    for program, (out, records) in outputs.items():
        os.makedirs(os.path.dirname(os.path.join(GOLDENS, program)),
                    exist_ok=True)
        with open(os.path.join(GOLDENS, program + '.stdout'), 'wb') as f:
            f.write(out)
        if records:
            with open(os.path.join(GOLDENS, program + '.jsonl'), 'wb') as f:
                f.write(records)
        count = records.count(b'\n')
        print(f'{program}: wrote {len(out)} stdout bytes, {count} JSON '
              f'records')
    print(f'{len(outputs)} programs written to {os.path.normpath(GOLDENS)}')
    return 0


def compare(build):
    progs = programs(build)
    goldens = golden_programs()
    if not progs:
        print(f'no bench or example programs in {build}')
        return 2
    differing = 0
    for program in sorted(set(progs) | set(goldens)):
        if program not in progs:
            print(f'{program}: missing from {build}')
            differing += 1
            continue
        if program not in goldens:
            print(f'{program}: no golden (run with --write)')
            differing += 1
            continue
        rc, out, records = run(build, program)
        problems = []
        if rc != 0:
            problems.append(f'exit code {rc}')
        for stream, summary in (
                ('stdout', stdout_summary(read_golden(program, '.stdout'),
                                          out)),
                ('json', json_summary(read_golden(program, '.jsonl'),
                                      records))):
            if summary is not None:
                problems.append(f'{stream}: {summary}')
        if problems:
            differing += 1
            for p in problems:
                print(f'{program}: {p}')
        else:
            count = records.count(b'\n')
            print(f'{program}: identical ({len(out)} stdout bytes, '
                  f'{count} JSON records)')
    total = len(set(progs) | set(goldens))
    print(f'{total} programs compared, {differing} differ')
    return 1 if differing else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description='Compare a build against goldens/, or regenerate them.')
    parser.add_argument('build', help='CMake build directory')
    parser.add_argument('--write', action='store_true',
                        help='replace goldens/ with this build\'s outputs')
    args = parser.parse_args(argv[1:])
    return write(args.build) if args.write else compare(args.build)


if __name__ == '__main__':
    sys.exit(main(sys.argv))
