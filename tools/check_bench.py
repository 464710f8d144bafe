#!/usr/bin/env python3
"""Validate the benches' JSON records and the committed full-scale snapshots.

Usage: check_bench.py <records.jsonl> <repo_root>

<records.jsonl> is what the bench smokes append when ARMADA_BENCH_JSON is
set (one JSON object per line); <repo_root> holds the committed snapshots
BENCH_congestion.json, BENCH_load_balance.json and BENCH_scale.json.

Checks the cross-scheme table1 feed (every scheme under all four latency
models, ConstantHop latency == hop-count delay), the timed-churn cells, the
congestion tiers and closed-loop goodput plateau, the load-balance and
rebalancing claims, the scale trajectory against the 2*log2(N) hop bound,
the inline KautzString capacity, the neighbor-list degree bounds and a
non-decreasing peak RSS, the event-dispatch row, and the packed-KautzString
microbench; the committed snapshots must satisfy the same invariants at
full scale.  Exits nonzero on the first failed assertion.  Stdlib only.
"""

import collections
import json
import math
import os
import sys

# FissioneNetwork::kObjectIdLength and KautzString::kMaxLength.
OBJECT_ID_LENGTH = 48
KAUTZ_MAX_LENGTH = 96
# FissioneNetwork::kMaxOutDegree and kMaxInDegree.
MAX_OUT_DEGREE = 4
MAX_IN_DEGREE = 2


def fits_inline(max_peer_id_len):
    """The deepest PeerID's shift-routing target, its tail after the first
    digit plus an ObjectID suffix, fits in a KautzString."""
    return max_peer_id_len - 1 + OBJECT_ID_LENGTH <= KAUTZ_MAX_LENGTH


def within_degree_bounds(m):
    """Every neighbor list fits the inline lists of a peer's record, as the
    neighborhood invariant promises."""
    return (0 < m['max_out_degree'] <= MAX_OUT_DEGREE
            and 0 < m['max_in_degree'] <= MAX_IN_DEGREE)


def check(records_path, root):
    records = [json.loads(line) for line in open(records_path)]
    assert records, 'benchsmoke produced no JSON records'
    table1 = [r for r in records if r['bench'] == 'table1']
    models_by_scheme = collections.defaultdict(set)
    for r in table1:
        scheme, model = r['series'].rsplit('/', 1)
        models_by_scheme[scheme].add(model)
        assert 'delay_mean' in r['metrics'], r
        assert 'latency_mean' in r['metrics'], r
        if model == 'constant':
            m = r['metrics']
            assert m['delay_mean'] == m['latency_mean'], r
            assert m['delay_p95'] == m['latency_p95'], r
            assert m['delay_p99'] == m['latency_p99'], r
    expected_models = {'constant', 'jitter', 'transit_stub', 'rtt_king'}
    expected_schemes = {'PIRA', 'MIRA', 'DCF-CAN', 'SkipGraph',
                        'PHT-FissionE', 'PHT-Chord', 'Squid', 'SCRAP'}
    missing = {s: expected_models - models_by_scheme.get(s, set())
               for s in expected_schemes
               if expected_models - models_by_scheme.get(s, set())}
    assert not missing, f'schemes missing model rows: {missing}'

    # Timed-churn feed: every overlay x model x rate cell present for
    # every round; under a nonzero (timed) schedule each churn round
    # must report strictly positive repair latency and at least one
    # recorded stale-window query outcome.
    churn = [r for r in records if r['bench'] == 'churn']
    assert churn, 'benchsmoke produced no churn records'
    cells = collections.defaultdict(set)
    for r in churn:
        overlay, model, rate = r['series'].split('/')
        cells[(overlay, model)].add(rate)
        m, is_churn_round = r['metrics'], r['params']['round'] >= 1
        assert 'repair_messages' in m and 'stale_queries' in m, r
        assert 'wire_messages' in m and 'departures_saved' in m, r
        if is_churn_round:
            assert m['repair_messages'] > 0, r
        if rate != 'instant' and is_churn_round:
            assert m['repair_latency_mean'] > 0, r
            assert m['repair_latency_max'] > 0, r
            assert m['stale_queries'] >= 1, r
        if rate == 'instant':
            assert m['repair_latency_max'] == 0, r
            assert m['stale_queries'] == 0, r
            assert m['wire_messages'] == 0, r  # no queueing installed
        # The heavy-tailed cell runs with the repair-batching
        # queueing network installed: repair traffic is on the wire
        # and coalescing can only remove departures, never add them.
        if rate == 'heavy' and is_churn_round:
            assert m['wire_messages'] > 0, r
            assert m['wire_departures'] <= m['wire_messages'], r
    expected_rates = {'instant', 'rate0.5', 'rate2', 'heavy'}
    for overlay in ('fissione', 'chord'):
        for model in expected_models:
            got = cells.get((overlay, model), set())
            assert got == expected_rates, \
                f'churn cell {overlay}/{model} has rates {got}'

    # Congestion feed: every load tier x model cell present for both
    # overlays, p99 query latency strictly increasing across the
    # offered-load tiers (tier 0 is the uncongested baseline), and
    # strictly positive queueing delay at the top tier.
    cong = [r for r in records if r['bench'] == 'congestion']
    assert cong, 'benchsmoke produced no congestion records'
    tiers = collections.defaultdict(dict)
    for r in cong:
        overlay, model, load = r['series'].split('/')
        tiers[(overlay, model)][load] = r['metrics']
    knees = {tuple(r['series'].split('/'))
             for r in records if r['bench'] == 'congestion_knee'}
    for overlay in ('fissione', 'chord'):
        for model in expected_models:
            loads = tiers.get((overlay, model), {})
            missing = {f'load{t}' for t in range(4)} - set(loads)
            assert not missing, \
                f'congestion cell {overlay}/{model} missing {missing}'
            p99 = [loads[f'load{t}']['latency_p99'] for t in range(4)]
            assert all(p99[i] < p99[i + 1] for i in range(3)), \
                f'p99 not strictly increasing for {overlay}/{model}: {p99}'
            assert loads['load3']['queue_delay_mean'] > 0, \
                f'no queueing delay at top tier for {overlay}/{model}'
            assert loads['load0']['queue_delay_mean'] == 0, \
                f'baseline tier saw queueing for {overlay}/{model}'
            assert (overlay, model) in knees, \
                f'missing congestion_knee record for {overlay}/{model}'
    # Closed-loop goodput feed: all five load tiers present; the
    # closed-loop goodput curve rises to saturation and then
    # plateaus — no tier may fall below 85% of the running peak
    # (that would be congestion collapse); when admission control
    # sheds, the mean coverage is a true fraction in (0, 1]; the
    # repair class is never starved (its mean queueing delay never
    # exceeds the query class's); and at the top tier the closed
    # loop both sheds and keeps tail latency at or below open loop.
    def check_goodput(recs, label):
        tiers = {r['series'].rsplit('/', 1)[1]: r['metrics']
                 for r in recs if r['bench'] == 'congestion_goodput'}
        missing = {f'load{t}' for t in range(5)} - set(tiers)
        assert not missing, f'{label}: goodput sweep missing {missing}'
        peak = 0.0
        for t in range(5):
            m = tiers[f'load{t}']
            peak = max(peak, m['goodput'])
            assert m['goodput'] >= 0.85 * peak, \
                f'{label}: goodput collapse at load{t} ' \
                f'({m["goodput"]} vs peak {peak})'
            if m['shed_messages'] > 0:
                assert 0.0 < m['coverage_mean'] <= 1.0, (label, m)
            else:
                assert m['coverage_mean'] == 1.0, (label, m)
            assert m['repair_messages'] > 0, (label, m)
            assert (m['query_qd_mean'] == 0
                    or m['repair_qd_mean'] <= m['query_qd_mean']), \
                f'{label}: repair class starved at load{t}: {m}'
        top = tiers['load4']
        assert top['shed_messages'] > 0, \
            f'{label}: no admission shedding at the top tier'
        assert top['latency_p99'] <= top['open_latency_p99'], \
            f'{label}: closed loop did not bound tail latency: {top}'
        return len(tiers)
    goodput_rows = check_goodput(records, 'smoke')
    # The committed full-scale perf snapshot must carry the same
    # feed and satisfy the same invariants.
    snapshot = [json.loads(line)
                for line in open(os.path.join(root, 'BENCH_congestion.json'))]
    assert all(r['scale'] == 1.0 for r in snapshot), \
        'BENCH_congestion.json must be captured at full scale'
    check_goodput(snapshot, 'snapshot')

    # Load-balance feed: storage rows for every workload x naming
    # cell plus the Zipf query-service pair. Replication must
    # strictly reduce both the max per-peer service load and the
    # Gini coefficient, with every query served at full coverage
    # (the delay-bound audit is a hard CHECK inside the bench).
    lb = {r['series']: r['metrics']
          for r in records if r['bench'] == 'load_balance'}
    expected_lb = {f'storage/{w}/{n}'
                   for w in ('uniform', 'zipf', 'clustered')
                   for n in ('single_hash', 'kautz_hash')}
    expected_lb |= {'service/zipf/unreplicated',
                    'service/zipf/replicated',
                    'service/zipf/rebalance_only',
                    'service/zipf/rebalanced'}
    missing = expected_lb - set(lb)
    assert not missing, f'load_balance feed missing {missing}'
    plain = lb['service/zipf/unreplicated']
    repl = lb['service/zipf/replicated']
    assert plain['coverage_min'] == 1.0, plain
    assert repl['coverage_min'] == 1.0, repl
    assert plain['replica_routes'] == 0 and plain['cache_hits'] == 0
    assert repl['replica_routes'] > 0, repl
    assert repl['regions_replicated'] > 0, repl
    assert repl['max'] < plain['max'], (plain, repl)
    assert repl['gini'] < plain['gini'], (plain, repl)
    # Online key-space rebalancing: migrations actually run, every
    # answer stays exact at full coverage (the equality audit is a
    # hard CHECK inside the bench), and the hot-peer service load
    # drops below the unbalanced baseline — alone and composed with
    # replication.
    reb_only = lb['service/zipf/rebalance_only']
    reb = lb['service/zipf/rebalanced']
    assert reb_only['coverage_min'] == 1.0, reb_only
    assert reb['coverage_min'] == 1.0, reb
    assert reb_only['migrations_completed'] > 0, reb_only
    assert reb_only['objects_migrated'] > 0, reb_only
    # At smoke scale (40 peers) the hottest peer can be a pure
    # forwarding hub rebalancing cannot relieve, so alone it only
    # must not hurt; the strict reduction holds at full scale (the
    # snapshot checks below) and for the composed series even here.
    assert reb_only['max'] <= plain['max'], (plain, reb_only)
    assert reb['max'] < plain['max'], (plain, reb)

    # The committed full-scale service-load snapshot must show the
    # headline claim: popularity-aware replication cuts the hot-peer
    # service load at least 2x under Zipf(1.0), delay bound intact.
    lb_snapshot = [json.loads(line)
                   for line in open(os.path.join(root, 'BENCH_load_balance.json'))]
    assert all(r['scale'] == 1.0 for r in lb_snapshot), \
        'BENCH_load_balance.json must be captured at full scale'
    snap = {r['series']: r['metrics'] for r in lb_snapshot}
    missing = expected_lb - set(snap)
    assert not missing, f'load_balance snapshot missing {missing}'
    sp = snap['service/zipf/unreplicated']
    sr = snap['service/zipf/replicated']
    assert sp['coverage_min'] == 1.0 and sr['coverage_min'] == 1.0
    assert sr['max'] * 2.0 <= sp['max'], (sp, sr)
    assert sr['gini'] < sp['gini'], (sp, sr)
    # Headline rebalancing claim at full scale: rebalancing composed
    # with replication cuts the Zipf(1.0) hot-peer service load at
    # least 2x vs the unbalanced baseline, at full coverage, with
    # the delay bound intact; rebalancing alone already beats the
    # baseline too.
    sb = snap['service/zipf/rebalanced']
    so = snap['service/zipf/rebalance_only']
    assert sb['coverage_min'] == 1.0 and so['coverage_min'] == 1.0
    assert sb['migrations_completed'] > 0, sb
    assert so['migrations_completed'] > 0, so
    assert sb['max'] * 2.0 <= sp['max'], (sp, sb)
    assert so['max'] < sp['max'], (sp, so)
    assert sb['gini'] < sp['gini'], (sp, sb)
    # Scale-trajectory feed: the one-growth-path bench must report
    # all three tiers (their scaled sizes stay distinct even at
    # smoke scale) with strictly positive throughputs, and the mean
    # route length must respect the paper's 2*log2(N) hop bound.
    # The process's peak RSS is positive and, along one growth path,
    # never falls from tier to tier.  Event dispatch is network-free
    # and timed once per run, in its own row.
    scale_rows = {r['series']: r for r in records
                  if r['bench'] == 'scale'}
    dispatch_series = 'sim/dispatch'
    expected_tiers = {f'fissione/{t}'
                      for t in ('tier10k', 'tier100k', 'tier1m')}
    missing = expected_tiers - set(scale_rows)
    assert not missing, f'scale feed missing tiers: {missing}'
    prev_peers = 0
    prev_rss = 0
    for tier in ('tier10k', 'tier100k', 'tier1m'):
        r = scale_rows[f'fissione/{tier}']
        m, peers = r['metrics'], r['params']['peers']
        assert peers > prev_peers, (tier, peers, prev_peers)
        prev_peers = peers
        assert m['peak_rss_mb'] > 0 and m['peak_rss_mb'] >= prev_rss, r
        prev_rss = m['peak_rss_mb']
        assert m['build_seconds'] > 0, r
        assert m['joins_per_second'] > 0, r
        assert m['routes_per_second'] > 0, r
        # Each timed repeat reruns the route pass for a wall budget.
        assert r['params']['passes'] >= r['params']['repeats'], r
        assert 0 < m['route_hops_mean'] <= 2 * math.log2(peers), r
        assert 0 < m['max_peer_id_len'] < 2 * math.log2(peers), r
        assert fits_inline(m['max_peer_id_len']), r
        assert within_degree_bounds(m), r
    assert dispatch_series in scale_rows, 'scale feed missing dispatch row'
    assert scale_rows[dispatch_series]['metrics']['events_per_second'] > 0

    # Committed full-scale trajectory snapshot: same invariants at
    # the real tier sizes, 1M peers included.
    scale_snap = {json.loads(line)['series']: json.loads(line)
                  for line in open(os.path.join(root, 'BENCH_scale.json'))}
    missing = (expected_tiers | {dispatch_series}) - set(scale_snap)
    assert not missing, f'BENCH_scale.json missing rows: {missing}'
    assert all(r['scale'] == 1.0 for r in scale_snap.values()), \
        'BENCH_scale.json must be captured at full scale'
    assert scale_snap[dispatch_series]['metrics']['events_per_second'] > 0
    full_sizes = {'tier10k': 10_000, 'tier100k': 100_000,
                  'tier1m': 1_000_000}
    prev_rss = 0
    for tier, n in full_sizes.items():
        r = scale_snap[f'fissione/{tier}']
        assert r['scale'] == 1.0, \
            'BENCH_scale.json must be captured at full scale'
        assert r['params']['peers'] == n, r
        assert r['params']['passes'] >= r['params']['repeats'], r
        m = r['metrics']
        assert m['joins_per_second'] > 0, r
        assert m['routes_per_second'] > 0, r
        assert m['peak_rss_mb'] > 0 and m['peak_rss_mb'] >= prev_rss, r
        prev_rss = m['peak_rss_mb']
        assert 0 < m['route_hops_mean'] <= 2 * math.log2(n), r
        assert 0 < m['max_peer_id_len'] < 2 * math.log2(n), r
        assert fits_inline(m['max_peer_id_len']), r
        assert within_degree_bounds(m), r

    # Packed-ID microbench: the packed KautzString must beat the
    # digit-vector reference on the shift-routing composite op
    # (align + drop_front + concat), the routing inner loop.
    micro = [r for r in records
             if r['bench'] == 'micro' and r['series'] == 'kautz_string']
    assert micro, 'bench_micro recorded no kautz_string row'
    km = micro[-1]['metrics']
    for key in ('shift_target_ns_packed', 'shift_target_ns_reference',
                'compare_ns_packed', 'compare_ns_reference',
                'construct_ns_packed', 'construct_ns_reference'):
        assert km[key] > 0, km
    assert km['shift_target_speedup'] > 1.0, \
        f'packed KautzString lost to the reference: {km}'

    print(f'{len(records)} bench records OK '
          f'({len(table1)} table1 rows, {len(models_by_scheme)} schemes, '
          f'{len(churn)} churn rows, {len(cong)} congestion rows, '
          f'{goodput_rows} goodput tiers, {len(lb)} load-balance rows, '
          f'{len(expected_tiers)} scale tiers, micro shift speedup '
          f'{km["shift_target_speedup"]:.2f}x)')


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    check(argv[1], argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
