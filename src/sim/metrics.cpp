#include "sim/metrics.h"

#include "util/check.h"

namespace armada::sim {

double QueryStats::mesg_ratio() const {
  ARMADA_CHECK(dest_peers > 0);
  return static_cast<double>(messages) / static_cast<double>(dest_peers);
}

double QueryStats::incre_ratio(double log_n) const {
  ARMADA_CHECK(dest_peers > 1);
  return (static_cast<double>(messages) - log_n) /
         static_cast<double>(dest_peers - 1);
}

void MetricSet::add(const QueryStats& q) {
  delay_.add(q.delay);
  latency_.add(q.latency);
  queue_delay_.add(q.queue_delay);
  bytes_.add(static_cast<double>(q.bytes_on_wire));
  coverage_.add(q.coverage);
  shed_.add(static_cast<double>(q.shed));
  delay_pct_.add(q.delay);
  latency_pct_.add(q.latency);
  messages_.add(static_cast<double>(q.messages));
  dest_peers_.add(static_cast<double>(q.dest_peers));
  results_.add(static_cast<double>(q.results));
  if (q.dest_peers > 0) {
    mesg_ratio_.add(q.mesg_ratio());
  }
  if (q.dest_peers > 1) {
    incre_ratio_.add(q.incre_ratio(log_n_));
  }
}

}  // namespace armada::sim
