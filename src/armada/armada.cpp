#include "armada/armada.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace armada::core {

using fissione::PeerId;
using kautz::Box;

ArmadaIndex::ArmadaIndex(fissione::FissioneNetwork& net,
                         kautz::PartitionTree tree)
    : net_(net), tree_(std::move(tree)) {
  if (tree_.num_attributes() == 1) {
    pira_.emplace(net_, tree_);
    topk_.emplace(net_, tree_);
    knn_.emplace(net_, tree_);
    aggregate_.emplace(net_, tree_);
  }
  mira_.emplace(net_, tree_);
}

ArmadaIndex ArmadaIndex::single(fissione::FissioneNetwork& net,
                                kautz::Interval domain) {
  return ArmadaIndex(net,
                     kautz::PartitionTree::single(
                         net.config().base, net.config().object_id_length,
                         domain));
}

ArmadaIndex ArmadaIndex::multi(fissione::FissioneNetwork& net,
                               Box domain) {
  return ArmadaIndex(
      net, kautz::PartitionTree(net.config().base,
                                net.config().object_id_length,
                                std::move(domain)));
}

std::uint64_t ArmadaIndex::publish(const std::vector<double>& point) {
  const std::uint64_t handle = objects_.size();
  const kautz::KautzString object_id = tree_.multiple_hash(point);
  net_.publish(object_id, handle);
  objects_.push_back(point);
  if (replicas_ != nullptr) {
    // Currency: replica snapshots pick up the new object, cached results
    // whose subregion covers it are invalidated.
    replicas_->on_publish(object_id, handle);
  }
  return handle;
}

std::uint64_t ArmadaIndex::publish(double value) {
  return publish(std::vector<double>{value});
}

const std::vector<double>& ArmadaIndex::attributes(
    std::uint64_t handle) const {
  ARMADA_CHECK(handle < objects_.size());
  return objects_[handle];
}

bool ArmadaIndex::point_in_box(const std::vector<double>& p,
                               const Box& box) const {
  for (std::size_t i = 0; i < box.size(); ++i) {
    if (p[i] < box[i].lo || p[i] > box[i].hi) {
      return false;
    }
  }
  return true;
}

RangeQueryResult ArmadaIndex::range_query(PeerId issuer, double lo,
                                          double hi) const {
  ARMADA_CHECK_MSG(pira_.has_value(),
                   "range_query requires a single-attribute index");
  const Box box{{lo, hi}};
  return pira_->query(issuer, lo, hi,
                      [this, &box](const fissione::StoredObject& obj) {
                        return point_in_box(objects_[obj.payload], box);
                      });
}

void ArmadaIndex::range_query_async(
    sim::Simulator& sim, PeerId issuer, double lo, double hi,
    std::function<void(RangeQueryResult)> done) const {
  ARMADA_CHECK_MSG(pira_.has_value(),
                   "range_query requires a single-attribute index");
  // The filter owns its box copy: the query may outlive this frame.
  const Box box{{lo, hi}};
  pira_->query_async(sim, issuer, lo, hi,
                     [this, box](const fissione::StoredObject& obj) {
                       return point_in_box(objects_[obj.payload], box);
                     },
                     std::move(done));
}

RangeQueryResult ArmadaIndex::box_query(PeerId issuer, const Box& box) const {
  ARMADA_CHECK(box.size() == tree_.num_attributes());
  return mira_->query(issuer, box,
                      [this, &box](const fissione::StoredObject& obj) {
                        return point_in_box(objects_[obj.payload], box);
                      });
}

std::vector<std::uint64_t> ArmadaIndex::scan_matches(const Box& box) const {
  ARMADA_CHECK(box.size() == tree_.num_attributes());
  std::vector<std::uint64_t> out;
  for (std::uint64_t h = 0; h < objects_.size(); ++h) {
    if (point_in_box(objects_[h], box)) {
      out.push_back(h);
    }
  }
  return out;
}

TopKResult ArmadaIndex::top_k(PeerId issuer, double lo, double hi,
                              std::size_t k) const {
  ARMADA_CHECK_MSG(topk_.has_value(),
                   "top_k requires a single-attribute index");
  return topk_->query(issuer, lo, hi, k,
                      [this](const fissione::StoredObject& obj) {
                        return objects_[obj.payload][0];
                      });
}

KnnResult ArmadaIndex::nearest(PeerId issuer, double q, std::size_t k) const {
  ARMADA_CHECK_MSG(knn_.has_value(),
                   "nearest requires a single-attribute index");
  return knn_->query(issuer, q, k, [this](const fissione::StoredObject& obj) {
    return objects_[obj.payload][0];
  });
}

AggregateResult ArmadaIndex::range_aggregate(PeerId issuer, double lo,
                                             double hi) const {
  ARMADA_CHECK_MSG(aggregate_.has_value(),
                   "range_aggregate requires a single-attribute index");
  return aggregate_->range_aggregate(
      issuer, lo, hi, [this](const fissione::StoredObject& obj) {
        return objects_[obj.payload][0];
      });
}

const Pira& ArmadaIndex::pira() const {
  ARMADA_CHECK(pira_.has_value());
  return *pira_;
}

const Mira& ArmadaIndex::mira() const { return *mira_; }

replica::ReplicaSet& ArmadaIndex::enable_replication(
    replica::ReplicationConfig config) {
  replicas_ = std::make_unique<replica::ReplicaSet>(net_, config);
  attach_subsystems();
  return *replicas_;
}

rebalance::Rebalancer& ArmadaIndex::enable_rebalancing(
    rebalance::RebalanceConfig config) {
  rebalancer_ = std::make_unique<rebalance::Rebalancer>(net_, config);
  attach_subsystems();
  return *rebalancer_;
}

void ArmadaIndex::attach_subsystems() {
  if (pira_.has_value()) {
    pira_->set_subsystems(replicas_.get(), rebalancer_.get());
  }
  mira_->set_subsystems(replicas_.get(), rebalancer_.get());
}

}  // namespace armada::core
