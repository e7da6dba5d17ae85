#include "runtime/topology.hpp"

#include <limits>

#include "support/common.hpp"

namespace pi2m {

Topology::Topology(int nthreads, TopologySpec spec) : nthreads_(nthreads) {
  PI2M_CHECK(nthreads >= 1, "topology needs at least one thread");
  PI2M_CHECK(spec.cores_per_socket >= 1 && spec.sockets_per_blade >= 1,
             "invalid topology spec");
  // tpb_ is a divisor, and nthreads + tpb_ - 1 must not wrap either.
  PI2M_CHECK(spec.cores_per_socket <=
                 (std::numeric_limits<int>::max() - nthreads) /
                     spec.sockets_per_blade,
             "topology spec too large");
  tps_ = spec.cores_per_socket;
  tpb_ = spec.cores_per_socket * spec.sockets_per_blade;
  nsockets_ = (nthreads + tps_ - 1) / tps_;
  nblades_ = (nthreads + tpb_ - 1) / tpb_;
}

}  // namespace pi2m
