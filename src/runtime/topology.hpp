// Virtual cc-NUMA topology.
//
// The paper runs on Blacklight (8 cores/socket, 2 sockets/blade, 128
// blades). Its Hierarchical Work Stealing (HWS, §6.1) and the same-socket
// PEL optimizations consult the machine topology. Here the topology is
// *declared* (--topology CxS, default Blacklight's 8x2), not probed:
// threads are assigned to virtual sockets/blades in contiguous blocks,
// exactly how a pinned Blacklight run lays threads out. All locality
// counters (intra-socket / intra-blade / inter-blade steals) are defined
// against this virtual topology. See DESIGN.md "Substitutions".
#pragma once

namespace pi2m {

struct TopologySpec {
  int cores_per_socket = 8;   ///< Blacklight default
  int sockets_per_blade = 2;  ///< Blacklight default
};

class Topology {
 public:
  Topology(int nthreads, TopologySpec spec = {});

  [[nodiscard]] int threads() const { return nthreads_; }
  [[nodiscard]] int threads_per_socket() const { return tps_; }
  [[nodiscard]] int threads_per_blade() const { return tpb_; }
  [[nodiscard]] int socket_of(int tid) const { return tid / tps_; }
  [[nodiscard]] int blade_of(int tid) const { return tid / tpb_; }
  [[nodiscard]] int num_sockets() const { return nsockets_; }
  [[nodiscard]] int num_blades() const { return nblades_; }
  [[nodiscard]] bool same_socket(int a, int b) const {
    return socket_of(a) == socket_of(b);
  }
  [[nodiscard]] bool same_blade(int a, int b) const {
    return blade_of(a) == blade_of(b);
  }

 private:
  int nthreads_;
  int tps_;
  int tpb_;
  int nsockets_;
  int nblades_;
};

}  // namespace pi2m
