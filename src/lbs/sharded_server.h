#ifndef LBSAGG_LBS_SHARDED_SERVER_H_
#define LBSAGG_LBS_SHARDED_SERVER_H_

#include <utility>

#include "lbs/server.h"

namespace lbsagg {

struct ShardedServerOptions {
  int num_shards = 4;

  // Worker threads for the parallel per-shard index build;
  // 0 = hardware concurrency.
  unsigned build_threads = 0;

  // Interface constraints every shard enforces (max_k, max_radius, ranking,
  // obfuscation, index backend) — identical to the one-shard server's.
  ServerOptions server = {};
};

// An LbsServer over `num_shards` Z-order shards (DESIGN.md §4.11). It is
// the client's and the service's server as well as the sharded transport's
// backend: Query gathers every reachable shard, bit-identical to the
// one-shard server over the same dataset and options.
class ShardedLbsServer : public LbsServer {
 public:
  // `dataset` must outlive the server.
  ShardedLbsServer(const Dataset* dataset, ShardedServerOptions options = {})
      : LbsServer(dataset, std::move(options.server), options.num_shards,
                  options.build_threads) {}
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_SHARDED_SERVER_H_
