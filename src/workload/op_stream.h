// The op stream: every workload in the tree — the paper's PUT workloads
// A-D/M, the mixed GET/PUT campaigns, tenant blends, and replayed trace
// files — is one flat sequence of Op records drawn up front by a generator.
// The executors in workload/runner.h run a stream against any topology, so
// "which ops" (the generator) and "how they are issued" (serial or lane-
// parallel) never mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/workloads.h"

namespace bandslim::workload {

enum class OpKind : std::uint8_t { kPut, kGet, kDelete };

// Payload fill bytes: PUT-spec streams (and replayed traces) write 0xA5,
// mixed and blend streams write 0x5A.
inline constexpr std::uint8_t kPutFill = 0xA5;
inline constexpr std::uint8_t kMixedFill = 0x5A;

// One client operation. A PUT's payload is `value_size` bytes of `fill`
// with the little-endian `stamp` over the first min(8, value_size) bytes,
// so payloads differ op to op without a full refill. `tenant` picks the
// executor target (0 for untagged streams).
struct Op {
  OpKind kind = OpKind::kPut;
  std::string key;
  std::uint32_t value_size = 0;  // PUT only.
  std::uint64_t stamp = 0;
  std::uint16_t tenant = 0;
  std::uint8_t fill = kPutFill;
};

using OpStream = std::vector<Op>;

// `spec.ops` PUTs in generator order, stamped with the op index.
OpStream PutStream(const WorkloadSpec& spec);

// --- Mixed read/write workloads over a preloaded key space -----------------

// A GET/PUT mix over `num_keys` preloaded keys; the knob set the shard
// scaling ablation sweeps. Key popularity is either uniform or Zipfian
// (YCSB request distribution). Fully deterministic for a given spec.
struct MixedWorkloadSpec {
  std::uint64_t ops = 0;
  std::uint64_t num_keys = 4096;   // Preloaded key-space size.
  std::size_t value_size = 128;
  std::uint32_t get_permille = 500;  // GET share per mille; the rest update.
  bool zipfian = false;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
  // Prepended to every MixedKeyName — disjoint prefixes give tenants in a
  // blend disjoint key spaces (and steer which hash ranges they heat up).
  // "" (the default) reproduces the historical key names byte-for-byte.
  std::string key_prefix;
};

// The canonical key name for key-space index `i` ("k" + 8 hex digits).
std::string MixedKeyName(std::uint64_t index);

// `spec.ops` GETs/PUTs; PUTs carry fill 0x5A stamped with the key index.
OpStream MixedStream(const MixedWorkloadSpec& spec);

// --- Tenant blends: several mixed workloads interleaved on one cluster -----

// One mixed spec per cluster tenant (index-paired with ClusterConfig's
// tenants). Give the specs disjoint key_prefix values so tenants own
// disjoint key spaces.
struct TenantBlendSpec {
  std::vector<MixedWorkloadSpec> tenants;
  // Seed for the interleaving draw (which tenant issues the next op) —
  // independent of each tenant's own op-sequence seed.
  std::uint64_t seed = 7;
};

// The serial interleaving order: element i names the tenant that issues the
// i-th client op. Drawn weighted by each tenant's REMAINING op budget, so a
// 10:1 blend stays 10:1 throughout the run, deterministically for a given
// seed. Exposed so the pinned-seed regression test can assert blends stay
// reproducible across refactors.
std::vector<std::uint16_t> DrawTenantInterleave(const TenantBlendSpec& spec);

// Every tenant's MixedStream, tagged with its tenant index and interleaved
// in DrawTenantInterleave order; each tenant consumes its own stream in
// order.
OpStream BlendStream(const TenantBlendSpec& spec);

// One PUT per key of the key space, in index order, with the mixed payload
// rule — the preload that makes every mixed GET hit. The blend form
// concatenates the tenants' preloads, tagged by tenant.
OpStream PreloadStream(const MixedWorkloadSpec& spec);
OpStream PreloadStream(const TenantBlendSpec& spec);

}  // namespace bandslim::workload
