#include "workload/op_stream.h"

#include <cstdio>

#include "workload/key_gen.h"

namespace bandslim::workload {

OpStream PutStream(const WorkloadSpec& spec) {
  OpStream stream(spec.ops);
  Xoshiro256 rng(spec.seed);
  spec.keys->Reset();
  for (std::uint64_t i = 0; i < spec.ops; ++i) {
    stream[i].key = spec.keys->Next();
    stream[i].value_size = static_cast<std::uint32_t>(spec.sizes->Next(rng));
    stream[i].stamp = i;
  }
  return stream;
}

std::string MixedKeyName(std::uint64_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08llx",
                static_cast<unsigned long long>(index));
  return buf;
}

namespace {

// A mixed-rule PUT of key-space index `index`.
Op MixedPut(const MixedWorkloadSpec& spec, std::uint64_t index) {
  return Op{OpKind::kPut, spec.key_prefix + MixedKeyName(index),
            static_cast<std::uint32_t>(spec.value_size), index, 0, kMixedFill};
}

}  // namespace

OpStream MixedStream(const MixedWorkloadSpec& spec) {
  OpStream stream;
  stream.reserve(spec.ops);
  Xoshiro256 rng(spec.seed);
  ZipfianKeyChooser zipf(spec.num_keys, spec.zipf_theta, spec.seed + 1);
  for (std::uint64_t i = 0; i < spec.ops; ++i) {
    const bool is_get = (rng() % 1000) < spec.get_permille;
    stream.push_back(MixedPut(
        spec, spec.zipfian ? zipf.NextIndex() : rng() % spec.num_keys));
    if (is_get) stream.back().kind = OpKind::kGet;
  }
  return stream;
}

std::vector<std::uint16_t> DrawTenantInterleave(const TenantBlendSpec& spec) {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> remaining(spec.tenants.size(), 0);
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    remaining[t] = spec.tenants[t].ops;
    total += remaining[t];
  }
  std::vector<std::uint16_t> order;
  order.reserve(total);
  Xoshiro256 rng(spec.seed);
  while (total > 0) {
    // Weighted draw over REMAINING budgets: pick the tenant owning the
    // `pick`-th undrawn op. Keeps the blend's mix ratio steady through the
    // whole run instead of front-loading the heavy tenant.
    std::uint64_t pick = rng() % total;
    for (std::uint16_t t = 0; t < remaining.size(); ++t) {
      if (pick < remaining[t]) {
        order.push_back(t);
        --remaining[t];
        --total;
        break;
      }
      pick -= remaining[t];
    }
  }
  return order;
}

OpStream BlendStream(const TenantBlendSpec& spec) {
  std::vector<OpStream> per_tenant;
  for (const MixedWorkloadSpec& tenant : spec.tenants) {
    per_tenant.push_back(MixedStream(tenant));
  }
  std::vector<std::size_t> cursor(spec.tenants.size(), 0);
  OpStream stream;
  for (const std::uint16_t t : DrawTenantInterleave(spec)) {
    stream.push_back(std::move(per_tenant[t][cursor[t]++]));
    stream.back().tenant = t;
  }
  return stream;
}

OpStream PreloadStream(const MixedWorkloadSpec& spec) {
  OpStream stream;
  stream.reserve(spec.num_keys);
  for (std::uint64_t i = 0; i < spec.num_keys; ++i) {
    stream.push_back(MixedPut(spec, i));
  }
  return stream;
}

OpStream PreloadStream(const TenantBlendSpec& spec) {
  OpStream stream;
  for (std::uint16_t t = 0; t < spec.tenants.size(); ++t) {
    for (Op& op : PreloadStream(spec.tenants[t])) {
      op.tenant = t;
      stream.push_back(std::move(op));
    }
  }
  return stream;
}

}  // namespace bandslim::workload
