// Shared types of the benchmark: the seeded op stream every workload runs,
// the outcome of one repetition, and the workload interface main.cpp drives.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/kvssd.h"
#include "ledger.h"
#include "trace/trace.h"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

inline double NsBetween(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
inline double SecondsBetween(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Client ops (or preloaded keys) per timed segment. Every repetition of a
// stream cuts its timed phase at the same ops, and every set-up its preload
// at the same keys, so main.cpp can compare segments across repetitions
// and across set-ups (BestSegmentsSeconds).
inline constexpr std::uint64_t kSegmentOps = 1024;

// Times a phase in segments of kSegmentOps client ops or preloaded keys.
// The last segment also takes what follows the final one: the closing
// flush, and the exports of the observed workload.
class SegmentTimer {
 public:
  explicit SegmentTimer(std::vector<double>* segments) : segments_(segments) {}
  void Start() { mark_ = WallClock::now(); }
  void OpDone() {
    if (++ops_ % kSegmentOps == 0) Cut();
  }
  // Closes the last segment; returns the timed phase's host seconds.
  double Finish() {
    Cut();
    double total = 0.0;
    for (const double s : *segments_) total += s;
    return total;
  }

 private:
  void Cut() {
    const WallClock::time_point now = WallClock::now();
    segments_->push_back(SecondsBetween(mark_, now));
    mark_ = now;
  }

  std::vector<double>* segments_;
  WallClock::time_point mark_;
  std::uint64_t ops_ = 0;
};

enum class OpKind : std::uint8_t { kPut, kGet, kPutBatch, kGetBatch };

struct Op {
  OpKind kind = OpKind::kPut;
  std::uint8_t tenant = 0;
  std::uint16_t batch_len = 0;  // Batch ops: keys batch_keys[key, key+len).
  std::uint32_t key = 0;        // Key index (or batch_keys offset).
  std::uint32_t value_size = 0;  // PUT value bytes (every member of a batch).
};

// Everything a workload issues, drawn once from the seed before any timing.
struct Stream {
  std::vector<std::string> keys;  // Key index -> key bytes.
  // Untimed preload: key i is written once with preload_sizes[i] bytes
  // (empty = the store starts empty).
  std::vector<std::uint32_t> preload_sizes;
  std::vector<Op> ops;  // The timed phase, in issue order.
  std::vector<std::uint32_t> batch_keys;
  std::vector<std::uint32_t> readback;  // Keys read back after the run.
  std::uint32_t max_value_size = 0;
};

Stream MakeFillStream(std::uint64_t seed);
Stream MakeReadStream(std::uint64_t seed);
Stream MakeBlendStream(std::uint64_t seed);

// Value stamps: timed op i writes member j of its batch (0 for a single
// PUT) with stamp (i + 1) * 64 + j; preload writes key k with kPreloadStamp
// + k. The first 8 bytes of every value are SplitMix64(stamp), so every
// byte, even of a 1-byte value, depends on the whole stamp.
inline constexpr std::uint64_t kPreloadStamp = 1ULL << 48;
inline std::uint64_t OpStamp(std::size_t op_index, std::uint32_t member) {
  return (static_cast<std::uint64_t>(op_index) + 1) * 64 + member;
}
void FillValue(bandslim::MutByteSpan out, std::uint64_t stamp);
// Cheap in-run check: size and the stamp bytes.
bool StampMatches(bandslim::ByteSpan got, const LiveBytesModel::Entry& want);
// Full read-back check: every byte.
bool ValueMatches(bandslim::ByteSpan got, const LiveBytesModel::Entry& want);

// Virtual-time stages the exact tracer splits each op into. kVtOther
// takes the op window the listed stages leave uncovered, so the stages of
// an op sum to its traced latency exactly.
enum VtStage {
  kVtSubmission,
  kVtKvs,
  kVtDma,
  kVtBufferCopy,
  kVtVlogFlush,
  kVtVlogRead,
  kVtFtlGc,
  kVtNandProgram,
  kVtNandRead,
  kVtOther,
  kNumVtStages,
};
extern const char* const kVtStageNames[kNumVtStages];

// Folds the tracer's retained op records into `ns`, then clears it. Returns
// the number of op records folded, or -1 if the ring dropped any.
std::int64_t DrainTracer(bandslim::trace::Tracer* tracer,
                         std::array<double, kNumVtStages>* ns);

struct RepOutcome {
  double setup_s = 0.0;  // Open + preload, host wall.
  double run_s = 0.0;    // Timed phase, host wall.
  std::vector<double> segment_s;  // run_s cut into SegmentTimer segments.
  double export_ms = 0.0;  // Finalize + exports (observed workload only).
  std::uint64_t ops = 0;  // Client ops in the timed phase.
  std::uint64_t attempted = 0;  // Ops plus read-back checks.
  std::uint64_t failed = 0;
  std::string first_failure;
  std::uint64_t value_bytes = 0;  // Requested value bytes, timed phase.
  std::uint64_t live_bytes = 0;   // Model of last writes, end of run.
  std::uint64_t mapped_pages = 0;  // FTL mapped pages, end of run.
  bandslim::KvSsdStats delta;  // Counter deltas over the timed phase.
  std::int64_t elapsed_ns = 0;  // Virtual time of the timed phase.
  std::vector<std::uint64_t> lat_ns;  // Virtual latency per client op.
  // Router and observer counters (cluster workloads).
  std::uint64_t cross_shard_batches = 0;
  std::uint64_t batch_subops = 0;
  std::uint64_t qos_refill_windows = 0;
  std::uint64_t shard_samples = 0;
  std::uint64_t shard_events = 0;
  std::uint64_t fleet_samples = 0;
  std::uint64_t export_bytes = 0;  // Bytes of every rendered export.
  // Exact-trace repetitions only: summed virtual ns per stage.
  std::array<double, kNumVtStages> vt_ns{};

  void Fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
};

// Every simulated outcome of a repetition folded into one value: two
// repetitions of the same stream must produce the same digest.
std::uint64_t ModelDigest(const RepOutcome& r);

// Counter block after - before (elapsed_ns included).
bandslim::KvSsdStats StatsDelta(const bandslim::KvSsdStats& after,
                                const bandslim::KvSsdStats& before);

// Reads every stream.readback key through `store` and compares the bytes
// with the model's last write; a key never written must be NotFound.
void ReadBack(bandslim::KvStore& store, const Stream& stream,
              const LiveBytesModel& model, RepOutcome* out);

// Per-layer metric name -> value.
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  const Stream& stream() const { return stream_; }

  // One repetition: open, preload, timed phase, read-back. With
  // `exact_trace` every store runs the tracer in exact mode.
  virtual RepOutcome Rep(bool exact_trace) = 0;
  // Set-up alone: opens and preloads a store as a repetition does, then
  // closes it. Appends the host seconds of open + preload, cut into
  // segments of kSegmentOps preloaded keys, to `segments`; returns false if
  // the preload failed.
  virtual bool Setup(std::vector<double>* segments) = 0;
  // Workload-specific checks on the first repetition (the observed cluster
  // compares itself with an unobserved twin). Empty string = passed.
  virtual std::string Check(const RepOutcome& /*first*/) { return ""; }
  // Traced pass: the stream is sent to twin stores one layer apart and
  // every call is timed from outside; fills the host-time layer metrics.
  // Returns a non-empty problem if a twin call failed or the twins diverged.
  virtual std::string Peel(Metrics* out) = 0;

 protected:
  explicit Workload(Stream stream) : stream_(std::move(stream)) {}
  Stream stream_;
};

std::unique_ptr<Workload> MakeFill(std::uint64_t seed);
std::unique_ptr<Workload> MakeRead(std::uint64_t seed);
std::unique_ptr<Workload> MakeCluster(std::uint64_t seed, bool observed);

// The device every bare-device workload and every cluster shard opens: the
// bench suite's 4 ch x 8 way, 64 GiB geometry with payloads retained so
// read-backs return real bytes.
bandslim::KvSsdOptions BenchDeviceOptions();

// Standalone replays of the stream on single layers (LSM over its own
// FTL/NAND, page buffer, piggyback codec, NAND): host ns per call.
// Returns a non-empty problem if any replayed call failed.
std::string ReplayLayers(const Stream& stream, std::uint64_t nand_pages,
                         Metrics* out);

}  // namespace perfbench
