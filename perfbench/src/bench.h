// Shared pieces of the repository benchmark: options, metric collection,
// the flowlet program bound to its wire spec, seeded frames, the sequential
// reference egress, and the in-order egress checker.
//
// Every runtime workload pushes the paper's worked example (flowlet
// switching, Figure 3a) through the byte path as 11-byte frames: the
// smallest frame in the corpus, so per-packet cost dominates.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "banzai/fleet.h"
#include "banzai/packet.h"
#include "banzai/service.h"
#include "core/compiler.h"
#include "dist/front.h"
#include "dist/worker.h"
#include "wire/codec.h"

namespace algorithms {
struct AlgorithmInfo;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test: flip one byte of the expected egress (or one expected
  // interpreter output) so the correctness gate must report a failure.
  bool corrupt_reference = false;
};

// What one run reports: the contract's correctness fields plus named
// metrics, in insertion order.
struct Outcome {
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  // Folds in a sub-run's correctness counts.
  void count(std::uint64_t attempted_items, std::uint64_t failed_items) {
    attempted += attempted_items;
    failed += failed_items;
  }
};

double seconds_between(Clock::time_point a, Clock::time_point b);
std::int64_t ns_between(Clock::time_point a, Clock::time_point b);
// CPU time of the whole process (every thread), in seconds.
double process_cpu_seconds();
// Peak resident set of the process so far, in MB.
double peak_rss_mb();

// q-quantile (0..1) by nearest rank; the input is reordered.  0 if empty.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return static_cast<double>(values[k]);
}
double median(std::vector<double> values);

// Runs pass() until `seconds` have elapsed, and at least min_passes times.
void repeat_for(double seconds, int min_passes,
                const std::function<void()>& pass);

// The paper target named by the corpus's least-expressive-atom column;
// nullptr for a program the paper reports as not mapping ("Doesn't map").
const atoms::BanzaiTarget* paper_target_for(
    const algorithms::AlgorithmInfo& alg);

// Flowlet switching compiled to the least expressive paper target that
// accepts it, with ingress and egress codecs bound to its field table.
struct Flowlets {
  domino::CompileResult compiled;
  std::shared_ptr<const wire::WireCodec> rx, tx;
  std::vector<banzai::FieldId> flow_key;  // sport, dport

  const banzai::Machine& machine() const { return compiled.machine(); }
  std::size_t frame_bytes() const { return rx->header_bytes(); }
};

Flowlets compile_flowlets();

// Frames rendered from netsim::generate_flow_trace (Zipf(1.1) over 1000
// flows), packed back to back.
struct Frames {
  std::size_t frame_bytes = 0;
  std::size_t count = 0;
  std::vector<std::uint8_t> bytes;

  const std::uint8_t* at(std::size_t i) const {
    return bytes.data() + i * frame_bytes;
  }
};

Frames render_frames(const Flowlets& fl, std::size_t count,
                     std::uint64_t seed);

// The sequential reference: one Machine::process replica per slot (slot =
// flow hash % num_slots, the definition every runtime shares), run in
// arrival order and deparsed with the egress codec.  Replica state persists
// across calls, so a stream that replays the frames keeps its reference.
class Reference {
 public:
  Reference(const Flowlets& fl, std::size_t num_slots);

  // Expected egress of frames [0, n) offered next.
  std::vector<std::uint8_t> next(const Frames& frames, std::size_t n);

 private:
  const Flowlets& fl_;
  banzai::ShardCore hasher_;  // slot_of only
  std::vector<banzai::Machine> replicas_;
};

// Compares drained egress, in order, against the reference.  Every frame
// that is missing, extra, reordered or differing counts as one failure.
class EgressCheck {
 public:
  EgressCheck(const std::uint8_t* expected, std::size_t count,
              std::size_t frame_bytes)
      : expected_(expected), count_(count), frame_bytes_(frame_bytes) {}

  void take(const std::vector<std::uint8_t>& frame) {
    if (next_ >= count_ || frame.size() != frame_bytes_ ||
        std::memcmp(frame.data(), expected_ + next_ * frame_bytes_,
                    frame_bytes_) != 0)
      ++bad_;
    ++next_;
  }
  // Frames taken so far (the index of the next expected frame).
  std::size_t taken() const { return next_; }
  std::uint64_t failures() const {
    return bad_ + (next_ < count_ ? count_ - next_ : 0);
  }

 private:
  const std::uint8_t* expected_;
  std::size_t count_;
  std::size_t frame_bytes_;
  std::size_t next_ = 0;
  std::uint64_t bad_ = 0;
};

// One timed set-up, in seconds: compile the source, bind the codecs, then
// start(fl), whose result is the running system.  Tear-down is outside the
// timed span.  Runs take one sample per pass, so the median spans the run.
template <typename Start>
double time_setup(Start start) {
  const auto t0 = Clock::now();
  const Flowlets fl = compile_flowlets();
  [[maybe_unused]] const auto running = start(fl);
  return seconds_between(t0, Clock::now());
}

// ---- runtime scenarios (runtime.cc) ----------------------------------------

inline constexpr std::size_t kServiceSlots = 64;  // in-process workloads
inline constexpr std::size_t kDistSlots = 16;     // FrontConfig default
inline constexpr double kPacedRate = 500e3;       // frames/s, inproc_paced

std::unique_ptr<banzai::FleetService> start_service(const Flowlets& fl);

// One in-process WorkerServer (one shard) behind loopback TCP and a
// connected FrontTier.  The destructor stops the worker.  One worker, not
// two: with two, the front's lockstep RPCs land in varying phases of each
// idle worker's 2 ms serve-loop sleep, and throughput swung by a quarter
// between runs of the same code.
struct DistRig {
  explicit DistRig(const Flowlets& fl);
  ~DistRig();
  DistRig(const DistRig&) = delete;
  DistRig& operator=(const DistRig&) = delete;

  std::unique_ptr<dist::WorkerServer> worker;
  std::unique_ptr<dist::FrontTier> front;
};

// One timed pass: n frames through the system, egress checked against the
// reference.  wall/cpu cover offering through the last drain.
struct PassResult {
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;

  // Frames delivered bit-exact per wall second.
  double fps() const { return static_cast<double>(frames - failed) / wall_s; }
  double cpu_ns_per_frame() const {
    return cpu_s * 1e9 / static_cast<double>(frames);
  }
};

// Traced loops time one call in kSpanEvery: timing every call would cost
// about a third of inproc_wire's throughput.
inline constexpr std::size_t kSpanEvery = 8;

// Per-call timings the traced service loops record (one pass).
struct ServiceTrace {
  std::vector<float> ingest_ns;  // sampled ingest_frame calls
  double drain_ns = 0;           // summed drain_egress_frames calls
  std::uint64_t drained = 0;     // frames those calls returned
  double flush_us = 0;
  std::size_t queue_depth_max = 0;  // sampled ServiceStats::queue_depth sum
};

// Per-pass figures of the traced dist loop; counters are this pass's deltas.
struct DistTrace {
  std::vector<float> offer_ns;  // sampled FrontTier::offer calls
  double flush_ms = 0;
  double checkpoint_ms = 0;     // the explicit checkpoint() call
  std::uint64_t offered = 0;
  std::uint64_t sent = 0;       // including retries and replays
  std::uint64_t checkpoints = 0;  // periodic ones only
  std::uint64_t retries = 0;
  std::uint64_t worker_requests = 0;
};

// Closed loop through FleetService::ingest_frame / drain_egress_frames.
PassResult wire_pass(const Flowlets& fl, const Frames& frames,
                     const std::uint8_t* expected, std::size_t n,
                     ServiceTrace* trace);

// Open loop at `rate` frames/s; latency_us receives every frame's due-time
// to drained time, late_us how late the generator offered it.
PassResult paced_pass(const Flowlets& fl, const Frames& frames,
                      const std::uint8_t* expected, std::size_t n,
                      double rate, std::vector<float>& latency_us,
                      std::vector<float>& late_us, ServiceTrace* trace);

// Closed loop through FrontTier::offer / drain_egress on a running rig.
// The rig stays up across passes, so `expected` must continue its stream.
PassResult dist_pass(DistRig& rig, const Frames& frames,
                     const std::uint8_t* expected, std::size_t n,
                     DistTrace* trace);

// Median round trip of an empty RPC: FrontTier::heartbeat, back to back, on
// one idle worker.
double heartbeat_rtt_us(const Flowlets& fl);

// ---- compile corpus (compile.cc) ------------------------------------------

// One pass over the eleven Table-4 programs, each compiled to the paper
// target of its least expressive atom (CoDel to the most expressive one,
// where it must be rejected).  Times cover the compiles alone; checking
// each machine against the interpreter happens outside them.
struct CorpusPass {
  std::uint64_t programs = 0;
  std::uint64_t failed = 0;  // wrong verdict or output differing from interp
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> program_s;  // each program's compile wall time
  // Traced passes only: per-compiler-pass wall time summed over the accepted
  // programs, the rejected program's time, and synthesis totals.
  double parse_ms = 0;
  double normalize_ms = 0;
  double pipeline_ms = 0;
  double codegen_ms = 0;
  double reject_ms = 0;
  double synth_ms = 0;
  std::uint64_t candidates = 0;
};

struct CorpusCase;

class Corpus {
 public:
  // Builds each program's reference: the source interpreter (core/interp)
  // run on a seeded packet sequence.
  Corpus(std::uint64_t seed, bool corrupt_reference);
  ~Corpus();
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  // traced: call parse/analyze, normalize, pipeline_schedule and
  // generate_code one by one (what compile() does) and time each.
  CorpusPass pass(bool traced) const;

 private:
  std::vector<CorpusCase> cases_;
};

// Workload entry points.  Each fills `out` with the end-to-end metrics
// (untraced run) or runs the full per-layer ledger (traced run).
void run_inproc_wire(const Options& opt, Outcome& out);
void run_inproc_paced(const Options& opt, Outcome& out);
void run_dist_tcp(const Options& opt, Outcome& out);
void run_compile_corpus(const Options& opt, Outcome& out);
void run_ledger(const Options& opt, Outcome& out);

}  // namespace perfbench
