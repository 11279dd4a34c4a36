// The three runtime workloads.  A run repeats passes for --seconds and
// reports medians over passes.  Each in-process pass starts a fresh service
// and replays the same frames against one reference; dist_tcp keeps one
// fleet up and continues its reference from pass to pass.
#include <functional>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

// Frames per pass: about half a second for inproc_wire, one second for
// inproc_paced, about two seconds for dist_tcp.
constexpr std::size_t kWireFrames = 1000000;
constexpr std::size_t kPacedFrames = 500000;
constexpr std::size_t kDistFrames = 100000;
constexpr std::size_t kDrainEvery = 512;   // inproc_wire drain cadence
constexpr std::size_t kDistBatch = 128;    // FrontConfig::max_batch
constexpr std::size_t kCheckpointAt = 4096;  // traced explicit checkpoint

float us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<float>(ns_between(a, b)) * 1e-3f;
}

// Per-pass figures of one runtime workload.  Latency is sampled only by the
// open loop (inproc_paced): in a closed loop it is queue depth over
// throughput, set by how the host schedules the shards.  Its quantiles are
// taken per pass and reported as medians over passes, so one pass that the
// host stalled does not set a run's tail.
struct Passes {
  std::vector<double> setup_s;
  std::vector<double> fps;     // bit-exact frames delivered / wall second
  std::vector<double> cpu_ns;  // process CPU ns / frame
  std::vector<double> p50_us, p95_us;
  std::vector<float> latency_us;  // the current pass's samples

  void add(double setup, const PassResult& r, Outcome& out) {
    out.count(r.frames, r.failed);
    setup_s.push_back(setup);
    fps.push_back(r.fps());
    cpu_ns.push_back(r.cpu_ns_per_frame());
    if (!latency_us.empty()) {
      p50_us.push_back(quantile(latency_us, 0.50));
      p95_us.push_back(quantile(latency_us, 0.95));
      latency_us.clear();
    }
  }

  void report(Outcome& out) const {
    out.add("setup_s", "s", median(setup_s));
    out.add("throughput_fps", "frames/s", median(fps));
    out.add("cpu_ns_per_frame", "ns", median(cpu_ns));
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    if (!p50_us.empty()) {
      out.add("latency_p50_us", "us", median(p50_us));
      out.add("latency_p95_us", "us", median(p95_us));
    }
  }
};

// A warm-up pass, checked but not measured, then measured passes for the
// run's seconds, each preceded by one set-up sample.
template <typename Start>
void run_passes(const Options& opt, Outcome& out, Start start,
                const std::function<PassResult(std::vector<float>&)>& pass) {
  Passes p;
  const PassResult warm = pass(p.latency_us);
  out.count(warm.frames, warm.failed);
  p.latency_us.clear();
  repeat_for(opt.seconds, 3, [&] {
    const double setup = time_setup(start);
    p.add(setup, pass(p.latency_us), out);
  });
  p.report(out);
}

std::vector<std::uint8_t> expected_egress(const Options& opt,
                                          const Flowlets& fl,
                                          const Frames& frames,
                                          std::size_t num_slots) {
  auto expected = Reference(fl, num_slots).next(frames, frames.count);
  if (opt.corrupt_reference) expected[expected.size() / 2] ^= 0x01;
  return expected;
}

}  // namespace

std::unique_ptr<banzai::FleetService> start_service(const Flowlets& fl) {
  banzai::ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.num_slots = kServiceSlots;
  cfg.backpressure = banzai::Backpressure::kBlock;
  cfg.flow_key = fl.flow_key;
  auto svc = std::make_unique<banzai::FleetService>(fl.machine(), cfg);
  svc->set_wire(fl.rx, fl.tx);
  svc->start();
  return svc;
}

DistRig::DistRig(const Flowlets& fl) {
  dist::WorkerConfig wc;
  wc.algorithm = "flowlets";
  wc.num_slots = kDistSlots;
  wc.num_shards = 1;
  wc.flow_key = {"sport", "dport"};
  worker =
      std::make_unique<dist::WorkerServer>(fl.machine(), fl.rx, fl.tx, wc);
  worker->start();
  dist::FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kDistSlots;
  fc.flow_key = fl.flow_key;
  fc.max_batch = kDistBatch;
  front = std::make_unique<dist::FrontTier>(fl.rx, fc);
  front->add_worker(worker->port());
  front->connect();
}

DistRig::~DistRig() { worker->stop(); }

PassResult wire_pass(const Flowlets& fl, const Frames& frames,
                     const std::uint8_t* expected, std::size_t n,
                     ServiceTrace* trace) {
  const std::size_t fb = frames.frame_bytes;
  auto svc = start_service(fl);
  EgressCheck check(expected, n, fb);
  if (trace) {
    trace->ingest_ns.clear();
    trace->ingest_ns.reserve(n);
  }
  std::uint64_t refused = 0;

  auto drain = [&] {
    const auto d0 = Clock::now();
    const auto got = svc->drain_egress_frames();
    const auto d1 = Clock::now();
    if (trace) {
      trace->drain_ns += static_cast<double>(ns_between(d0, d1));
      trace->drained += got.size();
    }
    for (const auto& frame : got) check.take(frame);
  };

  const double c0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    bool accepted;
    if (trace && i % kSpanEvery == 0) {
      const auto a = Clock::now();
      accepted = svc->ingest_frame(frames.at(i), fb).accepted;
      trace->ingest_ns.push_back(
          static_cast<float>(ns_between(a, Clock::now())));
    } else {
      accepted = svc->ingest_frame(frames.at(i), fb).accepted;
    }
    if (!accepted) ++refused;
    if ((i + 1) % kDrainEvery == 0) drain();
  }
  const auto f0 = Clock::now();
  svc->flush();
  if (trace)
    trace->flush_us = static_cast<double>(ns_between(f0, Clock::now())) * 1e-3;
  drain();
  const auto t1 = Clock::now();
  const double c1 = process_cpu_seconds();
  return {n, check.failures() + refused, seconds_between(t0, t1), c1 - c0};
}

PassResult paced_pass(const Flowlets& fl, const Frames& frames,
                      const std::uint8_t* expected, std::size_t n,
                      double rate, std::vector<float>& latency_us,
                      std::vector<float>& late_us, ServiceTrace* trace) {
  const std::size_t fb = frames.frame_bytes;
  const double period_ns = 1e9 / rate;
  auto svc = start_service(fl);
  EgressCheck check(expected, n, fb);
  if (trace) {
    trace->ingest_ns.clear();
    trace->ingest_ns.reserve(n);
  }
  std::uint64_t refused = 0;

  const double c0 = process_cpu_seconds();
  // A short lead so the first due times are not already past.
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](std::size_t j) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(period_ns * static_cast<double>(j)));
  };
  auto poll = [&] {
    const auto d0 = Clock::now();
    const auto got = svc->drain_egress_frames();
    const auto d1 = Clock::now();
    if (got.empty()) return;
    if (trace) {
      trace->drain_ns += static_cast<double>(ns_between(d0, d1));
      trace->drained += got.size();
    }
    for (const auto& frame : got) {
      const std::size_t j = check.taken();
      if (j < n) latency_us.push_back(us_between(due(j), d1));
      check.take(frame);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const auto due_i = due(i);
    Clock::time_point now;
    while ((now = Clock::now()) < due_i) poll();
    late_us.push_back(us_between(due_i, now));
    bool accepted;
    if (trace && i % kSpanEvery == 0) {
      const auto a = Clock::now();
      accepted = svc->ingest_frame(frames.at(i), fb).accepted;
      trace->ingest_ns.push_back(
          static_cast<float>(ns_between(a, Clock::now())));
    } else {
      accepted = svc->ingest_frame(frames.at(i), fb).accepted;
    }
    if (!accepted) ++refused;
    if (trace && i % 4096 == 0) {
      std::size_t depth = 0;
      for (std::size_t d : svc->stats().queue_depth) depth += d;
      trace->queue_depth_max = std::max(trace->queue_depth_max, depth);
    }
  }
  // The tail is drained by the same polling, so its latency is measured the
  // same way; the deadline only bounds a stalled service.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (check.taken() < n && Clock::now() < deadline) poll();
  const auto t1 = Clock::now();
  const double c1 = process_cpu_seconds();
  return {n, check.failures() + refused, seconds_between(t0, t1), c1 - c0};
}

PassResult dist_pass(DistRig& rig, const Frames& frames,
                     const std::uint8_t* expected, std::size_t n,
                     DistTrace* trace) {
  const std::size_t fb = frames.frame_bytes;
  dist::FrontTier& front = *rig.front;
  EgressCheck check(expected, n, fb);
  auto worker_requests = [&] { return rig.worker->stats().requests; };
  dist::FrontStats before;
  std::uint64_t requests_before = 0;
  if (trace) {
    trace->offer_ns.clear();
    trace->offer_ns.reserve(n / kSpanEvery + 1);
    // Empties the resend buffers, so the timed checkpoint below always
    // starts from the same fill.
    front.checkpoint();
    before = front.stats();
    requests_before = worker_requests();
  }

  auto drain = [&] {
    for (const auto& frame : front.drain_egress()) check.take(frame);
  };

  const double c0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  std::uint64_t explicit_checkpoints = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (trace && i % kSpanEvery == 0) {
      const auto a = Clock::now();
      front.offer(frames.at(i), fb);
      trace->offer_ns.push_back(
          static_cast<float>(ns_between(a, Clock::now())));
    } else {
      front.offer(frames.at(i), fb);
    }
    if (trace && i + 1 == kCheckpointAt) {
      const auto c = Clock::now();
      front.checkpoint();
      trace->checkpoint_ms =
          static_cast<double>(ns_between(c, Clock::now())) * 1e-6;
      ++explicit_checkpoints;
    }
    if ((i + 1) % kDistBatch == 0) drain();
  }
  const auto f0 = Clock::now();
  front.flush();
  if (trace)
    trace->flush_ms = static_cast<double>(ns_between(f0, Clock::now())) * 1e-6;
  drain();
  const auto t1 = Clock::now();
  const double c1 = process_cpu_seconds();
  if (trace) {
    const dist::FrontStats after = front.stats();
    trace->offered = after.frames_offered - before.frames_offered;
    trace->sent = after.frames_sent - before.frames_sent;
    trace->checkpoints =
        after.checkpoints - before.checkpoints - explicit_checkpoints;
    trace->retries = after.retries - before.retries;
    trace->worker_requests = worker_requests() - requests_before;
  }
  return {n, check.failures(), seconds_between(t0, t1), c1 - c0};
}

double heartbeat_rtt_us(const Flowlets& fl) {
  DistRig rig(fl);
  std::vector<double> rtt_us;
  for (int k = 0; k < 33; ++k) {
    const auto a = Clock::now();
    rig.front->heartbeat();
    const double us = static_cast<double>(ns_between(a, Clock::now())) * 1e-3;
    if (k >= 3) rtt_us.push_back(us);  // the first few warm the path
  }
  if (rig.front->stats().heartbeats != 33)
    throw std::runtime_error("heartbeat: a worker did not answer");
  return median(rtt_us);
}

// ---- end-to-end workloads --------------------------------------------------

void run_inproc_wire(const Options& opt, Outcome& out) {
  const Flowlets fl = compile_flowlets();
  const Frames frames = render_frames(fl, kWireFrames, opt.seed);
  const auto expected = expected_egress(opt, fl, frames, kServiceSlots);
  run_passes(opt, out, start_service, [&](std::vector<float>&) {
    return wire_pass(fl, frames, expected.data(), frames.count, nullptr);
  });
}

void run_inproc_paced(const Options& opt, Outcome& out) {
  const Flowlets fl = compile_flowlets();
  const Frames frames = render_frames(fl, kPacedFrames, opt.seed);
  const auto expected = expected_egress(opt, fl, frames, kServiceSlots);
  std::vector<float> late_us;
  run_passes(opt, out, start_service, [&](std::vector<float>& latency_us) {
    return paced_pass(fl, frames, expected.data(), frames.count, kPacedRate,
                      latency_us, late_us, nullptr);
  });
}

void run_dist_tcp(const Options& opt, Outcome& out) {
  const Flowlets fl = compile_flowlets();
  const Frames frames = render_frames(fl, kDistFrames, opt.seed);
  // One long-lived fleet: each pass replays the frames into the same
  // worker, and the reference continues with it.
  DistRig rig(fl);
  Reference ref(fl, kDistSlots);
  run_passes(
      opt, out, [](const Flowlets& f) { return std::make_unique<DistRig>(f); },
      [&](std::vector<float>&) {
        auto expected = ref.next(frames, frames.count);
        if (opt.corrupt_reference) expected[expected.size() / 2] ^= 0x01;
        return dist_pass(rig, frames, expected.data(), frames.count, nullptr);
      });
}

}  // namespace perfbench
