// The traced run: the per-layer ledger.  Spans are recorded from this file
// and runtime.cc around calls into each layer's public functions; nothing
// inside the program is instrumented.
//
// Two kinds of figures:
//   * isolated layer costs — each layer's public function driven alone on
//     the seed's frames, median of several repetitions, ns per frame;
//   * traced scenario slices — the workloads' own loops with calls timed
//     (one in kSpanEvery), for the figures that only exist under load
//     (backpressure naps, queue depth, RPC batching, checkpoints).
// The named workload alternates untraced and traced passes for --seconds
// (their throughput difference is trace.overhead_share); every other
// scenario runs a short slice so each traced run reports the whole ledger.
#include <functional>
#include <stdexcept>

#include "banzai/fleet.h"
#include "banzai/spsc_ring.h"
#include "bench.h"
#include "dist/framing.h"

namespace perfbench {

namespace {

constexpr std::size_t kLedgerFrames = 1000000;  // the inproc_wire pass size
constexpr std::size_t kIsolatedFrames = 262144;
constexpr std::size_t kFramingFrames = 65536;
constexpr std::size_t kPacedSliceFrames = 250000;
constexpr std::size_t kDistSliceFrames = 100000;
constexpr std::size_t kBatch = 256;        // ServiceConfig::batch_size
constexpr std::size_t kRpcBatch = 128;     // FrontConfig::max_batch in use
constexpr int kReps = 9;

// Median over kReps repetitions of rep(), which returns ns per item.
double median_rep(const std::function<double()>& rep) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(rep());
  return median(v);
}

double per_item(Clock::time_point a, Clock::time_point b, std::size_t n) {
  return static_cast<double>(ns_between(a, b)) / static_cast<double>(n);
}

struct Isolated {
  double parse = 0, deparse = 0, slot_of = 0, ring = 0, run_batch = 0,
         drain = 0, reorder = 0, batch_encode = 0, batch_decode = 0,
         ack_codec = 0;
};

Isolated measure_isolated(const Flowlets& fl, const Frames& frames) {
  Isolated iso;
  const std::size_t n = kIsolatedFrames;
  const std::size_t fb = frames.frame_bytes;
  const wire::WireCodec& rx = *fl.rx;
  const wire::WireCodec& tx = *fl.tx;
  std::uint64_t sink = 0;

  std::vector<banzai::Packet> parsed(n, banzai::Packet(rx.num_table_fields()));
  for (std::size_t i = 0; i < n; ++i)
    if (!rx.parse_exact(frames.at(i), fb, parsed[i]).ok())
      throw std::runtime_error("ledger: frame does not parse");

  // wire: WireCodec::parse_exact / deparse_into on reused buffers.
  iso.parse = median_rep([&] {
    banzai::Packet pkt(rx.num_table_fields());
    const auto a = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
      sink += rx.parse_exact(frames.at(i), fb, pkt).header_bytes;
    return per_item(a, Clock::now(), n);
  });
  std::vector<banzai::Packet> processed = parsed;
  {
    banzai::Machine m = fl.machine().clone();
    for (std::size_t s = 0; s < n; s += kBatch)
      m.run_batch(banzai::BatchView::rows(processed.data() + s, kBatch));
  }
  iso.deparse = median_rep([&] {
    std::vector<std::uint8_t> buf(fb);
    const auto a = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      tx.deparse_into(processed[i], buf.data());
      sink += buf[0];
    }
    return per_item(a, Clock::now(), n);
  });

  // banzai: flow hash, ring handoff, the kernel engine, the shard drain
  // (grouping + run_batch) and the reorder window.
  banzai::ShardCore hasher(fl.machine(), kServiceSlots, 2, kBatch,
                           fl.flow_key);
  iso.slot_of = median_rep([&] {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sink += hasher.slot_of(parsed[i]);
    return per_item(a, Clock::now(), n);
  });

  struct Item {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    banzai::Packet pkt;
  };
  iso.ring = median_rep([&] {
    banzai::SpscRing<Item> ring(1024);
    std::vector<Item> pool(kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) pool[k].pkt = parsed[k];
    const auto a = Clock::now();
    for (std::size_t s = 0; s < n; s += kBatch) {
      for (std::size_t k = 0; k < kBatch; ++k) {
        pool[k].seq = s + k;
        ring.try_push(std::move(pool[k]));
      }
      for (std::size_t k = 0; k < kBatch; ++k) ring.try_pop(pool[k]);
    }
    const auto b = Clock::now();
    for (const Item& it : pool) sink += it.seq;
    return per_item(a, b, n);
  });

  iso.run_batch = median_rep([&] {
    banzai::Machine m = fl.machine().clone();
    std::vector<banzai::Packet> rows = parsed;
    const auto a = Clock::now();
    for (std::size_t s = 0; s < n; s += kBatch)
      m.run_batch(banzai::BatchView::rows(rows.data() + s, kBatch));
    return per_item(a, Clock::now(), n);
  });

  // Per-shard packet streams, as the service's two workers see them.
  std::vector<std::vector<std::size_t>> by_shard(2);
  for (std::size_t i = 0; i < n; ++i)
    by_shard[hasher.shard_of(parsed[i])].push_back(i);

  iso.drain = median_rep([&] {
    banzai::ShardCore core(fl.machine(), kServiceSlots, 2, kBatch,
                           fl.flow_key);
    std::vector<banzai::Packet> in(kBatch), out(kBatch);
    std::vector<std::size_t> slots(kBatch);
    std::int64_t ns = 0;
    for (std::size_t shard = 0; shard < 2; ++shard) {
      const auto& idx = by_shard[shard];
      for (std::size_t s = 0; s < idx.size(); s += kBatch) {
        const std::size_t m = std::min(kBatch, idx.size() - s);
        for (std::size_t k = 0; k < m; ++k) {
          in[k] = parsed[idx[s + k]];
          slots[k] = hasher.slot_of(in[k]);
        }
        const auto a = Clock::now();
        core.drain(shard, slots.data(), in.data(), m, out.data());
        ns += ns_between(a, Clock::now());
      }
    }
    return static_cast<double>(ns) / static_cast<double>(n);
  });

  iso.reorder = median_rep([&] {
    auto egress = std::make_unique<banzai::OrderedEgress>();
    std::vector<banzai::Packet> buf(kBatch);
    std::vector<std::uint64_t> seqs(kBatch);
    std::int64_t ns = 0;
    std::size_t pos[2] = {0, 0};
    while (pos[0] < by_shard[0].size() || pos[1] < by_shard[1].size()) {
      // The two shards deliver alternately, each in its own seq order.
      for (std::size_t shard = 0; shard < 2; ++shard) {
        const auto& idx = by_shard[shard];
        const std::size_t m = std::min(kBatch, idx.size() - pos[shard]);
        if (m == 0) continue;
        for (std::size_t k = 0; k < m; ++k) {
          seqs[k] = idx[pos[shard] + k];
          buf[k] = processed[seqs[k]];
        }
        pos[shard] += m;
        const auto a = Clock::now();
        egress->deliver_batch(seqs.data(), buf.data(), m);
        ns += ns_between(a, Clock::now());
      }
      const auto a = Clock::now();
      sink += egress->drain().size();
      ns += ns_between(a, Clock::now());
    }
    return static_cast<double>(ns) / static_cast<double>(n);
  });

  // dist framing: INGEST_BATCH encode/decode and the ack round (encode +
  // decode of 128 statuses plus 128 egress records), per frame.
  const std::size_t nf = kFramingFrames;
  std::vector<dist::IngestBatch> batches(nf / kRpcBatch);
  std::vector<dist::IngestAck> acks(nf / kRpcBatch);
  for (std::size_t i = 0; i < nf; ++i) {
    const std::vector<std::uint8_t> bytes(frames.at(i), frames.at(i) + fb);
    batches[i / kRpcBatch].frames.push_back(
        {i + 1, static_cast<std::uint32_t>(hasher.slot_of(parsed[i]) %
                                           kDistSlots),
         bytes});
    dist::IngestAck& ack = acks[i / kRpcBatch];
    ack.seqs.push_back(i + 1);
    ack.statuses.push_back(dist::FrameStatus::kAccepted);
    ack.egress.push_back({i + 1, tx.deparse(processed[i])});
  }
  std::vector<std::vector<std::uint8_t>> encoded(batches.size());
  iso.batch_encode = median_rep([&] {
    const auto a = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b)
      encoded[b] = dist::encode_ingest_batch(batches[b]);
    return per_item(a, Clock::now(), nf);
  });
  iso.batch_decode = median_rep([&] {
    const auto a = Clock::now();
    for (const auto& e : encoded)
      sink += dist::decode_ingest_batch(e.data(), e.size()).frames.size();
    return per_item(a, Clock::now(), nf);
  });
  iso.ack_codec = median_rep([&] {
    const auto a = Clock::now();
    for (const auto& ack : acks) {
      const auto e = dist::encode_ingest_ack(ack);
      sink += dist::decode_ingest_ack(e.data(), e.size()).egress.size();
    }
    return per_item(a, Clock::now(), nf);
  });

  if (sink == 0) throw std::runtime_error("ledger: no work was done");
  return iso;
}

}  // namespace

void run_ledger(const Options& opt, Outcome& out) {
  // Alternating passes put host drift on both sides of the overhead.
  const std::string& w = opt.workload;
  auto slice_s = [&](const char* name) { return w == name ? opt.seconds : 0; };
  auto min_rounds = [&](const char* name) { return w == name ? 3 : 1; };

  const auto fl = std::make_unique<Flowlets>(compile_flowlets());
  const Frames frames = render_frames(*fl, kLedgerFrames, opt.seed);
  auto expect64 = Reference(*fl, kServiceSlots).next(frames, frames.count);
  if (opt.corrupt_reference) expect64[expect64.size() / 2] ^= 0x01;

  const Isolated iso = measure_isolated(*fl, frames);

  // inproc_wire: untraced (closure + overhead) and traced passes.
  std::vector<double> wire_fps_u, wire_cpu_u, wire_fps_t;
  std::vector<double> ingest_p50, ingest_p99, flush_us;
  double drain_ns = 0, drained = 0;
  repeat_for(slice_s("inproc_wire"), min_rounds("inproc_wire"), [&] {
    const PassResult u =
        wire_pass(*fl, frames, expect64.data(), frames.count, nullptr);
    out.count(u.frames, u.failed);
    wire_fps_u.push_back(u.fps());
    wire_cpu_u.push_back(u.cpu_ns_per_frame());

    ServiceTrace tr;
    const PassResult t =
        wire_pass(*fl, frames, expect64.data(), frames.count, &tr);
    out.count(t.frames, t.failed);
    wire_fps_t.push_back(t.fps());
    ingest_p50.push_back(quantile(tr.ingest_ns, 0.50));
    ingest_p99.push_back(quantile(tr.ingest_ns, 0.99));
    flush_us.push_back(tr.flush_us);
    drain_ns += tr.drain_ns;
    drained += static_cast<double>(tr.drained);
  });

  // inproc_paced: traced passes (queue depth, generator lateness), and
  // untraced ones only when it is the named workload.
  std::vector<double> paced_fps_u, paced_fps_t;
  std::vector<float> lat_us, late_us, untraced_late_us;
  std::size_t queue_depth_max = 0;
  repeat_for(slice_s("inproc_paced"), min_rounds("inproc_paced"), [&] {
    if (w == "inproc_paced") {
      const PassResult u = paced_pass(*fl, frames, expect64.data(),
                                      kPacedSliceFrames, kPacedRate, lat_us,
                                      untraced_late_us, nullptr);
      out.count(u.frames, u.failed);
      paced_fps_u.push_back(u.fps());
    }
    ServiceTrace tr;
    const PassResult t = paced_pass(*fl, frames, expect64.data(),
                                    kPacedSliceFrames, kPacedRate, lat_us,
                                    late_us, &tr);
    out.count(t.frames, t.failed);
    paced_fps_t.push_back(t.fps());
    queue_depth_max = std::max(queue_depth_max, tr.queue_depth_max);
    lat_us.clear();
  });

  // dist_tcp: untraced (closure + overhead) and traced passes on one fleet,
  // whose reference continues across passes; then an idle RPC.
  std::vector<double> dist_fps_u, dist_fps_t;
  std::vector<double> offer_p50, offer_p99, front_flush_ms, checkpoint_ms,
      checkpoints, frames_per_rpc, resend_share, retries;
  {
    DistRig rig(*fl);
    Reference ref(*fl, kDistSlots);
    auto expected = [&] {
      auto e = ref.next(frames, kDistSliceFrames);
      if (opt.corrupt_reference) e[e.size() / 2] ^= 0x01;
      return e;
    };
    repeat_for(slice_s("dist_tcp"), min_rounds("dist_tcp"), [&] {
      const PassResult u = dist_pass(rig, frames, expected().data(),
                                     kDistSliceFrames, nullptr);
      out.count(u.frames, u.failed);
      dist_fps_u.push_back(u.fps());

      DistTrace tr;
      const PassResult t = dist_pass(rig, frames, expected().data(),
                                     kDistSliceFrames, &tr);
      out.count(t.frames, t.failed);
      dist_fps_t.push_back(t.fps());
      const double offered = static_cast<double>(tr.offered);
      const double sent = static_cast<double>(tr.sent);
      offer_p50.push_back(quantile(tr.offer_ns, 0.50));
      offer_p99.push_back(quantile(tr.offer_ns, 0.99));
      front_flush_ms.push_back(tr.flush_ms);
      checkpoint_ms.push_back(tr.checkpoint_ms);
      checkpoints.push_back(static_cast<double>(tr.checkpoints) * 1e5 /
                            offered);
      frames_per_rpc.push_back(sent /
                               static_cast<double>(tr.worker_requests));
      resend_share.push_back((sent - offered) / offered);
      retries.push_back(static_cast<double>(tr.retries));
    });
  }
  const double rtt_us = heartbeat_rtt_us(*fl);

  // compile_corpus: traced passes, and untraced ones only when it is the
  // named workload.
  const Corpus corpus(opt.seed, opt.corrupt_reference);
  std::vector<double> corpus_pps_u, corpus_pps_t;
  std::vector<double> parse_ms, normalize_ms, pipeline_ms, codegen_ms,
      reject_ms, synth_ms;
  std::uint64_t candidates = 0;
  repeat_for(slice_s("compile_corpus"), 3, [&] {
    if (w == "compile_corpus") {
      const CorpusPass u = corpus.pass(false);
      out.count(u.programs, u.failed);
      corpus_pps_u.push_back(static_cast<double>(u.programs) / u.wall_s);
    }
    const CorpusPass t = corpus.pass(true);
    out.count(t.programs, t.failed);
    corpus_pps_t.push_back(static_cast<double>(t.programs) / t.wall_s);
    parse_ms.push_back(t.parse_ms);
    normalize_ms.push_back(t.normalize_ms);
    pipeline_ms.push_back(t.pipeline_ms);
    codegen_ms.push_back(t.codegen_ms);
    reject_ms.push_back(t.reject_ms);
    synth_ms.push_back(t.synth_ms);
    candidates = t.candidates;
  });

  // ---- the ledger ---------------------------------------------------------
  out.add("wire.parse_ns", "ns", iso.parse);
  out.add("wire.deparse_ns", "ns", iso.deparse);
  out.add("shardcore.slot_of_ns", "ns", iso.slot_of);
  out.add("ring.push_pop_ns", "ns", iso.ring);
  out.add("machine.run_batch_ns", "ns", iso.run_batch);
  out.add("shardcore.drain_ns", "ns", iso.drain);
  out.add("egress.reorder_ns", "ns", iso.reorder);

  out.add("service.ingest_frame_ns_p50", "ns", median(ingest_p50));
  out.add("service.ingest_frame_ns_p99", "ns", median(ingest_p99));
  out.add("service.drain_ns_per_frame", "ns", drain_ns / drained);
  out.add("service.flush_us", "us", median(flush_us));
  // Closure on CPU time: every layer the in-process byte path crosses,
  // summed, against the process CPU time per frame of the untraced loop
  // (run_batch is inside shardcore.drain and is not added twice).
  const double inproc_layers = iso.parse + iso.deparse + iso.slot_of +
                               iso.ring + iso.drain + iso.reorder;
  const double inproc_cpu_ns = median(wire_cpu_u);
  out.add("service.unexplained_share", "ratio",
          1.0 - inproc_layers / inproc_cpu_ns);
  out.add("service.queue_depth_max", "count",
          static_cast<double>(queue_depth_max));
  out.add("gen.late_p99_us", "us", quantile(late_us, 0.99));

  out.add("framing.ingest_batch_encode_ns", "ns", iso.batch_encode);
  out.add("framing.ingest_batch_decode_ns", "ns", iso.batch_decode);
  out.add("framing.ingest_ack_codec_ns", "ns", iso.ack_codec);
  out.add("rpc.heartbeat_rtt_us", "us", rtt_us);
  out.add("front.offer_ns_p50", "ns", median(offer_p50));
  out.add("front.offer_ns_p99", "ns", median(offer_p99));
  out.add("front.flush_ms", "ms", median(front_flush_ms));
  out.add("front.checkpoint_ms", "ms", median(checkpoint_ms));
  out.add("front.checkpoints", "count", median(checkpoints));
  const double fpr = median(frames_per_rpc);
  out.add("front.frames_per_rpc", "count", fpr);
  out.add("front.resend_share", "ratio", median(resend_share));
  out.add("front.retries", "count", median(retries));
  // Closure on the front thread's wall time, whose RPCs run one at a time:
  // per frame, the front parses and hashes it, the batch is encoded,
  // decoded and acknowledged, the worker parses, hashes, enqueues and
  // deparses it, its share of one RPC round trip and of the periodic
  // checkpoints.
  const double dist_ns = 1e9 / median(dist_fps_u);
  const double dist_layers =
      2 * iso.parse + 2 * iso.slot_of + iso.ring + iso.deparse +
      iso.batch_encode + iso.batch_decode + iso.ack_codec +
      rtt_us * 1e3 / std::max(fpr, 1.0) +
      median(checkpoint_ms) * 1e6 * median(checkpoints) / 1e5;
  out.add("dist.unexplained_share", "ratio", 1.0 - dist_layers / dist_ns);

  out.add("core.parse_ms", "ms", median(parse_ms));
  out.add("core.normalize_ms", "ms", median(normalize_ms));
  out.add("core.pipeline_ms", "ms", median(pipeline_ms));
  out.add("core.codegen_ms", "ms", median(codegen_ms));
  out.add("core.reject_ms", "ms", median(reject_ms));
  out.add("synthesis.candidates", "count", static_cast<double>(candidates));
  out.add("synthesis.ms", "ms", median(synth_ms));

  // Tracing overhead on the named workload's throughput.
  const std::vector<double>* untraced = &wire_fps_u;
  const std::vector<double>* traced = &wire_fps_t;
  if (w == "inproc_paced") {
    untraced = &paced_fps_u;
    traced = &paced_fps_t;
  } else if (w == "dist_tcp") {
    untraced = &dist_fps_u;
    traced = &dist_fps_t;
  } else if (w == "compile_corpus") {
    untraced = &corpus_pps_u;
    traced = &corpus_pps_t;
  }
  const double u = median(*untraced);
  out.add("trace.overhead_share", "ratio", (u - median(*traced)) / u);
}

}  // namespace perfbench
