// The distributed fleet (src/dist/): framing round-trips and their paranoia,
// the reconnect backoff policy, the per-worker health state machine, and the
// end-to-end contracts — a worker cluster's egress is bit-exact against one
// sequential per-slot reference through batching, retries, duplicated
// batches, live slot rebalancing, engine hot-swap, and corrupt-restore
// rejection.  The seeded fault-injection schedules (kill mid-burst,
// reconnect storm) live in dist_chaos_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/machine.h"
#include "banzai/state.h"
#include "core/compiler.h"
#include "dist/framing.h"
#include "dist/front.h"
#include "dist/health.h"
#include "dist/metrics.h"
#include "dist/rpc.h"
#include "dist/worker.h"
#include "sim/partition.h"
#include "test_util.h"
#include "wire/codec.h"

namespace {

using banzai::Packet;
using dist::EgressWindow;
using dist::FailureDetector;
using dist::FramingError;
using dist::FrontConfig;
using dist::FrontTier;
using dist::HealthState;
using dist::MsgType;
using dist::WorkerConfig;
using dist::WorkerServer;
using wire::WireCodec;
using wire::WireSpec;

// ---- framing ---------------------------------------------------------------

TEST(DistFramingTest, HelloRoundTrips) {
  dist::Hello h;
  h.algorithm = "flowlets";
  h.num_slots = 16;
  h.header_bytes = 14;
  const auto bytes = dist::encode_hello(h);
  const dist::Hello back = dist::decode_hello(bytes.data(), bytes.size());
  EXPECT_EQ(back.version, dist::kProtocolVersion);
  EXPECT_EQ(back.algorithm, "flowlets");
  EXPECT_EQ(back.num_slots, 16u);
  EXPECT_EQ(back.header_bytes, 14u);
}

TEST(DistFramingTest, IngestBatchAndAckRoundTrip) {
  dist::IngestBatch b;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    dist::FrameRecord f;
    f.seq = i;
    f.slot = static_cast<std::uint32_t>(i % 2);
    f.bytes = {static_cast<std::uint8_t>(i), 0xAB};
    b.frames.push_back(std::move(f));
  }
  const auto eb = dist::encode_ingest_batch(b);
  const dist::IngestBatch bb = dist::decode_ingest_batch(eb.data(), eb.size());
  ASSERT_EQ(bb.frames.size(), 3u);
  EXPECT_EQ(bb.frames[2].seq, 3u);
  EXPECT_EQ(bb.frames[2].bytes, (std::vector<std::uint8_t>{3, 0xAB}));

  dist::IngestAck a;
  a.seqs = {1, 2, 3};
  a.statuses = {dist::FrameStatus::kAccepted, dist::FrameStatus::kDuplicate,
                dist::FrameStatus::kRejectTruncated};
  a.egress.push_back({7, {0xDE, 0xAD}});
  const auto ea = dist::encode_ingest_ack(a);
  const dist::IngestAck ab = dist::decode_ingest_ack(ea.data(), ea.size());
  ASSERT_EQ(ab.statuses.size(), 3u);
  EXPECT_EQ(ab.statuses[1], dist::FrameStatus::kDuplicate);
  ASSERT_EQ(ab.egress.size(), 1u);
  EXPECT_EQ(ab.egress[0].seq, 7u);
}

// The ingest exchange's byte format is pinned, so the in-place views and
// writer cannot drift from the owning encoders (or from protocol v3).
TEST(DistFramingTest, IngestBatchAndAckGoldenBytes) {
  dist::IngestBatch b;
  b.frames.push_back({1, 2, {0xAA, 0xBB}});
  b.frames.push_back({0x0102030405060708ull, 0x0A0B0C0D, {}});
  const std::vector<std::uint8_t> batch_golden = {
      0x02, 0x00, 0x00, 0x00,                          // 2 frames
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 1
      0x02, 0x00, 0x00, 0x00,                          // slot 2
      0x02, 0x00, 0x00, 0x00, 0xAA, 0xBB,              // 2 bytes
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
      0x0D, 0x0C, 0x0B, 0x0A,                          // slot
      0x00, 0x00, 0x00, 0x00,                          // no bytes
  };
  EXPECT_EQ(dist::encode_ingest_batch(b), batch_golden);

  dist::IngestAck a;
  a.seqs = {1, 0x0102030405060708ull};
  a.statuses = {dist::FrameStatus::kAccepted,
                dist::FrameStatus::kRejectBadValue};
  a.egress.push_back({5, {0xDE, 0xAD}});
  const std::vector<std::uint8_t> ack_golden = {
      0x02, 0x00, 0x00, 0x00,                          // 2 statuses
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 1
      0x00,                                            // kAccepted
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
      0x04,                                            // kRejectBadValue
      0x01, 0x00, 0x00, 0x00,                          // 1 egress record
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 5
      0x02, 0x00, 0x00, 0x00, 0xDE, 0xAD,              // 2 bytes
  };
  EXPECT_EQ(dist::encode_ingest_ack(a), ack_golden);
}

// The views the hot path reads are the owning decoders' only parser: they
// yield the same records in place, and reject every truncation and any
// trailing byte before yielding anything.
TEST(DistFramingTest, IngestViewsMatchDecodersAndValidateWholePayload) {
  dist::IngestBatch b;
  for (std::uint64_t i = 1; i <= 4; ++i)
    b.frames.push_back({i * 10, static_cast<std::uint32_t>(i),
                        std::vector<std::uint8_t>(i, 0x5A)});
  const auto eb = dist::encode_ingest_batch(b);
  const dist::IngestBatchView bv =
      dist::view_ingest_batch(eb.data(), eb.size());
  ASSERT_EQ(bv.size(), 4u);
  std::size_t i = 0;
  for (const dist::FrameRef& f : bv) {
    EXPECT_EQ(f.seq, b.frames[i].seq);
    EXPECT_EQ(f.slot, b.frames[i].slot);
    EXPECT_EQ(std::vector<std::uint8_t>(f.data, f.data + f.len),
              b.frames[i].bytes);
    ++i;
  }
  EXPECT_EQ(i, 4u);

  dist::IngestAck a;
  a.seqs = {3, 4};
  a.statuses = {dist::FrameStatus::kDuplicate,
                dist::FrameStatus::kRejectOversized};
  a.egress.push_back({3, {1, 2, 3}});
  a.egress.push_back({9, {}});
  const auto ea = dist::encode_ingest_ack(a);
  const dist::IngestAckView av = dist::view_ingest_ack(ea.data(), ea.size());
  ASSERT_EQ(av.statuses.size(), 2u);
  ASSERT_EQ(av.egress.size(), 2u);
  i = 0;
  for (const dist::StatusRef& s : av.statuses) {
    EXPECT_EQ(s.seq, a.seqs[i]);
    EXPECT_EQ(s.status, a.statuses[i]);
    ++i;
  }
  i = 0;
  for (const dist::EgressRef& e : av.egress) {
    EXPECT_EQ(e.seq, a.egress[i].seq);
    EXPECT_EQ(std::vector<std::uint8_t>(e.data, e.data + e.len),
              a.egress[i].bytes);
    ++i;
  }

  for (std::size_t cut = 0; cut < eb.size(); ++cut) {
    EXPECT_THROW(dist::view_ingest_batch(eb.data(), cut), FramingError)
        << "cut at " << cut;
    EXPECT_THROW(dist::decode_ingest_batch(eb.data(), cut), FramingError)
        << "cut at " << cut;
  }
  for (std::size_t cut = 0; cut < ea.size(); ++cut) {
    EXPECT_THROW(dist::view_ingest_ack(ea.data(), cut), FramingError)
        << "cut at " << cut;
    EXPECT_THROW(dist::decode_ingest_ack(ea.data(), cut), FramingError)
        << "cut at " << cut;
  }
  auto trailing = ea;
  trailing.push_back(0);
  EXPECT_THROW(dist::view_ingest_ack(trailing.data(), trailing.size()),
               FramingError);
  auto bad_status = ea;
  bad_status[4 + 8] = 0x7F;  // first status byte
  EXPECT_THROW(dist::view_ingest_ack(bad_status.data(), bad_status.size()),
               FramingError);
}

// The ack writer sizes its payload once; writing past the counts it was
// sized for throws instead of running off the buffer.
TEST(DistFramingTest, IngestAckWriterRefusesToOverrun) {
  std::vector<std::uint8_t> out;
  dist::IngestAckWriter w(out, 1, 1, 2);
  w.status(7, dist::FrameStatus::kAccepted);
  EXPECT_THROW(w.status(8, dist::FrameStatus::kAccepted), FramingError);
  EXPECT_THROW(w.egress(7, 3), FramingError);  // 3 > the 2 bytes sized
  std::uint8_t* dst = w.egress(7, 2);
  dst[0] = 0xCA;
  dst[1] = 0xFE;
  EXPECT_THROW(w.egress(8, 0), FramingError);
  EXPECT_EQ(w.egress_offset(), 4u + 9u);
  const dist::IngestAck back = dist::decode_ingest_ack(out.data(), out.size());
  ASSERT_EQ(back.egress.size(), 1u);
  EXPECT_EQ(back.egress[0].bytes, (std::vector<std::uint8_t>{0xCA, 0xFE}));
}

TEST(DistFramingTest, TruncatedAndTrailingBytesThrow) {
  dist::Hello h;
  h.algorithm = "x";
  const auto bytes = dist::encode_hello(h);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_THROW(dist::decode_hello(bytes.data(), cut), FramingError)
        << "cut at " << cut;
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(dist::decode_hello(trailing.data(), trailing.size()),
               FramingError);
}

TEST(DistFramingTest, StateStoreSerializationIsCanonicalAndValidated) {
  banzai::StateStore s;
  s.declare("zeta", 4, false);
  s.declare("alpha", 1, true);
  s.var("alpha").store(0, 42);
  s.var("zeta").store(2, -7);
  const auto blob = dist::serialize_state_store(s);
  // Canonical: a same-content store built in another order emits the same
  // bytes, so migration tests can compare blobs directly.
  banzai::StateStore t;
  t.declare("alpha", 1, true);
  t.declare("zeta", 4, false);
  t.var("alpha").store(0, 42);
  t.var("zeta").store(2, -7);
  EXPECT_EQ(blob, dist::serialize_state_store(t));
  // The byte format itself is pinned: u32 var count, then per variable in
  // name order u16 name length + name, u8 scalar flag, u32 cell count and
  // the cells as u32 LE.
  const std::vector<std::uint8_t> golden = {
      0x02, 0x00, 0x00, 0x00,                          // 2 vars
      0x05, 0x00, 'a',  'l',  'p',  'h',  'a',         // "alpha"
      0x01, 0x01, 0x00, 0x00, 0x00,                    // scalar, 1 cell
      0x2A, 0x00, 0x00, 0x00,                          // 42
      0x04, 0x00, 'z',  'e',  't',  'a',               // "zeta"
      0x00, 0x04, 0x00, 0x00, 0x00,                    // array, 4 cells
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0, 0
      0xF9, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00,  // -7, 0
  };
  EXPECT_EQ(blob, golden);

  const banzai::StateStore back =
      dist::deserialize_state_store(blob.data(), blob.size());
  EXPECT_TRUE(back.same_shape(s));
  EXPECT_EQ(back.var("alpha").load(0), 42);
  EXPECT_EQ(back.var("zeta").load(2), -7);

  // Corruption must throw before any store is returned.
  for (std::size_t cut = 1; cut < blob.size(); ++cut)
    EXPECT_THROW(dist::deserialize_state_store(blob.data(), cut),
                 FramingError);
  auto trailing = blob;
  trailing.push_back(0xFF);
  EXPECT_THROW(
      dist::deserialize_state_store(trailing.data(), trailing.size()),
      FramingError);
}

TEST(DistFramingTest, StateStoreDecoderRejectsSemanticGarbage) {
  // scalar flagged with more than one cell
  {
    std::vector<std::uint8_t> out;
    dist::Writer w(out);
    w.u32(1);
    w.str("x");
    w.u8(1);   // scalar
    w.u32(2);  // ...with two cells
    w.u32(0);
    w.u32(0);
    EXPECT_THROW(dist::deserialize_state_store(out.data(), out.size()),
                 FramingError);
  }
  // duplicate variable name
  {
    std::vector<std::uint8_t> out;
    dist::Writer w(out);
    w.u32(2);
    for (int i = 0; i < 2; ++i) {
      w.str("dup");
      w.u8(1);
      w.u32(1);
      w.u32(0);
    }
    EXPECT_THROW(dist::deserialize_state_store(out.data(), out.size()),
                 FramingError);
  }
  // zero cells
  {
    std::vector<std::uint8_t> out;
    dist::Writer w(out);
    w.u32(1);
    w.str("x");
    w.u8(0);
    w.u32(0);
    EXPECT_THROW(dist::deserialize_state_store(out.data(), out.size()),
                 FramingError);
  }
}

// ---- backoff ---------------------------------------------------------------

TEST(DistBackoffTest, BoundedExponentialWithDeterministicJitter) {
  const dist::Backoff b(dist::Millis(10), dist::Millis(400), 7);
  std::uint64_t prev_nominal = 0;
  for (std::uint32_t a = 0; a < 12; ++a) {
    const std::uint64_t nominal =
        std::min<std::uint64_t>(10ull << std::min(a, 20u), 400);
    const auto d = static_cast<std::uint64_t>(b.delay(a).count());
    EXPECT_GE(d, nominal / 2) << "attempt " << a;
    EXPECT_LT(d, nominal) << "attempt " << a;
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
  }
  // Deterministic per seed, decorrelated across seeds.
  const dist::Backoff same(dist::Millis(10), dist::Millis(400), 7);
  const dist::Backoff other(dist::Millis(10), dist::Millis(400), 8);
  bool any_differ = false;
  for (std::uint32_t a = 0; a < 12; ++a) {
    EXPECT_EQ(b.delay(a).count(), same.delay(a).count());
    any_differ = any_differ || b.delay(a) != other.delay(a);
  }
  EXPECT_TRUE(any_differ) << "jitter ignores the seed";
}

// ---- health state machine --------------------------------------------------

// send_msg gathers header and payload into one sendmsg.  A payload far
// larger than the socket buffers, sent to a reader that starts late, makes
// the sender wait on a full buffer and resume partial gathered writes
// mid-payload; the message must still arrive byte-identical.
TEST(DistRpcTest, LargePayloadToLateReaderArrivesIntact) {
  dist::Listener listener;
  listener.listen(0);
  dist::Conn client = dist::connect_local(listener.port(), dist::Millis(2000));
  dist::Conn server = listener.accept(dist::Clock::now() + dist::Millis(2000));
  std::vector<std::uint8_t> payload(8u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131 + (i >> 16));
  std::thread sender([&] {
    client.send_msg(MsgType::kSnapshotResp, payload,
                    dist::Clock::now() + dist::Millis(10000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const dist::Message got =
      server.recv_msg(dist::Clock::now() + dist::Millis(10000));
  sender.join();
  EXPECT_EQ(got.type, MsgType::kSnapshotResp);
  EXPECT_TRUE(got.payload == payload);
  // An empty payload is a header-only write.
  client.send_msg(MsgType::kFlushReq, {},
                  dist::Clock::now() + dist::Millis(2000));
  const dist::Message empty =
      server.recv_msg(dist::Clock::now() + dist::Millis(2000));
  EXPECT_EQ(empty.type, MsgType::kFlushReq);
  EXPECT_TRUE(empty.payload.empty());
}

TEST(DistHealthTest, WalksHealthySuspectDeadRecovering) {
  FailureDetector d(dist::HealthConfig{3});
  const auto now = dist::Clock::now();
  EXPECT_EQ(d.state(), HealthState::kHealthy);
  d.on_timeout(now);
  EXPECT_EQ(d.state(), HealthState::kSuspect);
  d.on_success(now);
  EXPECT_EQ(d.state(), HealthState::kHealthy);
  EXPECT_EQ(d.consecutive_failures(), 0u);
  d.on_timeout(now);
  d.on_error(now);
  EXPECT_EQ(d.state(), HealthState::kSuspect);
  d.on_timeout(now);
  EXPECT_EQ(d.state(), HealthState::kDead);
  EXPECT_FALSE(d.alive());
  EXPECT_EQ(d.deaths(), 1u);
  // Dead does not flap back on a stray success; only a reconnect handshake
  // re-admits, and the next success completes the recovery arc.
  d.on_success(now);
  EXPECT_EQ(d.state(), HealthState::kDead);
  d.on_reconnect(now);
  EXPECT_EQ(d.state(), HealthState::kRecovering);
  EXPECT_EQ(d.recoveries(), 0u);
  d.on_success(now);
  EXPECT_EQ(d.state(), HealthState::kHealthy);
  EXPECT_EQ(d.recoveries(), 1u);
  EXPECT_EQ(d.timeouts(), 3u);
  EXPECT_EQ(d.errors(), 1u);
}

// ---- egress window ---------------------------------------------------------

// EgressWindow against a std::map model, over seeded schedules that mix
// in-order, out-of-order and duplicate deliveries with tombstones.  The
// window must drain exactly the model's frames, in seq order, each once, and
// agree on the watermark and the duplicate count after every step.  Seqs are
// dealt in shuffled runs, so next_ often arrives while later seqs are
// already buffered: the in-order fast path must not fire then, or the
// buffered frames would be skipped or drained out of order.
TEST(DistEgressWindowTest, MatchesMapModelOverSeededSchedules) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    constexpr std::uint64_t kSeqs = 300;
    // Each seq's outcome: a frame with seq-derived bytes, or a tombstone.
    std::vector<bool> is_tomb(kSeqs + 1);
    for (std::uint64_t q = 1; q <= kSeqs; ++q) is_tomb[q] = rng() % 7 == 0;
    auto bytes_of = [](std::uint64_t q) {  // distinct for q < 1280
      return std::vector<std::uint8_t>(1 + q % 5,
                                       static_cast<std::uint8_t>(q));
    };
    // The schedule: seqs in order, with runs of up to 8 shuffled, and extra
    // deliveries of seqs up to the one just dealt (mostly duplicates; an
    // early arrival when the seq is later in the same run).
    std::vector<std::uint64_t> order;
    for (std::uint64_t q = 1; q <= kSeqs;) {
      const std::uint64_t run = std::min<std::uint64_t>(1 + rng() % 8,
                                                        kSeqs - q + 1);
      std::vector<std::uint64_t> chunk;
      for (std::uint64_t k = 0; k < run; ++k) chunk.push_back(q + k);
      if (rng() % 2 == 0) std::shuffle(chunk.begin(), chunk.end(), rng);
      for (std::uint64_t c : chunk) {
        order.push_back(c);
        if (rng() % 5 == 0) order.push_back(1 + rng() % c);  // a repeat
      }
      q += run;
    }

    EgressWindow window;
    std::map<std::uint64_t, bool> seen;  // seq -> is_tomb, the model
    std::uint64_t model_next = 1, model_dups = 0;
    std::vector<std::vector<std::uint8_t>> want, got;
    bool fast_path_hazard = false;  // next_ arrived with later seqs buffered
    for (std::uint64_t q : order) {
      const bool fresh = seen.emplace(q, is_tomb[q]).second;
      if (!fresh) ++model_dups;
      if (fresh && q == model_next && seen.size() > q) fast_path_hazard = true;
      bool took;
      if (is_tomb[q]) {
        took = window.tombstone(q);
      } else {
        const auto b = bytes_of(q);
        took = window.deliver(q, b.data(), b.size());
      }
      ASSERT_EQ(took, fresh) << "seed " << seed << " seq " << q;
      for (auto it = seen.find(model_next); it != seen.end();
           it = seen.find(model_next)) {
        if (!it->second) want.push_back(bytes_of(model_next));
        ++model_next;
      }
      ASSERT_EQ(window.watermark(), model_next) << "seed " << seed;
      ASSERT_EQ(window.duplicates(), model_dups) << "seed " << seed;
      if (rng() % 4 == 0)
        for (auto& b : window.drain()) got.push_back(std::move(b));
    }
    for (auto& b : window.drain()) got.push_back(std::move(b));
    EXPECT_EQ(window.watermark(), kSeqs + 1);
    EXPECT_TRUE(fast_path_hazard) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

// ---- cluster fixture -------------------------------------------------------

constexpr std::size_t kSlots = 8;

struct Cluster {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  std::unique_ptr<FrontTier> front;
  std::vector<banzai::FieldId> flow_key;

  // `tune` adjusts the front's config last, before it connects.
  explicit Cluster(std::size_t n_workers, std::uint64_t seed = 1,
                   std::uint32_t dup_every = 0, std::uint32_t stall_every = 0,
                   const std::function<void(FrontConfig&)>& tune = {})
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};

    for (std::size_t w = 0; w < n_workers; ++w) {
      WorkerConfig wc;
      wc.algorithm = "flowlets";
      wc.num_slots = kSlots;
      wc.num_shards = 2;
      wc.batch_size = 32;
      wc.flow_key = {"sport", "dport"};
      wc.stall_every = stall_every;
      wc.stall_for = dist::Millis(stall_every ? 300 : 0);
      workers.push_back(std::make_unique<WorkerServer>(compiled.machine(), rx,
                                                       tx, wc));
      workers.back()->start();
    }

    FrontConfig fc;
    fc.algorithm = "flowlets";
    fc.num_slots = kSlots;
    fc.flow_key = flow_key;
    fc.seed = seed;
    fc.dup_every = dup_every;
    fc.rpc_timeout = dist::Millis(stall_every ? 150 : 2000);
    fc.max_batch = 16;
    fc.dead_after = 2;
    if (tune) tune(fc);
    front = std::make_unique<FrontTier>(rx, fc);
    for (auto& w : workers) front->add_worker(w->port());
    front->connect();
  }

  ~Cluster() {
    for (auto& w : workers) w->stop();
  }

  // The acceptance bar's reference: ONE sequential per-slot machine set fed
  // the same frames in offer order.
  std::vector<std::vector<std::uint8_t>> sequential_reference(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    std::vector<banzai::Machine> slots;
    for (std::size_t v = 0; v < kSlots; ++v)
      slots.push_back(compiled.machine().clone());
    Packet scratch(compiled.machine().fields().size());
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& f : frames) {
      if (!rx->parse_exact(f.data(), f.size(), scratch).ok()) continue;
      std::uint64_t h = 0;
      for (banzai::FieldId fk : flow_key)
        h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(
                                      scratch.get(fk))));
      out.push_back(tx->deparse(slots[h % kSlots].process(scratch)));
    }
    return out;
  }

  std::vector<std::vector<std::uint8_t>> make_frames(std::size_t n,
                                                     unsigned rng_seed) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    std::mt19937 rng(rng_seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t i = 0; i < n; ++i) {
      std::map<std::string, banzai::Value> f;
      alg.workload(rng, static_cast<int>(i), f);
      Packet p(ft.size());
      for (const auto& [k, v] : f)
        if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
      frames.push_back(rx->deparse(p));
    }
    return frames;
  }
};

// ---- end-to-end contracts --------------------------------------------------

TEST(DistClusterTest, SingleWorkerMatchesSequentialReference) {
  Cluster c(1);
  const auto frames = c.make_frames(600, 11);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_TRUE(c.front->settled());
}

TEST(DistClusterTest, FourWorkersMatchSequentialReferenceWithRejects) {
  Cluster c(4);
  auto frames = c.make_frames(1200, 23);
  // Interleave malformed frames: they must tombstone, not disturb order.
  const std::vector<std::uint8_t> runt = {0xD0};
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < frames.size(); i += 100) {
    frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(i), runt);
    ++rejected;
  }
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_EQ(st.frames_offered, frames.size());
  EXPECT_EQ(st.rejects, rejected);
  EXPECT_EQ(st.frames_acked + st.rejects, frames.size());
}

TEST(DistClusterTest, DuplicatedBatchesAreFullyDeduplicated) {
  Cluster c(2, /*seed=*/3, /*dup_every=*/3);
  const auto frames = c.make_frames(500, 31);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_GT(st.dup_acks, 0u) << "the dup schedule never fired";
  // A duplicate batch on a healthy connection carries no egress (its arrival
  // confirmed the original reply), so the window stays duplicate-free here;
  // the window-dedup path is exercised by post-kill replay below.
  EXPECT_EQ(st.egress_duplicates, 0u);
  EXPECT_EQ(st.frames_acked, frames.size());
}

TEST(DistClusterTest, LiveSlotRebalanceUnderLoadStaysBitExact) {
  Cluster c(3);
  const auto frames = c.make_frames(900, 47);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    c.front->offer(frames[i]);
    // Shuffle ownership mid-stream, repeatedly: slot s hops to a different
    // worker while its flows are in flight.
    if (i == 300) c.front->move_slot(0, c.front->owner_of(0) == 2 ? 0 : 2);
    if (i == 450) c.front->move_slot(3, c.front->owner_of(3) == 1 ? 0 : 1);
    if (i == 600) c.front->move_slot(0, 1);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_GE(st.slot_moves, 3u);
  // Every sent frame (originals + post-move replays) got exactly one status:
  // fresh apply or worker-side dedup.
  EXPECT_EQ(st.frames_acked + st.dup_acks, st.frames_sent);
}

TEST(DistClusterTest, EngineHotSwapMidStreamStaysBitExact) {
  Cluster c(2);
  const auto frames = c.make_frames(800, 53);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    c.front->offer(frames[i]);
    if (i == 250)
      c.front->swap_engine(
          static_cast<std::uint8_t>(banzai::ExecEngine::kKernel));
    if (i == 550)
      c.front->swap_engine(
          static_cast<std::uint8_t>(banzai::ExecEngine::kClosure));
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
}

TEST(DistClusterTest, WorkerKillMidBurstRecoversViaMigrationAndReplay) {
  Cluster c(3);
  const auto frames = c.make_frames(900, 61);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 300) c.front->checkpoint();
    if (i == 450) {
      c.workers[1]->kill();  // SIGKILL stand-in: all state gone
      c.front->evict(1);     // the harness knows; detectors would too, slower
    }
    c.front->offer(frames[i]);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_EQ(st.migrations, 1u);
  EXPECT_GT(st.replays, 0u);
  EXPECT_GT(st.checkpoints, 0u);
  // Frames the dead worker acked after the checkpoint were replayed onto the
  // survivor, which re-applied them and re-emitted their egress — the
  // exactly-once window must have swallowed those.
  EXPECT_GT(st.egress_duplicates, 0u);
  EXPECT_EQ(c.front->worker_view(1).health, HealthState::kDead);
}

TEST(DistClusterTest, KillWithoutAnyCheckpointReplaysFromScratch) {
  Cluster c(2);
  const auto frames = c.make_frames(400, 67);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 200) {
      c.workers[0]->kill();
      c.front->evict(0);
    }
    c.front->offer(frames[i]);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
}

// ---- serve-loop latency ----------------------------------------------------

// An idle worker must answer the moment a request lands: the serve loop
// blocks in poll on the connection, not in a sleep between readiness checks
// (a 2 ms nap put most round trips at 2 ms, and the median with them).
TEST(DistServeLoopTest, BackToBackHeartbeatsToAnIdleWorkerAreFast) {
  Cluster c(1);
  c.front->heartbeat();  // warm the path
  std::vector<std::chrono::steady_clock::duration> rtt;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    const auto a = std::chrono::steady_clock::now();
    c.front->heartbeat();
    rtt.push_back(std::chrono::steady_clock::now() - a);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(c.front->stats().heartbeats, 101u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
  std::sort(rtt.begin(), rtt.end());
  EXPECT_LT(rtt[rtt.size() / 2], std::chrono::microseconds(500))
      << "median heartbeat round trip "
      << std::chrono::duration_cast<std::chrono::microseconds>(
             rtt[rtt.size() / 2])
             .count()
      << " us";
}

// stop() and kill() must interrupt a serve loop parked on an idle, connected
// front promptly: the wait has no deadline, so only the wake fd ends it.
TEST(DistServeLoopTest, StopAndKillReturnPromptlyWithAnIdleFront) {
  Cluster c(2);
  c.front->heartbeat();  // both serve loops now wait on a live connection
  auto timed = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::steady_clock::now() - t0;
  };
  EXPECT_LT(timed([&] { c.workers[0]->stop(); }),
            std::chrono::milliseconds(100));
  EXPECT_LT(timed([&] { c.workers[1]->kill(); }),
            std::chrono::milliseconds(100));
  EXPECT_FALSE(c.workers[0]->running());
  EXPECT_FALSE(c.workers[1]->running());
}

// ---- the corrupt-restore guard (raw protocol) ------------------------------

// The worker serves one connection at a time, so these tests skip the front
// tier entirely and speak the protocol over a raw Conn — which is the point:
// the restore guard must hold against arbitrary bytes, not just what a
// well-behaved FrontTier would send.
struct RawWorker {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::unique_ptr<WorkerServer> worker;
  std::vector<banzai::FieldId> flow_key;
  dist::Conn conn;
  std::uint64_t next_seq = 1;

  RawWorker()
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};
    WorkerConfig wc;
    wc.algorithm = "flowlets";
    wc.num_slots = kSlots;
    wc.flow_key = {"sport", "dport"};
    worker =
        std::make_unique<WorkerServer>(compiled.machine(), rx, tx, wc);
    worker->start();
    conn = dist::connect_local(worker->port(), dist::Millis(2000));
    hello();
  }

  void hello() {
    dist::Hello h;
    h.algorithm = "flowlets";
    h.num_slots = kSlots;
    h.header_bytes = static_cast<std::uint32_t>(rx->header_bytes());
    const auto resp = call(MsgType::kHello, dist::encode_hello(h));
    EXPECT_EQ(resp.type, MsgType::kHelloAck);
  }

  ~RawWorker() { worker->stop(); }

  dist::Message call(MsgType type, const std::vector<std::uint8_t>& payload) {
    const auto deadline = dist::Clock::now() + dist::Millis(2000);
    conn.send_msg(type, payload, deadline);
    return conn.recv_msg(deadline);
  }

  std::uint32_t slot_of(const std::vector<std::uint8_t>& frame) {
    Packet scratch(compiled.machine().fields().size());
    EXPECT_TRUE(rx->parse_exact(frame.data(), frame.size(), scratch).ok());
    std::uint64_t h = 0;
    for (banzai::FieldId fk : flow_key)
      h = netsim::mix64(
          h ^ static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(scratch.get(fk))));
    return static_cast<std::uint32_t>(h % kSlots);
  }

  std::vector<std::vector<std::uint8_t>> make_frames(std::size_t n,
                                                     unsigned rng_seed) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    std::mt19937 rng(rng_seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t i = 0; i < n; ++i) {
      std::map<std::string, banzai::Value> f;
      alg.workload(rng, static_cast<int>(i), f);
      Packet p(ft.size());
      for (const auto& [k, v] : f)
        if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
      frames.push_back(rx->deparse(p));
    }
    return frames;
  }

  // One batch of `frames` under fresh seqs, each declaring its own slot.
  dist::IngestBatch batch_of(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    dist::IngestBatch b;
    for (const auto& f : frames)
      b.frames.push_back({next_seq++, slot_of(f), f});
    return b;
  }

  // Ingests frames in one batch and returns the per-frame statuses.
  std::vector<dist::FrameStatus> ingest(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    const auto resp =
        call(MsgType::kIngestBatch,
             dist::encode_ingest_batch(batch_of(frames)));
    EXPECT_EQ(resp.type, MsgType::kIngestAck);
    const auto ack =
        dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
    EXPECT_EQ(ack.statuses.size(), frames.size());
    return ack.statuses;
  }

  // Egress of one sequential per-slot machine set fed `frames` in order.
  std::vector<std::vector<std::uint8_t>> sequential_reference(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    std::vector<banzai::Machine> slots;
    for (std::size_t v = 0; v < kSlots; ++v)
      slots.push_back(compiled.machine().clone());
    Packet scratch(compiled.machine().fields().size());
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& f : frames) {
      EXPECT_TRUE(rx->parse_exact(f.data(), f.size(), scratch).ok());
      out.push_back(tx->deparse(slots[slot_of(f)].process(scratch)));
    }
    return out;
  }

  std::vector<std::uint8_t> snapshot_blob(std::uint32_t slot) {
    dist::SnapshotReq req;
    req.slots.push_back(slot);
    const auto resp = call(MsgType::kSnapshotReq,
                           dist::encode_snapshot_req(req));
    EXPECT_EQ(resp.type, MsgType::kSnapshotResp);
    const auto sr =
        dist::decode_snapshot_resp(resp.payload.data(), resp.payload.size());
    EXPECT_EQ(sr.slots.size(), 1u);
    return sr.slots.at(0).state;
  }
};

TEST(DistRestoreGuardTest, CorruptBlobRejectsCleanlyAndStateIsUntouched) {
  RawWorker w;
  // Put real state into slot machines first.
  for (const dist::FrameStatus st : w.ingest(w.make_frames(200, 71)))
    ASSERT_EQ(st, dist::FrameStatus::kAccepted);
  const auto before = w.snapshot_blob(2);

  // (a) garbage bytes: framing-level corruption.
  {
    dist::RestoreReq req;
    dist::SlotState s;
    s.slot = 2;
    s.applied_seq = 999;
    s.state = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
    req.slots.push_back(std::move(s));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }
  // (b) well-formed blob of the wrong shape.
  {
    dist::RestoreReq req;
    dist::SlotState s;
    s.slot = 2;
    s.state = dist::serialize_state_store(banzai::StateStore{});
    req.slots.push_back(std::move(s));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }
  // (c) slot out of range.
  {
    dist::RestoreReq req;
    dist::SlotState s;
    s.slot = 999;
    s.state = before;
    req.slots.push_back(std::move(s));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }
  // (d) a batch where the LAST entry is corrupt must not apply the first:
  // all-or-nothing validation.
  {
    dist::RestoreReq req;
    dist::SlotState good;
    good.slot = 2;
    good.applied_seq = 1u << 20;  // would poison the dedup table if applied
    good.state = before;
    dist::SlotState bad;
    bad.slot = 3;
    bad.state = {0x00};
    req.slots.push_back(std::move(good));
    req.slots.push_back(std::move(bad));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }

  // The worker keeps serving and its state is byte-identical.
  const auto after = w.snapshot_blob(2);
  EXPECT_EQ(before, after);
  EXPECT_GE(w.worker->stats().restore_rejects, 4u);

  // And the dedup table was not poisoned by the rejected applied_seq: fresh
  // frames (seqs far below the rejected 2^20) still apply.
  for (const dist::FrameStatus st : w.ingest(w.make_frames(50, 73)))
    EXPECT_EQ(st, dist::FrameStatus::kAccepted);
}

// The retried-reject regression: a rejected frame never advances the slot
// watermark, so once a LATER frame in the slot does, a retry of the reject
// (after a lost ack) hits the dedup guard.  It must be re-answered its
// original reject status — a kDuplicate there is fatal, because the front
// only tombstones reject statuses and the seq would never settle.
TEST(DistWorkerDedupTest, RetriedRejectKeepsItsStatusAfterWatermarkAdvance) {
  RawWorker w;
  const auto valid = w.make_frames(1, 131).at(0);
  dist::IngestBatch b;
  dist::FrameRecord runt;
  runt.seq = 1;
  runt.slot = w.slot_of(valid);  // same slot: the accept advances past it
  runt.bytes = {0xD0};
  const dist::FrameRecord ok{2, runt.slot, valid};
  b.frames.push_back(runt);
  b.frames.push_back(ok);
  const auto payload = dist::encode_ingest_batch(b);

  auto resp = w.call(MsgType::kIngestBatch, payload);
  ASSERT_EQ(resp.type, MsgType::kIngestAck);
  auto ack = dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  ASSERT_EQ(ack.statuses.size(), 2u);
  const dist::FrameStatus reject = ack.statuses[0];
  EXPECT_NE(reject, dist::FrameStatus::kAccepted);
  EXPECT_NE(reject, dist::FrameStatus::kDuplicate);
  EXPECT_EQ(ack.statuses[1], dist::FrameStatus::kAccepted);

  // Lost-ack retry: the identical batch again.  Both frames now sit at or
  // below the slot watermark (2); the applied one dedups, the reject must
  // reproduce its verdict.
  resp = w.call(MsgType::kIngestBatch, payload);
  ASSERT_EQ(resp.type, MsgType::kIngestAck);
  ack = dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  ASSERT_EQ(ack.statuses.size(), 2u);
  EXPECT_EQ(ack.statuses[0], reject);
  EXPECT_EQ(ack.statuses[1], dist::FrameStatus::kDuplicate);
}

// The front keys dedup on the slot a FrameRecord declares, while the state a
// frame mutates is the slot its flow key hashes to.  A frame declaring the
// wrong slot must be rejected, not applied: otherwise it moves one slot's
// watermark while it mutates another slot's state.  Its retry must keep the
// reject verdict even after the declared slot's watermark moved past it.
TEST(DistWorkerDedupTest, FrameWithWrongDeclaredSlotIsRejected) {
  RawWorker w;
  const auto frames = w.make_frames(200, 151);
  const auto& valid = frames.at(0);
  const std::uint32_t right = w.slot_of(valid);
  const std::uint32_t wrong = (right + 1) % kSlots;
  const std::vector<std::uint8_t>* other = nullptr;  // hashes to `wrong`
  for (const auto& f : frames)
    if (w.slot_of(f) == wrong) {
      other = &f;
      break;
    }
  ASSERT_NE(other, nullptr);
  const auto right_before = w.snapshot_blob(right);
  const auto wrong_before = w.snapshot_blob(wrong);

  auto send = [&](std::uint64_t seq, std::uint32_t slot,
                  const std::vector<std::uint8_t>& bytes) {
    dist::IngestBatch b;
    b.frames.push_back({seq, slot, bytes});
    const auto resp =
        w.call(MsgType::kIngestBatch, dist::encode_ingest_batch(b));
    EXPECT_EQ(resp.type, MsgType::kIngestAck);
    return dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  };

  auto ack = send(1, wrong, valid);
  ASSERT_EQ(ack.statuses.size(), 1u);
  EXPECT_EQ(ack.statuses[0], dist::FrameStatus::kRejectBadValue);
  EXPECT_TRUE(ack.egress.empty());
  EXPECT_EQ(w.snapshot_blob(right), right_before);
  EXPECT_EQ(w.snapshot_blob(wrong), wrong_before);

  ack = send(2, wrong, *other);
  ASSERT_EQ(ack.statuses.size(), 1u);
  EXPECT_EQ(ack.statuses[0], dist::FrameStatus::kAccepted);
  ack = send(1, wrong, valid);  // now below the slot's watermark
  ASSERT_EQ(ack.statuses.size(), 1u);
  EXPECT_EQ(ack.statuses[0], dist::FrameStatus::kRejectBadValue);
}

// Run to completion: an INGEST_BATCH is applied before its ack is written,
// so the ack carries the egress of exactly its own accepted frames — every
// one of them, in request order, byte-identical to a sequential reference.
TEST(DistWorkerAckTest, IngestAckCarriesExactlyItsOwnFramesEgress) {
  RawWorker w;
  const auto frames = w.make_frames(96, 157);
  const auto expected = w.sequential_reference(frames);
  dist::IngestBatch b;
  for (const auto& f : frames)
    b.frames.push_back({w.next_seq++, w.slot_of(f), f});
  const auto resp = w.call(MsgType::kIngestBatch, dist::encode_ingest_batch(b));
  ASSERT_EQ(resp.type, MsgType::kIngestAck);
  const auto ack =
      dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  ASSERT_EQ(ack.statuses.size(), frames.size());
  ASSERT_EQ(ack.egress.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(ack.statuses[i], dist::FrameStatus::kAccepted) << "frame " << i;
    EXPECT_EQ(ack.egress[i].seq, b.frames[i].seq) << "frame " << i;
    EXPECT_EQ(ack.egress[i].bytes, expected[i]) << "frame " << i;
  }
}

// Validate before touch, worker side: an INGEST_BATCH whose LAST record is
// truncated is refused whole (kError) with no frame of it applied, so
// re-sending the valid batch applies every frame — kAccepted, not
// kDuplicate — with egress equal to the sequential reference.
TEST(DistWorkerGuardTest, TruncatedLastRecordRejectsTheWholeBatch) {
  RawWorker w;
  const auto frames = w.make_frames(64, 163);
  const auto expected = w.sequential_reference(frames);
  const dist::IngestBatch b = w.batch_of(frames);
  const auto payload = dist::encode_ingest_batch(b);
  auto truncated = payload;
  truncated.pop_back();  // the last frame's bytes end one short
  EXPECT_EQ(w.call(MsgType::kIngestBatch, truncated).type, MsgType::kError);

  const auto resp = w.call(MsgType::kIngestBatch, payload);
  ASSERT_EQ(resp.type, MsgType::kIngestAck);
  const auto ack =
      dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  ASSERT_EQ(ack.statuses.size(), frames.size());
  ASSERT_EQ(ack.egress.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(ack.statuses[i], dist::FrameStatus::kAccepted) << "frame " << i;
    EXPECT_EQ(ack.egress[i].seq, b.frames[i].seq) << "frame " << i;
    EXPECT_EQ(ack.egress[i].bytes, expected[i]) << "frame " << i;
  }
}

// The worker parses into packets it reuses across requests.  Requests whose
// accepted count shrinks and grows again — 128 frames, then 3 (one
// malformed, one a duplicate), then 128 — must still yield egress
// byte-equal to the sequential reference: a stale field left in a reused
// packet would show here.  Every raw ack is also canonical: re-encoding its
// decoded form reproduces it byte for byte.
TEST(DistWorkerAckTest, ReusedPacketsMatchReferenceAsBatchesShrinkAndGrow) {
  RawWorker w;
  const auto frames = w.make_frames(257, 167);
  const auto expected = w.sequential_reference(frames);
  auto send = [&](const dist::IngestBatch& b) {
    const auto resp =
        w.call(MsgType::kIngestBatch, dist::encode_ingest_batch(b));
    EXPECT_EQ(resp.type, MsgType::kIngestAck);
    const auto ack =
        dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
    EXPECT_EQ(dist::encode_ingest_ack(ack), resp.payload);
    return ack;
  };
  auto expect_egress = [&](const dist::IngestAck& ack,
                           const dist::IngestBatch& b, std::size_t from) {
    ASSERT_EQ(ack.egress.size(), b.frames.size());
    for (std::size_t i = 0; i < b.frames.size(); ++i) {
      EXPECT_EQ(ack.statuses[i], dist::FrameStatus::kAccepted);
      EXPECT_EQ(ack.egress[i].seq, b.frames[i].seq);
      EXPECT_EQ(ack.egress[i].bytes, expected[from + i])
          << "frame " << from + i;
    }
  };

  const dist::IngestBatch first =
      w.batch_of({frames.begin(), frames.begin() + 128});
  expect_egress(send(first), first, 0);

  dist::IngestBatch small;
  small.frames.push_back({w.next_seq++, 0, {0xD0}});  // malformed
  small.frames.push_back(first.frames[0]);            // already applied
  small.frames.push_back({w.next_seq++, w.slot_of(frames[128]), frames[128]});
  const auto ack = send(small);
  ASSERT_EQ(ack.statuses.size(), 3u);
  EXPECT_NE(ack.statuses[0], dist::FrameStatus::kAccepted);
  EXPECT_NE(ack.statuses[0], dist::FrameStatus::kDuplicate);
  EXPECT_EQ(ack.statuses[1], dist::FrameStatus::kDuplicate);
  EXPECT_EQ(ack.statuses[2], dist::FrameStatus::kAccepted);
  ASSERT_EQ(ack.egress.size(), 1u);
  EXPECT_EQ(ack.egress[0].seq, small.frames[2].seq);
  EXPECT_EQ(ack.egress[0].bytes, expected[128]);

  const dist::IngestBatch last =
      w.batch_of({frames.begin() + 129, frames.end()});
  expect_egress(send(last), last, 129);
}

// The pipelined ingest window's redelivery contract: with up to
// kMaxInflight requests outstanding, request n confirms only the replies up
// to n - kMaxInflight, so the worker must hold the egress of every later
// reply until then.  Here the front "dies" having read just the first of
// kMaxInflight acks; after a reconnect, the first reply must redeliver all
// the egress the unread acks carried.
TEST(DistWorkerWindowTest, ReconnectRedeliversEgressOfUnreadPipelinedAcks) {
  RawWorker w;
  const auto frames = w.make_frames(8 * dist::kMaxInflight, 89);
  const dist::TimePoint deadline = dist::Clock::now() + dist::Millis(2000);
  for (std::size_t b = 0; b < dist::kMaxInflight; ++b) {
    dist::IngestBatch batch;
    for (std::size_t i = 8 * b; i < 8 * (b + 1); ++i)
      batch.frames.push_back(
          {w.next_seq++, w.slot_of(frames[i]), frames[i]});
    w.conn.send_msg(MsgType::kIngestBatch, dist::encode_ingest_batch(batch),
                    deadline);
    // Let the shards settle each batch before the next request lands, so
    // every later ack has egress to carry.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto first = w.conn.recv_msg(deadline);
  ASSERT_EQ(first.type, MsgType::kIngestAck);
  const auto ack1 =
      dist::decode_ingest_ack(first.payload.data(), first.payload.size());
  std::set<std::uint64_t> seen;
  for (const auto& rec : ack1.egress) seen.insert(rec.seq);
  ASSERT_LT(seen.size(), frames.size());

  // Drop the connection with kMaxInflight - 1 acks unread, then come back.
  w.conn.close();
  w.conn = dist::connect_local(w.worker->port(), dist::Millis(2000));
  w.hello();
  dist::Heartbeat hb;
  hb.nonce = 5;
  const auto resp = w.call(MsgType::kHeartbeat, dist::encode_heartbeat(hb));
  ASSERT_EQ(resp.type, MsgType::kHeartbeatAck);
  const auto hb_ack =
      dist::decode_heartbeat_ack(resp.payload.data(), resp.payload.size());
  std::set<std::uint64_t> redelivered;
  for (const auto& rec : hb_ack.egress) redelivered.insert(rec.seq);
  for (std::uint64_t seq = 1; seq < w.next_seq; ++seq) {
    if (seen.count(seq) == 0) {
      EXPECT_EQ(redelivered.count(seq), 1u)
          << "egress of seq " << seq << " was lost with an unread ack";
    }
  }
}

// The ingest window changed what a request confirms, so it bumped the
// protocol to v3: a v2 worker would drop unconfirmed egress on every
// request and lose it under pipelining.  The HELLO check keeps the two eras
// apart in both directions; this pins the worker's side.
TEST(DistWorkerWindowTest, PreWindowProtocolIsRefusedAtHello) {
  RawWorker w;
  w.conn = dist::connect_local(w.worker->port(), dist::Millis(2000));
  dist::Hello h;
  h.version = 2;
  h.algorithm = "flowlets";
  h.num_slots = kSlots;
  h.header_bytes = static_cast<std::uint32_t>(w.rx->header_bytes());
  EXPECT_EQ(w.call(MsgType::kHello, dist::encode_hello(h)).type,
            MsgType::kError);
  h.version = dist::kProtocolVersion;
  EXPECT_EQ(w.call(MsgType::kHello, dist::encode_hello(h)).type,
            MsgType::kHelloAck);
}

// An empty state blob in a RestoreReq is the front's explicit "start from
// scratch" order: the slot resets to the prototype's pristine initial state
// and the dedup watermark to the given applied_seq — so a migration target
// that silently kept stale state for the slot starts from a known point.
TEST(DistRestoreGuardTest, EmptyStateBlobResetsSlotToInitialState) {
  RawWorker w;
  const auto pristine = w.snapshot_blob(0);  // canonical: same for any slot
  const auto frames = w.make_frames(120, 83);
  for (const dist::FrameStatus st : w.ingest(frames))
    ASSERT_EQ(st, dist::FrameStatus::kAccepted);

  // Find a slot the workload dirtied (and a frame that routes to it).
  std::uint32_t slot = kSlots;
  for (std::uint32_t s = 0; s < kSlots; ++s)
    if (w.snapshot_blob(s) != pristine) {
      slot = s;
      break;
    }
  ASSERT_LT(slot, kSlots) << "workload never touched any slot state";
  const std::vector<std::uint8_t>* frame = nullptr;
  for (const auto& f : frames)
    if (w.slot_of(f) == slot) {
      frame = &f;
      break;
    }
  ASSERT_NE(frame, nullptr);

  dist::RestoreReq req;
  dist::SlotState reset;
  reset.slot = slot;  // applied_seq 0, state empty: the reset order
  req.slots.push_back(std::move(reset));
  const auto resp =
      w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
  EXPECT_EQ(resp.type, MsgType::kRestoreAck);
  EXPECT_EQ(w.snapshot_blob(slot), pristine);

  // The dedup table reset too: seq 1 for the slot applies fresh.
  dist::IngestBatch b;
  b.frames.push_back({1, slot, *frame});
  const auto r2 = w.call(MsgType::kIngestBatch, dist::encode_ingest_batch(b));
  ASSERT_EQ(r2.type, MsgType::kIngestAck);
  const auto ack =
      dist::decode_ingest_ack(r2.payload.data(), r2.payload.size());
  ASSERT_EQ(ack.statuses.size(), 1u);
  EXPECT_EQ(ack.statuses[0], dist::FrameStatus::kAccepted);
}

TEST(DistRestoreGuardTest, ValidRestoreIsAcceptedAndApplied) {
  RawWorker w;
  for (const dist::FrameStatus st : w.ingest(w.make_frames(200, 79)))
    ASSERT_EQ(st, dist::FrameStatus::kAccepted);
  const auto blob = w.snapshot_blob(1);

  dist::RestoreReq req;
  // Restore slot 1's state into slot 4 (same shape: same proto).
  req.slots.push_back({4, 0, blob});
  const auto resp =
      w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
  EXPECT_EQ(resp.type, MsgType::kRestoreAck);
  EXPECT_EQ(w.snapshot_blob(4), blob);
}

// ---- hostile peers (front-tier hardening) ----------------------------------

// A scripted peer speaking just enough of the worker protocol to misbehave
// on purpose: it acks every ingest (optionally echoing frame bytes back as
// egress), can prepend one corrupt-seq egress record, and can slam the
// connection shut on RestoreReq — the failure modes the front tier must
// absorb without crashing or corrupting its window.
struct ScriptedWorker {
  dist::Listener listener;
  std::thread thread;
  std::atomic<bool> stop{false};
  std::uint32_t num_slots;
  bool echo_egress = false;      // return each frame's bytes as its egress
  bool close_on_restore = false;
  std::uint64_t inject_seq = 0;  // nonzero: prepend {inject_seq, junk} once
  std::atomic<bool> injected{false};
  std::size_t runt_below = 0;  // frames shorter than this: kRejectTruncated
  std::uint32_t truncate_ack = 0;  // nonzero: this ingest ack (1-based)
                                   // loses its last byte
  std::uint32_t ingest_acks = 0;

  explicit ScriptedWorker(std::uint32_t slots) : num_slots(slots) {
    listener.listen(0);
    thread = std::thread([this] { run(); });
  }
  ~ScriptedWorker() {
    stop.store(true);
    listener.shutdown();
    if (thread.joinable()) thread.join();
    listener.close();
  }
  std::uint16_t port() const { return listener.port(); }

  void run() {
    while (!stop.load()) {
      dist::Conn conn;
      try {
        conn = listener.accept(dist::Clock::now() + dist::Millis(100));
      } catch (const dist::RpcTimeout&) {
        continue;
      } catch (const dist::RpcError&) {
        return;
      }
      serve(conn);
    }
  }

  void reply(dist::Conn& conn, MsgType type,
             const std::vector<std::uint8_t>& payload) {
    conn.send_msg(type, payload, dist::Clock::now() + dist::Millis(2000));
  }

  void serve(dist::Conn& conn) {
    while (!stop.load()) {
      dist::Message req;
      try {
        req = conn.recv_msg(dist::Clock::now() + dist::Millis(200));
      } catch (const dist::RpcTimeout&) {
        continue;
      } catch (const dist::RpcError&) {
        return;
      }
      try {
        switch (req.type) {
          case MsgType::kHello: {
            dist::HelloAck ack;
            ack.num_slots = num_slots;
            reply(conn, MsgType::kHelloAck, dist::encode_hello_ack(ack));
            break;
          }
          case MsgType::kIngestBatch: {
            const auto batch = dist::decode_ingest_batch(req.payload.data(),
                                                         req.payload.size());
            dist::IngestAck ack;
            if (inject_seq != 0 && !injected.exchange(true))
              ack.egress.push_back({inject_seq, {0xEE}});
            for (const auto& f : batch.frames) {
              ack.seqs.push_back(f.seq);
              if (f.bytes.size() < runt_below) {
                ack.statuses.push_back(dist::FrameStatus::kRejectTruncated);
                continue;
              }
              ack.statuses.push_back(dist::FrameStatus::kAccepted);
              if (echo_egress) ack.egress.push_back({f.seq, f.bytes});
            }
            auto payload = dist::encode_ingest_ack(ack);
            if (++ingest_acks == truncate_ack) payload.pop_back();
            reply(conn, MsgType::kIngestAck, payload);
            break;
          }
          case MsgType::kRestoreReq:
            if (close_on_restore) return;  // die mid-restore
            reply(conn, MsgType::kRestoreAck, {});
            break;
          case MsgType::kSnapshotReq:
            reply(conn, MsgType::kSnapshotResp,
                  dist::encode_snapshot_resp(dist::SnapshotResp{}));
            break;
          case MsgType::kFlushReq:
            reply(conn, MsgType::kFlushAck,
                  dist::encode_flush_ack(dist::FlushAck{}));
            break;
          case MsgType::kHeartbeat: {
            const auto hb =
                dist::decode_heartbeat(req.payload.data(), req.payload.size());
            dist::HeartbeatAck ack;
            ack.nonce = hb.nonce;
            reply(conn, MsgType::kHeartbeatAck,
                  dist::encode_heartbeat_ack(ack));
            break;
          }
          case MsgType::kStop:
            return;
          default:
            reply(conn, MsgType::kError,
                  dist::encode_error(dist::ErrorMsg{"scripted: unexpected"}));
            break;
        }
      } catch (const dist::RpcError&) {
        return;
      }
    }
  }
};

// Codec + workload plumbing without any real worker attached.
struct CodecRig {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::vector<banzai::FieldId> flow_key;

  CodecRig()
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};
  }

  std::vector<std::vector<std::uint8_t>> make_frames(std::size_t n,
                                                     unsigned rng_seed) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    std::mt19937 rng(rng_seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t i = 0; i < n; ++i) {
      std::map<std::string, banzai::Value> f;
      alg.workload(rng, static_cast<int>(i), f);
      Packet p(ft.size());
      for (const auto& [k, v] : f)
        if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
      frames.push_back(rx->deparse(p));
    }
    return frames;
  }
};

// A corrupted (but well-framed) reply carrying a seq the front never issued
// must be dropped and counted, not fed to the egress window — a ~2^64 seq
// would otherwise drive a multi-exabyte window resize and kill the front.
TEST(DistFrontGuardTest, CorruptEgressSeqIsDroppedNotFatal) {
  CodecRig rig;
  ScriptedWorker fake(kSlots);
  fake.echo_egress = true;
  fake.inject_seq = ~0ull;

  FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kSlots;
  fc.flow_key = rig.flow_key;
  FrontTier front(rig.rx, fc);
  front.add_worker(fake.port());
  front.connect();

  const auto frames = rig.make_frames(40, 137);
  for (const auto& f : frames) front.offer(f);
  front.flush();

  // The scripted worker echoes ingress as egress, so the stream settles and
  // comes back byte-identical; the poisoned record vanished into a counter.
  const auto got = front.drain_egress();
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], frames[i]) << "frame " << i;
  EXPECT_TRUE(front.settled());
  EXPECT_EQ(front.stats().egress_corrupt, 1u);
}

// Validate before touch, front side: an ack whose LAST egress record is
// truncated is refused whole — none of its statuses, tombstones or egress
// is applied — and the front reconnects and re-sends the frames.  The final
// egress is then exact-once: no duplicate anywhere, every accept and every
// reject counted once.
TEST(DistFrontGuardTest, TruncatedAckIsRefusedWholeAndRecovered) {
  CodecRig rig;
  ScriptedWorker fake(kSlots);
  fake.echo_egress = true;
  fake.runt_below = rig.rx->header_bytes();
  fake.truncate_ack = 2;

  FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kSlots;
  fc.flow_key = rig.flow_key;
  fc.max_batch = 16;
  FrontTier front(rig.rx, fc);
  front.add_worker(fake.port());
  front.connect();

  const auto frames = rig.make_frames(96, 173);
  std::uint64_t runts = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % 7 == 3) {
      front.offer(std::vector<std::uint8_t>{0xD0});
      ++runts;
    }
    front.offer(frames[i]);
  }
  front.flush();

  const auto got = front.drain_egress();
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], frames[i]) << "frame " << i;
  EXPECT_TRUE(front.settled());
  const dist::FrontStats st = front.stats();
  EXPECT_GE(st.retries, 1u);
  EXPECT_GE(st.reconnects, 2u);
  EXPECT_EQ(st.egress_duplicates, 0u);
  EXPECT_EQ(st.rejects, runts);
  EXPECT_EQ(st.frames_acked, frames.size());
}

// A migration target dying mid-restore is a transport failure, not a fatal
// error: restore_to must absorb the connection reset, burn the target's
// failure budget, and let migrate() pick another survivor — the documented
// "later failures are handled, not thrown" contract.
TEST(DistFrontGuardTest, MigrationSurvivesTargetDyingMidRestore) {
  CodecRig rig;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  for (int i = 0; i < 2; ++i) {
    WorkerConfig wc;
    wc.algorithm = "flowlets";
    wc.num_slots = kSlots;
    wc.num_shards = 2;
    wc.flow_key = {"sport", "dport"};
    workers.push_back(std::make_unique<WorkerServer>(rig.compiled.machine(),
                                                     rig.rx, rig.tx, wc));
    workers.back()->start();
  }
  ScriptedWorker fake(kSlots);
  fake.close_on_restore = true;  // acks ingest, dies on every RestoreReq

  FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kSlots;
  fc.flow_key = rig.flow_key;
  fc.max_batch = 16;
  fc.dead_after = 2;
  FrontTier front(rig.rx, fc);
  front.add_worker(workers[0]->port());
  front.add_worker(workers[1]->port());
  front.add_worker(fake.port());
  front.connect();

  // Real state on the real workers; the scripted one acks its slots' frames
  // without egress (protocol-legal: the piggyback is opportunistic), so its
  // seqs stay pending until post-migration replay re-applies them for real.
  const auto frames = rig.make_frames(600, 139);
  const auto expected = [&] {
    std::vector<banzai::Machine> slots;
    for (std::size_t v = 0; v < kSlots; ++v)
      slots.push_back(rig.compiled.machine().clone());
    Packet scratch(rig.compiled.machine().fields().size());
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& f : frames) {
      if (!rig.rx->parse_exact(f.data(), f.size(), scratch).ok()) continue;
      std::uint64_t h = 0;
      for (banzai::FieldId fk : rig.flow_key)
        h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(
                                      scratch.get(fk))));
      out.push_back(rig.tx->deparse(slots[h % kSlots].process(scratch)));
    }
    return out;
  }();

  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 200) front.checkpoint();  // makes the migration restore real
    if (i == 400) {
      workers[1]->kill();
      // Migration fans the dead worker's slots across survivors; every
      // restore aimed at the scripted worker hits a connection reset and
      // must re-route to the real survivor instead of throwing.
      front.evict(1);
    }
    front.offer(frames[i]);
  }
  front.flush();

  const auto got = front.drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_TRUE(front.settled());
  // The scripted worker ran out of failure budget and every slot ended on
  // the one real survivor.
  EXPECT_EQ(front.worker_view(2).health, HealthState::kDead);
  for (std::size_t s = 0; s < kSlots; ++s) EXPECT_EQ(front.owner_of(s), 0u);
  for (auto& w : workers) w->stop();
}

// A stalled worker applies a batch but answers after the front's deadline,
// so the front reconnects with that batch's frames still heading the outbox
// (applied, ack lost).  With a small resend_limit, forced checkpoints then
// run while the outbox starts that way, and the snapshot shows those frames
// applied: the checkpoint trims their log records, so it must drop them
// from the outbox first, or the next send reads freed records.  Runts ride
// along: a dropped runt's reject status died with the ack, so the front
// must tombstone it itself or the stream never settles.
TEST(DistFrontGuardTest, CheckpointAfterLostAckDropsAppliedOutboxFrames) {
  Cluster c(2, /*seed=*/5, /*dup_every=*/0, /*stall_every=*/3,
            [](FrontConfig& fc) {
              fc.resend_limit = 64;
              fc.dead_after = 1000;  // stalls must never escalate to death
            });
  auto frames = c.make_frames(400, 149);
  const std::vector<std::uint8_t> runt = {0xD0};
  for (std::size_t i = 0; i < frames.size(); i += 7)
    frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(i), runt);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_TRUE(c.front->settled());
  const auto st = c.front->stats();
  EXPECT_GT(st.retries, 0u) << "the stall schedule never fired";
  EXPECT_GT(st.checkpoints, 0u) << "resend_limit never forced a checkpoint";
}

// The resend log is bounded: with checkpoints succeeding, it never holds
// more than resend_limit frames after an offer, its byte gauge matches its
// frames, and both gauges reach /metrics.
TEST(DistFrontGuardTest, ResendLogStaysWithinItsLimit) {
  constexpr std::size_t kLimit = 64;
  Cluster c(2, /*seed=*/1, /*dup_every=*/0, /*stall_every=*/0,
            [](FrontConfig& fc) { fc.resend_limit = kLimit; });
  const auto frames = c.make_frames(600, 151);
  const std::size_t frame_bytes = frames.front().size();
  for (const auto& f : frames) ASSERT_EQ(f.size(), frame_bytes);
  const auto expected = c.sequential_reference(frames);
  std::uint64_t peak = 0;
  for (const auto& f : frames) {
    c.front->offer(f);
    const auto st = c.front->stats();
    ASSERT_LE(st.resend_frames, kLimit);
    ASSERT_EQ(st.resend_bytes, st.resend_frames * frame_bytes);
    peak = std::max(peak, st.resend_frames);
  }
  EXPECT_GT(peak, kLimit / 2);
  EXPECT_GT(c.front->stats().checkpoints, 0u);
  c.front->flush();
  std::ostringstream page;
  dist::render_dist_metrics(page, *c.front);
  EXPECT_NE(page.str().find("# TYPE domino_dist_resend_frames gauge"),
            std::string::npos);
  EXPECT_NE(page.str().find("\ndomino_dist_resend_bytes "), std::string::npos);
  c.front->checkpoint();
  EXPECT_EQ(c.front->stats().resend_frames, 0u);
  EXPECT_EQ(c.front->stats().resend_bytes, 0u);
  EXPECT_EQ(c.front->drain_egress(), expected);
}

}  // namespace
