// One worker process of the distributed fleet: compiles a corpus algorithm,
// binds a TCP port, and serves the front tier's RPC protocol (dist/framing.h)
// until killed — byte-frame ingest with per-slot sequence dedup, slot
// snapshot/restore (the live-migration payload), engine hot-swap, heartbeats.
//
//   $ ./build/examples/dist_worker --port 9301
//       serves until SIGKILL/SIGTERM; a front tier (examples/dist_cluster,
//       or your own dist::FrontTier) connects and drives it
//   $ ./build/examples/dist_worker --smoke
//       self-check mode for CI/docs: starts on an ephemeral port, speaks the
//       protocol to itself over loopback (HELLO + one ingest batch + snapshot),
//       and exits 0 on success
//
// Options: --port N (default 0 = ephemeral, printed), --algorithm NAME
// (default flowlets), --slots N (default 16, must match the fleet).  Every
// request runs to completion on the serve thread.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "core/compiler.h"
#include "dist/framing.h"
#include "dist/front.h"
#include "dist/rpc.h"
#include "dist/worker.h"
#include "wire/codec.h"

namespace {

int smoke(dist::WorkerServer& worker,
          const std::shared_ptr<const wire::WireCodec>& rx,
          const banzai::Machine& machine, std::size_t num_slots,
          const std::vector<std::string>& flow_key_names) {
  using dist::MsgType;
  const auto deadline = dist::Clock::now() + dist::Millis(5000);
  dist::Conn conn = dist::connect_local(worker.port(), dist::Millis(5000));

  dist::Hello hello;
  hello.algorithm = "flowlets";
  hello.num_slots = static_cast<std::uint32_t>(num_slots);
  hello.header_bytes = static_cast<std::uint32_t>(rx->header_bytes());
  conn.send_msg(MsgType::kHello, dist::encode_hello(hello), deadline);
  if (conn.recv_msg(deadline).type != MsgType::kHelloAck) {
    std::fprintf(stderr, "smoke: HELLO not acknowledged\n");
    return 1;
  }

  // One small batch: a frame deparsed from an all-defaults packet, declared
  // on the slot its flow key hashes to (the worker rejects any other).
  banzai::Packet p(machine.fields().size());
  std::vector<banzai::FieldId> flow_key;
  for (const std::string& name : flow_key_names)
    flow_key.push_back(machine.fields().id_of(name));
  dist::IngestBatch batch;
  dist::FrameRecord rec;
  rec.seq = 1;
  rec.slot =
      static_cast<std::uint32_t>(dist::slot_of_packet(p, flow_key, num_slots));
  rec.bytes = rx->deparse(p);
  batch.frames.push_back(std::move(rec));
  conn.send_msg(MsgType::kIngestBatch, dist::encode_ingest_batch(batch),
                deadline);
  const dist::Message ack = conn.recv_msg(deadline);
  if (ack.type != MsgType::kIngestAck) {
    std::fprintf(stderr, "smoke: ingest not acknowledged\n");
    return 1;
  }
  const auto decoded =
      dist::decode_ingest_ack(ack.payload.data(), ack.payload.size());
  if (decoded.statuses.size() != 1 ||
      decoded.statuses[0] != dist::FrameStatus::kAccepted) {
    std::fprintf(stderr, "smoke: frame not accepted\n");
    return 1;
  }

  dist::SnapshotReq req;  // empty slot list = all slots
  conn.send_msg(MsgType::kSnapshotReq, dist::encode_snapshot_req(req),
                deadline);
  const dist::Message snap = conn.recv_msg(deadline);
  if (snap.type != MsgType::kSnapshotResp) {
    std::fprintf(stderr, "smoke: snapshot refused\n");
    return 1;
  }
  const auto resp =
      dist::decode_snapshot_resp(snap.payload.data(), snap.payload.size());
  if (resp.slots.size() != num_slots) {
    std::fprintf(stderr, "smoke: snapshot returned %zu slots, want %zu\n",
                 resp.slots.size(), num_slots);
    return 1;
  }
  std::printf("smoke OK: HELLO + ingest + %zu-slot snapshot on port %u\n",
              num_slots, worker.port());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string algorithm = "flowlets";
  std::size_t num_slots = 16;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--algorithm" && i + 1 < argc) {
      algorithm = argv[++i];
    } else if (arg == "--slots" && i + 1 < argc) {
      num_slots = static_cast<std::size_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--algorithm NAME] [--slots N] "
                   "[--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  const auto& alg = algorithms::algorithm(algorithm);
  const auto compiled =
      domino::compile(alg.source, *atoms::find_target("banzai-praw"));
  const auto& ft = compiled.machine().fields();
  const wire::WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const wire::WireCodec>(spec, ft);
  auto tx = std::make_shared<const wire::WireCodec>(spec, ft,
                                                    compiled.output_map());

  dist::WorkerConfig cfg;
  cfg.port = port;
  cfg.algorithm = algorithm;
  cfg.num_slots = num_slots;
  cfg.flow_key = {"sport", "dport"};
  dist::WorkerServer worker(compiled.machine(), rx, tx, cfg);

  if (smoke_mode) {
    worker.start();
    const int rc =
        smoke(worker, rx, compiled.machine(), num_slots, cfg.flow_key);
    worker.stop();
    return rc;
  }

  worker.start();
  std::printf("dist_worker: algorithm=%s slots=%zu port=%u\n",
              algorithm.c_str(), num_slots, worker.port());
  std::fflush(stdout);
  worker.stop();  // hand the listener back so serve_forever owns the thread
  worker.serve_forever();
  return 0;
}
