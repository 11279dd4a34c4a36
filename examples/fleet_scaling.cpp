// Scale one compiled packet transaction across a fleet of Banzai replicas.
//
// Compiles the paper's flowlet-switching example, stands up a 4-shard
// ShardCore partitioned by flow hash, pushes a Zipf-skewed trace through it,
// and checks every shard against a single reference machine fed the same
// sub-trace.
//
//   $ ./build/examples/fleet_scaling
#include <cstdio>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/fleet.h"
#include "core/compiler.h"
#include "sim/tracegen.h"

int main() {
  const auto& alg = algorithms::algorithm("flowlets");
  auto target = *atoms::find_target("banzai-praw");
  domino::CompileResult compiled = domino::compile(alg.source, target);
  const auto& ft = compiled.machine().fields();

  // A bursty, heavy-tailed trace: 64 flows, Zipfian popularity.
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 20000;
  cfg.num_flows = 64;
  cfg.zipf_skew = 1.3;
  cfg.seed = 17;
  std::vector<banzai::Packet> trace;
  for (const auto& tp : netsim::generate_flow_trace(cfg)) {
    banzai::Packet p(ft.size());
    p.set(ft.id_of("sport"), 1000 + tp.flow_id);
    p.set(ft.id_of("dport"), 80);
    p.set(ft.id_of("arrival"), static_cast<banzai::Value>(tp.arrival));
    trace.push_back(std::move(p));
  }

  // One slot replica per shard, 256-packet batches, keyed on the flow.
  const std::size_t kShards = 4;
  banzai::ShardCore core(compiled.machine(), kShards, kShards, 256,
                         {ft.id_of("sport"), ft.id_of("dport")});
  std::printf("%zu packets over %zu shards:\n", trace.size(), kShards);

  bool all_ok = true;
  for (std::size_t s = 0; s < kShards; ++s) {
    // This shard's packets, in arrival order, drained in one call.
    std::vector<std::size_t> slots;
    std::vector<banzai::Packet> in;
    for (const banzai::Packet& p : trace) {
      const std::size_t slot = core.slot_of(p);
      if (slot % kShards != s) continue;
      slots.push_back(slot);
      in.push_back(p);
    }
    const std::vector<banzai::Packet> sub_trace = in;
    std::vector<banzai::Packet> out(in.size());
    core.drain(s, slots.data(), in.data(), in.size(), out.data());

    // Reference: a lone machine serving exactly this shard's packets.
    banzai::Machine reference = compiled.machine().clone();
    bool ok = true;
    for (std::size_t i = 0; i < sub_trace.size(); ++i)
      if (!(out[i] == reference.process(sub_trace[i]))) ok = false;
    ok = ok && core.slot_machine(s).state() == reference.state();
    all_ok = all_ok && ok;
    std::printf("  shard %zu: %6zu packets — %s\n", s, out.size(),
                ok ? "matches single-machine reference" : "MISMATCH");
  }
  std::printf("%s\n", all_ok ? "shards == single machine, per flow"
                             : "DIVERGENCE DETECTED");
  return all_ok ? 0 : 1;
}
