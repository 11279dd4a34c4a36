// Shared helpers for integration tests: drive a compiled Banzai machine and
// the sequential reference interpreter on identical workloads and compare.
#pragma once

#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/fleet.h"
#include "banzai/sim.h"
#include "core/compiler.h"
#include "core/interp.h"

namespace test_util {

struct DifferentialResult {
  int field_mismatches = 0;
  bool state_equal = false;
  std::uint64_t cycles = 0;
  int packets = 0;
};

// Runs `num_packets` of the algorithm's seeded workload through (a) the
// sequential interpreter and (b) the compiled machine under cycle-accurate
// pipelined execution, comparing every user packet field and all state.
inline DifferentialResult run_differential(
    const algorithms::AlgorithmInfo& alg, domino::CompileResult& compiled,
    int num_packets, unsigned seed) {
  DifferentialResult result;
  result.packets = num_packets;

  domino::Interpreter interp(compiled.program);
  auto& machine = compiled.machine();
  banzai::PipelineSim sim(machine);

  // Interpreter pass.
  std::mt19937 rng(seed);
  std::vector<std::vector<banzai::Value>> expected;
  for (int i = 0; i < num_packets; ++i) {
    std::map<std::string, banzai::Value> fields;
    alg.workload(rng, i, fields);
    auto pkt = interp.make_packet();
    for (const auto& [k, v] : fields)
      if (interp.fields().try_id_of(k).has_value()) interp.set(pkt, k, v);
    interp.run(pkt);
    std::vector<banzai::Value> row;
    for (const auto& f : compiled.program.packet_fields)
      row.push_back(interp.get(pkt, f.name));
    expected.push_back(std::move(row));
  }

  // Pipelined machine pass on the identical workload.
  std::mt19937 rng2(seed);
  for (int i = 0; i < num_packets; ++i) {
    std::map<std::string, banzai::Value> fields;
    alg.workload(rng2, i, fields);
    banzai::Packet pkt(machine.fields().size());
    for (const auto& [k, v] : fields)
      if (machine.fields().try_id_of(k).has_value())
        pkt.set(machine.fields().id_of(k), v);
    sim.enqueue(pkt);
  }
  sim.drain();
  result.cycles = sim.stats().cycles;

  for (int i = 0; i < num_packets; ++i) {
    std::size_t j = 0;
    for (const auto& f : compiled.program.packet_fields) {
      const auto& final_name = compiled.output_map().count(f.name)
                                   ? compiled.output_map().at(f.name)
                                   : f.name;
      const auto id = machine.fields().id_of(final_name);
      if (sim.egress()[static_cast<std::size_t>(i)].get(id) !=
          expected[static_cast<std::size_t>(i)][j])
        ++result.field_mismatches;
      ++j;
    }
  }
  result.state_equal = interp.state() == machine.state();
  return result;
}

// Runs a whole trace through `core` and returns its egress in trace order.
// The trace is partitioned stably by shard, so every slot sees its packets
// in arrival order; each shard drains in one ShardCore::drain call, on its
// own thread when `parallel` is set (drains of distinct shards may run
// concurrently, the core's thread-safety contract).
inline std::vector<banzai::Packet> drain_trace(
    banzai::ShardCore& core, const std::vector<banzai::Packet>& trace,
    bool parallel) {
  struct Part {
    std::vector<std::size_t> pos, slots;
    std::vector<banzai::Packet> pkts, out;
  };
  std::vector<Part> parts(core.num_shards());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t slot = core.slot_of(trace[i]);
    Part& p = parts[slot % core.num_shards()];
    p.pos.push_back(i);
    p.slots.push_back(slot);
    p.pkts.push_back(trace[i]);
  }
  auto drain_shard = [&](std::size_t s) {
    Part& p = parts[s];
    p.out.resize(p.pkts.size());
    core.drain(s, p.slots.data(), p.pkts.data(), p.pkts.size(), p.out.data());
  };
  if (parallel) {
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < parts.size(); ++s)
      workers.emplace_back(drain_shard, s);
    for (std::thread& w : workers) w.join();
  } else {
    for (std::size_t s = 0; s < parts.size(); ++s) drain_shard(s);
  }
  std::vector<banzai::Packet> egress(trace.size());
  for (Part& p : parts)
    for (std::size_t k = 0; k < p.pos.size(); ++k)
      egress[p.pos[k]] = std::move(p.out[k]);
  return egress;
}

// The least expressive paper target that accepts `source`, if any.
inline std::optional<atoms::BanzaiTarget> least_target(
    const std::string& source) {
  for (const auto& t : atoms::paper_targets()) {
    try {
      domino::compile(source, t);
      return t;
    } catch (const domino::CompileError&) {
    }
  }
  return std::nullopt;
}

}  // namespace test_util
